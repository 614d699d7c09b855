"""A hotel booking service with reservation semantics.

Built for the activity-management extension: hosted on a
:class:`~repro.activity.participant.TransactionalServiceRuntime`, its
rooms are *reserved* at prepare time and only consumed at commit, so a
trip activity can book a hotel and a flight atomically.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict

from repro.activity.participant import TransactionalServiceRuntime
from repro.rpc.server import RpcServer
from repro.sidl.builder import load_service_description

HOTEL_SIDL = """
module HotelBooking {
  typedef RoomClass_t enum { SINGLE, DOUBLE, SUITE };
  typedef Stay_t struct {
    RoomClass_t room;
    string arrival;
    long nights;
  };
  typedef Booking_t struct {
    long confirmation;
    float total;
  };
  interface COSM_Operations {
    float Quote(in Stay_t stay);
    Booking_t BookRoom(in Stay_t stay);
    boolean CancelRoom(in long confirmation);
  };
  module COSM_TraderExport {
    const long ServiceID = 4720;
    const string TOD = "HotelBooking";
    const float RatePerNight = 120.0;
    const string City = "Hamburg";
  };
  module COSM_Annotations {
    annotation BookRoom "Book a room; participates in activities.";
  };
};
"""


class HotelImpl:
    """Room inventory with two-phase reservations."""

    _confirmations = itertools.count(5000)

    def __init__(self) -> None:
        self.rate_per_night = 120.0
        self.rooms = {"SINGLE": 5, "DOUBLE": 3, "SUITE": 1}
        self._held: Dict[str, int] = {}
        self.bookings: Dict[int, Dict[str, Any]] = {}

    # -- ordinary operations -------------------------------------------------

    def Quote(self, stay: Dict[str, Any]) -> float:
        return self.rate_per_night * max(1, stay["nights"])

    def BookRoom(self, stay: Dict[str, Any]) -> Dict[str, Any]:
        room = stay["room"]
        held = self._held.get(room, 0)
        if held > 0:
            # consuming a reservation made at prepare time
            self._held[room] = held - 1
        elif self.rooms.get(room, 0) > 0:
            self.rooms[room] -= 1
        else:
            raise ValueError(f"no {room} room left")
        confirmation = next(self._confirmations)
        self.bookings[confirmation] = dict(stay)
        return {"confirmation": confirmation, "total": self.Quote(stay)}

    def CancelRoom(self, confirmation: int) -> bool:
        stay = self.bookings.pop(confirmation, None)
        if stay is None:
            return False
        self.rooms[stay["room"]] = self.rooms.get(stay["room"], 0) + 1
        return True

    # -- reservation protocol (activity participation) --------------------------

    def reserve(self, operation: str, arguments: Dict[str, Any]) -> bool:
        """Hold a room for a staged BookRoom; other operations need none."""
        if operation != "BookRoom":
            return True
        room = arguments["stay"]["room"]
        if self.rooms.get(room, 0) <= 0:
            return False
        self.rooms[room] -= 1
        self._held[room] = self._held.get(room, 0) + 1
        return True

    def release(self, operation: str, arguments: Dict[str, Any]) -> None:
        if operation != "BookRoom":
            return
        room = arguments["stay"]["room"]
        if self._held.get(room, 0) > 0:
            self._held[room] -= 1
            self.rooms[room] = self.rooms.get(room, 0) + 1


def start_hotel(
    server: RpcServer, **runtime_options: Any
) -> TransactionalServiceRuntime:
    sid = load_service_description(HOTEL_SIDL)
    return TransactionalServiceRuntime(server, sid, HotelImpl(), **runtime_options)
