"""A flight booking service with seat reservations.

The second leg of the transactional trip example: seats are held at
prepare time and consumed at commit, so an activity can pair a flight
with a hotel room atomically.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict

from repro.activity.participant import TransactionalServiceRuntime
from repro.rpc.server import RpcServer
from repro.sidl.builder import load_service_description

FLIGHTS_SIDL = """
module FlightBooking {
  typedef Leg_t struct {
    string origin;
    string destination;
    string date;
  };
  typedef Ticket_t struct {
    long confirmation;
    string flight_no;
    float fare;
  };
  interface COSM_Operations {
    long SeatsLeft(in Leg_t leg);
    Ticket_t BookSeat(in Leg_t leg);
  };
  module COSM_TraderExport {
    const long ServiceID = 4730;
    const string TOD = "FlightBooking";
    const float BaseFare = 199.0;
  };
  module COSM_Annotations {
    annotation BookSeat "Book one seat; participates in activities.";
  };
};
"""


class FlightsImpl:
    """Per-route seat inventory with two-phase reservations."""

    _confirmations = itertools.count(9000)

    def __init__(self) -> None:
        self.base_fare = 199.0
        self.seats_per_route = 4
        self.seats: Dict[str, int] = {}
        self._held: Dict[str, int] = {}
        self.tickets: Dict[int, Dict[str, Any]] = {}

    @staticmethod
    def _route(leg: Dict[str, Any]) -> str:
        return f"{leg['origin']}->{leg['destination']}@{leg['date']}"

    def _available(self, route: str) -> int:
        return self.seats.setdefault(route, self.seats_per_route)

    def SeatsLeft(self, leg: Dict[str, Any]) -> int:
        return self._available(self._route(leg))

    def BookSeat(self, leg: Dict[str, Any]) -> Dict[str, Any]:
        route = self._route(leg)
        if self._held.get(route, 0) > 0:
            self._held[route] -= 1
        elif self._available(route) > 0:
            self.seats[route] -= 1
        else:
            raise ValueError(f"flight {route} is full")
        confirmation = next(self._confirmations)
        self.tickets[confirmation] = dict(leg)
        return {
            "confirmation": confirmation,
            "flight_no": f"CM{confirmation % 1000:03d}",
            "fare": self.base_fare,
        }

    def reserve(self, operation: str, arguments: Dict[str, Any]) -> bool:
        if operation != "BookSeat":
            return True
        route = self._route(arguments["leg"])
        if self._available(route) <= 0:
            return False
        self.seats[route] -= 1
        self._held[route] = self._held.get(route, 0) + 1
        return True

    def release(self, operation: str, arguments: Dict[str, Any]) -> None:
        if operation != "BookSeat":
            return
        route = self._route(arguments["leg"])
        if self._held.get(route, 0) > 0:
            self._held[route] -= 1
            self.seats[route] = self.seats.get(route, 0) + 1


def start_flights(
    server: RpcServer, **runtime_options: Any
) -> TransactionalServiceRuntime:
    sid = load_service_description(FLIGHTS_SIDL)
    return TransactionalServiceRuntime(server, sid, FlightsImpl(), **runtime_options)
