"""The car rental service — the paper's running example.

Two SIDL sources are provided:

* :data:`PAPER_LISTING_SIDL` — the §4.1 listing as printed, completed
  only where the paper itself elides ("...") or references types it never
  declares (``SelectCarReturn_t`` etc.); used by the listing benchmarks,
* :data:`CAR_RENTAL_SIDL` — the canonical full description used by the
  examples and tests, with the §3.1 FSM (INIT/SELECTED) and §2.1
  attributes (CarModel, AverageMilage, ChargePerDay, ChargeCurrency).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

from repro.core.service_runtime import ServiceRuntime
from repro.rpc.server import RpcServer
from repro.sidl.builder import load_service_description
from repro.sidl.sid import ServiceDescription

PAPER_LISTING_SIDL = """
module CarRentalService {
  // the base part:
  typedef CarModel_t enum { AUDI, FIAT-Uno, VW-Golf };
  typedef SelectCar_t struct {
    enum CarModel;
    string BookingDate;
  };
  // Completions for types the paper's listing leaves undeclared:
  typedef SelectCarReturn_t struct { boolean available; float charge; };
  typedef BookCarReturn_t struct { long confirmation; };
  interface COSM_Operations {
    SelectCarReturn_t SelectCar ( [in] SelectCar_t selection );
    BookCarReturn_t BookCar ( );
  };
  // the extension:
  module COSM_TraderExport {
    const long ServiceID = 4711;
    const string TOD = "CarRentalService";
    const CarModel_t Model = FIAT-Uno;
    const float ChargePerDay = 80;
    const ChargeCurrency_t ChargeCurrency = USD;
  };
};
"""

CAR_RENTAL_SIDL = """
module CarRentalService {
  typedef CarModel_t enum { AUDI, FIAT-Uno, VW-Golf };
  typedef ChargeCurrency_t enum { USD, DEM, FF, SFR, GBP };
  typedef SelectCar_t struct {
    CarModel_t CarModel;
    string BookingDate;
    long Days;
  };
  typedef SelectCarReturn_t struct {
    boolean available;
    float charge;
    ChargeCurrency_t currency;
  };
  typedef BookCarReturn_t struct {
    long confirmation;
    string pickup_station;
  };
  interface COSM_Operations {
    SelectCarReturn_t SelectCar(in SelectCar_t selection);
    BookCarReturn_t BookCar();
  };
  module COSM_TraderExport {
    const long ServiceID = 4711;
    const string TOD = "CarRentalService";
    const CarModel_t CarModel = FIAT-Uno;
    const long AverageMilage = 12000;
    const float ChargePerDay = 80.0;
    const ChargeCurrency_t ChargeCurrency = USD;
  };
  module COSM_FSM {
    state INIT, SELECTED;
    initial INIT;
    transition INIT -> SELECTED on SelectCar;
    transition SELECTED -> SELECTED on SelectCar;
    transition SELECTED -> INIT on BookCar;
  };
  module COSM_Annotations {
    annotation SelectCar "Check availability and price of a car model.";
    annotation BookCar "Book the car selected before.";
    annotation CarRentalService "Rents cars at Hamburg airport.";
  };
};
"""


def make_car_rental_sid(
    model: str = "FIAT-Uno",
    charge_per_day: float = 80.0,
    currency: str = "USD",
    average_milage: int = 12000,
    service_id: Optional[int] = None,
    name: str = "CarRentalService",
) -> ServiceDescription:
    """A parameterised car-rental SID, for populating whole markets."""
    sid = load_service_description(CAR_RENTAL_SIDL)
    sid.name = name
    export = dict(sid.trader_export or {})
    export.update(
        CarModel=model,
        ChargePerDay=float(charge_per_day),
        ChargeCurrency=currency,
        AverageMilage=average_milage,
    )
    if service_id is not None:
        export["ServiceID"] = service_id
    sid.trader_export = export
    return sid


class CarRentalImpl:
    """Server behaviour: quote on SelectCar, confirm on BookCar."""

    _confirmations = itertools.count(1000)

    def __init__(
        self,
        charge_per_day: float = 80.0,
        currency: str = "USD",
    ) -> None:
        self.charge_per_day = charge_per_day
        self.currency = currency
        self.fleet = {"AUDI": 3, "FIAT-Uno": 5, "VW-Golf": 2}
        self.pickup_station = "Hamburg Airport"
        self.last_selection: Optional[Dict[str, Any]] = None
        self.bookings = 0

    def SelectCar(self, selection: Dict[str, Any]) -> Dict[str, Any]:
        model = selection["CarModel"]
        days = max(1, selection.get("Days", 1))
        available = self.fleet.get(model, 0) > 0
        self.last_selection = dict(selection) if available else None
        return {
            "available": available,
            "charge": self.charge_per_day * days if available else 0.0,
            "currency": self.currency,
        }

    def BookCar(self) -> Dict[str, Any]:
        if self.last_selection is None:
            # The FSM normally prevents this; unchecked runtimes surface it
            # as a remote fault instead of corrupting state.
            raise ValueError("no car selected")
        model = self.last_selection["CarModel"]
        self.fleet[model] = max(0, self.fleet.get(model, 0) - 1)
        self.last_selection = None
        self.bookings += 1
        return {
            "confirmation": next(self._confirmations),
            "pickup_station": self.pickup_station,
        }


def start_car_rental(
    server: RpcServer,
    sid: Optional[ServiceDescription] = None,
    **runtime_options: Any,
) -> ServiceRuntime:
    """Host a car rental service on an RPC server."""
    sid = sid or load_service_description(CAR_RENTAL_SIDL)
    implementation = CarRentalImpl(
        charge_per_day=(sid.trader_export or {}).get("ChargePerDay", 80.0),
        currency=(sid.trader_export or {}).get("ChargeCurrency", "USD"),
    )
    return ServiceRuntime(server, sid, implementation, **runtime_options)
