"""Tests for activity management — the Fig. 6 future-work extension."""

import pytest

from repro.activity import (
    ActivityClient,
    ActivityManager,
    ActivityManagerService,
    ActivityOutcome,
)
from repro.core.generic_client import GenericClient
from repro.errors import CosmError
from repro.services.flights import start_flights
from repro.services.hotel import start_hotel

STAY = {"room": "DOUBLE", "arrival": "1994-09-01", "nights": 3}
LEG = {"origin": "HAM", "destination": "TXL", "date": "1994-09-01"}


@pytest.fixture
def hotel(make_server):
    return start_hotel(make_server("hotel-host"))


@pytest.fixture
def flights(make_server):
    return start_flights(make_server("flights-host"))


@pytest.fixture
def manager(make_client):
    return ActivityManager(make_client(), timeout=0.5)


# -- the happy path: atomic trip -------------------------------------------------


def test_trip_commits_both_legs(manager, hotel, flights):
    activity = manager.begin("trip")
    activity.add_step(hotel.ref, "BookRoom", {"stay": STAY})
    activity.add_step(flights.ref, "BookSeat", {"leg": LEG})
    assert activity.execute() is ActivityOutcome.COMMITTED
    assert len(hotel.implementation.bookings) == 1
    assert len(flights.implementation.tickets) == 1
    assert hotel.implementation.rooms["DOUBLE"] == 2  # 3 - 1
    # committed results are recorded per transaction on each participant
    results = list(hotel.committed_results.values())[0]
    assert results[0]["operation"] == "BookRoom"
    assert results[0]["result"]["confirmation"] >= 5000


def test_full_flight_aborts_whole_trip(manager, hotel, flights):
    flights.implementation.seats_per_route = 0
    activity = manager.begin("doomed-trip")
    activity.add_step(hotel.ref, "BookRoom", {"stay": STAY})
    activity.add_step(flights.ref, "BookSeat", {"leg": LEG})
    assert activity.execute() is ActivityOutcome.ABORTED
    # the hotel's reservation was released: nothing booked, nothing held
    assert hotel.implementation.bookings == {}
    assert hotel.implementation.rooms["DOUBLE"] == 3
    assert hotel.implementation._held.get("DOUBLE", 0) == 0
    assert flights.implementation.tickets == {}


def test_full_hotel_aborts_whole_trip(manager, hotel, flights):
    hotel.implementation.rooms = {"DOUBLE": 0}
    activity = manager.begin("no-room")
    activity.add_step(hotel.ref, "BookRoom", {"stay": STAY})
    activity.add_step(flights.ref, "BookSeat", {"leg": LEG})
    assert activity.execute() is ActivityOutcome.ABORTED
    assert flights.implementation.SeatsLeft(LEG) == 4  # seat hold released


def test_ill_typed_step_votes_no(manager, hotel):
    activity = manager.begin("bad-args")
    activity.add_step(hotel.ref, "BookRoom", {"stay": {"room": "PENTHOUSE"}})
    assert activity.execute() is ActivityOutcome.ABORTED
    assert hotel.implementation.bookings == {}


def test_unknown_operation_votes_no(manager, hotel):
    activity = manager.begin("bad-op")
    activity.add_step(hotel.ref, "TimeTravel", {})
    assert activity.execute() is ActivityOutcome.ABORTED


def test_multiple_steps_on_one_participant(manager, hotel):
    activity = manager.begin("two-rooms")
    activity.add_step(hotel.ref, "BookRoom", {"stay": STAY})
    activity.add_step(hotel.ref, "BookRoom", {"stay": dict(STAY, room="SINGLE")})
    assert activity.execute() is ActivityOutcome.COMMITTED
    assert len(hotel.implementation.bookings) == 2
    assert len(activity.participants()) == 1


def test_reservation_contention(manager, hotel, flights):
    """Two activities race for the last suite: exactly one commits."""
    hotel.implementation.rooms = {"SUITE": 1}
    suite = {"stay": dict(STAY, room="SUITE")}
    first = manager.begin("first").add_step(hotel.ref, "BookRoom", suite)
    second = manager.begin("second").add_step(hotel.ref, "BookRoom", suite)
    outcomes = {first.execute(), second.execute()}
    assert outcomes == {ActivityOutcome.COMMITTED, ActivityOutcome.ABORTED}
    assert len(hotel.implementation.bookings) == 1


def test_activity_lifecycle_guards(manager, hotel):
    activity = manager.begin("lifecycle")
    with pytest.raises(CosmError):
        activity.execute()  # no steps
    activity.add_step(hotel.ref, "Quote", {"stay": STAY})
    assert activity.execute() is ActivityOutcome.COMMITTED
    with pytest.raises(CosmError):
        activity.execute()  # already executed
    with pytest.raises(CosmError):
        activity.add_step(hotel.ref, "Quote", {"stay": STAY})


def test_unreachable_participant_aborts(manager, hotel, flights, net):
    net.faults.crash("flights-host")
    activity = manager.begin("partitioned")
    activity.add_step(hotel.ref, "BookRoom", {"stay": STAY})
    activity.add_step(flights.ref, "BookSeat", {"leg": LEG})
    assert activity.execute() is ActivityOutcome.ABORTED
    assert hotel.implementation.rooms["DOUBLE"] == 3


# -- transactional runtime stays an ordinary COSM service -----------------------------


def test_transactional_runtime_still_mediates(make_client, hotel):
    generic = GenericClient(make_client())
    binding = generic.bind(hotel.ref)
    assert binding.sid.name == "HotelBooking"
    quote = binding.invoke("Quote", {"stay": STAY})
    assert quote.value == 360.0
    booking = binding.invoke("BookRoom", {"stay": STAY})
    assert booking.value["confirmation"] >= 5000


# -- the networked activity manager service ----------------------------------------------


@pytest.fixture
def remote_manager(make_server, make_client):
    service = ActivityManagerService(make_server("am-host"), make_client())
    client = ActivityClient(make_client(), service.address)
    return service, client


def test_remote_activity_commits(remote_manager, hotel, flights):
    __, client = remote_manager
    activity_id = client.begin("remote-trip")
    assert client.add_step(activity_id, hotel.ref, "BookRoom", {"stay": STAY}) == 1
    assert client.add_step(activity_id, flights.ref, "BookSeat", {"leg": LEG}) == 2
    assert client.status(activity_id)["outcome"] == "open"
    assert client.execute(activity_id) is ActivityOutcome.COMMITTED
    assert client.status(activity_id)["outcome"] == "committed"
    assert len(hotel.implementation.bookings) == 1


def test_remote_activity_aborts(remote_manager, hotel):
    __, client = remote_manager
    hotel.implementation.rooms = {"DOUBLE": 0}
    activity_id = client.begin("remote-fail")
    client.add_step(activity_id, hotel.ref, "BookRoom", {"stay": STAY})
    assert client.execute(activity_id) is ActivityOutcome.ABORTED


def test_remote_unknown_activity_faults(remote_manager):
    from repro.rpc.errors import RemoteFault

    __, client = remote_manager
    with pytest.raises(RemoteFault):
        client.execute("ghost-activity")
