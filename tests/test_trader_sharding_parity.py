"""Sharding parity: a partitioned trader is indistinguishable from one trader.

One deterministic workload script — type registration (including a
subtype), a spread of exports with leases, every preference flavour of
import, then MODIFY/WITHDRAW/RENEW and the re-imports that observe them
— runs against four backends behind the *same* ``TraderService`` wire
surface:

* a bare :class:`~repro.trader.trader.LocalTrader`,
* a :class:`~repro.trader.sharding.router.ShardRouter` over one shard,
* a router over four shards (each with a warm replica),
* a router over four shard primaries that each run on their own
  ``RpcServer`` behind a :class:`RemoteShardBackend` — the only flavour
  in which a single owner's IMPORT reply is relayed still encoded.

through the :class:`TraderClient` stub.  All four outcome maps —
minted offer ids, ranked import results, renew leases, ack booleans —
must be *identical*: sharding is an implementation detail the wire
surface must not leak.
"""

from __future__ import annotations

import pytest

from repro.naming.refs import ServiceRef
from repro.net import SimNetwork
from repro.net.endpoints import Address
from repro.net.latency import LanWanLatency
from repro.rpc.client import RpcClient
from repro.rpc.codec import CODECS
from repro.rpc.server import RpcServer
from repro.rpc.transport import SimTransport
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType, STRING
from repro.trader.errors import ConstraintSyntaxError, TraderError
from repro.trader.service_types import ServiceType
from repro.trader.sharding import (
    RemoteShardBackend,
    ShardReplicationService,
    ShardRouter,
    TraderShard,
    build_local_router,
)
from repro.trader.trader import (
    _PROC_IMPORT,
    TRADER_PROGRAM,
    ImportRequest,
    LocalTrader,
    TraderClient,
    TraderService,
)

BACKENDS = ("bare", "router1", "router4", "remote4")
SHARD_IDS = ("s0", "s1", "s2", "s3")
CLIENTS = ("sync",)  # the TraderClient stub

TIE_EXPORTS = ("TieB", "TieA", "TieB", "TieA", "TieBase", "TieB")
TIE_PREFERENCES = ("min ChargePerDay", "max ChargePerDay")
TIE_BOUNDS = (0, 1, 2, 3, 5)  # 0 = unbounded

#: Imports no backend may answer: the importer's own mistake has to come
#: back as the same typed fault whether or not the trader is sharded.
MALFORMED = {
    "constraint": ImportRequest("CarRentalService", "ChargePerDay <"),
    "preference": ImportRequest("CarRentalService", "", "cheapest"),
    "both_bounded": ImportRequest("CarRentalService", "and", "min", max_matches=2),
}


def rental_type(name="CarRentalService", supers=()):
    return ServiceType(
        name,
        InterfaceType("I", [OperationType("SelectCar", [], LONG)]),
        [("ChargePerDay", DOUBLE), ("City", STRING), ("Seats", LONG)],
        super_types=list(supers),
    )


def make_backend(flavour, net=None):
    """The trader the service wraps — all flavours share prefix and seed."""
    if flavour == "bare":
        return LocalTrader("bare", offer_prefix="m", seed=0, fanout_workers=1)
    if flavour == "remote4":
        return remote_router(net or network())
    shard_ids = ["s0"] if flavour == "router1" else list(SHARD_IDS)
    return build_local_router(
        shard_ids, replicas=1, router_id=flavour, offer_prefix="m", seed=0
    )


def network():
    """Client ↔ trader hops cost 1 ms of virtual time; the hops between a
    router and its shards, all on the ``fleet`` site, cost none — so a
    remote shard stamps a lease at the instant the bare trader would."""
    return SimNetwork(latency=LanWanLatency(lan=0.0, wan=0.001), seed=1994)


def remote_router(net):
    """Four shard primaries, each a node of its own on ``net``."""
    router = ShardRouter(router_id="remote4", offer_prefix="m", seed=0)
    client = RpcClient(SimTransport(net, "router.fleet"), timeout=1.0, retries=3)
    for shard_id in SHARD_IDS:
        server = RpcServer(SimTransport(net, f"{shard_id}.fleet"))
        shard = TraderShard(f"remote4/{shard_id}", offer_prefix="m", seed=0)
        TraderService(server, trader=shard)
        ShardReplicationService(server, shard)
        router.add_shard(shard_id, RemoteShardBackend(client, server.address))
    return router


class SyncDriver:
    """The workload's view of a trader, via the blocking stub."""

    def __init__(self, net, address):
        self._stub = TraderClient(
            RpcClient(SimTransport(net, "cli"), timeout=1.0, retries=3), address
        )

    def add_type(self, service_type):
        return self._stub.add_type(service_type)

    def export(self, service_type, ref, properties, **kw):
        return self._stub.export(service_type, ref, properties, **kw)

    def import_ids(self, request):
        return [offer.offer_id for offer in self._stub.import_(request)]

    def modify(self, offer_id, properties):
        return self._stub.modify(offer_id, properties)

    def withdraw(self, offer_id):
        return self._stub.withdraw(offer_id)

    def renew(self, offer_id):
        return self._stub.renew(offer_id)

    def offer_ids(self):
        return sorted(offer.offer_id for offer in self._stub.list_offers())


def ref(name):
    return ServiceRef.create(name, Address("provider", 4711), 1)


def answer_or_fault(call, *args):
    """The call's answer, or the typed error it raised, by class name."""
    try:
        return call(*args)
    except TraderError as fault:
        return f"fault:{type(fault).__name__}"


def drive(driver):
    """The scripted workload; returns the full observable outcome map."""
    outcome = {}
    driver.add_type(rental_type())
    driver.add_type(rental_type("LuxuryRental", supers=["CarRentalService"]))
    driver.add_type(rental_type("BikeRental"))

    exports = [
        ("CarRentalService", "hh-cheap", {"ChargePerDay": 19.0, "City": "HH", "Seats": 4}),
        ("CarRentalService", "hh-mid", {"ChargePerDay": 42.0, "City": "HH", "Seats": 4}),
        ("CarRentalService", "hh-steep", {"ChargePerDay": 97.0, "City": "HH", "Seats": 2}),
        ("CarRentalService", "b-cheap", {"ChargePerDay": 21.0, "City": "B", "Seats": 5}),
        ("CarRentalService", "b-mid", {"ChargePerDay": 55.0, "City": "B", "Seats": 4}),
        ("LuxuryRental", "lux-1", {"ChargePerDay": 120.0, "City": "HH", "Seats": 2}),
        ("LuxuryRental", "lux-2", {"ChargePerDay": 29.0, "City": "M", "Seats": 4}),
        ("BikeRental", "bike-1", {"ChargePerDay": 5.0, "City": "HH", "Seats": 1}),
        ("BikeRental", "bike-2", {"ChargePerDay": 7.0, "City": "B", "Seats": 1}),
        ("CarRentalService", "hh-late", {"ChargePerDay": 23.0, "City": "HH", "Seats": 7}),
        ("LuxuryRental", "lux-3", {"ChargePerDay": 84.0, "City": "HH", "Seats": 4}),
        ("CarRentalService", "b-late", {"ChargePerDay": 33.0, "City": "B", "Seats": 4}),
    ]
    ids = {}
    for index, (type_name, name, properties) in enumerate(exports):
        lease = 60.0 + index if index % 3 == 0 else None
        ids[name] = driver.export(
            type_name, ref(name), properties, lease_seconds=lease
        )
    outcome["export_ids"] = dict(ids)

    queries = {
        "range_min": ImportRequest(
            "CarRentalService", "ChargePerDay < 30", "min ChargePerDay"
        ),
        "range_pair": ImportRequest(
            "CarRentalService", "ChargePerDay >= 20 and ChargePerDay <= 60"
        ),
        "eq_max": ImportRequest(
            "CarRentalService", "City == 'HH'", "max ChargePerDay", max_matches=2
        ),
        "first": ImportRequest("CarRentalService", "Seats >= 4", "first"),
        "subtype_all": ImportRequest("CarRentalService"),
        "subtype_min": ImportRequest("CarRentalService", "", "min ChargePerDay"),
        "newest": ImportRequest("LuxuryRental", "", "newest"),
        "random": ImportRequest("CarRentalService", "City == 'B'", "random"),
        "bike": ImportRequest("BikeRental", "ChargePerDay > 4", "max ChargePerDay"),
    }
    for label, request in queries.items():
        outcome[f"q1:{label}"] = driver.import_ids(request)

    # Mutations a stale index or a mis-routed shard would get wrong.
    outcome["modify"] = driver.modify(
        ids["hh-steep"], {"ChargePerDay": 9.0, "City": "HH", "Seats": 2}
    )
    outcome["withdraw"] = driver.withdraw(ids["b-cheap"])
    outcome["renew"] = driver.renew(ids["hh-cheap"])
    # A stale id is the caller's mistake, not an outage of the shard owning
    # its type: the same typed fault, and the shard keeps serving.
    for op in ("withdraw", "renew"):
        outcome[f"{op}:stale"] = answer_or_fault(
            getattr(driver, op), "m:CarRentalService:99"
        )
    outcome["random_again"] = driver.import_ids(queries["random"])

    for label, request in queries.items():
        outcome[f"q2:{label}"] = driver.import_ids(request)
    outcome["offer_ids"] = driver.offer_ids()

    for label, request in MALFORMED.items():
        outcome[f"malformed:{label}"] = answer_or_fault(driver.import_ids, request)
    outcome["unknown_type"] = driver.import_ids(ImportRequest("Ghost", "Seats >= 4"))

    # Cross-type ties: leaves of one supertype, exports interleaved, one
    # rank value for all — a bounded answer has to be the prefix of the
    # unbounded one whichever index path (or shard) produced it.
    driver.add_type(rental_type("TieBase"))
    driver.add_type(rental_type("TieA", supers=["TieBase"]))
    driver.add_type(rental_type("TieB", supers=["TieBase"]))
    for index, leaf in enumerate(TIE_EXPORTS):
        driver.export(
            leaf, ref(f"tie-{index}"), {"ChargePerDay": 5.0, "City": "HH", "Seats": 4}
        )
    for preference in TIE_PREFERENCES:
        for bound in TIE_BOUNDS:
            outcome[f"tie:{preference}:{bound}"] = driver.import_ids(
                ImportRequest("TieBase", "", preference, max_matches=bound)
            )
    return outcome


def run(backend_flavour):
    net = network()
    service = TraderService(
        RpcServer(SimTransport(net, "trader")),
        trader=make_backend(backend_flavour, net),
    )
    return drive(SyncDriver(net, service.address))


@pytest.fixture(scope="module")
def outcomes():
    return {
        (backend, client): run(backend)
        for backend in BACKENDS
        for client in CLIENTS
    }


def test_workload_is_not_trivial(outcomes):
    baseline = outcomes[("bare", "sync")]
    assert len(baseline["export_ids"]) == 12
    assert baseline["q1:range_min"]  # ranked results exist
    assert baseline["q1:eq_max"] != baseline["q2:eq_max"]  # mutations observed
    assert baseline["withdraw"] is True
    assert isinstance(baseline["renew"], float)
    assert baseline["withdraw:stale"] == baseline["renew:stale"] == "fault:OfferNotFound"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("client", CLIENTS)
def test_every_backend_and_client_matches_the_bare_trader(outcomes, backend, client):
    assert outcomes[(backend, client)] == outcomes[("bare", "sync")]


@pytest.mark.parametrize("backend", BACKENDS)
def test_bounded_tie_answers_are_prefixes_of_the_unbounded_one(outcomes, backend):
    """The sorted-index path (bounded) and the general path (unbounded)
    rank cross-type ties alike."""
    outcome = outcomes[(backend, "sync")]
    for preference in TIE_PREFERENCES:
        unbounded = outcome[f"tie:{preference}:0"]
        assert len(unbounded) == len(TIE_EXPORTS)
        for bound in TIE_BOUNDS[1:]:
            assert outcome[f"tie:{preference}:{bound}"] == unbounded[:bound], (
                preference, bound,
            )


@pytest.mark.parametrize("backend", BACKENDS)
def test_malformed_imports_raise_alike_and_unknown_types_answer_empty(outcomes, backend):
    """A constraint or preference that does not parse is a typed fault on
    the wire and the same exception in-process, sharded or not; only the
    documented peer case — a type nobody registered — answers ``[]``."""
    for client in CLIENTS:
        outcome = outcomes[(backend, client)]
        for label in MALFORMED:
            assert outcome[f"malformed:{label}"] == "fault:ConstraintSyntaxError"
        assert outcome["unknown_type"] == []
    trader = make_backend(backend)
    trader.add_type(rental_type())
    for request in MALFORMED.values():
        with pytest.raises(ConstraintSyntaxError):
            trader.import_(request)
        with pytest.raises(ConstraintSyntaxError):
            trader.import_wire(request.to_wire())


def test_offer_ids_are_placement_independent(outcomes):
    """Per-type counters make minted ids identical however offers shard."""
    reference = outcomes[("bare", "sync")]["export_ids"]
    for key, outcome in outcomes.items():
        assert outcome["export_ids"] == reference, key
    assert reference["hh-cheap"] == "m:CarRentalService:1"
    assert reference["lux-1"] == "m:LuxuryRental:1"


def test_four_shard_router_actually_partitions():
    """Guard against the parity matrix degenerating to one shard."""
    router = make_backend("router4")
    router.add_type(rental_type())
    router.add_type(rental_type("LuxuryRental", supers=["CarRentalService"]))
    router.add_type(rental_type("BikeRental"))
    owners = {
        name: router.map.owner(name)
        for name in ("CarRentalService", "LuxuryRental", "BikeRental")
    }
    assert len(set(owners.values())) > 1


def test_single_owner_import_costs_one_encode_and_one_decode(monkeypatch):
    """The shard encodes the answer once and the importer decodes it once;
    the router, relaying a single owner's top-K, runs no codec pass."""
    net = network()
    router = remote_router(net)
    service = TraderService(RpcServer(SimTransport(net, "trader")), trader=router)
    driver = SyncDriver(net, service.address)
    driver.add_type(rental_type("BikeRental"))
    for index in range(3):
        driver.export(
            "BikeRental", ref(f"bike-{index}"),
            {"ChargePerDay": 5.0 + index, "City": "HH", "Seats": 1},
        )
    codec = CODECS.lookup(TRADER_PROGRAM, 1, _PROC_IMPORT, "result")
    passes = []
    for method in ("encode", "decode"):
        def counted(value, _method=method, _inner=getattr(codec, method)):
            passes.append(_method)
            return _inner(value)

        monkeypatch.setattr(codec, method, counted)
    request = ImportRequest("BikeRental", "", "max ChargePerDay", max_matches=2)
    assert driver.import_ids(request) == ["m:BikeRental:3", "m:BikeRental:2"]
    assert passes == ["encode", "decode"]
    # A multi-owner or unbounded import still decodes at the router.
    passes.clear()
    driver.import_ids(ImportRequest("BikeRental"))
    assert passes == ["encode", "decode", "encode", "decode"]
