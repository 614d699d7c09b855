"""The system under test, as one child process.

``python3 -m bench.sut --offers N --clients C [--fig6] [--trace]`` builds,
on ephemeral loopback ports, a front ``TraderService`` over a
``ShardRouter`` that reaches four shard primaries (one replica each)
through ``RemoteShardBackend`` — every node its own ``RpcServer`` on its
own ``TcpTransport`` — preloads the population, and prints **one JSON
ready line**.  After that it answers one-line JSON commands on stdin
(``stats``, ``dump``) with one JSON line each, and shuts down when stdin
reaches EOF, so it cannot outlive the load generator that spawned it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from typing import Any, Dict, List, Optional

from bench import config, trace

from repro.core import BrowserService, make_tradable
from repro.naming.nameserver import NameServerService
from repro.rpc.client import RpcClient
from repro.rpc.server import RpcServer
from repro.rpc.transport import TcpTransport
from repro.services.car_rental import make_car_rental_sid, start_car_rental
from repro.telemetry.metrics import METRICS
from repro.trader import constraints
from repro.trader.sharding import (
    RemoteShardBackend,
    ShardReplicationService,
    ShardRouter,
    TraderShard,
)
from repro.trader.trader import TraderClient, TraderService


class Fleet:
    """Everything the SUT process hosts; ``close`` releases every socket."""

    def __init__(self) -> None:
        self.transports: List[Any] = []
        self.servers: List[Any] = []
        self.primaries: Dict[str, Any] = {}
        self.replicas: Dict[str, Any] = {}
        self.front_address = None
        self.names_address = None

    def node(self):
        transport = TcpTransport()
        server = RpcServer(transport)
        self.transports.append(transport)
        self.servers.append(server)
        return transport, server

    def build_trader(self, offers: int) -> Dict[str, Any]:
        front_transport, front_server = self.node()
        router = ShardRouter(
            router_id="front",
            offer_prefix=config.PREFIX,
            clock=front_transport.now,
            fanout_workers=1,
        )
        backend_client = RpcClient(front_transport, timeout=config.CALL_TIMEOUT, retries=0)
        replica_addresses = {}
        primary_transports = {}
        for shard_id in config.SHARD_IDS:
            nodes = {}
            for role in ("primary", "replica"):
                transport, server = self.node()
                shard = TraderShard(
                    f"front/{shard_id}" + ("" if role == "primary" else "-r1"),
                    offer_prefix=config.PREFIX,
                    role=role,
                )
                TraderService(server, trader=shard, now=transport.now)
                ShardReplicationService(server, shard, now=transport.now)
                nodes[role] = (transport, shard)
            primary_transports[shard_id], primary = nodes["primary"]
            replica_transport, replica = nodes["replica"]
            self.primaries[shard_id], self.replicas[shard_id] = primary, replica
            replica_addresses[shard_id] = replica_transport.local_address
            # Preload pushes deltas in-process (the wire path would take
            # ~10x longer); the RPC sink replaces this one below, before
            # the ready line.
            primary.attach_replica(replica.shard_id, replica.apply_delta)
            router.add_shard(
                shard_id,
                RemoteShardBackend(backend_client, primary_transports[shard_id].local_address),
                [RemoteShardBackend(backend_client, replica_transport.local_address)],
            )
        TraderService(front_server, trader=router, now=front_transport.now)
        self.front_address = front_transport.local_address

        router.add_type(config.rental_type(config.SUPERTYPE))
        for leaf in config.LEAVES:
            router.add_type(config.rental_type(leaf))
        placement = {leaf: router.effective_owner(leaf) for leaf in config.LEAVES}
        if set(placement.values()) != set(config.SHARD_IDS):
            raise SystemExit(f"placement leaves a shard empty: {placement}")

        started = time.perf_counter()
        now = front_transport.now()
        for leaf, ref, properties in config.preload(offers):
            self.primaries[placement[leaf]].export(
                leaf, ref, properties, now, lease_seconds=config.LEASE_SECONDS
            )
        preload_s = time.perf_counter() - started

        for shard_id, primary in self.primaries.items():
            pusher = RpcClient(
                primary_transports[shard_id], timeout=config.CALL_TIMEOUT, retries=0
            )
            sink = RemoteShardBackend(pusher, replica_addresses[shard_id])
            primary.attach_replica(self.replicas[shard_id].shard_id, sink.apply_delta)
        return {"placement": placement, "preload_s": preload_s}

    def build_fig6(self, clients: int) -> None:
        """Name server, browser and one car-rental app server per client
        (the example service keeps one selection per instance)."""
        _, names_server = self.node()
        names = NameServerService(names_server)
        _, browser_server = self.node()
        browser = BrowserService(browser_server)
        admin_transport = TcpTransport()
        self.transports.append(admin_transport)
        trader = TraderClient(
            RpcClient(admin_transport, timeout=config.CALL_TIMEOUT, retries=0),
            self.front_address,
        )
        for index in range(clients):
            _, app_server = self.node()
            sid = make_car_rental_sid(
                name=f"CarRental{index}", average_milage=12000 + index
            )
            rental = start_car_rental(app_server, sid=sid)
            # thousands of bookings per run: the fleet must not run dry
            rental.implementation.fleet = {model: 10**9 for model in rental.implementation.fleet}
            browser.register_local(rental)
            make_tradable(rental.sid, rental.ref, trader)
        names.registry.bind("cosm/browser", browser.ref.to_wire())
        self.names_address = names.address

    def stats(self) -> Dict[str, Any]:
        cache = constraints._compile.cache_info()
        return {
            "counters": METRICS.snapshot()["counters"],
            "shed": sum(server.calls_shed for server in self.servers),
            "replay_hits": sum(server.duplicates_suppressed for server in self.servers),
            "constraint_cache": {"hits": cache.hits, "misses": cache.misses},
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "shards": {
                shard_id: {
                    "primary": self.primaries[shard_id].status(),
                    "replica": self.replicas[shard_id].status(),
                }
                for shard_id in self.primaries
            },
        }

    def close(self) -> None:
        for transport in self.transports:
            transport.close()


def _reply(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.sut")
    parser.add_argument("--offers", type=int, default=config.POPULATION)
    parser.add_argument("--clients", type=int, default=config.CLIENTS)
    parser.add_argument("--fig6", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        recorder = trace.Recorder()
        recorder.enabled = False  # until the fleet is built and preloaded
        trace.install(recorder)

    fleet = Fleet()
    try:
        started = time.perf_counter()
        built = fleet.build_trader(args.offers)
        if args.fig6:
            fleet.build_fig6(args.clients)
        # The population is long-lived: keep the collector from walking
        # it (and stalling a request) every time the young heap fills.
        gc.collect()
        gc.freeze()
        if recorder is not None:
            recorder.enabled = True
        _reply(
            {
                "ready": True,
                "front": list(fleet.front_address),
                "names": list(fleet.names_address) if fleet.names_address else None,
                "placement": built["placement"],
                "preload_s": built["preload_s"],
                "build_s": time.perf_counter() - started,
            }
        )
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "stats":
                reply = fleet.stats()
                reply["counts"] = dict(recorder.counts) if recorder is not None else {}
                _reply(reply)
            elif command["cmd"] == "dump":
                since = command.get("since", 0.0)
                spans = recorder.dump("sut", since) if recorder is not None else []
                trace.write_spans(command["path"], spans)
                _reply({"spans": len(spans)})
            else:
                _reply({"error": f"unknown command {command['cmd']!r}"})
    finally:
        fleet.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
