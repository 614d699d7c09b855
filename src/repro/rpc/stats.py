"""Wire-level STATS introspection: ask a live server what it is doing.

The registries of the related work expose their own operational state as
a first-class query interface (the Grid Market Directory ships a status
API next to its publication API; cooperating independent registries must
see each other's health to federate safely).  This module gives every
COSM RPC server the same property: each :class:`~repro.rpc.server.RpcServer`
automatically serves the well-known **stats**
program, whose single procedure returns a versioned snapshot of the
process's observable state:

* server counters (calls handled, duplicates, deadline rejections,
  sheds) and the live admission picture — queue depth, queue capacity,
  in-flight set, reply-cache fill (entries, charged bytes, the byte
  bound, evictions), the admission policy in force;
* the programs the server exports (``prog``/``vers``/procedure names);
* circuit-breaker state per endpoint, trader lease counters, compiled
  codec hit/fallback rates, batching health
  (per-payload reply histogram + per-endpoint queue-depth gauges), and
  the sampling policy with its drop accounting;
* the full :data:`~repro.telemetry.metrics.METRICS` snapshot, so a
  poller can compute anything the summary sections left out.

**Admission bypass.**  A stats probe is most valuable exactly when the
server is drowning — which is when normal admission would shed it (the
probe has no deadline and the queue is full of urgent work).  STATS
calls therefore bypass the admission queue and execute immediately,
rate-limited by a small fixed token bucket (:class:`StatsBudget`)
against the transport clock, so introspection can never *become* the
overload.  Probes beyond the budget are answered ``SHED`` with the
``stats_budget`` stage label.

Everything in the snapshot is built from the tagged-XDR-encodable types
(str/int/float/bool/list/dict), so it round-trips the wire codec
unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.telemetry import sampling
from repro.telemetry.metrics import METRICS

#: Well-known program number for the stats service — next free slot in
#: the 100x00 sequence after ifmgr (100700).  Served automatically by
#: every RpcServer, so any live process answers it.
STATS_PROGRAM = 100800
STATS_VERSION = 1

#: Procedure 1: return the versioned snapshot described above.
PROC_SNAPSHOT = 1

#: Version stamp inside the snapshot itself, independent of the RPC
#: program version: pollers gate field expectations on this.
SNAPSHOT_VERSION = 1

_BREAKER_STATES = {0: "closed", 1: "half-open", 2: "open"}


class StatsBudget:
    """Token bucket bounding admission-bypassing STATS executions.

    ``burst`` probes may land back-to-back; after that they refill at
    ``per_second`` against the transport clock (simulated or wall).
    Deliberately small: a dashboard polls a few times a second at most,
    while anything hammering the stats procedure during overload is
    itself part of the problem and gets ``SHED`` like everyone else.
    """

    def __init__(self, burst: int = 8, per_second: float = 16.0) -> None:
        self.burst = burst
        self.per_second = per_second
        self._tokens = float(burst)
        self._last: Optional[float] = None

    def take(self, now: float) -> bool:
        """Spend one token if available; refills from elapsed time."""
        if self._last is not None and now > self._last:
            self._tokens = min(
                float(self.burst), self._tokens + (now - self._last) * self.per_second
            )
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


def _series_by_label(table: Dict[str, Dict[Any, float]], name: str) -> Dict[str, float]:
    """One metrics series as ``joined-label -> value`` (wire-encodable)."""
    series = table.get(name, {})
    return {"|".join(labels): value for labels, value in series.items()}


def build_snapshot(server: Any) -> Dict[str, Any]:
    """The versioned stats snapshot for ``server`` (duck-typed: anything
    with the RpcServer attribute surface works).  Pure read — never
    raises into the caller's dispatch."""
    transport = server.transport
    address = transport.local_address
    policy = server.admission
    programs: Dict[str, Any] = {}
    for (prog, vers), program in server._programs.items():
        programs[program.name] = {
            "prog": prog,
            "vers": vers,
            "procedures": {str(num): name for num, name in program.procedures().items()},
        }
    gauges = METRICS.gauges("rpc.")
    breakers = {
        "|".join(labels): _BREAKER_STATES.get(int(value), str(value))
        for labels, value in gauges.get("rpc.breaker.state", {}).items()
    }
    sampling_policy = sampling.get_policy()
    snapshot: Dict[str, Any] = {
        "stats_version": SNAPSHOT_VERSION,
        "address": f"{address.host}:{address.port}",
        "now": transport.now(),
        "server": {
            "calls_handled": server.calls_handled,
            "duplicates_suppressed": server.duplicates_suppressed,
            "duplicates_coalesced": server.duplicates_coalesced,
            "deadlines_rejected": server.deadlines_rejected,
            "calls_shed": server.calls_shed,
            "queue_depth": len(server._queue),
            "queue_capacity": server._queue.capacity,
            "in_flight": len(server._in_flight),
            "reply_cache": len(server._reply_cache),
            "reply_cache_charged": server._reply_cache.charged,
            "reply_cache_limit": server._reply_cache.limit,
            "reply_cache_evicted": server._reply_cache.evicted,
            "admission": {
                "shed": policy.shed,
                "defer_while_busy": policy.defer_while_busy,
                "capacity": str(policy.capacity),
                "quantile": policy.quantile,
            },
            "programs": programs,
        },
        "breakers": breakers,
        "leases": {
            "renewed": METRICS.counter_total("trader.offers.renewed"),
            "expired": _series_by_label(
                METRICS.counters("trader.offers.expired"), "trader.offers.expired"
            ),
            "live": _series_by_label(
                METRICS.gauges("trader.offers.live"), "trader.offers.live"
            ),
        },
        "codec": {
            "compiled_hits": METRICS.counter_total("rpc.codec.compiled_hits"),
            "fallbacks": METRICS.counter_total("rpc.codec.fallback"),
        },
        "batching": {
            "replies": METRICS.histogram("rpc.server.batch_replies") or {},
            "queue_depth": _series_by_label(gauges, "rpc.server.queue_depth"),
        },
        "sharding": {
            "map_version": _series_by_label(
                METRICS.gauges("sharding."), "sharding.map_version"
            ),
            "replication_seq": _series_by_label(
                METRICS.gauges("sharding."), "sharding.replication_seq"
            ),
            "routed": _series_by_label(
                METRICS.counters("sharding.routed"), "sharding.routed"
            ),
            "fanout": METRICS.counter_total("sharding.fanout"),
            "failovers": _series_by_label(
                METRICS.counters("sharding.failovers"), "sharding.failovers"
            ),
            "promotions": _series_by_label(
                METRICS.counters("sharding.promotions"), "sharding.promotions"
            ),
            "syncs": METRICS.counter_total("sharding.syncs"),
            "push_failed": METRICS.counter_total("sharding.push_failed"),
            "migration": {
                "phase": _series_by_label(
                    METRICS.gauges("sharding.migration."), "sharding.migration.phase"
                ),
                "offers_copied": METRICS.counter_total(
                    "sharding.migration.offers_copied"
                ),
                "deltas_replayed": METRICS.counter_total(
                    "sharding.migration.deltas_replayed"
                ),
                "forwarded_calls": METRICS.counter_total(
                    "sharding.migration.forwarded_calls"
                ),
            },
        },
        "sampling": {
            "rate": sampling_policy.rate,
            "keep_errors": sampling_policy.keep_errors,
            "spans_sampled_out": METRICS.counter_total("telemetry.spans_sampled_out"),
            "chains_sampled_out": METRICS.counter_total("telemetry.chains_sampled_out"),
            "chains_kept_tail": METRICS.counter_total("telemetry.chains_kept_tail"),
        },
        "metrics": METRICS.snapshot(),
    }
    return snapshot


def fetch(client: Any, destination: Any, **kwargs: Any) -> Dict[str, Any]:
    """Pull one snapshot from the server at ``destination``.

    ``client`` is an :class:`~repro.rpc.client.RpcClient`; keyword
    arguments (``context=``, ``timeout=``) pass through to its ``call``.
    """
    return client.call(destination, STATS_PROGRAM, STATS_VERSION, PROC_SNAPSHOT, **kwargs)


def _parse_endpoint(spec: str) -> Any:
    from repro.net.endpoints import Address

    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected host:port, got {spec!r}")
    return Address(host, int(port))


def render_snapshot(snapshot: Dict[str, Any]) -> str:
    """Human-oriented text rendering used by ``python -m repro stats``."""
    import json

    return json.dumps(snapshot, indent=2, sort_keys=True, default=str)


def main(argv: Any = None) -> int:
    """``python -m repro stats <host:port>`` — one-shot snapshot dump."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro stats",
        description="Fetch one STATS snapshot from a live COSM RPC server.",
    )
    parser.add_argument("endpoint", help="server address as host:port")
    parser.add_argument(
        "--timeout", type=float, default=2.0, help="call timeout in seconds"
    )
    options = parser.parse_args(argv)

    from repro.rpc.client import RpcClient
    from repro.rpc.transport import TcpTransport

    destination = _parse_endpoint(options.endpoint)
    transport = TcpTransport()
    try:
        client = RpcClient(transport, timeout=options.timeout, retries=0)
        snapshot = client.stats(destination)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"stats: {options.endpoint}: {exc}", file=sys.stderr)
        return 1
    finally:
        transport.close()
    print(render_snapshot(snapshot))
    return 0
