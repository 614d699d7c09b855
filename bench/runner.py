"""One benchmark run: start the SUT, drive a workload, check, report.

``--trace 0`` measures the end-to-end metrics with tracing off: three SUT
spawns (``setup_s`` is their median; the last one is used), a warm-up,
then ``WINDOWS`` back-to-back measurement windows whose medians are the
reported values.  ``--trace 1`` produces the per-layer metrics: a short
untraced single-client run for the overhead ratio, then a fresh SUT with
``bench.trace`` installed and one closed-loop client, so a single request
is in flight and its spans form one chain.
"""

from __future__ import annotations

import gc
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from bench import ROOT, config, layers, loadgen, schedule, stats, trace
from bench.stats import Sample

RESULTS_DIR = os.path.join(ROOT, "bench", "results")
READY_TIMEOUT = 120.0
COMMAND_TIMEOUT = 60.0


def split_cpus() -> Tuple[Optional[set], Optional[set]]:
    """``(load generator's CPUs, the SUT's CPU)`` — or ``(None, None)``
    where there is nothing to split.

    The SUT's threads take turns under one interpreter lock, so a second
    core buys it nothing, while sharing cores with the load generator
    makes both migrate and wait for each other: unpinned, the same commit
    measured a third slower and twice as noisy.  One core for the SUT,
    the rest for the load generator, is the deployment this benchmark
    states.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None, None
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None, None
    return set(allowed[:-1]), {allowed[-1]}


def catalogue() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


class Sut:
    """The SUT child process: spawn, ready handshake, commands, teardown.

    Every wait has a timeout, and leaving the ``with`` block always ends
    the child (stdin EOF first, kill if that is not enough), so a failed
    run leaves no process and no listening socket behind.
    """

    def __init__(
        self,
        offers: int,
        clients: int,
        fig6: bool,
        traced: bool = False,
        sut_cpu: Optional[set] = None,
    ) -> None:
        command = [
            sys.executable, "-m", "bench.sut",
            "--offers", str(offers), "--clients", str(clients),
        ]
        if fig6:
            command.append("--fig6")
        if traced:
            command.append("--trace")
        self._lines: "queue.Queue[Tuple[float, Optional[str]]]" = queue.Queue()
        self.spawned_at = perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        if sut_cpu is not None:
            os.sched_setaffinity(self.process.pid, sut_cpu)
        threading.Thread(target=self._read_lines, daemon=True).start()
        self.ready: Dict[str, Any] = {}
        self.setup_s = 0.0

    def _read_lines(self) -> None:
        for line in self.process.stdout:
            self._lines.put((perf_counter(), line))
        self._lines.put((perf_counter(), None))

    def _next_line(self, timeout: float) -> Tuple[float, Dict[str, Any]]:
        try:
            at, line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError(f"SUT did not answer within {timeout:.0f} s") from None
        if line is None:
            raise RuntimeError(f"SUT exited with code {self.process.wait(10)}")
        return at, json.loads(line)

    def wait_ready(self) -> "Sut":
        at, self.ready = self._next_line(READY_TIMEOUT)
        self.setup_s = at - self.spawned_at
        return self

    def command(self, **payload: Any) -> Dict[str, Any]:
        self.process.stdin.write(json.dumps(payload) + "\n")
        self.process.stdin.flush()
        return self._next_line(COMMAND_TIMEOUT)[1]

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
                self.process.wait(10)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait(10)
        self.process.stdout.close()

    def __enter__(self) -> "Sut":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


# -- driving a workload --------------------------------------------------------------------


def _oracles(workload: str, population: int, clients: int) -> List[Optional[Any]]:
    """One oracle per client.  Read-only workloads share a full one; in
    ``export_churn`` each client owns the leaves it writes and an oracle
    of exactly those; the journey checks its own answers."""
    if workload == "fig6_journey":
        return [None] * clients
    if workload == "export_churn":
        return [
            loadgen.Oracle(population, config.LEAVES[index::clients])
            for index in range(clients)
        ]
    return [loadgen.Oracle(population)] * clients


@dataclass
class Driven:
    """What one :func:`drive` produced."""

    samples: List[Sample]
    lags: List[float]  # open loop only: send begun minus due, seconds
    checked: int  # imports compared with the oracle
    errors: List[str]
    started: float  # perf_counter at the first op, warm-up included

    @property
    def ops(self) -> List[Sample]:
        """The samples that are whole ops (a journey's arcs are parts)."""
        return [sample for sample in self.samples if sample[2] not in loadgen.PART_CLASSES]


def drive(
    sut: Sut,
    workload: str,
    seed: int,
    clients: int,
    seconds: float,
    population: int,
    oracles: Sequence[Optional[Any]],
    open_loop: bool,
) -> Driven:
    """Run ``seconds`` of the workload from ``clients`` connections.
    Schedules are complete before the clock starts; the SUT only ever
    sees the generated inputs."""
    if open_loop:  # the import_point mix, arriving on a schedule
        schedules: List[Any] = [
            schedule.open_loop(seed, index, seconds, population) for index in range(clients)
        ]
    else:
        schedules = [
            schedule.closed_loop(workload, seed, index, clients, seconds, population)
            for index in range(clients)
        ]
    connections = [
        loadgen.Connection(sut.ready["front"], sut.ready["names"], index)
        for index in range(clients)
    ]
    try:
        workers = [
            loadgen.Client(connection, oracle, feed_oracle=workload == "export_churn")
            for connection, oracle in zip(connections, oracles)
        ]
        started = perf_counter() + 0.05
        if open_loop:
            loadgen.run_open(workers, schedules, started)
        else:
            loadgen.run_closed(workers, schedules, started + seconds)
    finally:
        for connection in connections:
            connection.close()
    return Driven(
        samples=[sample for worker in workers for sample in worker.samples],
        lags=[lag for worker in workers for lag in worker.lags],
        checked=sum(worker.checked for worker in workers),
        errors=[error for worker in workers for error in worker.errors],
        started=started,
    )


def end_state_problems(
    workload: str, sut_stats: Dict[str, Any], samples: Sequence[Sample], population: int, clients: int
) -> List[str]:
    """The fleet must hold exactly what the acknowledged writes imply, and
    every replica must have applied everything its primary logged."""
    problems = []
    held = 0
    for shard_id, pair in sorted(sut_stats["shards"].items()):
        primary, replica = pair["primary"], pair["replica"]
        held += primary["offers"]
        if replica["applied_seq"] != primary["last_seq"]:
            problems.append(
                f"{shard_id}: replica at seq {replica['applied_seq']}, "
                f"primary at {primary['last_seq']}"
            )
        if replica["offers"] != primary["offers"]:
            problems.append(
                f"{shard_id}: replica holds {replica['offers']} offers, "
                f"primary {primary['offers']}"
            )
    done = [sample[2] for sample in samples if sample[3]]
    expected = population + done.count("export") - done.count("withdraw")
    if workload == "fig6_journey":
        expected += clients  # one car-rental offer per app server
    if held != expected:
        problems.append(f"fleet holds {held} offers, the acknowledged writes imply {expected}")
    return problems


def summarise(
    samples: Sequence[Sample],
    first_start: float,
    width: float,
    count: int,
    heavy: Sequence[str],
    light: Sequence[str],
) -> Dict[str, Tuple[float, float]]:
    """Window medians (and window spread) of every latency/throughput figure."""
    ops = [sample for sample in samples if sample[2] not in loadgen.PART_CLASSES]
    per_window = []
    for window_ops, window_all in zip(
        stats.split_windows(ops, first_start, width, count),
        stats.split_windows(samples, first_start, width, count),
    ):
        def ms(classes, source=window_all):
            return stats.latencies_ms(source, classes, config.CALL_TIMEOUT)

        everything = ms(None, window_ops)
        figures = {
            "ops_per_s": len(window_ops) / width,
            "p50_ms": stats.percentile(everything, 50),
            "p95_ms": stats.percentile(everything, 95),
            "p99_ms": stats.percentile(everything, 99),
            "max_ms": max(everything, default=float("nan")),
            "heavy_p50_ms": stats.percentile(ms(heavy), 50),
            "light_p50_ms": stats.percentile(ms(light), 50),
            "light_p95_ms": stats.percentile(ms(light), 95),
        }
        writes = ms(config.WRITE_CLASSES)
        if writes:
            figures["write_p50_ms"] = stats.percentile(writes, 50)
        per_window.append(figures)
    return stats.window_medians(per_window)


def class_counts(samples: Sequence[Sample], since: float) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for sample in samples:
        if sample[1] >= since:
            counts[sample[2]] = counts.get(sample[2], 0) + 1
    return dict(sorted(counts.items()))


# -- the two kinds of run ------------------------------------------------------------------------


def run_end_to_end(workload: str, seed: int, seconds: float, smoke: bool) -> Dict[str, Any]:
    heavy, light = config.WORKLOADS[workload]
    population = config.SMOKE_POPULATION if smoke else config.POPULATION
    windows = 1 if smoke else config.WINDOWS
    warmup = 0.5 if smoke else config.WARMUP_SECONDS
    fig6 = workload == "fig6_journey"
    own_cpus, sut_cpu = split_cpus()
    if own_cpus is not None:
        os.sched_setaffinity(0, own_cpus)

    setups: List[float] = []
    oracles: Optional[List[Optional[Any]]] = None
    spawns = 1 if smoke else config.SETUPS
    for attempt in range(spawns):
        with Sut(population, config.CLIENTS, fig6, sut_cpu=sut_cpu) as sut:
            if oracles is None:
                # built while the first SUT preloads, on the other core
                oracles = _oracles(workload, population, config.CLIENTS)
                gc.collect()
                gc.freeze()
            setups.append(sut.wait_ready().setup_s)
            if attempt < spawns - 1:
                continue  # only timing the set-up; the last spawn is the one driven
            driven = drive(
                sut, workload, seed, config.CLIENTS, warmup + seconds, population, oracles, False
            )
            sut_stats = sut.command(cmd="stats")
    samples = driven.samples
    problems = end_state_problems(workload, sut_stats, samples, population, config.CLIENTS)

    measured_from = driven.started + warmup
    figures = summarise(samples, measured_from, seconds / windows, windows, heavy, light)
    figures["setup_s"] = (statistics.median(setups), stats.spread(setups))
    figures["sut_rss_mb"] = (sut_stats["rss_mb"], 0.0)
    ops = driven.ops
    # an end-state mismatch is a wrong answer too: one failed op each
    failed = sum(1 for sample in ops if not sample[3]) + len(problems)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": 0,
        "figures": figures,
        "attempted": len(ops),
        "failed": failed,
        "errors": (driven.errors + problems)[:20],
        "oracle_checks": driven.checked,
        "samples": class_counts(samples, measured_from),
        "setups_s": setups,
        "pinned": sut_cpu is not None,
    }


def _counter_total(snapshot: Dict[str, Any], name: str) -> float:
    return sum(
        value for key, value in snapshot["counters"].items() if key.split("[", 1)[0] == name
    )


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def run_traced(workload: str, seed: int, seconds: float, smoke: bool) -> Dict[str, Any]:
    population = config.SMOKE_POPULATION if smoke else config.POPULATION
    fig6 = workload == "fig6_journey"
    own_cpus, sut_cpu = split_cpus()
    if own_cpus is not None:
        os.sched_setaffinity(0, own_cpus)
    oracles = _oracles(workload, population, 1)
    gc.collect()
    gc.freeze()
    plain_seconds = max(1.0, seconds * 0.25)
    traced_seconds = max(1.0, seconds * 0.4)
    warmup = 0.5

    # 1. tracing off, one client: the baseline the overhead ratio divides by
    opened: Optional[Driven] = None
    with Sut(population, 1, fig6, sut_cpu=sut_cpu) as sut:
        sut.wait_ready()
        plain = drive(sut, workload, seed, 1, warmup + plain_seconds, population, oracles, False)
        if workload == "import_point":
            # The same mix arriving open-loop, as independent importers
            # do: 2 connections, latency from the due time, tracing off.
            opened = drive(
                sut, workload, seed, config.CLIENTS, plain_seconds, population,
                oracles * config.CLIENTS, True,
            )
    plain_p50 = stats.percentile(
        stats.latencies_ms(
            [s for s in plain.ops if s[0] >= plain.started + warmup], None, config.CALL_TIMEOUT
        ),
        50,
    )
    open_ms = stats.latencies_ms(opened.samples, None, config.CALL_TIMEOUT) if opened else []
    lags = opened.lags if opened else []

    # 2. tracing on, in the SUT and (for the client half of each hop) here
    recorder = trace.Recorder()
    trace.install(recorder)
    if workload == "export_churn":
        oracles = _oracles(workload, population, 1)  # phase 1 wrote to the old one
        gc.freeze()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    sut_spans_path = os.path.join(RESULTS_DIR, f"trace-{workload}.sut.jsonl")
    with Sut(population, 1, fig6, traced=True, sut_cpu=sut_cpu) as sut:
        sut.wait_ready()
        before = sut.command(cmd="stats")
        driven = drive(
            sut, workload, seed, 1, warmup + traced_seconds, population, oracles, False
        )
        after = sut.command(cmd="stats")
        window_start = driven.started + warmup
        sut.command(cmd="dump", path=sut_spans_path, since=window_start)
    spans = trace.read_spans(sut_spans_path) + recorder.dump("loadgen", window_start)
    os.remove(sut_spans_path)
    ops = sorted(s for s in driven.ops if s[0] >= window_start)
    analysis = layers.analyse(spans, ops)
    trace.write_spans(os.path.join(RESULTS_DIR, f"trace-{workload}.jsonl"), spans)

    per_op = analysis["per_op"]
    # counters are read before the warm-up and after the window, so their
    # per-op figures divide by every op driven, not only the traced ones
    count = max(len(driven.ops), 1)
    traced_ms = stats.latencies_ms(ops, None, config.CALL_TIMEOUT)

    def delta(name: str) -> float:
        return _counter_total(after, name) - _counter_total(before, name)

    indexed = delta("offers.index_hits") + delta("offers.range_hits") + delta("trader.ordered_scans")
    compiled = delta("rpc.codec.compiled_hits")
    cache_hits = after["constraint_cache"]["hits"] - before["constraint_cache"]["hits"]
    cache_misses = after["constraint_cache"]["misses"] - before["constraint_cache"]["misses"]
    evals = after["counts"]["constraint_evals"] - before["counts"]["constraint_evals"]
    per_op.update(
        {
            "trader.constraints.evals_per_op": evals / count,
            "rpc.client.retransmits": delta("rpc.client.retransmissions"),
            "rpc.codec.compiled_share": _share(compiled, compiled + delta("rpc.codec.fallback")),
            "rpc.server.shed": float(after["shed"] - before["shed"]),
            "rpc.server.replay_hits": float(after["replay_hits"] - before["replay_hits"]),
            "trader.constraints.compile_hit_share": _share(cache_hits, cache_hits + cache_misses),
            "trader.offers.index_share": _share(indexed, indexed + delta("offers.fallback_scans")),
            # shards asked per import the front router served
            "trader.sharding.router.fanout_width": _share(
                delta("sharding.fanout"),
                after["counters"].get("trader.imports[front]", 0)
                - before["counters"].get("trader.imports[front]", 0),
            ),
            "trader.sharding.replication.lag_seq_end": float(
                sum(
                    pair["primary"]["last_seq"] - pair["replica"]["applied_seq"]
                    for pair in after["shards"].values()
                )
            ),
            "loadgen.open_p50_ms": stats.percentile(open_ms, 50) if open_ms else 0.0,
            "loadgen.open_p95_ms": stats.percentile(open_ms, 95) if open_ms else 0.0,
            "loadgen.late_share": loadgen.late_share(lags),
            "loadgen.max_lag_ms": max(lags, default=0.0) * 1e3,
            "trace.overhead_ratio": stats.percentile(traced_ms, 50) / plain_p50,
        }
    )
    all_ops = plain.ops + (opened.ops if opened else []) + driven.ops
    errors = plain.errors + (opened.errors if opened else []) + driven.errors
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": 1,
        "figures": {name: (value, 0.0) for name, value in per_op.items()},
        "attempted": len(all_ops),
        "failed": sum(1 for s in all_ops if not s[3]),
        "errors": errors[:20],
        "oracle_checks": driven.checked,
        "samples": class_counts(driven.samples, window_start),
        "traced_ops": len(ops),
        "traced_mean_ms": statistics.fmean(traced_ms) if traced_ms else 0.0,
        "traced_p50_ms": stats.percentile(traced_ms, 50),
        "untraced_p50_ms": plain_p50,
        "open_loop_requests": len(open_ms),
        "by_class": analysis["by_class"],
        "pinned": sut_cpu is not None,
    }
