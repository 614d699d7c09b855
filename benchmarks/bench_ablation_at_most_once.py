"""Ablation — the at-most-once duplicate-request cache (DESIGN.md §6).

Under reply loss the client retransmits; with the cache the procedure
executes once and the recorded reply replays, without it every
retransmission re-executes.  Correctness first (execution counts), then
the cache's overhead on the fast path.
"""

from benchmarks.conftest import Stack
from repro.rpc.server import RpcProgram

PROG = 900100


def build(at_most_once: bool, drop_replies: int):
    stack = Stack()
    server = stack.server("srv", at_most_once=at_most_once)
    executions = {"count": 0}

    def handler(args):
        executions["count"] += 1
        return executions["count"]

    program = RpcProgram(PROG, 1)
    program.register(1, handler)
    server.serve(program)
    client = stack.client(timeout=0.05, retries=10)

    budget = {"left": drop_replies}
    original = stack.net.faults.should_drop

    def dropper(datagram, rng):
        if datagram.source.host == "srv" and budget["left"] > 0:
            budget["left"] -= 1
            return True
        return original(datagram, rng)

    stack.net.faults.should_drop = dropper
    return stack, server, client, executions, budget


def test_with_cache_executes_once(benchmark):
    def scenario():
        __, server, client, executions, budget = build(True, drop_replies=3)
        client.call(server.address, PROG, 1, 1, "x")
        return executions["count"], server.duplicates_suppressed

    count, suppressed = benchmark.pedantic(scenario, rounds=5, iterations=1)
    assert count == 1
    assert suppressed == 3


def test_without_cache_reexecutes(benchmark):
    def scenario():
        __, server, client, executions, __b = build(False, drop_replies=3)
        client.call(server.address, PROG, 1, 1, "x")
        return executions["count"]

    count = benchmark.pedantic(scenario, rounds=5, iterations=1)
    assert count == 4  # one execution per (re)transmission


def test_fast_path_overhead_with_cache(benchmark):
    __, server, client, __e, __b = build(True, drop_replies=0)
    benchmark(lambda: client.call(server.address, PROG, 1, 1, "x"))


def test_fast_path_overhead_without_cache(benchmark):
    __, server, client, __e, __b = build(False, drop_replies=0)
    benchmark(lambda: client.call(server.address, PROG, 1, 1, "x"))
