"""From spans to per-layer cost: self time, calls, sizes, per op.

The traced run keeps a single request in flight, so the spans of one op
— recorded in several threads of two processes — form one sequential
chain inside the op's client-side interval.  A span belongs to the op
whose interval contains its start.  At every instant of that interval
the time is charged to the *innermost* span covering it (the one that
started last, a blocked ``wait`` yielding to any span that runs): that is
a span's self time, "duration minus the covered part of its children",
generalised to children that live in another thread and may overlap
their parent's end by a few microseconds.  What no span covers is
``unattributed``.  By construction the layers' self times
plus ``unattributed`` add up to the op's latency.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from typing import Any, Dict, List, Sequence, Tuple

from bench.stats import Sample

#: Every layer reports ``<layer>.self_us_per_op`` and ``.calls_per_op``.
LAYERS = (
    "rpc.client",
    "rpc.codec",
    "rpc.message",
    "rpc.transport",
    "rpc.server",
    "trader.trader",
    "trader.constraints",
    "trader.offers",
    "trader.policies",
    "trader.sharding.router",
    "trader.sharding.shard",
    "trader.sharding.replication",
    "naming.nameserver",
    "naming.binder",
    "core.browser",
    "core.generic_client",
    "core.service_runtime",
    "sidl",
    "uims",
)

Span = Dict[str, Any]


def add_wire_spans(spans: List[Span]) -> List[Span]:
    """Synthesize one ``wire`` span per message: from the sender's
    ``send`` returning to the peer's receive callback starting — kernel
    plus reader-thread wake-up, which no wrapped callable covers.

    A receive is paired with the latest not-yet-paired send of the same
    payload size that began before it.
    """
    sends = sorted((s for s in spans if s["name"] == "send"), key=lambda s: s["start"])
    receives = sorted((s for s in spans if s["name"] == "receive"), key=lambda s: s["start"])
    waiting: Dict[int, List[Span]] = defaultdict(list)
    wires: List[Span] = []
    cursor = 0
    for receive in receives:
        while cursor < len(sends) and sends[cursor]["start"] <= receive["start"]:
            waiting[sends[cursor]["n"]].append(sends[cursor])
            cursor += 1
        candidates = waiting.get(receive["n"])
        if not candidates:
            continue
        send = candidates.pop()
        if receive["start"] > send["end"]:
            wires.append(
                {
                    "id": f"wire:{len(wires)}",
                    "parent": send["id"],
                    "layer": "rpc.transport",
                    "name": "wire",
                    "start": send["end"],
                    "end": receive["start"],
                    "n": send["n"],
                }
            )
    return wires


def assign_to_ops(spans: Sequence[Span], ops: Sequence[Sample]) -> List[List[Span]]:
    """``ops`` must be sorted and non-overlapping (one request in flight)."""
    starts = [op[0] for op in ops]
    per_op: List[List[Span]] = [[] for _ in ops]
    for span in spans:
        index = bisect_right(starts, span["start"]) - 1
        if index >= 0 and span["start"] < ops[index][1]:
            per_op[index].append(span)
    return per_op


def self_times(spans: Sequence[Span], begin: float, end: float) -> Tuple[Dict[str, float], float]:
    """Charge every instant of ``[begin, end]`` to the innermost covering
    span; returns ``(span id -> self seconds, uncovered seconds)``.

    Innermost is the covering span that started last — except that a
    blocked ``wait`` is never innermost while any other span runs: a
    thread that was slow to reach its ``wait`` (it lost the interpreter
    lock to the very work it is about to wait for) starts waiting *after*
    that work started, and must not be charged for it.
    """
    events: List[Tuple[float, int, int]] = []
    for index, span in enumerate(spans):
        start, stop = max(span["start"], begin), min(span["end"], end)
        if stop > start:
            events.append((start, 1, index))
            events.append((stop, 0, index))
    events.sort()  # at equal times, ends (0) come before starts (1)
    own: Dict[str, float] = defaultdict(float)
    uncovered = 0.0
    # open spans in start order, the last is innermost: [working, waiting]
    active: Tuple[List[int], List[int]] = ([], [])
    at = begin
    for when, is_start, index in events:
        if when > at:
            running = active[0] or active[1]
            if running:
                own[spans[running[-1]]["id"]] += when - at
            else:
                uncovered += when - at
            at = when
        group = active[spans[index]["name"] == "wait"]
        if is_start:
            group.append(index)
        else:
            group.remove(index)
    uncovered += max(0.0, end - at)
    return own, uncovered


def _descends_from(span: Span, by_id: Dict[str, Span], name: str) -> bool:
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["name"] == name:
            return True
        parent = by_id.get(parent["parent"])
    return False


def analyse(spans: List[Span], ops: Sequence[Sample]) -> Dict[str, Any]:
    """Per-layer and derived per-op figures for the traced ops.

    Returns ``{"per_op": {metric: value}, "by_class": {op class: {layer:
    self µs per op of that class}}, "ops": n}``.
    """
    ops = sorted(ops)
    spans = spans + add_wire_spans(spans)
    by_id = {span["id"]: span for span in spans}
    per_op = assign_to_ops(spans, ops)
    count = max(len(ops), 1)

    layer_self: Dict[str, float] = defaultdict(float)
    layer_calls: Dict[str, int] = defaultdict(int)
    class_self: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    class_ops: Dict[str, int] = defaultdict(int)
    named_self: Dict[str, float] = defaultdict(float)
    totals: Dict[str, float] = defaultdict(float)
    unattributed = 0.0
    for op, members in zip(ops, per_op):
        own, uncovered = self_times(members, op[0], op[1])
        unattributed += uncovered
        class_ops[op[2]] += 1
        class_self[op[2]]["unattributed"] += uncovered
        for span in members:
            layer, name = span["layer"], span["name"]
            mine = own.get(span["id"], 0.0)
            layer_self[layer] += mine
            class_self[op[2]][layer] += mine
            if name != "wire":
                layer_calls[layer] += 1
            named_self[name] += mine
            duration = span["end"] - span["start"]
            if name == "wait":
                totals["wait"] += duration
            elif name == "push":
                totals["push"] += duration
            elif name == "send":
                totals["wire_bytes"] += span["n"]
            elif layer == "rpc.codec":
                totals["codec_bytes"] += span["n"]
                if name.endswith("decode_result") and _descends_from(
                    span, by_id, "Binding.fetch_sid"
                ):
                    totals["sid_bytes"] += span["n"]
            elif name == "DeltaLog.append":
                totals["deltas"] += 1
            elif name in ("OfferStore.candidates", "OfferStore.ordered_by"):
                totals["examined"] += span["n"]
            elif name == "LocalTrader.import_wire":
                totals["results"] += span["n"]
            elif name.startswith("handler ") and span["parent"] in by_id:
                # admission + queue + argument decoding: arrival at the
                # server to the handler being entered
                arrival = by_id[span["parent"]]
                if arrival["name"] == "RpcServer.handle_call":
                    totals["queue"] += span["start"] - arrival["start"]

    micro = 1e6 / count
    figures: Dict[str, float] = {}
    for layer in LAYERS:
        figures[f"{layer}.self_us_per_op"] = layer_self.get(layer, 0.0) * micro
        figures[f"{layer}.calls_per_op"] = layer_calls.get(layer, 0) / count
    figures["unattributed.self_us_per_op"] = unattributed * micro
    figures["rpc.client.wait_us_per_op"] = totals["wait"] * micro
    figures["rpc.codec.bytes_per_op"] = totals["codec_bytes"] / count
    figures["rpc.transport.bytes_per_op"] = totals["wire_bytes"] / count
    figures["rpc.transport.wire_us_per_op"] = named_self["wire"] * micro
    figures["rpc.server.queue_us_per_op"] = totals["queue"] * micro
    figures["trader.offers.examined_per_result"] = (
        totals["examined"] / totals["results"] if totals["results"] else 0.0
    )
    figures["trader.sharding.router.merge_us_per_op"] = named_self["ShardRouter.import_"] * micro
    figures["trader.sharding.replication.push_us_per_op"] = totals["push"] * micro
    figures["trader.sharding.replication.deltas_per_op"] = totals["deltas"] / count
    figures["sidl.sid_bytes_per_op"] = totals["sid_bytes"] / count
    unknown = sorted(set(layer_self) - set(LAYERS))
    if unknown:
        raise ValueError(f"spans in layers the catalogue does not know: {unknown}")
    by_class = {
        op_class: {
            layer: seconds * 1e6 / class_ops[op_class] for layer, seconds in layers.items()
        }
        for op_class, layers in class_self.items()
    }
    return {"per_op": figures, "by_class": by_class, "ops": len(ops)}
