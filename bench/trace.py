"""Span recording for the traced run, by wrapping public callables.

Nothing under ``src/`` is edited: :func:`install` replaces attributes of
the repo's classes and modules with timing wrappers, in whichever process
calls it (the SUT child and, for the client half of every hop, the load
generator).  Each span is ``[layer, name, start, end, parent, n]`` with
``time.perf_counter`` stamps — on Linux that is ``CLOCK_MONOTONIC``, one
clock for both processes — kept in per-thread lists and written out only
when the run is over.  ``n`` is a size the boundary can see for free
(payload bytes, candidates examined, offers returned).
"""

from __future__ import annotations

import json
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

LAYER, NAME, START, END, PARENT, SIZE = range(6)


Measure = Callable[[tuple, Any], int]


class Recorder:
    """Per-thread span lists plus a stack giving each span its parent."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[List[list]] = []
        #: name -> calls, for callables wrapped with :meth:`counted`
        self.counts: Dict[str, int] = {}
        #: Off while the SUT builds and preloads its fleet: 40 000 exports
        #: are not part of any measured op.
        self.enabled = True

    def _state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append(local.spans)
            return local.spans, local.stack

    def traced(
        self, layer: str, name: str, fn: Callable, measure: Optional[Measure] = None
    ) -> Callable:
        state = self._state

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            spans, stack = state()
            record = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if measure is not None:
                record[SIZE] = measure(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def traced_generator(self, layer: str, name: str, fn: Callable) -> Callable:
        """Span a generator by its *busy* time: the time spent inside
        ``next()``, laid out as one interval from the first ``next()``, so
        the consumer's work between items stays with the consumer.
        ``n`` is the number of items yielded."""
        state = self._state

        def wrapper(*args, **kwargs):
            if not self.enabled:
                yield from fn(*args, **kwargs)
                return
            spans, stack = state()
            record = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(record)
            inner = fn(*args, **kwargs)
            busy = 0.0
            record[START] = perf_counter()
            try:
                while True:
                    entered = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += perf_counter() - entered
                        return
                    busy += perf_counter() - entered
                    record[SIZE] += 1
                    yield item
            finally:
                record[END] = record[START] + busy

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        """Count calls too hot to span: ``Constraint.evaluate`` runs once per
        offer scanned, and two clock reads around each ~1 µs call would
        cost more than the call.  Its time stays in its caller's self time."""
        counts = self.counts
        counts[key] = 0

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, process: str, since: float = 0.0) -> List[Dict[str, Any]]:
        """Every finished span that started at or after ``since``, as a
        dict; ids are unique across processes."""
        with self._lock:
            threads = list(self._threads)
        out: List[Dict[str, Any]] = []
        for thread_index, spans in enumerate(threads):
            prefix = f"{process}:{thread_index}:"
            for index, record in enumerate(list(spans)):
                if record[END] == 0.0 or record[START] < since:
                    continue  # still open (a reader thread mid-callback), or too early
                out.append(
                    {
                        "id": f"{prefix}{index}",
                        "parent": f"{prefix}{record[PARENT]}" if record[PARENT] >= 0 else None,
                        "layer": record[LAYER],
                        "name": record[NAME],
                        "start": record[START],
                        "end": record[END],
                        "n": record[SIZE],
                    }
                )
        return out


def write_spans(path: str, spans: List[Dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, separators=(",", ":")))
            handle.write("\n")


def read_spans(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# -- what gets wrapped --------------------------------------------------------


def _len_of_result(args: tuple, result: Any) -> int:
    return len(result)


def _len_of_payload(args: tuple, result: Any) -> int:
    return len(args[2])  # (self, address, payload)


def _len_of_body(args: tuple, result: Any) -> int:
    return len(args[4])  # (self, prog, vers, proc, body)


def _layer_of_module(module: str) -> str:
    """A handler's layer is its module's name, folded as the README says."""
    name = module.removeprefix("repro.")
    if name.startswith("sidl"):
        return "sidl"
    if name.startswith("uims"):
        return "uims"
    if name.startswith("services"):
        return "core.service_runtime"
    if name == "trader.sharding.rpc":
        return "trader.sharding.replication"
    return name


def install(recorder: Recorder) -> None:
    """Wrap the public callables of every layer in this process.

    Call before building servers or clients: receive callbacks and
    program handlers are captured as bound methods at construction.
    """
    from repro.core import browser, generic_client
    from repro.naming import binder, nameserver
    from repro.rpc import client, codec, dispatch, message, server, transport
    from repro.sidl import sid, types
    from repro.trader import constraints, offers, policies, trader
    from repro.trader.sharding import replication, router, rpc, shard
    from repro.uims import session

    def wrap(owner, attribute, layer, measure=None, name=None):
        label = name or f"{owner.__name__}.{attribute}"
        declared = vars(owner)[attribute]
        if isinstance(declared, classmethod):
            wrapped = classmethod(recorder.traced(layer, label, declared.__func__, measure))
        else:
            wrapped = recorder.traced(layer, label, declared, measure)
        setattr(owner, attribute, wrapped)

    # rpc.client — the blocking wait is the client's, whoever implements it
    wrap(client.RpcClient, "call", "rpc.client")
    wrap(client.RpcClient, "call_raw", "rpc.client")
    wrap(transport.TcpTransport, "wait", "rpc.client", name="wait")
    # rpc.codec (covers rpc.xdr)
    wrap(codec.CodecRegistry, "encode_args", "rpc.codec", _len_of_result)
    wrap(codec.CodecRegistry, "encode_result", "rpc.codec", _len_of_result)
    wrap(codec.CodecRegistry, "decode_args", "rpc.codec", _len_of_body)
    wrap(codec.CodecRegistry, "decode_result", "rpc.codec", _len_of_body)
    # rpc.message (covers rpc.dispatch: the receive callback mostly decodes)
    wrap(message.RpcCall, "encode", "rpc.message")
    wrap(message.RpcReply, "encode", "rpc.message")
    wrap(dispatch, "decode_messages", "rpc.message", name="decode_messages")
    wrap(dispatch.RpcDispatcher, "_on_message", "rpc.message", _len_of_payload, name="receive")
    # rpc.transport
    wrap(transport.TcpTransport, "send", "rpc.transport", _len_of_payload, name="send")
    # rpc.server — handlers are wrapped as they are looked up, in the layer
    # of the module that defines them
    wrap(server.RpcServer, "handle_call", "rpc.server")
    wrap(server.RpcServer, "handle_batch", "rpc.server")
    handlers: Dict[Any, Callable] = {}
    lookup = server.RpcProgram.lookup

    def traced_lookup(self, proc):
        handler = lookup(self, proc)
        if handler is None:
            return None
        wrapped = handlers.get(handler)
        if wrapped is None:
            layer = _layer_of_module(getattr(handler, "__module__", "repro.rpc.server"))
            label = f"handler {self.name}:{self.procedures().get(proc, proc)}"
            wrapped = handlers[handler] = recorder.traced(layer, label, handler)
        return wrapped

    server.RpcProgram.lookup = traced_lookup
    # trader.trader — the store-side surface and the client stub
    for method in ("import_wire", "export", "modify", "renew", "withdraw"):
        wrap(
            trader.LocalTrader, method, "trader.trader",
            _len_of_result if method == "import_wire" else None,
        )
    for method in ("import_", "export", "modify", "renew", "withdraw"):
        wrap(trader.TraderClient, method, "trader.trader")
    # trader.constraints / trader.policies — imported by name where used
    wrap(trader, "parse_constraint", "trader.constraints", name="parse_constraint")
    constraints.Constraint.evaluate = recorder.counted(
        "constraint_evals", constraints.Constraint.evaluate
    )
    wrap(trader, "parse_preference", "trader.policies", name="parse_preference")
    wrap(router, "parse_preference", "trader.policies", name="parse_preference")
    wrap(policies.Preference, "apply", "trader.policies")
    # trader.offers
    wrap(offers.OfferStore, "candidates", "trader.offers", _len_of_result)
    offers.OfferStore.ordered_by = recorder.traced_generator(
        "trader.offers", "OfferStore.ordered_by", offers.OfferStore.ordered_by
    )
    for method in ("add", "remove", "replace_properties"):
        wrap(offers.OfferStore, method, "trader.offers")
    # trader.sharding.*
    for method in ("import_", "import_wire", "export", "modify", "renew", "withdraw"):
        wrap(router.ShardRouter, method, "trader.sharding.router")
    wrap(router.ShardHandle, "call", "trader.sharding.router")
    for method in ("export", "modify", "renew", "withdraw"):
        wrap(shard.TraderShard, method, "trader.sharding.shard")
    wrap(replication.DeltaLog, "append", "trader.sharding.replication")
    wrap(shard.TraderShard, "apply_delta", "trader.sharding.replication")
    wrap(rpc.RemoteShardBackend, "apply_delta", "trader.sharding.replication", name="push")
    # naming, core, sidl, uims — the Fig. 6 cascade
    wrap(nameserver.NameServerClient, "resolve", "naming.nameserver")
    wrap(binder.Binder, "bind", "naming.binder")
    for method in ("fetch_sid", "invoke", "unbind"):
        wrap(binder.Binding, method, "naming.binder")
    wrap(browser._BrowserImplementation, "Search", "core.browser", name="Browser.Search")
    wrap(generic_client.GenericClient, "bind", "core.generic_client")
    for method in ("invoke", "unbind", "bind_reference"):
        wrap(generic_client.GenericBinding, method, "core.generic_client")
    wrap(sid.ServiceDescription, "to_wire", "sidl")
    wrap(sid.ServiceDescription, "from_wire", "sidl")
    wrap(types.OperationType, "check_arguments", "sidl")
    for method in ("open", "fill", "click", "click_bind", "close_all"):
        wrap(session.UiSession, method, "uims")
