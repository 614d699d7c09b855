"""Transactional COSM services: stage now, execute at commit.

A :class:`TransactionalServiceRuntime` hosts a service exactly like
:class:`~repro.core.service_runtime.ServiceRuntime` — generic clients,
browsers, and traders see no difference — and *additionally* exports the
2PC participant protocol of :mod:`repro.rpc.txn`.  The staged work items
are deferred invocations ``{"operation": ..., "arguments": {...}}``.

Voting: an invocation staged for commit must name a declared operation,
its arguments must type-check against the SID, and — when the
implementation offers ``reserve(operation, arguments)`` — the resource
must be reservable (e.g. a car held back until commit).  ``release`` (if
present) undoes reservations on abort.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.service_runtime import ServiceRuntime
from repro.rpc.server import RpcServer
from repro.rpc.txn import TransactionParticipant
from repro.sidl.errors import SidlTypeError
from repro.sidl.sid import ServiceDescription


class _DeferredInvocationResource:
    """The participant resource: stages invocation lists per transaction."""

    def __init__(self, runtime: "TransactionalServiceRuntime") -> None:
        self._runtime = runtime
        self._staged: Dict[str, List[Dict[str, Any]]] = {}
        self._reserved: Dict[str, List[Dict[str, Any]]] = {}

    def prepare(self, txn_id: str, work: Any) -> bool:
        steps = work if isinstance(work, list) else [work]
        checked: List[Dict[str, Any]] = []
        reserved: List[Dict[str, Any]] = []
        implementation = self._runtime.implementation
        reserve = getattr(implementation, "reserve", None)
        release = getattr(implementation, "release", None)
        try:
            for step in steps:
                operation = self._runtime.sid.interface.operation(step["operation"])
                arguments = operation.check_arguments(step.get("arguments") or {})
                if reserve is not None:
                    if not reserve(operation.name, arguments):
                        raise SidlTypeError(f"cannot reserve {operation.name}")
                    reserved.append({"operation": operation.name, "arguments": arguments})
                checked.append({"operation": operation.name, "arguments": arguments})
        except Exception:
            # undo partial reservations; vote no
            if release is not None:
                for step in reserved:
                    release(step["operation"], step["arguments"])
            return False
        self._staged[txn_id] = checked
        self._reserved[txn_id] = reserved
        return True

    def commit(self, txn_id: str) -> None:
        steps = self._staged.pop(txn_id, [])
        self._reserved.pop(txn_id, None)
        for step in steps:
            handler = self._runtime._handler_for(step["operation"])
            result = handler(**step["arguments"])
            self._runtime.committed_results.setdefault(txn_id, []).append(
                {"operation": step["operation"], "result": result}
            )

    def abort(self, txn_id: str) -> None:
        self._staged.pop(txn_id, None)
        release = getattr(self._runtime.implementation, "release", None)
        for step in self._reserved.pop(txn_id, []):
            if release is not None:
                release(step["operation"], step["arguments"])


class TransactionalServiceRuntime(ServiceRuntime):
    """A COSM service that can also take part in distributed activities."""

    def __init__(
        self,
        server: RpcServer,
        sid: ServiceDescription,
        implementation: Any,
        prog: Optional[int] = None,
        **options: Any,
    ) -> None:
        super().__init__(server, sid, implementation, prog=prog, **options)
        self.committed_results: Dict[str, List[Dict[str, Any]]] = {}
        self._resource = _DeferredInvocationResource(self)
        self._participant = TransactionParticipant(server, self._resource)
