"""The Generic Client (§3.2, Figs. 3 & 4).

Binds to arbitrary services it has never seen: the SID is transferred at
bind time, and everything else — marshalling, protocol checking, the user
interface — is derived from it:

* **dynamic marshalling**: arguments are validated against the SID's
  types before they cross the wire (no generated stubs anywhere),
* **local FSM interception** (§4.2): invocations that do not conform to
  the current communication state are "rejected locally", saving the
  round trip — the client keeps a mirror FSM session in lock-step with
  the server's,
* **cascade binding** (Fig. 4): every SERVICEREFERENCE found in a result
  can be bound in turn; each binding knows its cascade depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.context import CallContext
from repro.errors import BindingError
from repro.naming.binder import Binder, Binding
from repro.naming.refs import ServiceRef, find_refs
from repro.rpc.client import RpcClient
from repro.sidl.fsm import FsmSession, FsmViolation
from repro.sidl.sid import ServiceDescription
from repro.sidl.types import OperationType


@dataclass
class InvocationResult:
    """Outcome of one dynamic invocation."""

    operation: str
    value: Any
    state: Optional[str] = None  # FSM state after the call, if any
    references: List[ServiceRef] = field(default_factory=list)


class GenericClient:
    """Creates generic bindings; one per human user / application."""

    def __init__(
        self,
        client: RpcClient,
        enforce_fsm: bool = True,
    ) -> None:
        self._client = client
        self._binder = Binder(client)
        self.enforce_fsm = enforce_fsm
        self.bindings_opened = 0
        self.local_rejections = 0

    def bind(
        self,
        ref: ServiceRef,
        _depth: int = 0,
        ctx: Optional[CallContext] = None,
    ) -> "GenericBinding":
        """Bind and transfer the SID (Fig. 3, steps "SID Transfer")."""
        binding = self._binder.bind(ref, fetch_sid=True, ctx=ctx)
        self.bindings_opened += 1
        return GenericBinding(self, binding, depth=_depth, ctx=ctx)

class GenericBinding:
    """A SID-driven session with one service."""

    def __init__(
        self,
        owner: GenericClient,
        binding: Binding,
        depth: int = 0,
        ctx: Optional[CallContext] = None,
    ) -> None:
        self._owner = owner
        self._binding = binding
        self.depth = depth
        self.ctx = ctx  # shared across the whole cascade (Fig. 4)
        self.sid: ServiceDescription = binding.fetch_sid()
        self.fsm: Optional[FsmSession] = self.sid.new_session()
        self.discovered: List[ServiceRef] = []
        self.invocations = 0
        self.local_rejections = 0

    # -- introspection (everything the generated UI needs) --------------------

    @property
    def ref(self) -> ServiceRef:
        return self._binding.ref

    @property
    def service_name(self) -> str:
        return self.sid.name

    def operations(self) -> List[str]:
        return self.sid.operation_names()

    def operation(self, name: str) -> OperationType:
        return self.sid.interface.operation(name)

    def describe(self, operation_name: str) -> str:
        """Signature plus the SID's natural-language annotation, if any."""
        signature = self.operation(operation_name).describe()
        annotation = self.sid.annotation_for(operation_name)
        if annotation:
            return f"{signature}  -- {annotation}"
        return signature

    def state(self) -> Optional[str]:
        return self.fsm.state if self.fsm is not None else None

    # -- invocation ------------------------------------------------------------

    def invoke(
        self,
        operation_name: str,
        arguments: Optional[Dict[str, Any]] = None,
        ctx: Optional[CallContext] = None,
    ) -> InvocationResult:
        """Dynamically marshalled, FSM-guarded invocation."""
        ctx = ctx if ctx is not None else self.ctx
        operation = self.operation(operation_name)
        arguments = operation.check_arguments(arguments or {})
        if self._owner.enforce_fsm and self.fsm is not None:
            if not self.fsm.allows(operation_name):
                # Rejected locally (§4.2): no network traffic happens.
                self.local_rejections += 1
                self._owner.local_rejections += 1
                self.fsm.rejections += 1
                raise FsmViolation(
                    self.fsm.state,
                    operation_name,
                    self.fsm.spec.allowed_in(self.fsm.state),
                )
        if ctx is not None:
            with ctx.span("generic", operation_name,
                          self._owner._client.transport.now):
                value = self._binding.invoke(operation_name, arguments, ctx=ctx)
        else:
            value = self._binding.invoke(operation_name, arguments)
        self.invocations += 1
        if self.fsm is not None:
            self.fsm.advance(operation_name)
        references = find_refs(value)
        self.discovered.extend(references)
        return InvocationResult(
            operation=operation_name,
            value=value,
            state=self.state(),
            references=references,
        )

    # -- cascade binding (Fig. 4) -------------------------------------------------

    def bind_reference(self, ref: ServiceRef) -> "GenericBinding":
        """Bind a reference obtained from this service; depth increases.

        The child binding inherits this binding's context, so the whole
        Fig. 4 cascade drains one deadline budget under one trace id.
        """
        return self._owner.bind(ref, _depth=self.depth + 1, ctx=self.ctx)

    def bind_discovered(self, index: int = 0) -> "GenericBinding":
        if not self.discovered:
            raise BindingError("no service references discovered yet")
        return self.bind_reference(self.discovered[index])

    # -- lifecycle ---------------------------------------------------------------

    def unbind(self) -> None:
        self._binding.unbind()

    def __enter__(self) -> "GenericBinding":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unbind()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GenericBinding {self.service_name} depth={self.depth} "
            f"state={self.state()}>"
        )
