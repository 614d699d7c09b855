"""The Binder (Fig. 6): binding establishment between clients and services.

Every COSM application service speaks one uniform RPC program shape (its
``prog`` comes from the service reference):

========  =============  ====================================================
proc #    name           semantics
========  =============  ====================================================
1         GET_SID        returns the service's SID (SID transfer, Fig. 3)
2         BIND           opens a session; returns a session id (fresh FSM)
3         UNBIND         closes a session
4         INVOKE         ``{session, operation, arguments}`` → result value
========  =============  ====================================================

This uniformity — any service, same four procedures, everything else
described by the SID — is what lets one generic client drive arbitrary
services.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.context import CallContext
from repro.errors import BindingError
from repro.naming.refs import ServiceRef
from repro.rpc.client import RpcClient
from repro.rpc.errors import RpcError
from repro.sidl.sid import ServiceDescription
from repro.telemetry.metrics import METRICS

PROC_GET_SID = 1
PROC_BIND = 2
PROC_UNBIND = 3
PROC_INVOKE = 4


class Binding:
    """A live session with one service instance."""

    def __init__(
        self,
        client: RpcClient,
        ref: ServiceRef,
        session_id: str,
        ctx: Optional[CallContext] = None,
    ) -> None:
        self._client = client
        self.ref = ref
        self.session_id = session_id
        self.sid: Optional[ServiceDescription] = None
        self.ctx = ctx  # default context for calls made through this binding
        self.bound = True
        self.invocations = 0

    def fetch_sid(self, ctx: Optional[CallContext] = None) -> ServiceDescription:
        """Transfer the service's SID (memoised)."""
        if self.sid is None:
            wire = self._client.call(
                self.ref.address, self.ref.prog, self.ref.vers, PROC_GET_SID,
                context=ctx if ctx is not None else self.ctx,
            )
            self.sid = ServiceDescription.from_wire(wire)
        return self.sid

    def invoke(
        self,
        operation: str,
        arguments: Optional[Dict[str, Any]] = None,
        ctx: Optional[CallContext] = None,
    ) -> Any:
        """Raw dynamic invocation (no client-side checking — see the
        generic client for the guarded path)."""
        if not self.bound:
            raise BindingError(f"binding to {self.ref.name} already closed")
        self.invocations += 1
        return self._client.call(
            self.ref.address,
            self.ref.prog,
            self.ref.vers,
            PROC_INVOKE,
            {
                "session": self.session_id,
                "operation": operation,
                "arguments": arguments or {},
            },
            context=ctx if ctx is not None else self.ctx,
        )

    def unbind(self) -> None:
        if not self.bound:
            return
        self.bound = False
        try:
            self._client.call(
                self.ref.address,
                self.ref.prog,
                self.ref.vers,
                PROC_UNBIND,
                {"session": self.session_id},
                # Deliberately NOT bound by self.ctx: teardown should
                # still reach the server after the request budget is
                # spent, else sessions leak exactly when cascades expire.
            )
        except RpcError:
            # The server may already be gone; the local handle is closed
            # either way.
            pass

    def __enter__(self) -> "Binding":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unbind()


class Binder:
    """Creates bindings from service references."""

    def __init__(self, client: RpcClient) -> None:
        self._client = client
        self.bindings_established = 0

    def bind(
        self,
        ref: ServiceRef,
        fetch_sid: bool = False,
        ctx: Optional[CallContext] = None,
    ) -> Binding:
        """Open a session with the referenced service.

        ``fetch_sid=True`` transfers the SID during binding (what the
        generic client does: Fig. 3's "SID Transfer" then "Gui
        Generation").  A ``ctx`` scopes the whole binding: establishment,
        SID transfer, and every later invocation share its budget.
        """
        ref = ServiceRef.from_wire(ref) if not isinstance(ref, ServiceRef) else ref
        try:
            if ctx is not None:
                with ctx.span("binder", f"bind {ref.name}", self._client.transport.now):
                    session_id = self._client.call(
                        ref.address, ref.prog, ref.vers, PROC_BIND, {}, context=ctx
                    )
            else:
                session_id = self._client.call(
                    ref.address, ref.prog, ref.vers, PROC_BIND, {}
                )
        except RpcError as exc:
            METRICS.inc("binder.bind_failures", (ref.name,))
            raise BindingError(
                f"cannot bind to {ref.name} at {ref.address}: {exc}"
            ) from exc
        binding = Binding(self._client, ref, session_id, ctx=ctx)
        self.bindings_established += 1
        METRICS.inc("binder.bindings", (ref.name,))
        if fetch_sid:
            binding.fetch_sid()
        return binding
