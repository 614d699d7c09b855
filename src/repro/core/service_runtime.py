"""The COSM service runtime: any implementation + a SID = a service.

Hosts an application object behind the uniform protocol of
:mod:`repro.naming.binder` (GET_SID, BIND, UNBIND, INVOKE).  The runtime

* transfers the SID on request (Fig. 3's "SID Transfer"),
* opens one FSM session per binding and rejects out-of-protocol calls
  server-side (the client usually rejects them locally first — both
  checks exist, and the benchmark ``bench_fsm_guard`` measures the
  difference),
* dynamically checks argument and result values against the SID's types,
  so type conformance between client and server "is always given
  implicitly" (§4.2).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Mapping, Optional, Union

from repro.errors import BindingError
from repro.naming.binder import PROC_BIND, PROC_GET_SID, PROC_INVOKE, PROC_UNBIND
from repro.naming.refs import ServiceRef
from repro.rpc.server import RpcProgram, RpcServer
from repro.sidl.errors import SidlTypeError
from repro.sidl.fsm import FsmSession
from repro.sidl.sid import ServiceDescription

Implementation = Union[object, Mapping[str, Callable[..., Any]]]

_AUTO_PROG_BASE = 200000
_auto_prog_counter = itertools.count(_AUTO_PROG_BASE)


def _next_auto_prog() -> int:
    return next(_auto_prog_counter)


class ServiceRuntime:
    """One running COSM application service."""

    def __init__(
        self,
        server: RpcServer,
        sid: ServiceDescription,
        implementation: Implementation,
        prog: Optional[int] = None,
        enforce_fsm: bool = True,
    ) -> None:
        self.sid = sid
        self.implementation = implementation
        self.enforce_fsm = enforce_fsm
        if prog is None:
            exported = (sid.trader_export or {}).get("ServiceID")
            prog = exported if isinstance(exported, int) else _next_auto_prog()
        self.prog = prog
        self.ref = ServiceRef.create(sid.name, server.address, prog)
        self._sessions: Dict[str, Optional[FsmSession]] = {}
        self._session_counter = itertools.count(1)
        self.invocations = 0
        self.fsm_rejections = 0
        program = RpcProgram(prog, self.ref.vers, sid.name)
        program.register(PROC_GET_SID, self._get_sid, "get_sid")
        program.register(PROC_BIND, self._bind, "bind")
        program.register(PROC_UNBIND, self._unbind, "unbind")
        program.register(PROC_INVOKE, self._invoke, "invoke")
        server.serve(program)
        self._server = server
        self._program = program

    # -- handlers ----------------------------------------------------------

    def _get_sid(self, args: Any) -> Dict[str, Any]:
        return self.sid.to_wire()

    def _bind(self, args: Any) -> str:
        session_id = f"{self.sid.name}-session-{next(self._session_counter)}"
        self._sessions[session_id] = self.sid.new_session()
        return session_id

    def _unbind(self, args: Any) -> bool:
        session_id = (args or {}).get("session", "")
        return self._sessions.pop(session_id, None) is not None

    def _invoke(self, args: Any) -> Any:
        session_id = args.get("session", "")
        if session_id not in self._sessions:
            raise BindingError(f"unknown session {session_id!r}")
        operation_name = args.get("operation", "")
        operation = self.sid.interface.operation(operation_name)
        arguments = operation.check_arguments(args.get("arguments") or {})
        fsm_session = self._sessions[session_id]
        if self.enforce_fsm and fsm_session is not None:
            if not fsm_session.allows(operation_name):
                self.fsm_rejections += 1
                fsm_session.rejections += 1
                raise _fsm_violation(fsm_session, operation_name)
        handler = self._handler_for(operation_name)
        result = handler(**arguments)
        try:
            result = operation.result.check(result)
        except SidlTypeError as exc:
            raise SidlTypeError(
                f"{self.sid.name}.{operation_name} returned a value "
                f"outside its declared result type: {exc}"
            )
        if fsm_session is not None:
            fsm_session.advance(operation_name)
        self.invocations += 1
        return result

    def _handler_for(self, operation_name: str) -> Callable[..., Any]:
        if isinstance(self.implementation, Mapping):
            handler = self.implementation.get(operation_name)
        else:
            handler = getattr(self.implementation, operation_name, None)
        if handler is None or not callable(handler):
            raise SidlTypeError(
                f"service {self.sid.name} declares {operation_name!r} "
                f"but its implementation does not provide it"
            )
        return handler

    # -- lifecycle ------------------------------------------------------------

    def sessions(self) -> int:
        return len(self._sessions)

    def shutdown(self) -> None:
        """Withdraw the program; in-flight sessions become invalid."""
        self._server.withdraw(self._program)
        self._sessions.clear()


def _fsm_violation(session: FsmSession, operation: str):
    from repro.sidl.fsm import FsmViolation

    return FsmViolation(session.state, operation, session.spec.allowed_in(session.state))
