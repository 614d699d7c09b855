"""The networked Activity Manager — a Controlling Level service (Fig. 6).

Thin clients delegate coordination: BEGIN an activity, ADD_STEP deferred
invocations (service reference + operation + arguments), EXECUTE runs the
two-phase commit at the manager's node, STATUS reports the outcome.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.errors import LookupFailure
from repro.activity.manager import ActivityManager, ActivityOutcome
from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.rpc.client import RpcClient
from repro.rpc.server import RpcProgram, RpcServer

ACTIVITY_PROGRAM = 100600

_PROC_BEGIN = 1
_PROC_ADD_STEP = 2
_PROC_EXECUTE = 3
_PROC_STATUS = 4


class ActivityManagerService:
    """Hosts an :class:`ActivityManager` behind RPC."""

    def __init__(self, server: RpcServer, client: RpcClient) -> None:
        self.manager = ActivityManager(client)
        self._open: Dict[str, Any] = {}
        program = RpcProgram(ACTIVITY_PROGRAM, 1, "activity-manager")
        program.register(_PROC_BEGIN, self._begin, "begin")
        program.register(_PROC_ADD_STEP, self._add_step, "add_step")
        program.register(_PROC_EXECUTE, self._execute, "execute")
        program.register(_PROC_STATUS, self._status, "status")
        server.serve(program)
        self.address = server.address

    def _begin(self, args) -> str:
        activity = self.manager.begin(args["name"])
        self._open[activity.activity_id] = activity
        return activity.activity_id

    def _activity(self, activity_id: str):
        activity = self._open.get(activity_id)
        if activity is None:
            raise LookupFailure(f"no open activity {activity_id!r}")
        return activity

    def _add_step(self, args) -> int:
        activity = self._activity(args["activity"])
        activity.add_step(args["ref"], args["operation"], args.get("arguments"))
        return len(activity.steps)

    def _execute(self, args) -> str:
        activity = self._activity(args["activity"])
        return activity.execute().value

    def _status(self, args) -> Dict[str, Any]:
        activity = self._activity(args["activity"])
        return {
            "name": activity.name,
            "steps": len(activity.steps),
            "outcome": activity.outcome.value if activity.outcome else "open",
        }


class ActivityClient:
    """Client stub for a remote activity manager."""

    def __init__(self, client: RpcClient, address: Address) -> None:
        self._client = client
        self._address = address

    def begin(self, name: str) -> str:
        return self._call(_PROC_BEGIN, {"name": name})

    def add_step(
        self,
        activity_id: str,
        ref: Union[ServiceRef, Dict[str, Any]],
        operation: str,
        arguments: Optional[Dict[str, Any]] = None,
    ) -> int:
        ref_wire = ref.to_wire() if isinstance(ref, ServiceRef) else ref
        return self._call(
            _PROC_ADD_STEP,
            {
                "activity": activity_id,
                "ref": ref_wire,
                "operation": operation,
                "arguments": arguments or {},
            },
        )

    def execute(self, activity_id: str) -> ActivityOutcome:
        return ActivityOutcome(self._call(_PROC_EXECUTE, {"activity": activity_id}))

    def status(self, activity_id: str) -> Dict[str, Any]:
        return self._call(_PROC_STATUS, {"activity": activity_id})

    def _call(self, proc: int, args) -> Any:
        return self._client.call(self._address, ACTIVITY_PROGRAM, 1, proc, args)
