"""Group manager (Fig. 6): named groups of service addresses.

Groups back the extended multicast functions of the communication level:
a caller resolves a group to its member addresses and hands them to
:class:`repro.rpc.multicast.MulticastCaller`.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.errors import LookupFailure
from repro.net.endpoints import Address
from repro.rpc.client import RpcClient
from repro.rpc.server import RpcProgram, RpcServer

GROUP_PROGRAM = 100400

_PROC_CREATE = 1
_PROC_JOIN = 2
_PROC_LEAVE = 3
_PROC_MEMBERS = 4
_PROC_LIST = 5
_PROC_DELETE = 6


class GroupManagerService:
    """Networked registry of groups."""

    def __init__(self, server: RpcServer) -> None:
        self._groups: Dict[str, Set[Address]] = {}
        program = RpcProgram(GROUP_PROGRAM, 1, "groups")
        program.register(_PROC_CREATE, self._create, "create")
        program.register(_PROC_JOIN, self._join, "join")
        program.register(_PROC_LEAVE, self._leave, "leave")
        program.register(_PROC_MEMBERS, self._members, "members")
        program.register(_PROC_LIST, self._list, "list")
        program.register(_PROC_DELETE, self._delete, "delete")
        server.serve(program)
        self.address = server.address

    def _create(self, args) -> bool:
        group = args["group"]
        if group in self._groups:
            return False
        self._groups[group] = set()
        return True

    def _group(self, name: str) -> Set[Address]:
        if name not in self._groups:
            raise LookupFailure(f"no such group: {name!r}")
        return self._groups[name]

    def _join(self, args) -> bool:
        members = self._group(args["group"])
        address = Address(args["host"], args["port"])
        if address in members:
            return False
        members.add(address)
        return True

    def _leave(self, args) -> bool:
        members = self._group(args["group"])
        address = Address(args["host"], args["port"])
        if address not in members:
            return False
        members.remove(address)
        return True

    def _members(self, args) -> List[Address]:
        return sorted(self._group(args["group"]))

    def _list(self, args) -> List[str]:
        return sorted(self._groups)

    def _delete(self, args) -> bool:
        return self._groups.pop(args["group"], None) is not None


class GroupClient:
    """Client-side stub of the group manager."""

    def __init__(self, client: RpcClient, address: Address) -> None:
        self._client = client
        self._address = address

    def create(self, group: str) -> bool:
        return self._call(_PROC_CREATE, {"group": group})

    def join(self, group: str, member: Address) -> bool:
        return self._call(
            _PROC_JOIN, {"group": group, "host": member.host, "port": member.port}
        )

    def leave(self, group: str, member: Address) -> bool:
        return self._call(
            _PROC_LEAVE, {"group": group, "host": member.host, "port": member.port}
        )

    def members(self, group: str) -> List[Address]:
        raw = self._call(_PROC_MEMBERS, {"group": group})
        return [Address(*item) if not isinstance(item, Address) else item for item in raw]

    def list(self) -> List[str]:
        return self._call(_PROC_LIST, {})

    def delete(self, group: str) -> bool:
        return self._call(_PROC_DELETE, {"group": group})

    def _call(self, proc: int, args) -> object:
        return self._client.call(self._address, GROUP_PROGRAM, 1, proc, args)
