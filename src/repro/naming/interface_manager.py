"""The Interface Manager (Fig. 6): a networked interface repository.

Exposes :class:`~repro.sidl.repository.InterfaceRepository` over RPC so
any node can store, fetch, and query SIDs — including the structural
query "find every stored description usable where this base is expected"
(§3.1's subtype-polymorphic SIDs, as a service).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.net.endpoints import Address
from repro.rpc.client import RpcClient
from repro.rpc.server import RpcProgram, RpcServer
from repro.sidl.repository import InterfaceRepository
from repro.sidl.sid import ServiceDescription

IFMGR_PROGRAM = 100700

_PROC_STORE = 1
_PROC_FETCH = 2
_PROC_REMOVE = 3
_PROC_LIST = 4
_PROC_FIND_BY_NAME = 5
_PROC_FIND_CONFORMING = 6


class InterfaceManagerService:
    """Hosts an interface repository behind RPC."""

    def __init__(self, server: RpcServer) -> None:
        self.repository = InterfaceRepository()
        program = RpcProgram(IFMGR_PROGRAM, 1, "interface-manager")
        program.register(_PROC_STORE, self._store, "store")
        program.register(_PROC_FETCH, self._fetch, "fetch")
        program.register(_PROC_REMOVE, self._remove, "remove")
        program.register(_PROC_LIST, self._list, "list")
        program.register(_PROC_FIND_BY_NAME, self._find_by_name, "find_by_name")
        program.register(_PROC_FIND_CONFORMING, self._find_conforming, "find_conforming")
        server.serve(program)
        self.address = server.address

    def _store(self, args) -> str:
        sid = ServiceDescription.from_wire(args["sid"])
        return self.repository.store(sid, args.get("id"))

    def _fetch(self, args) -> Dict[str, Any]:
        return self.repository.fetch(args["id"]).to_wire()

    def _remove(self, args) -> bool:
        return self.repository.remove(args["id"])

    def _list(self, args) -> List[str]:
        return self.repository.ids()

    def _find_by_name(self, args) -> List[Dict[str, Any]]:
        return [sid.to_wire() for sid in self.repository.find_by_name(args["name"])]

    def _find_conforming(self, args) -> List[Dict[str, Any]]:
        base = ServiceDescription.from_wire(args["base"])
        return [sid.to_wire() for sid in self.repository.find_conforming(base)]


class InterfaceManagerClient:
    """Client stub for a remote interface manager."""

    def __init__(self, client: RpcClient, address: Address) -> None:
        self._client = client
        self._address = address

    def store(self, sid: ServiceDescription, repository_id: Optional[str] = None) -> str:
        return self._call(_PROC_STORE, {"sid": sid.to_wire(), "id": repository_id})

    def fetch(self, repository_id: str) -> ServiceDescription:
        return ServiceDescription.from_wire(self._call(_PROC_FETCH, {"id": repository_id}))

    def remove(self, repository_id: str) -> bool:
        return self._call(_PROC_REMOVE, {"id": repository_id})

    def list(self) -> List[str]:
        return self._call(_PROC_LIST, {})

    def find_by_name(self, name: str) -> List[ServiceDescription]:
        return [
            ServiceDescription.from_wire(item)
            for item in self._call(_PROC_FIND_BY_NAME, {"name": name})
        ]

    def find_conforming(self, base: ServiceDescription) -> List[ServiceDescription]:
        return [
            ServiceDescription.from_wire(item)
            for item in self._call(_PROC_FIND_CONFORMING, {"base": base.to_wire()})
        ]

    def _call(self, proc: int, args) -> Any:
        return self._client.call(self._address, IFMGR_PROGRAM, 1, proc, args)
