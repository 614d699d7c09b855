"""The Browser: where innovative services register their SIDs (§3.2).

The browser is itself an ordinary COSM service — its own interface is
described by :data:`BROWSER_SIDL` and hosted on a
:class:`~repro.core.service_runtime.ServiceRuntime`.  Consequences the
paper calls out explicitly:

* a generic client can *browse the browser* with zero special-case code,
* browse results carry SERVICEREFERENCE values, so selecting an entry and
  binding to it is the seamless UI cascade of Fig. 4,
* "the browser may also act as an application service as well and
  register its own SID at yet another browser" — see
  :meth:`BrowserService.register_at`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.context import CallContext
from repro.errors import LookupFailure
from repro.naming.binder import Binder
from repro.naming.refs import ServiceRef
from repro.rpc.client import RpcClient
from repro.rpc.server import RpcServer
from repro.sidl.builder import load_service_description
from repro.sidl.sid import ServiceDescription
from repro.core.service_runtime import ServiceRuntime

BROWSER_SIDL = """
module CosmBrowser {
  typedef BrowserEntry_t struct {
    string name;
    string service_id;
    service_reference ref;
  };
  typedef EntryList_t sequence<BrowserEntry_t>;
  interface COSM_Operations {
    boolean Register(in sid description, in service_reference ref);
    boolean Withdraw(in string service_id);
    EntryList_t List();
    EntryList_t Search(in string query);
    EntryList_t FindConforming(in sid base);
    sid FetchSid(in string service_id);
  };
  module COSM_Annotations {
    annotation Register "Register a service interface description.";
    annotation List "List every registered service.";
    annotation Search "Find services whose description mentions the query.";
    annotation FindConforming "Find services structurally usable as the given base.";
    annotation FetchSid "Transfer the full interface description of one entry.";
  };
};
"""


@dataclass(frozen=True)
class BrowserEntry:
    """One row of a browse result."""

    name: str
    service_id: str
    ref: ServiceRef

    def to_wire(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "service_id": self.service_id,
            "ref": self.ref.to_wire(),
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "BrowserEntry":
        return cls(data["name"], data["service_id"], ServiceRef.from_wire(data["ref"]))


class _BrowserImplementation:
    """The browser's registry, written like any COSM service impl."""

    def __init__(self) -> None:
        self._entries: Dict[str, Dict[str, Any]] = {}

    def Register(self, description: Any, ref: Any) -> bool:
        sid = ServiceDescription.from_wire(description)
        service_ref = ServiceRef.from_wire(ref)
        self._entries[service_ref.service_id] = {
            "sid": sid,
            "ref": service_ref,
        }
        return True

    def Withdraw(self, service_id: str) -> bool:
        return self._entries.pop(service_id, None) is not None

    def List(self) -> List[Dict[str, Any]]:
        return [
            BrowserEntry(entry["sid"].name, service_id, entry["ref"]).to_wire()
            for service_id, entry in sorted(self._entries.items())
        ]

    def Search(self, query: str) -> List[Dict[str, Any]]:
        needle = query.lower()
        matches = []
        for service_id, entry in sorted(self._entries.items()):
            if self._matches(entry["sid"], needle):
                matches.append(
                    BrowserEntry(entry["sid"].name, service_id, entry["ref"]).to_wire()
                )
        return matches

    def FindConforming(self, base: Any) -> List[Dict[str, Any]]:
        """Structural lookup: every registered SID usable as ``base``.

        This is browsing by *shape* instead of by text — the §3.1
        subtype-polymorphic SIDs applied to discovery: a client holding
        only a base description finds all richer services that conform.
        """
        base_sid = ServiceDescription.from_wire(base)
        matches = []
        for service_id, entry in sorted(self._entries.items()):
            if entry["sid"].conforms_to(base_sid):
                matches.append(
                    BrowserEntry(entry["sid"].name, service_id, entry["ref"]).to_wire()
                )
        return matches

    def FetchSid(self, service_id: str) -> Dict[str, Any]:
        entry = self._entries.get(service_id)
        if entry is None:
            raise LookupFailure(f"no registered service {service_id!r}")
        return entry["sid"].to_wire()

    @staticmethod
    def _matches(sid: ServiceDescription, needle: str) -> bool:
        """Search name, operation names, annotations, and export values."""
        if needle in sid.name.lower():
            return True
        for operation_name in sid.operation_names():
            if needle in operation_name.lower():
                return True
        for subject, text in sid.annotations.items():
            if needle in subject.lower() or needle in text.lower():
                return True
        for value in (sid.trader_export or {}).values():
            if isinstance(value, str) and needle in value.lower():
                return True
        return False


class BrowserService:
    """A running browser: a :class:`ServiceRuntime` over the registry."""

    def __init__(self, server: RpcServer) -> None:
        sid = load_service_description(BROWSER_SIDL)
        self._implementation = _BrowserImplementation()
        self.runtime = ServiceRuntime(server, sid, self._implementation)

    @property
    def ref(self) -> ServiceRef:
        return self.runtime.ref

    @property
    def sid(self) -> ServiceDescription:
        return self.runtime.sid

    def entries(self) -> int:
        return len(self._implementation._entries)

    def register_local(self, runtime: ServiceRuntime) -> None:
        """Register a co-located service without a network round trip."""
        self._implementation.Register(runtime.sid.to_wire(), runtime.ref.to_wire())

    def register_at(self, peer_ref: ServiceRef, client: RpcClient) -> bool:
        """Register this browser's own SID at another browser (§3.2)."""
        peer = BrowserClient(client, peer_ref)
        try:
            return peer.register(self.sid, self.ref)
        finally:
            peer.close()


class BrowserClient:
    """Typed convenience stub over the browser's uniform COSM protocol.

    Note there is nothing privileged here: every call goes through the
    same BIND/INVOKE procedures a generic client would use.
    """

    def __init__(
        self,
        client: RpcClient,
        ref: ServiceRef,
        ctx: Optional[CallContext] = None,
    ) -> None:
        self._binder = Binder(client)
        # The binding keeps the ctx, so every stub call below shares it.
        self._binding = self._binder.bind(ref, ctx=ctx)
        self.ref = ref

    def register(self, sid: ServiceDescription, ref: ServiceRef) -> bool:
        return self._binding.invoke(
            "Register", {"description": sid.to_wire(), "ref": ref.to_wire()}
        )

    def withdraw(self, service_id: str) -> bool:
        return self._binding.invoke("Withdraw", {"service_id": service_id})

    def list(self) -> List[BrowserEntry]:
        return [BrowserEntry.from_wire(item) for item in self._binding.invoke("List")]

    def search(self, query: str) -> List[BrowserEntry]:
        raw = self._binding.invoke("Search", {"query": query})
        return [BrowserEntry.from_wire(item) for item in raw]

    def find_conforming(self, base: ServiceDescription) -> List[BrowserEntry]:
        raw = self._binding.invoke("FindConforming", {"base": base.to_wire()})
        return [BrowserEntry.from_wire(item) for item in raw]

    def fetch_sid(self, service_id: str) -> ServiceDescription:
        return ServiceDescription.from_wire(
            self._binding.invoke("FetchSid", {"service_id": service_id})
        )

    def close(self) -> None:
        self._binding.unbind()
