"""The Service Interface Description — a first-class, communicable value.

A :class:`ServiceDescription` is the paper's SID (§3.1): a *container* of
descriptional elements.  The base elements are the type definitions and
the operational signature; optional extensions add an FSM protocol, trader
export attributes (the ``COSM_TraderExport`` embedding of §4.1), natural
language annotations, and UI hints.  Unknown extension modules are carried
along verbatim so that more capable components downstream can still see
them (Fig. 2's subtype-polymorphic SIDs).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.sidl.codec import (
    interface_from_wire,
    interface_to_wire,
    type_from_wire,
    type_to_wire,
)
from repro.sidl.errors import SidlSemanticError
from repro.sidl.fsm import FsmSession, FsmSpec
from repro.sidl.subtyping import interface_conforms, is_subtype
from repro.sidl.types import InterfaceType, SID_WIRE_MARKER, SidlType

# Canonical element names, as drawn in Fig. 2.
ELEMENT_TYPES = "TypeDefinition"
ELEMENT_OPERATIONS = "OpSignatureDefinition"
ELEMENT_SERVICE_TYPE = "ServiceTypeDefinition"
ELEMENT_FSM = "FSMDefinition"
ELEMENT_ANNOTATIONS = "AnnotationDefinition"
ELEMENT_UI_HINTS = "UIHintDefinition"


class ServiceDescription:
    """A SID: everything a client needs to use a service it never saw."""

    def __init__(
        self,
        name: str,
        interface: InterfaceType,
        types: Optional[Dict[str, SidlType]] = None,
        constants: Optional[Dict[str, Any]] = None,
        fsm: Optional[FsmSpec] = None,
        trader_export: Optional[Dict[str, Any]] = None,
        annotations: Optional[Dict[str, str]] = None,
        ui_hints: Optional[Dict[str, Any]] = None,
        unknown_modules: Optional[List[Tuple[str, str]]] = None,
    ) -> None:
        if interface is None:
            raise SidlSemanticError(f"SID {name!r} needs an operational interface")
        self.name = name
        self.interface = interface
        self.types = dict(types or {})
        self.constants = dict(constants or {})
        self.fsm = fsm
        self.trader_export = dict(trader_export) if trader_export else None
        self.annotations = dict(annotations or {})
        self.ui_hints = dict(ui_hints or {})
        self.unknown_modules = list(unknown_modules or [])

    # -- element container view (Fig. 2) -----------------------------------

    def elements(self) -> List[str]:
        """The descriptional elements this SID carries."""
        present = [ELEMENT_TYPES, ELEMENT_OPERATIONS]
        if self.trader_export is not None:
            present.append(ELEMENT_SERVICE_TYPE)
        if self.fsm is not None:
            present.append(ELEMENT_FSM)
        if self.annotations:
            present.append(ELEMENT_ANNOTATIONS)
        if self.ui_hints:
            present.append(ELEMENT_UI_HINTS)
        present.extend(name for name, __ in self.unknown_modules)
        return present

    def conforms_to(self, base: "ServiceDescription") -> bool:
        """Structural SID conformance: self is usable wherever ``base`` is.

        Requires (1) the operational interface to conform, (2) every named
        type of the base to exist here as a structural subtype, and
        (3) every optional element present in the base to be present here
        (FSMs must agree exactly; export attributes may only grow).
        """
        if not interface_conforms(self.interface, base.interface):
            return False
        for type_name, base_type in base.types.items():
            own = self.types.get(type_name)
            if own is None or not is_subtype(own, base_type):
                return False
        if base.fsm is not None:
            if self.fsm is None or self.fsm != base.fsm:
                return False
        if base.trader_export is not None:
            if self.trader_export is None:
                return False
            for key, value in base.trader_export.items():
                if self.trader_export.get(key) != value:
                    return False
        return True

    # -- convenience --------------------------------------------------------

    @property
    def service_type_name(self) -> Optional[str]:
        """The trader service type this SID claims, when exported (§4.1).

        The paper's listing calls the attribute ``TOD`` ("type of
        description"); ``ServiceType`` is accepted as the modern spelling.
        """
        if not self.trader_export:
            return None
        return self.trader_export.get("TOD") or self.trader_export.get("ServiceType")

    def operation_names(self) -> List[str]:
        return self.interface.operation_names()

    def annotation_for(self, subject: str) -> Optional[str]:
        return self.annotations.get(subject)

    def new_session(self) -> Optional[FsmSession]:
        """Start an FSM session for a new binding (None when unrestricted)."""
        if self.fsm is None:
            return None
        return FsmSession(self.fsm)

    def validate(self) -> List[str]:
        """Self-consistency diagnostics (empty list = clean)."""
        diagnostics: List[str] = []
        if self.fsm is not None:
            diagnostics.extend(self.fsm.validate_against(self.operation_names()))
            unreachable = self.fsm.unreachable_states()
            if unreachable:
                diagnostics.append(f"FSM states unreachable: {sorted(unreachable)}")
        for subject in self.annotations:
            root = subject.split("::", 1)[0]
            if (
                root not in self.interface.operations
                and root not in self.types
                and root != self.name
            ):
                diagnostics.append(f"annotation for unknown subject {subject!r}")
        return diagnostics

    # -- wire form -----------------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        """Encode as a plain dict that the RPC tagged codec can carry."""
        named = self.types
        return {
            "__cosm__": SID_WIRE_MARKER,
            "name": self.name,
            # Each definition may reference the *other* named types (not
            # itself), so decoding shares one object per name — nested
            # uses of a named type stay identical to the table entry.
            "types": {
                type_name: type_to_wire(
                    sidl_type,
                    {other: named[other] for other in named if other != type_name},
                )
                for type_name, sidl_type in named.items()
            },
            "constants": dict(self.constants),
            "interface": interface_to_wire(self.interface, named),
            "fsm": self.fsm.to_wire() if self.fsm else None,
            "trader_export": dict(self.trader_export) if self.trader_export else None,
            "annotations": dict(self.annotations),
            "ui_hints": dict(self.ui_hints),
            "unknown_modules": [list(item) for item in self.unknown_modules],
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "ServiceDescription":
        if not isinstance(data, dict) or data.get("__cosm__") != SID_WIRE_MARKER:
            raise SidlSemanticError(f"not a SID wire value: {data!r}")
        definitions = data.get("types", {})
        memo: Dict[str, SidlType] = {}
        types = {
            type_name: type_from_wire({"kind": "ref", "name": type_name}, definitions, memo)
            for type_name in definitions
        }
        interface = interface_from_wire(data["interface"], definitions, memo)
        fsm = FsmSpec.from_wire(data["fsm"]) if data.get("fsm") else None
        return cls(
            name=data["name"],
            interface=interface,
            types=types,
            constants=data.get("constants", {}),
            fsm=fsm,
            trader_export=data.get("trader_export"),
            annotations=data.get("annotations", {}),
            ui_hints=data.get("ui_hints", {}),
            unknown_modules=[tuple(item) for item in data.get("unknown_modules", [])],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServiceDescription):
            return NotImplemented
        return self.to_wire() == other.to_wire()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SID {self.name} elements={self.elements()}>"

    # -- SIDL source regeneration ---------------------------------------------

    def to_sidl(self) -> str:
        """Regenerate SIDL source for this SID (canonical form)."""
        from repro.sidl.generate import sid_to_sidl  # local import: avoid cycle

        return sid_to_sidl(self)
