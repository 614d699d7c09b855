"""Service types: the central notion of ODP trading (§2.1).

A service type couples an operational interface signature with a set of
characterising attribute (property) types.  Exported offers must refer to
a registered service type and supply a value for every attribute; import
requests select offers by type (or any subtype) plus attribute
constraints.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sidl.codec import (
    interface_from_wire,
    interface_to_wire,
    type_from_wire,
    type_to_wire,
)
from repro.sidl.errors import SidlTypeError
from repro.sidl.sid import ServiceDescription
from repro.sidl.subtyping import interface_conforms, is_subtype
from repro.sidl.types import (
    BOOLEAN,
    DOUBLE,
    EnumType,
    InterfaceType,
    LONG,
    STRING,
    SidlType,
)
from repro.trader.errors import InvalidOfferProperties


class ServiceType:
    """A standardised service class: interface type + attribute types."""

    def __init__(
        self,
        name: str,
        interface: InterfaceType,
        attributes: Sequence[Tuple[str, SidlType]],
        super_types: Sequence[str] = (),
    ) -> None:
        self.name = name
        self.interface = interface
        self.attributes: Dict[str, SidlType] = dict(attributes)
        self.super_types = tuple(super_types)

    # -- offer validation -----------------------------------------------------

    def check_properties(self, properties: Dict[str, Any]) -> Dict[str, Any]:
        """Validate an offer's property values against the attribute types.

        Every declared attribute must be present (the paper: the offer
        "has to specify the values for all attributes of the service
        type"); unknown extra properties are allowed and kept, supporting
        value-added description.
        """
        if not isinstance(properties, dict):
            raise InvalidOfferProperties(f"properties must be a dict: {properties!r}")
        from repro.trader.dynamic import is_dynamic

        checked: Dict[str, Any] = {}
        for attr_name, attr_type in self.attributes.items():
            if attr_name not in properties:
                raise InvalidOfferProperties(
                    f"offer for {self.name} missing attribute {attr_name!r}"
                )
            value = properties[attr_name]
            if is_dynamic(value):
                # late-bound: the type is checked against the live value
                # at import time, not at export time
                checked[attr_name] = value
                continue
            try:
                checked[attr_name] = attr_type.check(value)
            except SidlTypeError as exc:
                raise InvalidOfferProperties(f"{self.name}.{attr_name}: {exc}")
        for key, value in properties.items():
            if key not in checked:
                checked[key] = value
        return checked

    # -- type relationships -----------------------------------------------------

    def conforms_to(self, base: "ServiceType") -> bool:
        """Structural service-type conformance.

        A type serves requests for ``base`` when its interface conforms
        and it carries at least the base's attributes at subtypes.  (The
        declared ``super_types`` hierarchy is managed separately by the
        type manager; this is the structural check.)
        """
        if not interface_conforms(self.interface, base.interface):
            return False
        for attr_name, base_attr in base.attributes.items():
            own = self.attributes.get(attr_name)
            if own is None or not is_subtype(own, base_attr):
                return False
        return True

    # -- wire form --------------------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "interface": interface_to_wire(self.interface, {}),
            "attributes": [
                [attr_name, type_to_wire(attr_type, {})]
                for attr_name, attr_type in self.attributes.items()
            ],
            "super_types": list(self.super_types),
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "ServiceType":
        memo: Dict[str, SidlType] = {}
        interface = interface_from_wire(data["interface"], {}, memo)
        attributes = [
            (attr_name, type_from_wire(attr_data, {}, memo))
            for attr_name, attr_data in data["attributes"]
        ]
        return cls(data["name"], interface, attributes, data.get("super_types", ()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServiceType):
            return NotImplemented
        return self.to_wire() == other.to_wire()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ServiceType {self.name} attrs={sorted(self.attributes)}>"


def _attribute_type_for(value: Any) -> SidlType:
    if value is True or value is False:
        return BOOLEAN
    if isinstance(value, int):
        return LONG
    if isinstance(value, float):
        return DOUBLE
    return STRING


#: Export-embedding entries that describe the offer, not the service type.
RESERVED_EXPORTS = ("ServiceID", "TOD", "ServiceType")


def service_type_from_sid(sid: ServiceDescription) -> ServiceType:
    """Derive a service type from a SID's ``COSM_TraderExport`` (§4.1).

    This is the maturation path: once an innovative service's description
    stabilises, its export embedding *is* the service type — the interface
    signature comes from the SID, attribute types are inferred from the
    exported attribute values (enum-typed attributes keep their declared
    enum when the SID declares one).
    """
    export = sid.trader_export or {}
    attributes: List[Tuple[str, SidlType]] = []
    for attr_name, value in export.items():
        if attr_name in RESERVED_EXPORTS:
            continue
        declared = _declared_enum_for(sid, value)
        attributes.append((attr_name, declared or _attribute_type_for(value)))
    return ServiceType(
        sid.service_type_name or sid.name,
        sid.interface,
        attributes,
    )


def _declared_enum_for(sid: ServiceDescription, value: Any) -> Optional[SidlType]:
    """Find the SID-declared enum that an exported label value belongs to."""
    if not isinstance(value, str):
        return None
    for sidl_type in sid.types.values():
        if isinstance(sidl_type, EnumType) and value in sidl_type.labels:
            return sidl_type
    return None
