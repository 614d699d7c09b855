"""The SIDL type system.

Types are *structural*, in the spirit of the record calculi the paper
cites (Quest, Tycoon TL): names are carried for diagnostics and UI labels
but conformance is decided by shape (see :mod:`repro.sidl.subtyping`).

Every type can

* ``check(value)`` — validate/canonicalise a Python value against the
  type (raising :class:`SidlTypeError`), which is what the generic
  client's *dynamic marshalling* runs before a value crosses the wire, and
* ``default()`` — produce the neutral value used to pre-populate the
  generated UI forms of Fig. 7.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sidl.errors import SidlTypeError

SID_WIRE_MARKER = "sid"
SERVICE_REF_WIRE_MARKER = "service_reference"
_MARKER_KEY = "__cosm__"


class SidlType:
    """Base class of all SIDL types."""

    name: str = "?"

    def check(self, value: Any) -> Any:
        raise NotImplementedError

    def default(self) -> Any:
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable form used in diagnostics and generated UIs."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


class VoidType(SidlType):
    name = "void"

    def check(self, value: Any) -> Any:
        if value is not None:
            raise SidlTypeError(f"void cannot hold {value!r}")
        return None

    def default(self) -> Any:
        return None


class BooleanType(SidlType):
    name = "boolean"

    def check(self, value: Any) -> Any:
        if not isinstance(value, bool):
            raise SidlTypeError(f"expected boolean, got {value!r}")
        return value

    def default(self) -> Any:
        return False


class IntegerType(SidlType):
    """Fixed-width signed integer (short/long/long long/octet)."""

    def __init__(self, name: str, bits: int, signed: bool = True) -> None:
        self.name = name
        self.bits = bits
        if signed:
            self.minimum = -(2 ** (bits - 1))
            self.maximum = 2 ** (bits - 1) - 1
        else:
            self.minimum = 0
            self.maximum = 2**bits - 1

    def check(self, value: Any) -> Any:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SidlTypeError(f"expected {self.name}, got {value!r}")
        if not self.minimum <= value <= self.maximum:
            raise SidlTypeError(
                f"{value} out of range for {self.name} "
                f"[{self.minimum}, {self.maximum}]"
            )
        return value

    def default(self) -> Any:
        return 0


class FloatType(SidlType):
    def __init__(self, name: str) -> None:
        self.name = name

    def check(self, value: Any) -> Any:
        if isinstance(value, bool):
            raise SidlTypeError(f"expected {self.name}, got {value!r}")
        if isinstance(value, int):
            return float(value)
        if not isinstance(value, float):
            raise SidlTypeError(f"expected {self.name}, got {value!r}")
        return value

    def default(self) -> Any:
        return 0.0


class StringType(SidlType):
    def __init__(self, bound: Optional[int] = None) -> None:
        self.bound = bound
        self.name = f"string<{bound}>" if bound else "string"

    def check(self, value: Any) -> Any:
        if not isinstance(value, str):
            raise SidlTypeError(f"expected string, got {value!r}")
        if self.bound is not None and len(value) > self.bound:
            raise SidlTypeError(
                f"string of length {len(value)} exceeds bound {self.bound}"
            )
        return value

    def default(self) -> Any:
        return ""


class OctetsType(SidlType):
    """A byte string (sequence<octet> collapsed to bytes)."""

    name = "octets"

    def check(self, value: Any) -> Any:
        if not isinstance(value, (bytes, bytearray)):
            raise SidlTypeError(f"expected bytes, got {value!r}")
        return bytes(value)

    def default(self) -> Any:
        return b""


class EnumType(SidlType):
    def __init__(self, name: str, labels: Sequence[str]) -> None:
        if not labels:
            raise SidlTypeError(f"enum {name} needs at least one label")
        if len(set(labels)) != len(labels):
            raise SidlTypeError(f"enum {name} has duplicate labels")
        self.name = name
        self.labels = tuple(labels)

    def check(self, value: Any) -> Any:
        if not isinstance(value, str) or value not in self.labels:
            raise SidlTypeError(
                f"{value!r} is not a label of enum {self.name} {self.labels}"
            )
        return value

    def default(self) -> Any:
        return self.labels[0]

    def describe(self) -> str:
        return f"enum {self.name} {{ {', '.join(self.labels)} }}"


class StructType(SidlType):
    """A record type; values are string-keyed dicts.

    ``check`` validates the declared fields and *preserves* unknown keys:
    extended subtype values stay intact while travelling through
    components that only know the base type (§3.1).
    """

    def __init__(self, name: str, fields: Sequence[Tuple[str, SidlType]]) -> None:
        names = [field_name for field_name, __ in fields]
        if len(set(names)) != len(names):
            raise SidlTypeError(f"struct {name} has duplicate fields")
        self.name = name
        self.fields = tuple(fields)
        self._by_name = dict(self.fields)

    def field_type(self, field_name: str) -> Optional[SidlType]:
        return self._by_name.get(field_name)

    def check(self, value: Any) -> Any:
        if not isinstance(value, dict):
            raise SidlTypeError(f"expected struct {self.name} dict, got {value!r}")
        checked: Dict[str, Any] = {}
        for field_name, field_type in self.fields:
            if field_name not in value:
                raise SidlTypeError(
                    f"struct {self.name} missing field {field_name!r}"
                )
            try:
                checked[field_name] = field_type.check(value[field_name])
            except SidlTypeError as exc:
                raise SidlTypeError(f"{self.name}.{field_name}: {exc}") from exc
        for key, extra in value.items():
            if key not in checked:
                checked[key] = extra
        return checked

    def default(self) -> Any:
        return {field_name: field_type.default() for field_name, field_type in self.fields}

    def describe(self) -> str:
        inner = "; ".join(f"{t.name} {n}" for n, t in self.fields)
        return f"struct {self.name} {{ {inner} }}"


class SequenceType(SidlType):
    def __init__(self, element: SidlType, bound: Optional[int] = None) -> None:
        self.element = element
        self.bound = bound
        suffix = f", {bound}" if bound else ""
        self.name = f"sequence<{element.name}{suffix}>"

    def check(self, value: Any) -> Any:
        if not isinstance(value, (list, tuple)):
            raise SidlTypeError(f"expected sequence, got {value!r}")
        if self.bound is not None and len(value) > self.bound:
            raise SidlTypeError(
                f"sequence of length {len(value)} exceeds bound {self.bound}"
            )
        return [self.element.check(item) for item in value]

    def default(self) -> Any:
        return []


class UnionType(SidlType):
    """Discriminated union; values are ``{"tag": label, "value": x}``."""

    def __init__(
        self,
        name: str,
        discriminator: EnumType,
        cases: Sequence[Tuple[Optional[str], str, SidlType]],
    ) -> None:
        self.name = name
        self.discriminator = discriminator
        self.cases = tuple(cases)
        self._arms: Dict[Optional[str], Tuple[str, SidlType]] = {}
        for label, arm_name, arm_type in cases:
            if label in self._arms:
                raise SidlTypeError(f"union {name}: duplicate case {label!r}")
            if label is not None:
                discriminator.check(label)
            self._arms[label] = (arm_name, arm_type)

    def arm_for(self, label: str) -> Tuple[str, SidlType]:
        if label in self._arms:
            return self._arms[label]
        if None in self._arms:  # default arm
            return self._arms[None]
        raise SidlTypeError(f"union {self.name} has no arm for {label!r}")

    def check(self, value: Any) -> Any:
        if not isinstance(value, dict) or "tag" not in value:
            raise SidlTypeError(
                f"expected union {self.name} value {{'tag','value'}}, got {value!r}"
            )
        label = self.discriminator.check(value["tag"])
        __, arm_type = self.arm_for(label)
        return {"tag": label, "value": arm_type.check(value.get("value"))}

    def default(self) -> Any:
        label = self.discriminator.default()
        __, arm_type = self.arm_for(label)
        return {"tag": label, "value": arm_type.default()}


class AnyType(SidlType):
    """Accepts any marshallable value (CORBA ``any``)."""

    name = "any"

    def check(self, value: Any) -> Any:
        return value

    def default(self) -> Any:
        return None


class ServiceReferenceType(SidlType):
    """The paper's SERVICEREFERENCE base type (§3.2).

    Values are first-class and transferable: either a live object with a
    ``to_wire()`` method (:class:`repro.naming.refs.ServiceRef`) or its
    wire-dict form carrying the ``__cosm__`` marker.
    """

    name = "service_reference"

    def check(self, value: Any) -> Any:
        if hasattr(value, "to_wire") and callable(value.to_wire):
            return value.to_wire()
        if isinstance(value, dict) and value.get(_MARKER_KEY) == SERVICE_REF_WIRE_MARKER:
            return value
        raise SidlTypeError(f"expected a service reference, got {value!r}")

    def default(self) -> Any:
        return None


class SidValueType(SidlType):
    """SIDs themselves as communicable values (§3.1)."""

    name = "sid"

    def check(self, value: Any) -> Any:
        if hasattr(value, "to_wire") and callable(value.to_wire):
            return value.to_wire()
        if isinstance(value, dict) and value.get(_MARKER_KEY) == SID_WIRE_MARKER:
            return value
        raise SidlTypeError(f"expected a SID, got {value!r}")

    def default(self) -> Any:
        return None


class OperationType:
    """Signature of one service operation."""

    def __init__(
        self,
        name: str,
        params: Sequence[Tuple[str, str, SidlType]],
        result: SidlType,
        oneway: bool = False,
    ) -> None:
        self.name = name
        self.params = tuple(params)  # (param name, direction, type)
        self.result = result
        self.oneway = oneway

    def in_params(self) -> List[Tuple[str, SidlType]]:
        return [(n, t) for n, d, t in self.params if d in ("in", "inout")]

    def check_arguments(self, arguments: Dict[str, Any]) -> Dict[str, Any]:
        """Validate a name->value argument dict against the in-params."""
        if not isinstance(arguments, dict):
            raise SidlTypeError(
                f"{self.name}: arguments must be a dict, got {arguments!r}"
            )
        checked: Dict[str, Any] = {}
        for param_name, param_type in self.in_params():
            if param_name not in arguments:
                raise SidlTypeError(f"{self.name}: missing argument {param_name!r}")
            try:
                checked[param_name] = param_type.check(arguments[param_name])
            except SidlTypeError as exc:
                raise SidlTypeError(f"{self.name}({param_name}): {exc}") from exc
        unknown = set(arguments) - {n for n, __ in self.in_params()}
        if unknown:
            raise SidlTypeError(
                f"{self.name}: unknown argument(s) {sorted(unknown)}"
            )
        return checked

    def describe(self) -> str:
        params = ", ".join(f"{d} {t.name} {n}" for n, d, t in self.params)
        prefix = "oneway " if self.oneway else ""
        return f"{prefix}{self.result.name} {self.name}({params})"


class InterfaceType:
    """The operational signature of a service."""

    def __init__(self, name: str, operations: Sequence[OperationType]) -> None:
        self.name = name
        self.operations: Dict[str, OperationType] = {}
        for operation in operations:
            if operation.name in self.operations:
                raise SidlTypeError(
                    f"interface {name}: duplicate operation {operation.name}"
                )
            self.operations[operation.name] = operation

    def operation(self, name: str) -> OperationType:
        if name not in self.operations:
            raise SidlTypeError(f"interface {self.name} has no operation {name!r}")
        return self.operations[name]

    def operation_names(self) -> List[str]:
        return list(self.operations)

    def describe(self) -> str:
        ops = "; ".join(op.describe() for op in self.operations.values())
        return f"interface {self.name} {{ {ops} }}"


# Primitive singletons
VOID = VoidType()
BOOLEAN = BooleanType()
OCTET = IntegerType("octet", 8, signed=False)
SHORT = IntegerType("short", 16)
LONG = IntegerType("long", 32)
LONG_LONG = IntegerType("long long", 64)
FLOAT = FloatType("float")
DOUBLE = FloatType("double")
STRING = StringType()
OCTETS = OctetsType()
ANY = AnyType()
SERVICE_REFERENCE = ServiceReferenceType()
SID_VALUE = SidValueType()

PRIMITIVES: Dict[str, SidlType] = {
    "void": VOID,
    "boolean": BOOLEAN,
    "octet": OCTET,
    "short": SHORT,
    "long": LONG,
    "long long": LONG_LONG,
    "float": FLOAT,
    "double": DOUBLE,
    "string": STRING,
    "octets": OCTETS,
    "any": ANY,
    "service_reference": SERVICE_REFERENCE,
    "sid": SID_VALUE,
}
