"""AST node classes produced by the SIDL parser.

Type *references* in the AST are textual (:class:`TypeRef`); resolution to
:mod:`repro.sidl.types` objects happens in the builder so that parsing
never needs a symbol table and unknown modules can be skipped cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple, Union


@dataclass(frozen=True)
class TypeRef:
    """A syntactic reference to a type.

    ``name`` is a primitive keyword ("long", "string", ...), a declared
    type name, or the pseudo-names "sequence" (with ``element`` set),
    "service_reference", "sid", and "any".
    """

    name: str
    element: Optional["TypeRef"] = None  # for sequence<element>
    bound: Optional[int] = None  # for bounded sequences/strings

    def __str__(self) -> str:
        if self.name == "sequence" and self.element is not None:
            if self.bound is not None:
                return f"sequence<{self.element}, {self.bound}>"
            return f"sequence<{self.element}>"
        if self.name == "string" and self.bound is not None:
            return f"string<{self.bound}>"
        return self.name


@dataclass
class ParamDecl:
    """One operation parameter: direction is in/out/inout."""

    direction: str
    type_ref: TypeRef
    name: str


@dataclass
class OperationDecl:
    """``ResultType Name(params)`` inside an interface."""

    name: str
    result: TypeRef
    params: List[ParamDecl] = field(default_factory=list)
    oneway: bool = False


@dataclass
class AttributeDecl:
    """``(readonly)? attribute <type> <name>;`` inside an interface."""

    name: str
    type_ref: TypeRef
    readonly: bool = False


@dataclass
class InterfaceDecl:
    name: str
    operations: List[OperationDecl] = field(default_factory=list)
    attributes: List[AttributeDecl] = field(default_factory=list)
    bases: List[str] = field(default_factory=list)


@dataclass
class EnumDecl:
    name: str
    labels: List[str] = field(default_factory=list)


@dataclass
class StructDecl:
    name: str
    fields: List[Tuple[str, TypeRef]] = field(default_factory=list)


@dataclass
class UnionDecl:
    """``union Name switch (discriminator) { case label: type name; ... }``"""

    name: str
    discriminator: TypeRef = None
    cases: List[Tuple[Any, str, TypeRef]] = field(default_factory=list)
    # cases: (case label value, arm name, arm type); label None = default


@dataclass
class TypedefDecl:
    """``typedef <type> <name>;`` — also accepts the paper's reversed order."""

    name: str
    type_ref: TypeRef = None
    inline: Any = None  # EnumDecl/StructDecl/UnionDecl defined in the typedef


@dataclass
class ConstDecl:
    name: str
    type_ref: TypeRef
    value: Any


@dataclass
class FsmTransitionDecl:
    source: str
    operation: str
    target: str


@dataclass
class FsmDecl:
    """Parsed COSM_FSM module body."""

    states: List[str] = field(default_factory=list)
    initial: Optional[str] = None
    transitions: List[FsmTransitionDecl] = field(default_factory=list)


@dataclass
class AnnotationDecl:
    """``annotation <subject> "text";`` — natural-language SID element."""

    subject: str
    text: str


@dataclass
class SkippedDecl:
    """A declaration the parser did not understand and skipped (lenient mode).

    Carries the raw source slice so the SID can be re-transmitted without
    losing extensions meant for more capable components (§4.1).
    """

    raw_text: str
    line: int


@dataclass
class ModuleDecl:
    """A module: the unit of SID structure and of COSM embeddings."""

    name: str
    body: List[Any] = field(default_factory=list)

    def declarations(self, kind) -> List[Any]:
        return [decl for decl in self.body if isinstance(decl, kind)]


Declaration = Union[
    ModuleDecl,
    InterfaceDecl,
    EnumDecl,
    StructDecl,
    UnionDecl,
    TypedefDecl,
    ConstDecl,
    FsmDecl,
    AnnotationDecl,
    SkippedDecl,
]
