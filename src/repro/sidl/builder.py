"""Builder: SIDL AST → :class:`ServiceDescription`.

This is the layer that implements §4.1's interpretation rule: COSM
embeddings are recognised *by module name* (``COSM_TraderExport``,
``COSM_FSM``, ``COSM_Annotations``, ``COSM_UIHints``); any other embedded
module bears no meaning to this component and is preserved verbatim for
components that do understand it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.sidl.ast_nodes import (
    AnnotationDecl,
    AttributeDecl,
    ConstDecl,
    EnumDecl,
    FsmDecl,
    InterfaceDecl,
    ModuleDecl,
    OperationDecl,
    SkippedDecl,
    StructDecl,
    TypeRef,
    TypedefDecl,
    UnionDecl,
)
from repro.sidl.errors import SidlSemanticError
from repro.sidl.fsm import FsmSpec, FsmTransition
from repro.sidl.parser import parse
from repro.sidl.printer import print_module
from repro.sidl.sid import ServiceDescription
from repro.sidl.types import (
    ANY,
    EnumType,
    FloatType,
    IntegerType,
    InterfaceType,
    OperationType,
    PRIMITIVES,
    SequenceType,
    SidlType,
    StringType,
    StructType,
    UnionType,
)

# Module names this builder understands; everything else is an extension.
MODULE_TRADER_EXPORT = "COSM_TraderExport"
MODULE_FSM = "COSM_FSM"
MODULE_ANNOTATIONS = "COSM_Annotations"
MODULE_UI_HINTS = "COSM_UIHints"
INTERFACE_OPERATIONS = "COSM_Operations"

_KNOWN_MODULES = frozenset(
    {MODULE_TRADER_EXPORT, MODULE_FSM, MODULE_ANNOTATIONS, MODULE_UI_HINTS}
)


def load_service_description(
    source: str,
    name: Optional[str] = None,
    type_fallback: bool = False,
) -> ServiceDescription:
    """Parse SIDL source and build the SID of one service module.

    Unknown constructs are skipped (a lenient parse); ``type_fallback``
    maps unresolved type names to ``any`` instead of raising (useful when
    mediating descriptions written against types the local component does
    not know).
    """
    declarations = parse(source)
    return build_service_description(declarations, name, type_fallback)


def build_service_description(
    declarations: List[Any],
    name: Optional[str] = None,
    type_fallback: bool = False,
) -> ServiceDescription:
    """Build a SID from parsed declarations (module selected by ``name``)."""
    module = _select_module(declarations, name)
    return _Builder(module, type_fallback).build()


def _select_module(declarations: List[Any], name: Optional[str]) -> ModuleDecl:
    modules = [decl for decl in declarations if isinstance(decl, ModuleDecl)]
    if name is not None:
        for module in modules:
            if module.name == name:
                return module
        raise SidlSemanticError(f"no module named {name!r} in source")
    if not modules:
        raise SidlSemanticError("source contains no service module")
    return modules[0]


class _Builder:
    def __init__(self, module: ModuleDecl, type_fallback: bool) -> None:
        self.module = module
        self.type_fallback = type_fallback
        self.scope: Dict[str, SidlType] = {}
        self.interfaces: Dict[str, InterfaceType] = {}
        self.constants: Dict[str, Any] = {}
        self.annotations: Dict[str, str] = {}
        self.ui_hints: Dict[str, Any] = {}
        self.trader_export: Optional[Dict[str, Any]] = None
        self.fsm: Optional[FsmSpec] = None
        self.unknown_modules: List[Tuple[str, str]] = []
        self.diagnostics: List[str] = []

    def build(self) -> ServiceDescription:
        for decl in self.module.body:
            self._process(decl)
        interface = self._primary_interface()
        sid = ServiceDescription(
            name=self.module.name,
            interface=interface,
            types=self.scope,
            constants=self.constants,
            fsm=self.fsm,
            trader_export=self.trader_export,
            annotations=self.annotations,
            ui_hints=self.ui_hints,
            unknown_modules=self.unknown_modules,
        )
        return sid

    # -- declaration processing ---------------------------------------------

    def _process(self, decl: Any) -> None:
        if isinstance(decl, TypedefDecl):
            self._process_typedef(decl)
        elif isinstance(decl, EnumDecl):
            self.scope[decl.name] = EnumType(decl.name, decl.labels)
        elif isinstance(decl, StructDecl):
            self.scope[decl.name] = self._build_struct(decl)
        elif isinstance(decl, UnionDecl):
            self.scope[decl.name] = self._build_union(decl)
        elif isinstance(decl, InterfaceDecl):
            self.interfaces[decl.name] = self._build_interface(decl)
        elif isinstance(decl, ConstDecl):
            self.constants[decl.name] = self._const_value(decl)
        elif isinstance(decl, AnnotationDecl):
            self.annotations[decl.subject] = decl.text
        elif isinstance(decl, FsmDecl):
            self.fsm = self._build_fsm(decl)
        elif isinstance(decl, ModuleDecl):
            self._process_submodule(decl)
        elif isinstance(decl, SkippedDecl):
            self.unknown_modules.append(("skipped", decl.raw_text))
        else:
            raise SidlSemanticError(f"unexpected declaration {decl!r}")

    def _process_typedef(self, decl: TypedefDecl) -> None:
        if decl.inline is not None:
            inline = decl.inline
            if isinstance(inline, EnumDecl):
                built: SidlType = EnumType(decl.name, inline.labels)
            elif isinstance(inline, StructDecl):
                built = self._build_struct(inline, name=decl.name)
            elif isinstance(inline, UnionDecl):
                built = self._build_union(inline, name=decl.name)
            else:
                raise SidlSemanticError(f"bad inline typedef {decl.name}")
            self.scope[decl.name] = built
            return
        resolved = self._resolve(decl.type_ref, context=f"typedef {decl.name}")
        self.scope[decl.name] = resolved

    def _build_struct(self, decl: StructDecl, name: Optional[str] = None) -> StructType:
        fields = [
            (field_name, self._resolve(type_ref, context=f"struct field {field_name}"))
            for field_name, type_ref in decl.fields
        ]
        return StructType(name or decl.name, fields)

    def _build_union(self, decl: UnionDecl, name: Optional[str] = None) -> UnionType:
        discriminator = self._resolve(decl.discriminator, context="union discriminator")
        if not isinstance(discriminator, EnumType):
            raise SidlSemanticError(
                f"union {name or decl.name}: discriminator must be an enum"
            )
        cases = [
            (label, arm_name, self._resolve(arm_type, context=f"union arm {arm_name}"))
            for label, arm_name, arm_type in decl.cases
        ]
        return UnionType(name or decl.name, discriminator, cases)

    def _build_interface(self, decl: InterfaceDecl) -> InterfaceType:
        operations: List[OperationType] = []
        for base_name in decl.bases:
            base = self.interfaces.get(base_name.split("::")[-1])
            if base is None:
                raise SidlSemanticError(
                    f"interface {decl.name}: unknown base {base_name!r}"
                )
            operations.extend(base.operations.values())
        for attribute in decl.attributes:
            operations.extend(self._attribute_operations(attribute))
        for operation in decl.operations:
            operations.append(self._build_operation(operation))
        return InterfaceType(decl.name, operations)

    def _attribute_operations(self, attribute: AttributeDecl) -> List[OperationType]:
        """CORBA maps an attribute to implicit _get/_set operations."""
        attr_type = self._resolve(attribute.type_ref, context=f"attribute {attribute.name}")
        operations = [
            OperationType(f"_get_{attribute.name}", [], attr_type)
        ]
        if not attribute.readonly:
            operations.append(
                OperationType(
                    f"_set_{attribute.name}",
                    [("value", "in", attr_type)],
                    PRIMITIVES["void"],
                )
            )
        return operations

    def _build_operation(self, decl: OperationDecl) -> OperationType:
        params = []
        for index, param in enumerate(decl.params):
            param_type = self._resolve(
                param.type_ref, context=f"{decl.name} parameter {param.name or index}"
            )
            params.append((param.name or f"arg{index}", param.direction, param_type))
        result = self._resolve(decl.result, context=f"{decl.name} result")
        return OperationType(decl.name, params, result, decl.oneway)

    def _const_value(self, decl: ConstDecl) -> Any:
        """Coerce a const to its declared type when that type is known.

        Trader-export attributes in the wild reference types the local
        component may not know (the paper's own listing uses undeclared
        ``ID`` and ``ChargeCurrency_t``); those keep their literal value.
        """
        resolved = self._try_resolve(decl.type_ref)
        value = decl.value
        if resolved is None:
            return value
        if isinstance(resolved, FloatType) and isinstance(value, int):
            return float(value)
        if isinstance(resolved, (EnumType, IntegerType, StringType, FloatType)):
            try:
                return resolved.check(value)
            except Exception:  # noqa: BLE001 - keep raw literal on mismatch
                self.diagnostics.append(
                    f"const {decl.name}: {value!r} does not fit {resolved.name}"
                )
                return value
        return value

    def _build_fsm(self, decl: FsmDecl) -> FsmSpec:
        transitions = [
            FsmTransition(t.source, t.operation, t.target) for t in decl.transitions
        ]
        states = list(decl.states)
        for transition in transitions:
            for state in (transition.source, transition.target):
                if state not in states:
                    states.append(state)
        if not states:
            raise SidlSemanticError("FSM module declares no states")
        initial = decl.initial or states[0]
        return FsmSpec(states, initial, transitions)

    def _process_submodule(self, module: ModuleDecl) -> None:
        if module.name == MODULE_TRADER_EXPORT:
            export: Dict[str, Any] = {}
            for decl in module.body:
                if isinstance(decl, ConstDecl):
                    export[decl.name] = self._const_value(decl)
            self.trader_export = export
            return
        if module.name == MODULE_FSM:
            fsm_decls = module.declarations(FsmDecl)
            if not fsm_decls:
                raise SidlSemanticError("COSM_FSM module contains no FSM statements")
            self.fsm = self._build_fsm(fsm_decls[0])
            return
        if module.name == MODULE_ANNOTATIONS:
            for decl in module.declarations(AnnotationDecl):
                self.annotations[decl.subject] = decl.text
            return
        if module.name == MODULE_UI_HINTS:
            for decl in module.body:
                if isinstance(decl, ConstDecl):
                    self.ui_hints[decl.name] = decl.value
            return
        # Unknown embedding: preserve, do not interpret (§4.1).
        self.unknown_modules.append((module.name, print_module(module)))

    def _primary_interface(self) -> InterfaceType:
        if INTERFACE_OPERATIONS in self.interfaces:
            return self.interfaces[INTERFACE_OPERATIONS]
        if self.interfaces:
            return next(iter(self.interfaces.values()))
        raise SidlSemanticError(
            f"module {self.module.name!r} declares no interface"
        )

    # -- type resolution -----------------------------------------------------

    def _resolve(self, type_ref: TypeRef, context: str) -> SidlType:
        resolved = self._try_resolve(type_ref)
        if resolved is not None:
            return resolved
        if self.type_fallback:
            self.diagnostics.append(
                f"{context}: unknown type {type_ref} mapped to any"
            )
            return ANY
        raise SidlSemanticError(f"{context}: unknown type {type_ref}")

    def _try_resolve(self, type_ref: TypeRef) -> Optional[SidlType]:
        if type_ref.name == "sequence":
            element = self._try_resolve(type_ref.element)
            if element is None:
                return None
            return SequenceType(element, type_ref.bound)
        if type_ref.name == "string":
            return StringType(type_ref.bound) if type_ref.bound else PRIMITIVES["string"]
        if type_ref.name in PRIMITIVES:
            return PRIMITIVES[type_ref.name]
        name = type_ref.name.split("::")[-1]
        if name in self.scope:
            return self.scope[name]
        # The paper writes ``enum CarModel;`` for a field whose type was
        # declared as CarModel_t: retry with the conventional suffix.
        if f"{name}_t" in self.scope:
            return self.scope[f"{name}_t"]
        return None
