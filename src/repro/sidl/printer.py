"""Pretty-printer: AST → canonical SIDL source.

Used to (a) preserve unknown extension modules verbatim when a SID is
re-transmitted and (b) round-trip SIDs in tests (parse → print → parse).
Always emits the standard CORBA declaration order, even for input written
in the paper's reversed ``typedef <name> <constructor>`` order.
"""

from __future__ import annotations

from typing import Any, List

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
from repro.sidl.tokens import KEYWORDS

_INDENT = "  "


def print_module(declaration: Any) -> str:
    """Render any AST declaration (usually a module) as SIDL source."""
    lines = _print_declaration(declaration, 0)
    return "\n".join(lines) + "\n"


def _print_declaration(decl: Any, indent: int) -> List[str]:
    pad = _INDENT * indent
    if isinstance(decl, ModuleDecl):
        lines = [f"{pad}module {decl.name} {{"]
        for inner in decl.body:
            lines.extend(_print_declaration(inner, indent + 1))
        lines.append(f"{pad}}};")
        return lines
    if isinstance(decl, InterfaceDecl):
        heading = f"{pad}interface {decl.name}"
        if decl.bases:
            heading += " : " + ", ".join(decl.bases)
        lines = [heading + " {"]
        inner_pad = _INDENT * (indent + 1)
        for attribute in decl.attributes:
            lines.append(_print_attribute(attribute, inner_pad))
        for operation in decl.operations:
            lines.append(_print_operation(operation, inner_pad))
        lines.append(f"{pad}}};")
        return lines
    if isinstance(decl, TypedefDecl):
        if decl.inline is not None:
            body = _print_constructor_inline(decl.inline, indent)
            return [f"{pad}typedef {body} {decl.name};"]
        return [f"{pad}typedef {_print_type(decl.type_ref)} {decl.name};"]
    if isinstance(decl, EnumDecl):
        labels = ", ".join(decl.labels)
        return [f"{pad}enum {decl.name} {{ {labels} }};"]
    if isinstance(decl, StructDecl):
        lines = [f"{pad}struct {decl.name} {{"]
        inner_pad = _INDENT * (indent + 1)
        for field_name, type_ref in decl.fields:
            lines.append(f"{inner_pad}{_print_type(type_ref)} {field_name};")
        lines.append(f"{pad}}};")
        return lines
    if isinstance(decl, UnionDecl):
        lines = [
            f"{pad}union {decl.name} switch ({_print_type(decl.discriminator)}) {{"
        ]
        inner_pad = _INDENT * (indent + 1)
        for label, arm_name, arm_type in decl.cases:
            case = "default" if label is None else f"case {_print_literal(label)}"
            lines.append(f"{inner_pad}{case}: {_print_type(arm_type)} {arm_name};")
        lines.append(f"{pad}}};")
        return lines
    if isinstance(decl, ConstDecl):
        return [
            f"{pad}const {_print_type(decl.type_ref)} {decl.name} "
            f"= {_print_literal(decl.value)};"
        ]
    if isinstance(decl, FsmDecl):
        lines = []
        if decl.states:
            lines.append(f"{pad}state {', '.join(decl.states)};")
        if decl.initial:
            lines.append(f"{pad}initial {decl.initial};")
        for transition in decl.transitions:
            lines.append(
                f"{pad}transition {transition.source} -> {transition.target} "
                f"on {transition.operation};"
            )
        return lines
    if isinstance(decl, AnnotationDecl):
        text = decl.text.replace("\\", "\\\\").replace('"', '\\"')
        return [f'{pad}annotation {decl.subject} "{text}";']
    if isinstance(decl, SkippedDecl):
        return [f"{pad}{decl.raw_text}"]
    raise TypeError(f"cannot print {type(decl).__name__}")


def _print_attribute(attribute: AttributeDecl, pad: str) -> str:
    prefix = "readonly attribute" if attribute.readonly else "attribute"
    return f"{pad}{prefix} {_print_type(attribute.type_ref)} {attribute.name};"


def _print_operation(operation: OperationDecl, pad: str) -> str:
    params = ", ".join(
        f"{param.direction} {_print_type(param.type_ref)} {param.name}".rstrip()
        for param in operation.params
    )
    prefix = "oneway " if operation.oneway else ""
    return f"{pad}{prefix}{_print_type(operation.result)} {operation.name}({params});"


def _print_constructor_inline(decl: Any, indent: int) -> str:
    if isinstance(decl, EnumDecl):
        return f"enum {{ {', '.join(decl.labels)} }}"
    if isinstance(decl, StructDecl):
        inner_pad = _INDENT * (indent + 1)
        pad = _INDENT * indent
        fields = "\n".join(
            f"{inner_pad}{_print_type(type_ref)} {field_name};"
            for field_name, type_ref in decl.fields
        )
        return f"struct {{\n{fields}\n{pad}}}"
    if isinstance(decl, UnionDecl):
        inner_pad = _INDENT * (indent + 1)
        pad = _INDENT * indent
        cases = "\n".join(
            f"{inner_pad}"
            + ("default" if label is None else f"case {_print_literal(label)}")
            + f": {_print_type(arm_type)} {arm_name};"
            for label, arm_name, arm_type in decl.cases
        )
        return (
            f"union switch ({_print_type(decl.discriminator)}) {{\n{cases}\n{pad}}}"
        )
    raise TypeError(f"cannot print inline {type(decl).__name__}")


def _print_type(type_ref: TypeRef) -> str:
    return str(type_ref)


def _print_literal(value: Any) -> str:
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        # Heuristic matching the parser: enum-label identifiers print bare,
        # everything else quotes.  Reserved words must quote, or the
        # round-trip parse would read them as keywords.
        if value and value not in KEYWORDS and (
            value[0].isalpha() or value[0] == "_"
        ) and all(c.isalnum() or c in "_-" for c in value):
            return value
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, float) and value == int(value):
        return f"{value:.1f}"
    return repr(value)
