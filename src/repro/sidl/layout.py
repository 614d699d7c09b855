"""Static wire layouts derived from SIDL signatures.

The tagged codec (:mod:`repro.rpc.xdr`) is what makes *dynamic*
marshalling possible — values carry their own structure — but for a
signature the SID already fixes, carrying that structure on every call
is pure overhead.  This module maps SIDL types to a tiny **layout spec**
language the compiled codec (:mod:`repro.rpc.codec`) turns into
precomputed ``struct`` formats.

A spec is a nested tuple, hashable and stably ``repr``-able (the codec
fingerprints specs by their canonical repr):

===============  =======================================================
spec             meaning
===============  =======================================================
``("void",)``    exactly ``None``, zero bytes on the wire
``("i64",)``     a Python ``int`` as a big-endian signed 64-bit hyper
``("f64",)``     a Python ``float`` as an IEEE double
``("bool",)``    ``True``/``False`` as a u32
``("enum", labels)``  a label string as its u32 index into ``labels``
``("string",)``  UTF-8, u32 length prefix, zero-padded to 4
``("bytes",)``   opaque, u32 length prefix, zero-padded to 4
``("struct", ((name, spec), ...))``  a dict with exactly these keys
``("optional", spec)``  ``None`` or a value: u32 presence flag + value
``("seq", spec)``  list of values: u32 count + elements
``("any",)``     one tagged value (docs/PROTOCOL.md §3) inside the body
===============  =======================================================

Types without a static layout (``any``, unions, service references,
SIDs) have none — :func:`layout_for` raises :class:`SidlLayoutError`
and the caller keeps the tagged path for that signature.  ``any`` is
for hand-written layouts that pin a record down except for one dynamic
field, as the trader's offer record does with its properties.
"""

from __future__ import annotations

from typing import Tuple

from repro.sidl.errors import SidlError
from repro.sidl.types import (
    BooleanType,
    EnumType,
    FloatType,
    IntegerType,
    OctetsType,
    OperationType,
    SequenceType,
    SidlType,
    StringType,
    StructType,
    VoidType,
)

Spec = tuple


class SidlLayoutError(SidlError):
    """The type has no static wire layout (needs dynamic marshalling)."""


# -- spec constructors (for hand-written signatures) ----------------------

def void() -> Spec:
    return ("void",)


def i64() -> Spec:
    return ("i64",)


def f64() -> Spec:
    return ("f64",)


def boolean() -> Spec:
    return ("bool",)


def enum(*labels: str) -> Spec:
    return ("enum", tuple(labels))


def string() -> Spec:
    return ("string",)


def octets() -> Spec:
    return ("bytes",)


def struct(**fields: Spec) -> Spec:
    return ("struct", tuple(fields.items()))


def optional(element: Spec) -> Spec:
    return ("optional", element)


def seq(element: Spec) -> Spec:
    return ("seq", element)


def any_value() -> Spec:
    return ("any",)


# -- SIDL type -> spec ----------------------------------------------------

def layout_for(sidl_type: SidlType) -> Spec:
    """The static layout spec of ``sidl_type``.

    Raises :class:`SidlLayoutError` for types whose values need the
    self-describing tagged encoding (``any``, unions, service
    references, SID values).
    """
    if isinstance(sidl_type, VoidType):
        return ("void",)
    if isinstance(sidl_type, BooleanType):
        return ("bool",)
    if isinstance(sidl_type, IntegerType):
        return ("i64",)
    if isinstance(sidl_type, FloatType):
        return ("f64",)
    if isinstance(sidl_type, EnumType):
        return ("enum", tuple(sidl_type.labels))
    if isinstance(sidl_type, StringType):
        return ("string",)
    if isinstance(sidl_type, OctetsType):
        return ("bytes",)
    if isinstance(sidl_type, StructType):
        return (
            "struct",
            tuple(
                (field_name, layout_for(field_type))
                for field_name, field_type in sidl_type.fields
            ),
        )
    if isinstance(sidl_type, SequenceType):
        return ("seq", layout_for(sidl_type.element))
    raise SidlLayoutError(
        f"{sidl_type.describe()} has no static layout; use dynamic marshalling"
    )


def operation_layouts(operation: OperationType) -> Tuple[Spec, Spec]:
    """``(args_spec, result_spec)`` for one SIDL operation.

    Arguments travel as a record of the operation's in-params in
    declaration order; the result is the operation's result type.
    Raises :class:`SidlLayoutError` when any participating type is
    dynamic.
    """
    args = (
        "struct",
        tuple(
            (param_name, layout_for(param_type))
            for param_name, param_type in operation.in_params()
        ),
    )
    return args, layout_for(operation.result)
