"""Printer round-trip tests: parse → print → parse is a fixpoint."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sidl.ast_nodes import (
    AnnotationDecl,
    ConstDecl,
    EnumDecl,
    FsmDecl,
    InterfaceDecl,
    ModuleDecl,
    OperationDecl,
    ParamDecl,
    StructDecl,
    TypeRef,
    TypedefDecl,
)
from repro.sidl.parser import parse
from repro.sidl.printer import print_module


def roundtrip(source: str):
    first = parse(source)
    printed = print_module(first[0])
    second = parse(printed)
    return first[0], second[0], printed


def test_module_roundtrip():
    first, second, __ = roundtrip("module M { const long X = 1; };")
    assert second.name == first.name
    assert second.declarations(ConstDecl)[0].value == 1


def test_interface_roundtrip():
    source = """
    module M {
      interface I {
        long Add(in long a, in long b);
        oneway void Fire(in string what);
        readonly attribute string label;
      };
    };
    """
    first, second, __ = roundtrip(source)
    fi, si = first.declarations(InterfaceDecl)[0], second.declarations(InterfaceDecl)[0]
    assert [op.name for op in si.operations] == [op.name for op in fi.operations]
    assert si.operations[1].oneway
    assert si.attributes[0].readonly


def test_fsm_roundtrip():
    source = """
    module M {
      module COSM_FSM {
        state A, B;
        initial A;
        transition A -> B on Go;
      };
    };
    """
    __, second, printed = roundtrip(source)
    [fsm_module] = second.declarations(ModuleDecl)
    assert fsm_module.name == "COSM_FSM"
    fsm = fsm_module.declarations(FsmDecl)[0]
    assert fsm.initial == "A"
    assert fsm.transitions[0].target == "B"
    assert "transition A -> B on Go;" in printed


def test_annotation_with_quotes_roundtrip():
    source = 'module M { annotation X "say \\"hi\\""; };'
    __, second, __p = roundtrip(source)
    assert second.declarations(AnnotationDecl)[0].text == 'say "hi"'


def test_paper_order_normalises_to_corba_order():
    __, __, printed = roundtrip("module M { typedef C_t enum { A, B }; };")
    assert "typedef enum { A, B } C_t;" in printed


def test_union_roundtrip():
    source = """
    module M {
      enum K { A, B };
      union U switch (K) {
        case A: long x;
        default: string other;
      };
    };
    """
    __, second, __p = roundtrip(source)
    union = second.body[1]
    assert [case[0] for case in union.cases] == ["A", None]


def test_bounded_types_roundtrip():
    source = "module M { typedef sequence<long, 4> L_t; typedef string<9> S_t; };"
    __, second, __p = roundtrip(source)
    l_t, s_t = second.declarations(TypedefDecl)
    assert l_t.type_ref.bound == 4
    assert s_t.type_ref.bound == 9


def test_print_is_fixpoint():
    source = """
    module M {
      typedef Color_t enum { RED, GREEN };
      struct P { long x; Color_t c; };
      interface I { P Get(in string key); };
      const float Rate = 2.5;
    };
    """
    once = print_module(parse(source)[0])
    twice = print_module(parse(once)[0])
    assert once == twice


# -- property-based: generated ASTs survive print→parse -----------------------------

_idents = st.sampled_from(["Alpha", "Beta", "Gamma", "Delta", "value_1", "x"])
_type_names = st.sampled_from(["long", "string", "boolean", "float", "double"])

_operations = st.builds(
    OperationDecl,
    name=_idents,
    result=st.builds(TypeRef, _type_names),
    params=st.lists(
        st.builds(
            ParamDecl,
            direction=st.sampled_from(["in", "out", "inout"]),
            type_ref=st.builds(TypeRef, _type_names),
            name=_idents,
        ),
        max_size=3,
    ),
    oneway=st.just(False),
)

_declarations = st.one_of(
    st.builds(
        EnumDecl,
        name=st.sampled_from(["E1_t", "E2_t"]),
        labels=st.lists(
            st.sampled_from(["L1", "L2", "L3"]), min_size=1, max_size=3, unique=True
        ),
    ),
    st.builds(
        StructDecl,
        name=st.sampled_from(["S1_t", "S2_t"]),
        fields=st.lists(
            st.tuples(_idents, st.builds(TypeRef, _type_names)),
            min_size=1,
            max_size=3,
            unique_by=lambda f: f[0],
        ),
    ),
    st.builds(
        ConstDecl,
        name=st.sampled_from(["C1", "C2"]),
        type_ref=st.builds(TypeRef, st.sampled_from(["long", "string", "float"])),
        value=st.one_of(
            st.integers(min_value=-1000, max_value=1000),
            st.text(
                alphabet="abcdefghijklmnopqrstuvwxyz ", max_size=12
            ),
        ),
    ),
    st.builds(
        InterfaceDecl,
        name=st.sampled_from(["I1", "I2"]),
        operations=st.lists(_operations, max_size=3, unique_by=lambda o: o.name),
    ),
    st.builds(
        FsmDecl,
        states=st.lists(
            st.sampled_from(["SA", "SB", "SC"]), min_size=1, max_size=3, unique=True
        ),
        initial=st.just("SA"),
        transitions=st.just([]),
    ),
)

_modules = st.builds(
    ModuleDecl,
    name=st.sampled_from(["Mod", "Service"]),
    body=st.lists(_declarations, max_size=5),
)


def _normalise(declaration):
    """Structure used for comparing pre/post-roundtrip ASTs."""
    return print_module(declaration)


@settings(max_examples=120, deadline=None)
@given(_modules)
def test_generated_module_print_parse_fixpoint(module):
    # guards: FSM initial must be among its states, and a module holds at
    # most one FSM (the parser folds multiple FSM statements into one).
    fsm_seen = False
    body = []
    for decl in module.body:
        if isinstance(decl, FsmDecl):
            if fsm_seen:
                continue
            fsm_seen = True
            if decl.initial not in decl.states:
                decl.initial = decl.states[0]
        body.append(decl)
    module.body = body
    printed = print_module(module)
    reparsed = parse(printed, lenient=False)
    assert len(reparsed) == 1
    assert print_module(reparsed[0]) == printed
