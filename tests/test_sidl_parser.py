"""Tests for the SIDL parser, including paper-style syntax and skipping."""

import pytest

from repro.sidl.ast_nodes import (
    AnnotationDecl,
    ConstDecl,
    EnumDecl,
    FsmDecl,
    InterfaceDecl,
    ModuleDecl,
    SkippedDecl,
    StructDecl,
    TypedefDecl,
    UnionDecl,
)
from repro.sidl.errors import SidlParseError
from repro.sidl.parser import parse


def parse_one(source, lenient=True):
    declarations = parse(source, lenient=lenient)
    assert len(declarations) == 1
    return declarations[0]


# -- modules & interfaces -------------------------------------------------------


def test_empty_module():
    module = parse_one("module M { };")
    assert isinstance(module, ModuleDecl)
    assert module.name == "M"
    assert module.body == []


def test_module_trailing_semicolon_optional():
    assert parse_one("module M { }").name == "M"


def test_nested_modules():
    module = parse_one("module A { module B { }; };")
    assert [sub.name for sub in module.declarations(ModuleDecl)] == ["B"]


def test_interface_with_operations():
    module = parse_one(
        """
        module M {
          interface I {
            long Add(in long a, in long b);
            oneway void Notify(in string msg);
            void Nop();
          };
        };
        """
    )
    interface = module.declarations(InterfaceDecl)[0]
    names = [op.name for op in interface.operations]
    assert names == ["Add", "Notify", "Nop"]
    add = interface.operations[0]
    assert [p.direction for p in add.params] == ["in", "in"]
    assert interface.operations[1].oneway


def test_paper_style_bracketed_direction():
    module = parse_one(
        "module M { interface I { R_t Op([in] A_t x, [out] B_t y); }; "
        "typedef long R_t; };"
    )
    op = module.declarations(InterfaceDecl)[0].operations[0]
    assert [p.direction for p in op.params] == ["in", "out"]


def test_unnamed_parameter_allowed():
    module = parse_one("module M { interface I { void Op(in long); }; };")
    op = module.declarations(InterfaceDecl)[0].operations[0]
    assert op.params[0].name == ""


def test_interface_inheritance_syntax():
    module = parse_one("module M { interface A { }; interface B : A { }; };")
    assert module.declarations(InterfaceDecl)[1].bases == ["A"]


def test_interface_attributes():
    module = parse_one(
        "module M { interface I { readonly attribute string name; "
        "attribute long count; }; };"
    )
    interface = module.declarations(InterfaceDecl)[0]
    assert [(a.name, a.readonly) for a in interface.attributes] == [
        ("name", True),
        ("count", False),
    ]


# -- typedefs: both orders ----------------------------------------------------------


def test_paper_order_typedef_enum():
    module = parse_one("module M { typedef Color_t enum { RED, GREEN }; };")
    typedef = module.declarations(TypedefDecl)[0]
    assert typedef.name == "Color_t"
    assert isinstance(typedef.inline, EnumDecl)
    assert typedef.inline.labels == ["RED", "GREEN"]


def test_corba_order_typedef_enum():
    module = parse_one("module M { typedef enum { RED, GREEN } Color_t; };")
    typedef = module.declarations(TypedefDecl)[0]
    assert typedef.name == "Color_t"
    assert typedef.inline.labels == ["RED", "GREEN"]


def test_paper_order_typedef_struct():
    module = parse_one(
        "module M { typedef P_t struct { long x; long y; }; };"
    )
    typedef = module.declarations(TypedefDecl)[0]
    assert isinstance(typedef.inline, StructDecl)
    assert [f[0] for f in typedef.inline.fields] == ["x", "y"]


def test_paper_order_typedef_sequence():
    module = parse_one("module M { typedef L_t sequence<long>; };")
    typedef = module.declarations(TypedefDecl)[0]
    assert typedef.type_ref.name == "sequence"
    assert typedef.type_ref.element.name == "long"


def test_plain_alias_typedef():
    module = parse_one("module M { typedef long Id_t; };")
    typedef = module.declarations(TypedefDecl)[0]
    assert typedef.name == "Id_t"
    assert typedef.type_ref.name == "long"


def test_alias_of_user_type_uses_corba_order():
    module = parse_one("module M { typedef Foo Bar; };")
    typedef = module.declarations(TypedefDecl)[0]
    assert typedef.name == "Bar"
    assert typedef.type_ref.name == "Foo"


def test_struct_field_shorthand_enum_name():
    """The paper's ``enum CarModel;`` struct member."""
    module = parse_one(
        "module M { typedef S_t struct { enum CarModel; string d; }; };"
    )
    fields = module.declarations(TypedefDecl)[0].inline.fields
    assert fields[0][0] == "CarModel"
    assert fields[0][1].name == "CarModel"


def test_multi_name_struct_fields():
    module = parse_one("module M { struct P { long x, y, z; }; };")
    fields = module.declarations(StructDecl)[0].fields
    assert [f[0] for f in fields] == ["x", "y", "z"]
    assert all(f[1].name == "long" for f in fields)


# -- other declarations ----------------------------------------------------------------


def test_union_declaration():
    module = parse_one(
        """
        module M {
          enum Kind { A, B };
          union U switch (Kind) {
            case A: long a_value;
            case B: string b_value;
            default: boolean other;
          };
        };
        """
    )
    union = module.declarations(UnionDecl)[0]
    assert union.discriminator.name == "Kind"
    assert [case[0] for case in union.cases] == ["A", "B", None]


def test_const_declarations_all_literal_kinds():
    module = parse_one(
        """
        module M {
          const long N = 42;
          const long Neg = -7;
          const float F = 80.5;
          const string S = "text";
          const boolean B = TRUE;
          const Color_t C = RED;
        };
        """
    )
    consts = {c.name: c.value for c in module.declarations(ConstDecl)}
    assert consts == {
        "N": 42,
        "Neg": -7,
        "F": 80.5,
        "S": "text",
        "B": True,
        "C": "RED",
    }


def test_fsm_arrow_syntax():
    module = parse_one(
        """
        module M {
          state INIT, DONE;
          initial INIT;
          transition INIT -> DONE on Finish;
        };
        """
    )
    fsm = module.declarations(FsmDecl)[0]
    assert fsm.states == ["INIT", "DONE"]
    assert fsm.initial == "INIT"
    assert fsm.transitions[0].operation == "Finish"


def test_fsm_tuple_syntax_from_paper():
    module = parse_one(
        """
        module M {
          state INIT, SELECTED;
          initial INIT;
          transition (INIT, SelectCar, SELECTED);
          transition (SELECTED, Commit, INIT);
        };
        """
    )
    fsm = module.declarations(FsmDecl)[0]
    assert [(t.source, t.operation, t.target) for t in fsm.transitions] == [
        ("INIT", "SelectCar", "SELECTED"),
        ("SELECTED", "Commit", "INIT"),
    ]


def test_fsm_parts_fold_into_one():
    module = parse_one(
        "module M { state A; initial A; transition A -> A on X; "
        "transition A -> A on Y; };"
    )
    fsms = module.declarations(FsmDecl)
    assert len(fsms) == 1
    assert len(fsms[0].transitions) == 2


def test_annotation_declaration():
    module = parse_one('module M { annotation Op "does things"; };')
    annotation = module.declarations(AnnotationDecl)[0]
    assert annotation.subject == "Op"
    assert annotation.text == "does things"


# -- type references --------------------------------------------------------------------


def test_bounded_sequence_and_string():
    module = parse_one(
        "module M { typedef sequence<long, 8> L_t; typedef string<16> S_t; };"
    )
    seq, bounded = module.declarations(TypedefDecl)
    assert seq.type_ref.bound == 8
    assert bounded.type_ref.bound == 16


def test_long_long():
    module = parse_one("module M { typedef long long Big_t; };")
    assert module.declarations(TypedefDecl)[0].type_ref.name == "long long"


def test_service_reference_and_sid_types():
    module = parse_one(
        "module M { interface I { service_reference Get(); void Put(in sid s); }; };"
    )
    ops = module.declarations(InterfaceDecl)[0].operations
    assert ops[0].result.name == "service_reference"
    assert ops[1].params[0].type_ref.name == "sid"


def test_scoped_type_name():
    module = parse_one("module M { typedef Other::Thing T_t; };")
    assert module.declarations(TypedefDecl)[0].type_ref.name == "Other::Thing"


# -- lenient skipping (§4.1) -------------------------------------------------------------


def test_unknown_construct_skipped_leniently():
    module = parse_one(
        """
        module M {
          const long Known = 1;
          frobnicate the { nested } gizmo;
          const long AlsoKnown = 2;
        };
        """
    )
    consts = module.declarations(ConstDecl)
    skipped = module.declarations(SkippedDecl)
    assert [c.name for c in consts] == ["Known", "AlsoKnown"]
    assert len(skipped) == 1
    assert "frobnicate" in skipped[0].raw_text


def test_skipped_declaration_balances_braces():
    module = parse_one(
        "module M { weird { a; b; { c; } } done; const long X = 1; };"
    )
    assert len(module.declarations(ConstDecl)) == 1
    assert "weird" in module.declarations(SkippedDecl)[0].raw_text


def test_strict_mode_raises_on_unknown_construct():
    with pytest.raises(SidlParseError):
        parse("module M { frobnicate; };", lenient=False)


def test_unterminated_module_raises_even_leniently():
    with pytest.raises(SidlParseError):
        parse("module M { const long X = 1;", lenient=False)


def test_error_positions_reported():
    with pytest.raises(SidlParseError) as excinfo:
        parse("module M {\n  const = 5;\n};", lenient=False)
    assert excinfo.value.line == 2


def test_multiple_top_level_modules():
    declarations = parse("module A { }; module B { };")
    assert [m.name for m in declarations] == ["A", "B"]
