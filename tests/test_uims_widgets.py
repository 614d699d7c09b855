"""Tests for the headless widget model."""

import pytest

from repro.uims.widgets import (
    AnyField,
    BindButton,
    Button,
    CheckBox,
    ChoiceField,
    Form,
    GroupBox,
    ListEditor,
    NumberField,
    TextField,
    UiError,
    UnionEditor,
)


def test_text_field_validation():
    field = TextField("name", path="f.name", bound=5)
    field.set_value("abc")
    assert field.get_value() == "abc"
    with pytest.raises(UiError):
        field.set_value(42)
    with pytest.raises(UiError):
        field.set_value("toolong")


def test_number_field_integral():
    field = NumberField("n", path="f.n", integral=True, minimum=0, maximum=10)
    field.set_value(7)
    assert field.get_value() == 7
    with pytest.raises(UiError):
        field.set_value(3.5)
    with pytest.raises(UiError):
        field.set_value(-1)
    with pytest.raises(UiError):
        field.set_value(11)
    with pytest.raises(UiError):
        field.set_value(True)


def test_number_field_float_accepts_ints():
    field = NumberField("x", integral=False)
    field.set_value(2)
    assert field.get_value() == 2.0
    assert isinstance(field.get_value(), float)


def test_checkbox():
    box = CheckBox("on")
    box.set_value(True)
    assert box.get_value() is True
    with pytest.raises(UiError):
        box.set_value(1)


def test_choice_field():
    choice = ChoiceField("model", ["A", "B"])
    assert choice.get_value() == "A"  # first option preselected
    choice.set_value("B")
    with pytest.raises(UiError):
        choice.set_value("C")


def test_group_box_collects_named_values():
    group = GroupBox(
        "point",
        [NumberField("x", path="p.x"), NumberField("y", path="p.y")],
        path="p",
    )
    group.set_value({"x": 1, "y": 2})
    assert group.get_value() == {"x": 1, "y": 2}
    with pytest.raises(UiError):
        group.set_value({"z": 3})
    with pytest.raises(UiError):
        group.set_value("not-a-dict")


def test_list_editor_add_remove():
    editor = ListEditor("items", lambda p: NumberField("item", path=p), path="l")
    editor.add_item().set_value(1)
    editor.add_item().set_value(2)
    assert editor.get_value() == [1, 2]
    editor.set_value([2])  # a shorter value drops the surplus items
    assert editor.get_value() == [2]
    assert editor.items[0].path == "l.0"


def test_list_editor_bound():
    editor = ListEditor("items", lambda p: NumberField("i", path=p), bound=1, path="l")
    editor.add_item()
    with pytest.raises(UiError):
        editor.add_item()


def test_list_editor_set_value_rebuilds():
    editor = ListEditor("items", lambda p: NumberField("i", path=p), path="l")
    editor.set_value([5, 6, 7])
    assert editor.get_value() == [5, 6, 7]
    with pytest.raises(UiError):
        editor.set_value("nope")


def test_union_editor_switches_arms():
    def make_arm(tag, path):
        if tag == "NUM":
            return NumberField("value", path=path)
        return TextField("value", path=path)

    union = UnionEditor("u", ["NUM", "TXT"], make_arm, path="u")
    union.arm.set_value(5)
    assert union.get_value() == {"tag": "NUM", "value": 5}
    union.select_tag("TXT")
    union.arm.set_value("hello")
    assert union.get_value() == {"tag": "TXT", "value": "hello"}
    union.set_value({"tag": "NUM", "value": 9})
    assert union.get_value()["value"] == 9


def test_button_click_and_disable():
    clicked = []
    button = Button("go", on_click=lambda: clicked.append(1) or "result")
    assert button.click() == "result"
    assert button.clicks == 1
    button.enabled = False
    with pytest.raises(UiError):
        button.click()


def test_bind_button_carries_ref():
    button = BindButton("bind x", ref="some-ref")
    assert button.ref == "some-ref"


def test_form_find_by_path():
    form = Form(
        "Op",
        [
            GroupBox(
                "sel",
                [ChoiceField("model", ["A"], path="Op.sel.model")],
                path="Op.sel",
            )
        ],
        path="Op",
    )
    widget = form.find("Op.sel.model")
    assert isinstance(widget, ChoiceField)
    with pytest.raises(UiError):
        form.find("Op.sel.ghost")


def test_form_values_by_label():
    form = Form("Op", [NumberField("a", path="Op.a"), TextField("b", path="Op.b")], path="Op")
    form.set_value({"a": 1, "b": "x"})
    assert form.get_value() == {"a": 1, "b": "x"}


def test_any_field_accepts_anything():
    field = AnyField("blob")
    field.set_value({"arbitrary": [1, 2]})
    assert field.get_value() == {"arbitrary": [1, 2]}
