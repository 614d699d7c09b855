"""Tests for controllers, panels, rendering, and scripted UI sessions."""

import pytest

from repro.core.generic_client import GenericClient
from repro.sidl.fsm import FsmViolation
from repro.services.directory import start_directory
from repro.uims.controller import OperationController, ServicePanel
from repro.uims.render import render
from repro.uims.session import UiSession
from repro.uims.widgets import UiError
from tests.conftest import SELECTION


@pytest.fixture
def generic(make_client):
    return GenericClient(make_client())


@pytest.fixture
def session(generic, rental):
    session = UiSession(generic)
    session.open(rental.ref)
    return session


# -- controllers -------------------------------------------------------------------


def test_controller_submit_collects_and_invokes(generic, rental):
    binding = generic.bind(rental.ref)
    controller = OperationController(binding, "SelectCar")
    controller.form.find("SelectCar.selection").set_value(SELECTION)
    value = controller.submit()
    assert value["available"] is True
    assert controller.form.result.value == value
    assert controller.form.result.state == "SELECTED"


def test_controller_disables_per_fsm(generic, rental):
    binding = generic.bind(rental.ref)
    panel = ServicePanel(binding)
    assert panel.controller("SelectCar").form.submit.enabled
    assert not panel.controller("BookCar").form.submit.enabled
    panel.controller("SelectCar").form.find("SelectCar.selection").set_value(SELECTION)
    panel.submit("SelectCar")
    assert panel.controller("BookCar").form.submit.enabled
    assert panel.enabled_operations() == ["SelectCar", "BookCar"]


def test_controller_submit_fsm_violation_sets_error(generic, rental):
    binding = generic.bind(rental.ref)
    controller = OperationController(binding, "BookCar")
    with pytest.raises(FsmViolation):
        controller.submit()
    assert controller.last_error
    assert not controller.form.submit.enabled


def test_panel_state_label_tracks_fsm(generic, rental):
    binding = generic.bind(rental.ref)
    panel = ServicePanel(binding)
    assert "INIT" in panel.state_label.text
    panel.controller("SelectCar").form.find("SelectCar.selection").set_value(SELECTION)
    panel.submit("SelectCar")
    assert "SELECTED" in panel.state_label.text


# -- the UI session (scripted human) -------------------------------------------------


def test_fill_click_read(session):
    session.fill("SelectCar.selection.CarModel", "VW-Golf")
    session.fill("SelectCar.selection.BookingDate", "1994-08-01")
    session.fill("SelectCar.selection.Days", 3)
    value = session.click("SelectCar")
    assert value["charge"] == 240.0
    assert session.result_of("SelectCar") == value
    assert session.read("SelectCar.selection.Days") == 3
    assert session.state() == "SELECTED"


def test_fill_bad_path_raises(session):
    with pytest.raises(UiError):
        session.fill("SelectCar.selection.Ghost", 1)
    with pytest.raises(UiError):
        session.fill("SelectCar", 1)
    with pytest.raises(KeyError):
        session.fill("NoSuchOp.x", 1)


def test_fill_wrong_type_raises(session):
    with pytest.raises(UiError):
        session.fill("SelectCar.selection.Days", "three")


def test_click_bind_cascades(generic, rental, make_server):
    directory = start_directory(make_server())
    session = UiSession(generic)
    session.open(directory.ref)
    # Advertise takes a service reference; set it up through the binding
    # (the UI path for references is the bind button on *results*).
    session.current.binding.invoke(
        "Advertise",
        {"category": "travel", "description": "cars", "ref": rental.ref.to_wire()},
    )
    session.fill("Lookup.category", "travel")
    session.click("Lookup")
    panel = session.click_bind("Lookup")
    assert panel.title == "CarRentalService"
    assert session.depth == 2
    session.fill("SelectCar.selection.CarModel", "AUDI")
    session.fill("SelectCar.selection.BookingDate", "d")
    session.fill("SelectCar.selection.Days", 1)
    session.click("SelectCar")
    assert session.result_of("SelectCar")["available"] is True


def test_click_bind_without_buttons_raises(session):
    session.fill("SelectCar.selection.BookingDate", "d")
    session.click("SelectCar")
    with pytest.raises(UiError):
        session.click_bind("SelectCar")


def test_close_pops_and_unbinds(session, rental):
    assert rental.sessions() == 1
    session.close()
    assert rental.sessions() == 0
    with pytest.raises(UiError):
        session.current


def test_close_all(generic, rental):
    session = UiSession(generic)
    session.open(rental.ref)
    session.open(rental.ref)
    session.close_all()
    assert session.depth == 0
    assert rental.sessions() == 0


# -- rendering -----------------------------------------------------------------------------


def test_screen_shows_forms_and_state(session):
    screen = session.screen()
    assert "CarRentalService" in screen
    assert "SelectCar" in screen
    assert "communication state: INIT" in screen
    assert "(disabled)" in screen  # BookCar is off in INIT
    assert "AUDI" in screen  # enum options visible


def test_render_marks_selected_enum_option(session):
    session.fill("SelectCar.selection.CarModel", "VW-Golf")
    screen = session.screen()
    assert "(VW-Golf)" in screen


def test_render_result_and_bind_buttons(generic, rental, make_server):
    directory = start_directory(make_server())
    session = UiSession(generic)
    session.open(directory.ref)
    session.current.binding.invoke(
        "Advertise", {"category": "c", "description": "d", "ref": rental.ref.to_wire()}
    )
    session.fill("Lookup.category", "c")
    session.click("Lookup")
    screen = session.screen()
    assert "bind -> CarRentalService" in screen


def test_render_every_widget_kind(car_sid):
    from repro.uims.formgen import form_for_operation

    form = form_for_operation(car_sid, car_sid.interface.operation("SelectCar"))
    text = render(form)
    assert "selection:" in text
    assert "CarModel" in text
    assert "[ SelectCar ]" in text


def test_union_tag_fill_rebuilds_arm():
    """Selecting a union tag through the normal fill path swaps the arm."""
    from repro.sidl.types import EnumType, LONG, STRING, UnionType
    from repro.uims.formgen import widget_for_type
    from repro.uims.widgets import NumberField, TextField

    union_type = UnionType(
        "U", EnumType("K", ["I", "S"]), [("I", "i", LONG), ("S", "s", STRING)]
    )
    editor = widget_for_type(union_type, "u", "Op.u")
    assert isinstance(editor.arm, NumberField)
    editor.find("Op.u.tag").set_value("S")
    assert isinstance(editor.arm, TextField)
    editor.arm.set_value("hello")
    assert editor.get_value() == {"tag": "S", "value": "hello"}


def test_session_fills_a_sequence_parameter(generic, make_server):
    """Filling a sequence parameter through the scripted session."""
    from repro.core.service_runtime import ServiceRuntime
    from repro.sidl.builder import load_service_description

    sid = load_service_description(
        """
        module Summer {
          typedef Nums_t sequence<long>;
          interface COSM_Operations { long Sum(in Nums_t numbers); };
        };
        """
    )
    runtime = ServiceRuntime(
        make_server(), sid, {"Sum": lambda numbers: sum(numbers)}
    )
    session = UiSession(generic)
    session.open(runtime.ref)
    session.fill("Sum.numbers", [20, 22])
    assert session.click("Sum") == 42


# -- the HTML backend (second renderer, same widget model) -------------------------


def test_html_render_full_panel(session):
    from repro.uims.html import render_panel_html

    page = render_panel_html(session.current)
    assert page.startswith("<!DOCTYPE html>")
    assert "<h1>CarRentalService</h1>" in page
    assert "communication state: INIT" in page
    assert "<select>" in page and "AUDI" in page
    assert "disabled" in page  # BookCar off in INIT


def test_html_render_escapes_values(generic, make_server):
    from repro.core.service_runtime import ServiceRuntime
    from repro.sidl.builder import load_service_description
    from repro.uims.html import render_html
    from repro.uims.formgen import form_for_operation

    sid = load_service_description(
        'module Xss { interface COSM_Operations { void Op(in string t); }; };'
    )
    form = form_for_operation(sid, sid.interface.operation("Op"))
    form.find("Op.t").set_value('<script>alert("x")</script>')
    page = render_html(form)
    assert "<script>" not in page
    assert "&lt;script&gt;" in page


def test_html_render_bind_buttons(generic, rental, make_server):
    from repro.uims.html import render_panel_html

    directory = start_directory(make_server())
    session = UiSession(generic)
    session.open(directory.ref)
    session.current.binding.invoke(
        "Advertise", {"category": "c", "description": "d", "ref": rental.ref.to_wire()}
    )
    session.fill("Lookup.category", "c")
    session.click("Lookup")
    page = render_panel_html(session.current)
    assert "bind &rarr; CarRentalService" in page


def test_text_and_html_backends_agree_on_content(session):
    """Same widget model, two backends: both show the same fields."""
    from repro.uims.html import render_panel_html

    text = session.screen()
    page = render_panel_html(session.current)
    for token in ("SelectCar", "BookCar", "CarModel", "BookingDate", "Days"):
        assert token in text
        assert token in page
