"""Generation of typed forms from SIDL descriptions (Fig. 7).

The "well-defined relationship of linguistic service description elements
to corresponding user interface components" (§3.2), one rule per type
constructor:

==================  ==========================================
SIDL type            widget
==================  ==========================================
string               TextField
short/long/octet     NumberField (integral, range from bits)
float/double         NumberField
boolean              CheckBox
enum                 ChoiceField
struct               GroupBox of nested widgets
sequence             ListEditor
union                UnionEditor (tag choice + active arm)
service_reference    BindButton
any / sid            AnyField
==================  ==========================================
"""

from __future__ import annotations

from repro.sidl.sid import ServiceDescription
from repro.sidl.types import (
    AnyType,
    BooleanType,
    EnumType,
    FloatType,
    IntegerType,
    OctetsType,
    OperationType,
    SequenceType,
    ServiceReferenceType,
    SidValueType,
    SidlType,
    StringType,
    StructType,
    UnionType,
    VoidType,
)
from repro.uims.widgets import (
    AnyField,
    BindButton,
    CheckBox,
    ChoiceField,
    Form,
    GroupBox,
    ListEditor,
    NumberField,
    TextField,
    UnionEditor,
    Widget,
)


def widget_for_type(sidl_type: SidlType, label: str, path: str) -> Widget:
    """The SID-element → UI-component mapping, recursively applied."""
    if isinstance(sidl_type, StringType):
        return TextField(label, path=path, bound=sidl_type.bound)
    if isinstance(sidl_type, BooleanType):
        return CheckBox(label, path=path)
    if isinstance(sidl_type, IntegerType):
        return NumberField(
            label,
            path=path,
            integral=True,
            minimum=sidl_type.minimum,
            maximum=sidl_type.maximum,
        )
    if isinstance(sidl_type, FloatType):
        return NumberField(label, path=path, integral=False)
    if isinstance(sidl_type, EnumType):
        return ChoiceField(label, list(sidl_type.labels), path=path)
    if isinstance(sidl_type, StructType):
        fields = [
            widget_for_type(field_type, field_name, f"{path}.{field_name}")
            for field_name, field_type in sidl_type.fields
        ]
        return GroupBox(label, fields, path=path)
    if isinstance(sidl_type, SequenceType):
        element_type = sidl_type.element

        def make_element(item_path: str) -> Widget:
            index = item_path.rsplit(".", 1)[-1]
            return widget_for_type(element_type, f"[{index}]", item_path)

        return ListEditor(label, make_element, path=path, bound=sidl_type.bound)
    if isinstance(sidl_type, UnionType):
        arms = {label_: arm for label_, __, arm in sidl_type.cases if label_ is not None}
        default_arm = next(
            (arm for label_, __, arm in sidl_type.cases if label_ is None), None
        )

        def make_arm(tag: str, arm_path: str) -> Widget:
            arm_type = arms.get(tag, default_arm)
            if arm_type is None:
                return AnyField("value", path=arm_path)
            return widget_for_type(arm_type, "value", arm_path)

        return UnionEditor(label, list(sidl_type.discriminator.labels), make_arm, path=path)
    if isinstance(sidl_type, ServiceReferenceType):
        return BindButton(label, ref=None, path=path)
    if isinstance(sidl_type, (AnyType, SidValueType, OctetsType, VoidType)):
        return AnyField(label, path=path)
    return AnyField(label, path=path)


def form_for_operation(
    sid: ServiceDescription,
    operation: OperationType,
) -> Form:
    """Generate the value-entry form for one operation.

    One widget per in-parameter; textual annotations from the SID become
    the form's caption, so the generated dialogue is self-explaining.
    """
    base = operation.name
    fields = [
        widget_for_type(param_type, param_name, f"{base}.{param_name}")
        for param_name, param_type in operation.in_params()
    ]
    annotation = sid.annotation_for(operation.name) or ""
    form = Form(operation.name, fields, path=base, annotation=annotation)
    return form


def prefill_defaults(form: Form, operation: OperationType) -> None:
    """Populate a form with each parameter type's neutral value."""
    for (param_name, param_type), field in zip(operation.in_params(), form.fields):
        default = param_type.default()
        if default is None and not isinstance(field, AnyField):
            continue  # reference-like parameters have no neutral value
        field.set_value(default)
