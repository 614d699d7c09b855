"""Text rendering of widget trees — the Fig. 7 screenshot, headless."""

from __future__ import annotations

from typing import List

from repro.uims.widgets import (
    AnyField,
    BindButton,
    Button,
    CheckBox,
    ChoiceField,
    Form,
    GroupBox,
    Label,
    ListEditor,
    NumberField,
    ResultPanel,
    Table,
    TextField,
    UnionEditor,
    Widget,
)

_INDENT = "  "


def _cell(value) -> str:
    """Table-cell formatting: compact fixed-point for floats."""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def render(widget: Widget) -> str:
    """Render any widget subtree as indented text."""
    return "\n".join(_render_lines(widget, 0))


def _render_lines(widget: Widget, indent: int) -> List[str]:
    pad = _INDENT * indent
    if isinstance(widget, Form):
        title = f"=== {widget.label} ==="
        lines = [f"{pad}{title}"]
        if widget.annotation:
            lines.append(f"{pad}{_INDENT}# {widget.annotation}")
        for field in widget.fields:
            lines.extend(_render_lines(field, indent + 1))
        state = "" if widget.submit.enabled else " (disabled)"
        lines.append(f"{pad}{_INDENT}[ {widget.label} ]{state}")
        if widget.result.value is not None or widget.result.bind_buttons:
            lines.extend(_render_lines(widget.result, indent + 1))
        return lines
    if isinstance(widget, GroupBox):
        lines = [f"{pad}{widget.label}:"]
        for field in widget.fields:
            lines.extend(_render_lines(field, indent + 1))
        return lines
    if isinstance(widget, ListEditor):
        lines = [f"{pad}{widget.label} (list of {len(widget.items)}):"]
        for item in widget.items:
            lines.extend(_render_lines(item, indent + 1))
        lines.append(f"{pad}{_INDENT}[ + add ]")
        return lines
    if isinstance(widget, UnionEditor):
        lines = [f"{pad}{widget.label} (union):"]
        lines.extend(_render_lines(widget.tag_field, indent + 1))
        lines.extend(_render_lines(widget.arm, indent + 1))
        return lines
    if isinstance(widget, ChoiceField):
        options = " | ".join(
            f"({option})" if option == widget.value else option
            for option in widget.options
        )
        return [f"{pad}{widget.label}: < {options} >"]
    if isinstance(widget, TextField):
        return [f"{pad}{widget.label}: [{widget.value:<20}]"]
    if isinstance(widget, NumberField):
        kind = "int" if widget.integral else "float"
        return [f"{pad}{widget.label}: [{widget.value}] ({kind})"]
    if isinstance(widget, CheckBox):
        mark = "x" if widget.value else " "
        return [f"{pad}[{mark}] {widget.label}"]
    if isinstance(widget, BindButton):
        name = widget.ref.name if widget.ref is not None else "?"
        state = "" if widget.enabled else " (disabled)"
        return [f"{pad}[ bind -> {name} ]{state}"]
    if isinstance(widget, Button):
        state = "" if widget.enabled else " (disabled)"
        return [f"{pad}[ {widget.label} ]{state}"]
    if isinstance(widget, ResultPanel):
        lines = [f"{pad}result: {widget.value!r}"]
        if widget.state is not None:
            lines.append(f"{pad}state:  {widget.state}")
        for button in widget.bind_buttons:
            lines.extend(_render_lines(button, indent))
        return lines
    if isinstance(widget, Table):
        cells = [widget.columns] + [
            [_cell(value) for value in row] for row in widget.rows
        ]
        widths = [
            max(len(row[column]) for row in cells)
            for column in range(len(widget.columns))
        ]
        lines = [f"{pad}{widget.label}:"]
        for index, row in enumerate(cells):
            line = "  ".join(
                text.ljust(width) if position == 0 else text.rjust(width)
                for position, (text, width) in enumerate(zip(row, widths))
            )
            lines.append(f"{pad}{_INDENT}{line.rstrip()}")
            if index == 0:
                lines.append(f"{pad}{_INDENT}{'-' * (sum(widths) + 2 * (len(widths) - 1))}")
        return lines
    if isinstance(widget, Label):
        return [f"{pad}{widget.text}"]
    if isinstance(widget, AnyField):
        return [f"{pad}{widget.label}: {widget.value!r} (any)"]
    return [f"{pad}<{type(widget).__name__} {widget.label}>"]


def render_panel(panel) -> str:
    """Render a whole :class:`~repro.uims.controller.ServicePanel`."""
    lines = [f"### {panel.title} ###", panel.state_label.text, ""]
    for form in panel.forms():
        lines.append(render(form))
        lines.append("")
    return "\n".join(lines)
