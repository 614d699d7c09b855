"""The headless widget model.

Widgets carry a ``path`` (dotted address within their form) so scripted
sessions and tests can target them, a current ``value``, and an optional
``error`` set by validation.  Rendering is elsewhere; these classes are
pure state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.errors import CosmError


class UiError(CosmError):
    """Raised for invalid widget interactions (bad path, bad input)."""


class Widget:
    """Base class: a named node in the widget tree."""

    def __init__(self, label: str, path: str = "") -> None:
        self.label = label
        self.path = path
        self.error: Optional[str] = None
        self.enabled = True

    def children(self) -> List["Widget"]:
        return []

    def find(self, path: str) -> "Widget":
        """Locate a descendant by its dotted path."""
        if path == self.path:
            return self
        for child in self.children():
            if path == child.path or path.startswith(child.path + "."):
                return child.find(path)
        raise UiError(f"no widget at path {path!r} under {self.path!r}")

    def get_value(self) -> Any:
        raise UiError(f"widget {self.path!r} has no value")

    def set_value(self, value: Any) -> None:
        raise UiError(f"widget {self.path!r} is not editable")


class Label(Widget):
    """Static text (annotations, state displays)."""

    def __init__(self, label: str, text: str, path: str = "") -> None:
        super().__init__(label, path)
        self.text = text


class TextField(Widget):
    """String editor."""

    def __init__(self, label: str, path: str = "", bound: Optional[int] = None) -> None:
        super().__init__(label, path)
        self.bound = bound
        self.value: str = ""

    def get_value(self) -> str:
        return self.value

    def set_value(self, value: Any) -> None:
        if not isinstance(value, str):
            raise UiError(f"{self.path}: expected text, got {value!r}")
        if self.bound is not None and len(value) > self.bound:
            raise UiError(f"{self.path}: text longer than {self.bound}")
        self.value = value


class NumberField(Widget):
    """Integer or float editor with optional range."""

    def __init__(
        self,
        label: str,
        path: str = "",
        integral: bool = True,
        minimum: Optional[float] = None,
        maximum: Optional[float] = None,
    ) -> None:
        super().__init__(label, path)
        self.integral = integral
        self.minimum = minimum
        self.maximum = maximum
        self.value = 0 if integral else 0.0

    def get_value(self):
        return self.value

    def set_value(self, value: Any) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise UiError(f"{self.path}: expected a number, got {value!r}")
        if self.integral and not isinstance(value, int):
            raise UiError(f"{self.path}: expected an integer, got {value!r}")
        if self.minimum is not None and value < self.minimum:
            raise UiError(f"{self.path}: {value} below minimum {self.minimum}")
        if self.maximum is not None and value > self.maximum:
            raise UiError(f"{self.path}: {value} above maximum {self.maximum}")
        self.value = float(value) if not self.integral else value


class CheckBox(Widget):
    """Boolean editor."""

    def __init__(self, label: str, path: str = "") -> None:
        super().__init__(label, path)
        self.value = False

    def get_value(self) -> bool:
        return self.value

    def set_value(self, value: Any) -> None:
        if not isinstance(value, bool):
            raise UiError(f"{self.path}: expected a boolean, got {value!r}")
        self.value = value


class ChoiceField(Widget):
    """Enum editor: one of a fixed set of labels."""

    def __init__(self, label: str, options: List[str], path: str = "") -> None:
        super().__init__(label, path)
        self.options = list(options)
        self.value = self.options[0] if self.options else ""

    def get_value(self) -> str:
        return self.value

    def set_value(self, value: Any) -> None:
        if value not in self.options:
            raise UiError(f"{self.path}: {value!r} not in {self.options}")
        self.value = value


class AnyField(Widget):
    """Editor for ``any``-typed values: holds the raw value."""

    def __init__(self, label: str, path: str = "") -> None:
        super().__init__(label, path)
        self.value: Any = None

    def get_value(self) -> Any:
        return self.value

    def set_value(self, value: Any) -> None:
        self.value = value


class GroupBox(Widget):
    """Struct editor: a labelled group of nested fields."""

    def __init__(self, label: str, fields: List[Widget], path: str = "") -> None:
        super().__init__(label, path)
        self.fields = list(fields)

    def children(self) -> List[Widget]:
        return self.fields

    def get_value(self) -> Dict[str, Any]:
        return {field.label: field.get_value() for field in self.fields}

    def set_value(self, value: Any) -> None:
        if not isinstance(value, dict):
            raise UiError(f"{self.path}: expected a dict, got {value!r}")
        by_label = {field.label: field for field in self.fields}
        for key, item in value.items():
            if key not in by_label:
                raise UiError(f"{self.path}: no field {key!r}")
            by_label[key].set_value(item)


class ListEditor(Widget):
    """Sequence editor: a growable list of element widgets."""

    def __init__(
        self,
        label: str,
        make_element: Callable[[str], Widget],
        path: str = "",
        bound: Optional[int] = None,
    ) -> None:
        super().__init__(label, path)
        self._make_element = make_element
        self.bound = bound
        self.items: List[Widget] = []

    def children(self) -> List[Widget]:
        return self.items

    def add_item(self) -> Widget:
        if self.bound is not None and len(self.items) >= self.bound:
            raise UiError(f"{self.path}: list is bounded at {self.bound}")
        item = self._make_element(f"{self.path}.{len(self.items)}")
        self.items.append(item)
        return item

    def get_value(self) -> List[Any]:
        return [item.get_value() for item in self.items]

    def set_value(self, value: Any) -> None:
        if not isinstance(value, (list, tuple)):
            raise UiError(f"{self.path}: expected a list, got {value!r}")
        self.items = []
        for item_value in value:
            self.add_item().set_value(item_value)


class _UnionTagField(ChoiceField):
    """The tag choice of a union editor: selecting rebuilds the arm."""

    def __init__(self, options: List[str], path: str, owner: "UnionEditor") -> None:
        super().__init__("tag", options, path)
        self._owner = owner

    def set_value(self, value: Any) -> None:
        super().set_value(value)
        self._owner._rebuild_arm()


class UnionEditor(Widget):
    """Union editor: a tag choice plus the active arm's widget."""

    def __init__(
        self,
        label: str,
        tags: List[str],
        make_arm: Callable[[str, str], Widget],
        path: str = "",
    ) -> None:
        super().__init__(label, path)
        self._make_arm = make_arm
        self.tag_field = _UnionTagField(tags, f"{path}.tag", self)
        self.arm: Widget = make_arm(self.tag_field.value, f"{path}.value")

    def children(self) -> List[Widget]:
        return [self.tag_field, self.arm]

    def _rebuild_arm(self) -> None:
        self.arm = self._make_arm(self.tag_field.value, f"{self.path}.value")

    def select_tag(self, tag: str) -> None:
        self.tag_field.set_value(tag)

    def get_value(self) -> Dict[str, Any]:
        return {"tag": self.tag_field.get_value(), "value": self.arm.get_value()}

    def set_value(self, value: Any) -> None:
        if not isinstance(value, dict) or "tag" not in value:
            raise UiError(f"{self.path}: expected {{'tag', 'value'}}, got {value!r}")
        self.select_tag(value["tag"])
        self.arm.set_value(value.get("value"))


class Button(Widget):
    """An activatable control wired to a callback."""

    def __init__(self, label: str, path: str = "", on_click=None) -> None:
        super().__init__(label, path)
        self.on_click = on_click
        self.clicks = 0

    def click(self) -> Any:
        if not self.enabled:
            raise UiError(f"button {self.label!r} is disabled")
        self.clicks += 1
        if self.on_click is None:
            return None
        return self.on_click()


class BindButton(Button):
    """A control representing a SERVICEREFERENCE value (§3.2).

    Activating it establishes a new binding — the seamless UI transition
    of Fig. 4.
    """

    def __init__(self, label: str, ref, path: str = "", on_click=None) -> None:
        super().__init__(label, path, on_click)
        self.ref = ref


class Table(Widget):
    """A read-only grid: column headers plus value rows.

    Services and reports (e.g. the telemetry layer-latency report) show
    tabular results; like every widget here it is pure state — the text
    and HTML backends render it.
    """

    def __init__(self, label: str, columns: List[str]) -> None:
        super().__init__(label)
        self.columns = list(columns)
        self.rows: List[List[Any]] = []

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.columns):
            raise UiError(
                f"{self.path or self.label}: row of {len(cells)} cells "
                f"against {len(self.columns)} columns"
            )
        self.rows.append(list(cells))

    def get_value(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]


class ResultPanel(Widget):
    """Displays the decoded result of the last invocation."""

    def __init__(self, label: str = "result", path: str = "") -> None:
        super().__init__(label, path)
        self.value: Any = None
        self.state: Optional[str] = None
        self.bind_buttons: List[BindButton] = []

    def children(self) -> List[Widget]:
        return list(self.bind_buttons)

    def get_value(self) -> Any:
        return self.value


class Form(Widget):
    """An operation's value-entry form plus its submit button."""

    def __init__(
        self,
        label: str,
        fields: List[Widget],
        path: str = "",
        annotation: str = "",
    ) -> None:
        super().__init__(label, path)
        self.fields = list(fields)
        self.annotation = annotation
        self.submit = Button("submit", path=f"{path}.submit" if path else "submit")
        self.result = ResultPanel(path=f"{path}.result" if path else "result")

    def children(self) -> List[Widget]:
        return self.fields + [self.submit, self.result]

    def get_value(self) -> Dict[str, Any]:
        return {field.label: field.get_value() for field in self.fields}

    def set_value(self, value: Any) -> None:
        if not isinstance(value, dict):
            raise UiError(f"{self.path}: expected a dict, got {value!r}")
        by_label = {field.label: field for field in self.fields}
        for key, item in value.items():
            if key not in by_label:
                raise UiError(f"{self.path}: no field {key!r}")
            by_label[key].set_value(item)
