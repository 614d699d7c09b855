"""Scripted UI sessions: drive generated interfaces programmatically.

What the human user does with the mouse in the paper's prototype, tests
and examples do here with ``fill`` and ``click``.  A session owns a stack
of service panels: clicking a bind button pushes the new service's panel,
which is exactly the "cascade of bindings and corresponding user
interfaces" of Fig. 4.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.core.generic_client import GenericBinding, GenericClient
from repro.naming.refs import ServiceRef
from repro.uims.controller import ServicePanel
from repro.uims.render import render_panel
from repro.uims.widgets import UiError


class UiSession:
    """A human user's seat in front of the generic client."""

    def __init__(self, generic_client: GenericClient) -> None:
        self._client = generic_client
        self.panels: List[ServicePanel] = []

    # -- navigation ------------------------------------------------------------

    def open(self, ref: ServiceRef) -> ServicePanel:
        """Bind to a service and open its generated panel."""
        binding = self._client.bind(ref)
        return self._push(binding)

    def _push(self, binding: GenericBinding) -> ServicePanel:
        panel = ServicePanel(binding)
        self.panels.append(panel)
        return panel

    @property
    def current(self) -> ServicePanel:
        if not self.panels:
            raise UiError("no panel open")
        return self.panels[-1]

    @property
    def depth(self) -> int:
        return len(self.panels)

    def close(self) -> None:
        """Close the top panel and unbind its service."""
        panel = self.panels.pop()
        panel.binding.unbind()

    def close_all(self) -> None:
        while self.panels:
            self.close()

    # -- interaction --------------------------------------------------------------

    def fill(self, path: str, value: Any) -> None:
        """Set the widget at ``operation.param[.subfield…]`` to a value."""
        operation_name = path.split(".", 1)[0]
        form = self.current.controller(operation_name).form
        if path == operation_name:
            raise UiError(f"{path!r} names a form, not a field")
        form.find(path).set_value(value)

    def click(self, operation_name: str) -> Any:
        """Submit an operation's form on the current panel."""
        return self.current.submit(operation_name)

    def click_bind(self, operation_name: str, index: int = 0) -> ServicePanel:
        """Activate a bind button in a result: the Fig. 4 cascade step."""
        form = self.current.controller(operation_name).form
        buttons = form.result.bind_buttons
        if not buttons:
            raise UiError(f"{operation_name}: no bind buttons in the result")
        new_binding = buttons[index].click()
        return self._push(new_binding)

    # -- inspection --------------------------------------------------------------

    def screen(self) -> str:
        """Render the current panel (the Fig. 7 'screenshot')."""
        return render_panel(self.current)

    def read(self, path: str) -> Any:
        operation_name = path.split(".", 1)[0]
        form = self.current.controller(operation_name).form
        return form.find(path).get_value()

    def result_of(self, operation_name: str) -> Any:
        return self.current.controller(operation_name).form.result.value

    def state(self) -> Optional[str]:
        return self.current.binding.state()
