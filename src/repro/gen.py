"""Generated code: the one writer and the one runner.

The compiled codec (:mod:`repro.rpc.codec`) and the constraint matcher
(:mod:`repro.trader.constraints`) each turn a static description into
Python source and keep only their grammar.  :class:`Source` writes the
functions, helpers first, binding every value of the input as a constant
``kN``; :func:`build`, the only ``exec`` under ``src/``, runs one cached
code object per source text without builtins, so inputs of one shape
share their functions' code.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from types import CodeType
from typing import Any, Dict, Iterator, List, Mapping

#: Past this indentation a writer whose code nests with its input moves
#: a nested value into a helper function of its own: Python refuses code
#: nested more than 20 blocks deep.
MAX_INDENT = 10


class Source:
    """The text of some generated functions, helpers first, and the
    constants they read."""

    def __init__(self) -> None:
        self.functions: List[str] = []
        self.constants: Dict[str, Any] = {}
        self.lines: List[str] = []
        self.temps = 0

    def line(self, indent: int, *texts: str) -> None:
        for text in texts:
            self.lines.append("    " * indent + text)

    def attempt(self, indent: int, statement: str, caught: str, handler: str) -> None:
        """``statement``, and ``handler`` in its place if it raises ``caught``."""
        self.line(indent, "try:")
        self.line(indent + 1, statement)
        self.line(indent, f"except {caught}:")
        self.line(indent + 1, handler)

    def bind(self, constant: Any) -> str:
        """The name the generated code reads ``constant`` by."""
        name = f"k{len(self.constants)}"
        self.constants[name] = constant
        return name

    def temp(self) -> str:
        """A fresh local name."""
        self.temps += 1
        return f"x{self.temps}"

    @contextmanager
    def function(self, signature: str) -> Iterator[None]:
        """``def signature:`` with the lines written inside the block; a
        function begun inside it lands first, as its helper."""
        outer, self.lines = self.lines, [f"def {signature}:"]
        yield
        self.functions.append("\n".join(self.lines))
        self.lines = outer

    def text(self) -> str:
        return "\n".join(self.functions)


def build(text: str, names: Mapping[str, Any], constants: Mapping[str, Any]) -> Dict[str, Any]:
    """Run ``text`` and return its namespace: ``names``, ``constants``
    and the functions it defines, with no builtins."""
    namespace = {"__builtins__": {}, **names, **constants}
    exec(_code(text), namespace)  # noqa: S102 - holds no input text, and runs without builtins
    return namespace


@lru_cache(maxsize=256)
def _code(text: str) -> CodeType:
    return compile(text, "<generated>", "exec")
