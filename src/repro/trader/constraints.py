"""The importer's constraint language.

A small, total expression language evaluated over an offer's property
dict, in the spirit of the ODP trader constraint language::

    ChargePerDay < 90 and ChargeCurrency == 'USD'
    CarModel in ['AUDI', 'VW-Golf'] or not exist Discount
    AverageMilage * 1.6 <= 20000

Semantics are *matching-oriented*: referencing a property the offer does
not carry makes the enclosing comparison false (never an error), and type
mismatches compare unequal instead of raising — a malformed offer should
fail to match, not take the trader down.

The parser builds a plain tree of nested tuples, the idiom of
:mod:`repro.sidl.layout` specs: ``("lit", value)``, ``("prop", name)``,
``("exist", name)``, ``("not", node)``, ``("and", nodes)`` and ``("or",
nodes)`` (a whole chain), ``("cmp", op, left, right)`` (``op`` a
comparison or ``in``), ``("arith", op, left, right)``, ``("neg", node)``
and ``("list", nodes)``.  :func:`generate` turns a tree into one Python
function, written and run through :mod:`repro.gen`, so matching an offer
is one call, not a walk over the tree.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Callable, Iterator, List, Mapping, Optional, Tuple

from repro.gen import Source, build
from repro.trader.errors import ConstraintSyntaxError


class _Missing:
    """Sentinel for properties absent from the offer."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<missing>"


MISSING = _Missing()

#: Bounds on a constraint or preference expression, past which it is a
#: ConstraintSyntaxError: nesting (of parentheses, brackets, ``not`` and
#: unary minus, and of the tree, where ``a + b + c`` nests twice but an
#: ``and``/``or`` chain once however long) and node count.  They keep the
#: parser and the generated code far from Python's recursion limits.
MAX_DEPTH = 32
MAX_NODES = 1024

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<op><=|>=|==|!=|<|>|\(|\)|\[|\]|,|\+|-|\*|/)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_KEYWORDS = {"and", "or", "not", "in", "exist", "true", "false"}

#: The fixed operator tables: the only operator text generated code holds.
_COMPARE = {op: op for op in ("==", "!=", "<", "<=", ">", ">=", "in")}
_ARITH = {op: op for op in "+-*/"}

#: Mirrored comparison operators: ``lit OP Prop`` == ``Prop MIRROR[OP] lit``.
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    for match in _TOKEN_RE.finditer(text):
        if match.lastgroup == "bad":
            raise ConstraintSyntaxError(
                f"bad character {match.group()!r} at offset {match.start()}"
            )
        if match.lastgroup != "ws":
            tokens.append(match.group())
    tokens.append("\0")
    return tokens


class Constraint:
    """A parsed constraint; evaluate against property dicts.

    ``equality_conjuncts`` lists the ``(property, literal)`` pairs that the
    whole constraint requires to hold exactly — the top-level ``and``-chain
    of ``Prop == literal`` comparisons.  An offer whose stored value for
    such a property differs from the literal can never satisfy the
    constraint, which lets an offer store pre-filter candidates by index
    before paying for full evaluation.  Empty for every other shape.

    ``range_conjuncts`` is the ordering twin: the ``(property, operator,
    literal)`` triples the top-level ``and``-chain pins with ``<``,
    ``<=``, ``>`` or ``>=`` against a literal (mirrored comparisons are
    normalised, so ``30 > ChargePerDay`` records ``("ChargePerDay", "<",
    30)``).  They let a sorted index pre-filter ceilings and floors the
    same way the equality index pre-filters pins.
    """

    def __init__(self, source: str, tree: tuple) -> None:
        self.source = source
        self._holds = generate(tree, value=False)
        pinned = list(_pinned(tree))
        self.equality_conjuncts: Tuple[Tuple[str, Any], ...] = tuple(
            (name, literal) for name, operator, literal in pinned if operator == "=="
        )
        self.range_conjuncts: Tuple[Tuple[str, str, Any], ...] = tuple(
            pin for pin in pinned if pin[1] in _MIRRORED
        )

    def evaluate(self, properties: Mapping[str, Any]) -> bool:
        """True when the offer's properties satisfy the constraint."""
        return self._holds(properties)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Constraint {self.source!r}>"


def _pinned(tree: tuple) -> Iterator[Tuple[str, str, Any]]:
    """``(property, operator, literal)`` for each comparison an ``and``-chain
    requires, nested chains included, left to right, mirrored ones turned
    round; nothing under an ``or`` or a ``not``."""
    if tree[0] == "and":
        for child in tree[1]:
            yield from _pinned(child)
    elif tree[0] == "cmp":
        _, operator, left, right = tree
        if left[0] == "prop" and right[0] == "lit":
            yield left[1], operator, right[1]
        elif left[0] == "lit" and right[0] == "prop":
            yield right[1], _MIRRORED.get(operator, operator), left[1]


@lru_cache(maxsize=1024)
def _compile(text: str) -> Constraint:
    """Parse ``text`` into a :class:`Constraint`; pure, hence cacheable.

    Evaluation closes over nothing but the (immutable) parse, so one
    compiled constraint is safely shared across imports and threads;
    failed parses raise and are never cached.
    """
    return Constraint(text, parse_tree(text, expression=False))


def parse_constraint(text: Optional[str]) -> Constraint:
    """Parse constraint text; ``None``/blank matches every offer.

    Compiles are memoised by constraint text (the import hot path parses
    the same handful of query strings over and over).
    """
    if text is None or not text.strip():
        return _ALWAYS_TRUE
    return _compile(text)


def parse_tree(text: str, expression: bool) -> tuple:
    """``text`` as a tree: a whole constraint, or with ``expression`` only
    an arithmetic expression (a ``min``/``max`` preference's operand).
    Raises :class:`ConstraintSyntaxError` past :data:`MAX_DEPTH` nesting."""
    parser = _Parser(_tokenize(text))
    tree = parser.parse_sum() if expression else parser.parse_or()
    parser.expect("\0")
    return tree


class _Parser:
    """Recursive descent over the token list; builds the tree."""

    def __init__(self, tokens: List[str]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._depth = 0

    def peek(self) -> str:
        return self._tokens[self._pos]

    def advance(self) -> str:
        token = self._tokens[self._pos]
        if token != "\0":
            self._pos += 1
        return token

    def accept(self, token: str) -> bool:
        if self.peek() == token:
            self.advance()
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.accept(token):
            want = "end of input" if token == "\0" else repr(token)
            raise ConstraintSyntaxError(f"expected {want}, found {self.peek()!r}")

    def nested(self, rule: Callable[[], tuple]) -> tuple:
        """``rule()`` one nesting level down; refused past :data:`MAX_DEPTH`."""
        self._depth += 1
        if self._depth > MAX_DEPTH:
            raise ConstraintSyntaxError(f"nested deeper than {MAX_DEPTH} levels")
        node = rule()
        self._depth -= 1
        return node

    # -- grammar --------------------------------------------------------------

    def parse_or(self) -> tuple:
        return self.chain("or", self.parse_and)

    def parse_and(self) -> tuple:
        return self.chain("and", self.parse_not)

    def chain(self, keyword: str, operand: Callable[[], tuple]) -> tuple:
        terms = [operand()]
        while self.accept(keyword):
            terms.append(operand())
        return terms[0] if len(terms) == 1 else (keyword, tuple(terms))

    def parse_not(self) -> tuple:
        if self.accept("not"):
            return ("not", self.nested(self.parse_not))
        return self.parse_comparison()

    def parse_comparison(self) -> tuple:
        if self.accept("exist"):
            token = self.advance()
            if not _is_ident(token):
                raise ConstraintSyntaxError(f"exist needs a property name, found {token!r}")
            return ("exist", token)
        left = self.parse_sum()
        if self.peek() in _COMPARE:
            return ("cmp", self.advance(), left, self.parse_sum())
        return left

    def parse_sum(self) -> tuple:
        return self.arithmetic(("+", "-"), self.parse_term)

    def parse_term(self) -> tuple:
        return self.arithmetic(("*", "/"), self.parse_factor)

    def arithmetic(self, operators: Tuple[str, str], operand: Callable[[], tuple]) -> tuple:
        left = operand()
        while self.peek() in operators:
            left = ("arith", self.advance(), left, operand())
        return left

    def parse_factor(self) -> tuple:
        token = self.advance()
        if token == "(":
            inner = self.nested(self.parse_or)
            self.expect(")")
            return inner
        if token == "[":
            return self.nested(self.parse_list)
        if token == "-":
            return ("neg", self.nested(self.parse_factor))
        first = token[0]
        if first.isdigit():
            return ("lit", float(token) if "." in token else int(token))
        if first in "'\"":
            return ("lit", token[1:-1])
        if token == "true" or token == "false":
            return ("lit", token == "true")
        if _is_ident(token):
            return ("prop", token)
        raise ConstraintSyntaxError(f"unexpected token {token!r}")

    def parse_list(self) -> tuple:
        items = []
        if self.peek() != "]":
            items.append(self.parse_sum())
            while self.accept(","):
                items.append(self.parse_sum())
        self.expect("]")
        return ("list", tuple(items))


def _is_ident(token: str) -> bool:
    # The tokenizer only yields identifiers that start with a letter or _.
    return (token[0].isalpha() or token[0] == "_") and token not in _KEYWORDS


# -- the code generator -------------------------------------------------------

#: What an operand may raise that the language reads as "undefined": a
#: missing property (``p[name]``), a type mismatch, a zero divisor.
_UNDEFINED = (KeyError, TypeError, ZeroDivisionError)
_BOOLEAN_KINDS = frozenset({"and", "or", "not", "exist", "cmp"})


def _negate(value: Any) -> Any:
    if isinstance(value, (int, float)):
        return -value
    raise TypeError("only a number negates")


#: All that a generated function reads besides its constants ``kN``.
_NAMES = {"E": _UNDEFINED, "M": MISSING, "neg": _negate}


def generate(tree: tuple, value: bool) -> Callable[[Mapping[str, Any]], Any]:
    """``tree`` as one function of an offer's properties, returning its
    truth (``value=False``) or its value, MISSING where undefined.

    The source holds node kinds and the fixed operator tables only: each
    property name and literal is a constant (:class:`repro.gen.Source`),
    so one code object per tree *shape* serves every tree of that shape.
    Raises :class:`ConstraintSyntaxError` past the module's bounds.
    """
    writer = _Writer()
    with writer.function("generated(p)"):
        if value:
            writer.atom("r", writer.value(tree, 1, 1), 1, undefined="M")
            writer.line(1, "return r")
        else:
            writer.test(tree, "r", 1, 1)
            writer.line(1, "return True if r else False")
    return build(writer.text(), _NAMES, writer.constants)["generated"]


class _Writer(Source):
    """The source of one generated function, and the values it binds.

    A comparison or a bare value is an *atom*: one ``try`` that sets the
    result variable, reading anything ``_UNDEFINED`` raises as false.  An
    ``and``/``or`` chain is a flat run of atoms, each under one ``if`` on
    the result so far, so the code nests as deep as the constraint does,
    not as long as its chains are.  A boolean inside a value (``(a < 1) +
    2``) is computed first, into a temporary of its own: its falseness is
    a value there, not the whole atom's.
    """

    nodes = 0  # how many the tree has, counted as it is written

    def visit(self, depth: int) -> None:
        self.nodes += 1
        if depth > MAX_DEPTH:
            raise ConstraintSyntaxError(f"nested deeper than {MAX_DEPTH} levels")
        if self.nodes > MAX_NODES:
            raise ConstraintSyntaxError(f"more than {MAX_NODES} terms")

    def test(self, node: tuple, result: str, depth: int, indent: int) -> None:
        """Statements leaving ``result`` with ``node``'s truth."""
        kind = node[0]
        if kind not in _BOOLEAN_KINDS:
            return self.atom(result, self.value(node, depth, indent), indent)
        self.visit(depth)
        if kind == "exist":
            self.line(indent, f"{result} = {self.bind(node[1])} in p")
        elif kind == "not":
            self.test(node[1], result, depth + 1, indent)
            self.line(indent, f"{result} = not {result}")
        elif kind == "cmp":
            left, right = (self.value(side, depth + 1, indent) for side in node[2:])
            self.atom(result, f"{left} {_COMPARE[node[1]]} {right}", indent)
        else:  # and/or: each later term runs only while the chain is undecided
            first, *rest = node[1]
            self.test(first, result, depth + 1, indent)
            for term in rest:
                self.line(indent, f"if {result}:" if kind == "and" else f"if not {result}:")
                self.test(term, result, depth + 1, indent + 1)

    def atom(self, result: str, expression: str, indent: int, undefined: str = "False") -> None:
        self.attempt(indent, f"{result} = {expression}", "E", f"{result} = {undefined}")

    def value(self, node: tuple, depth: int, indent: int) -> str:
        """An expression for ``node``'s value, raising one of
        ``_UNDEFINED`` where the value is undefined."""
        kind = node[0]
        if kind in _BOOLEAN_KINDS:
            temp = self.temp()
            self.test(node, temp, depth, indent)
            self.line(indent, f"{temp} = True if {temp} else False")
            return temp
        self.visit(depth)
        if kind == "lit":
            return self.bind(node[1])
        if kind == "prop":
            return f"p[{self.bind(node[1])}]"
        if kind == "neg":
            return f"neg({self.value(node[1], depth + 1, indent)})"
        if kind == "list":
            return "[" + "".join(self.value(item, depth + 1, indent) + ", " for item in node[1]) + "]"
        left, right = (self.value(side, depth + 1, indent) for side in node[2:])
        return f"({left} {_ARITH[node[1]]} {right})"


_ALWAYS_TRUE = Constraint("", ("lit", True))
