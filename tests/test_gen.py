"""The one runner of generated code (:mod:`repro.gen`): the only
``exec`` under ``src/``, and the namespace each generated function runs
in, for both of its writers, the constraint matcher and the codec."""

import re
from pathlib import Path

import pytest

from repro.rpc import codec
from repro.sidl import layout
from repro.trader import constraints
from tests.test_rpc_codec import WIDE_SPEC

ROOT = Path(__file__).resolve().parent.parent


def test_the_one_exec_says_why_it_is_safe():
    calls = [
        (path.relative_to(ROOT / "src").as_posix(), line)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if re.search(r"\bexec\(", line)
    ]
    assert [path for path, __ in calls] == ["repro/gen.py"]
    assert re.search(r"# noqa: S102 - \w+", calls[0][1])


def _matcher():
    holds = constraints.parse_constraint(
        "(City == 'C1' or -Rank in [1, 2]) and (Load < 1) + 2 > ChargePerDay / 3"
    )._holds
    return [holds], constraints._NAMES, r"generated", set()


def _codec():
    spec = layout.struct(wide=WIDE_SPEC, properties=layout.any_value())
    return list(codec.generate(spec)), codec._RUNTIME, r"(enc|dec)\d*", {
        "append", "encode", "decode", "items",
    }


@pytest.mark.parametrize("generated_by", [_matcher, _codec], ids=["matcher", "codec"])
def test_generated_functions_see_only_what_they_bind(generated_by):
    functions, names, function_names, attributes = generated_by()
    namespace = functions[0].__globals__
    assert all(function.__globals__ is namespace for function in functions)
    assert namespace["__builtins__"] == {}
    bound = set(namespace) - {"__builtins__"}
    constants = {name for name in bound if re.fullmatch(r"k\d+", name)}
    generated = {name for name in bound if re.fullmatch(function_names, name)}
    assert constants and bound == set(names) | constants | generated
    assert {function.__name__ for function in functions} <= generated
    for function in functions:
        assert set(function.__code__.co_names) <= bound | attributes
