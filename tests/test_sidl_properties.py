"""Property-based tests over randomly generated ServiceDescriptions.

A hypothesis strategy builds whole SIDs — types, interface, FSM, exports,
annotations — and checks the invariants the COSM stack leans on:

* wire round-trips are lossless and stable,
* regenerated SIDL source parses back to an equal SID,
* conformance is reflexive, and extending a SID never breaks it,
* default values always satisfy their own types.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sidl.builder import load_service_description
from repro.sidl.fsm import FsmSpec, FsmTransition
from repro.sidl.sid import ServiceDescription
from repro.sidl.types import (
    BOOLEAN,
    DOUBLE,
    EnumType,
    FLOAT,
    InterfaceType,
    LONG,
    OperationType,
    SHORT,
    STRING,
    SequenceType,
    StructType,
)

_names = st.sampled_from(
    ["Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta", "Eta", "Theta"]
)
_labels = st.lists(
    st.sampled_from(["L1", "L2", "L3", "L4", "L5"]), min_size=1, max_size=5, unique=True
)

_base_types = st.sampled_from([BOOLEAN, SHORT, LONG, FLOAT, DOUBLE, STRING])

_types = st.recursive(
    st.one_of(_base_types, st.builds(lambda ls: EnumType("E_t", ls), _labels)),
    lambda inner: st.one_of(
        st.builds(SequenceType, inner),
        st.builds(
            lambda fields: StructType("S_t", fields),
            st.lists(
                st.tuples(st.sampled_from(["a", "b", "c", "d"]), inner),
                min_size=1,
                max_size=4,
                unique_by=lambda pair: pair[0],
            ),
        ),
    ),
    max_leaves=6,
)

_operations = st.lists(
    st.builds(
        lambda name, params, result: OperationType(
            name, [(f"p{i}", "in", t) for i, t in enumerate(params)], result
        ),
        name=st.sampled_from(["Do", "Get", "Put", "Scan", "Stop"]),
        params=st.lists(_types, max_size=3),
        result=_types,
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda op: op.name,
)


@st.composite
def sids(draw) -> ServiceDescription:
    name = draw(_names)
    operations = draw(_operations)
    interface = InterfaceType("COSM_Operations", operations)
    named_types = {}
    for index, extra in enumerate(draw(st.lists(_types, max_size=3))):
        named_types[f"T{index}_t"] = extra
    fsm = None
    if draw(st.booleans()):
        states = draw(
            st.lists(st.sampled_from(["S1", "S2", "S3"]), min_size=1, max_size=3, unique=True)
        )
        op_names = [op.name for op in operations]
        transitions = [
            FsmTransition(draw(st.sampled_from(states)), op_name, draw(st.sampled_from(states)))
            for op_name in draw(
                st.lists(st.sampled_from(op_names), max_size=3, unique=True)
            )
        ]
        # keep determinism: drop duplicate (source, operation) pairs
        seen = set()
        deterministic = []
        for transition in transitions:
            key = (transition.source, transition.operation)
            if key not in seen:
                seen.add(key)
                deterministic.append(transition)
        fsm = FsmSpec(states, states[0], deterministic)
    trader_export = None
    if draw(st.booleans()):
        trader_export = {
            "TOD": name,
            "Weight": draw(st.integers(min_value=0, max_value=1000)),
            "Rate": draw(
                st.floats(min_value=0, max_value=1e6, allow_nan=False).map(
                    lambda x: round(x, 3)
                )
            ),
        }
    annotations = {
        operations[0].name: draw(
            st.text(alphabet=string.ascii_letters + " .,", max_size=40)
        )
    }
    return ServiceDescription(
        name=name,
        interface=interface,
        types=named_types,
        fsm=fsm,
        trader_export=trader_export,
        annotations=annotations,
    )


@settings(max_examples=120, deadline=None)
@given(sids())
def test_wire_roundtrip_lossless(sid):
    again = ServiceDescription.from_wire(sid.to_wire())
    assert again == sid
    assert again.elements() == sid.elements()


@settings(max_examples=80, deadline=None)
@given(sids())
def test_wire_roundtrip_stable(sid):
    once = ServiceDescription.from_wire(sid.to_wire())
    twice = ServiceDescription.from_wire(once.to_wire())
    assert once.to_wire() == twice.to_wire()


@settings(max_examples=80, deadline=None)
@given(sids())
def test_conformance_reflexive(sid):
    assert sid.conforms_to(sid)


@settings(max_examples=80, deadline=None)
@given(sids())
def test_defaults_satisfy_own_types(sid):
    for operation in sid.interface.operations.values():
        arguments = {
            param_name: param_type.default()
            for param_name, param_type in operation.in_params()
        }
        operation.check_arguments(arguments)


@settings(max_examples=60, deadline=None)
@given(sids())
def test_generated_sidl_parses_back_equivalent(sid):
    """Regenerated source parses to a *structurally equivalent* SID.

    Anonymous constructed types get hoisted under fresh names during
    generation, so wire forms may differ (inline vs. reference) while the
    types are the same shape: mutual conformance is the right equality.
    """
    from repro.sidl.subtyping import interface_conforms

    regenerated = load_service_description(sid.to_sidl())
    assert regenerated.name == sid.name
    assert regenerated.operation_names() == sid.operation_names()
    # the regenerated SID names the hoisted types, so it is the (possibly
    # richer) subtype; the interfaces must conform in both directions
    assert regenerated.conforms_to(sid)
    assert interface_conforms(sid.interface, regenerated.interface)
    assert regenerated.fsm == sid.fsm
    assert regenerated.trader_export == sid.trader_export
    assert regenerated.annotations == sid.annotations


@settings(max_examples=60, deadline=None)
@given(sids())
def test_forms_generate_for_any_sid(sid):
    from repro.uims.formgen import form_for_operation, prefill_defaults

    for operation in sid.interface.operations.values():
        form = form_for_operation(sid, operation)
        prefill_defaults(form, operation)
        assert len(form.fields) == len(operation.in_params())
