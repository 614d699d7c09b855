"""Chaos-suite fixtures: the seed sweep.

Every chaos test taking a ``chaos_seed`` fixture runs once per seed from
:func:`tests.chaos.harness.chaos_seeds` — ``CHAOS_SEED=<n>[,<m>...]`` in
the environment narrows (or extends) the sweep, which is how CI runs
each seed as its own job.  A test that also takes ``shape`` runs each
seed on every shard-tier shape in :data:`tests.chaos.harness.SHAPES`;
the in-process shape keeps the bare seed as its id (``[7]``), the
others append their name (``[7-remote]``).
"""

from tests.chaos.harness import SHAPES, chaos_seeds


def pytest_generate_tests(metafunc):
    if "chaos_seed" not in metafunc.fixturenames:
        return
    if "shape" not in metafunc.fixturenames:
        metafunc.parametrize("chaos_seed", chaos_seeds())
        return
    cases = [(seed, shape) for shape in SHAPES for seed in chaos_seeds()]
    metafunc.parametrize(
        ("chaos_seed", "shape"),
        cases,
        ids=[str(seed) if shape == "local" else f"{seed}-{shape}" for seed, shape in cases],
    )
