"""Guards that the documented entry points actually run.

Every example script must execute cleanly (they are the README's
contract), and the README/package-docstring quickstart snippet must work
as written.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples must narrate what they do"


def test_quickstart_snippet_from_readme():
    """The snippet in README.md / repro.__doc__, executed verbatim."""
    from repro.net import SimNetwork
    from repro.rpc import RpcClient, RpcServer
    from repro.rpc.transport import SimTransport
    from repro.core import BrowserService, GenericClient
    from repro.services import start_car_rental

    net = SimNetwork()
    rental = start_car_rental(RpcServer(SimTransport(net, "host-a")))
    browser = BrowserService(RpcServer(SimTransport(net, "host-b")))
    browser.register_local(rental)

    client = GenericClient(RpcClient(SimTransport(net, "host-c")))
    binding = client.bind(rental.ref)
    result = binding.invoke(
        "SelectCar",
        {"selection": {"CarModel": "AUDI", "BookingDate": "1994-06-21", "Days": 3}},
    )
    assert result.value["available"] is True
    assert binding.describe("SelectCar")


def test_split_phase_quickstart_snippet_from_readme():
    """The README's split-phase quickstart, executed verbatim."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Split-phase quickstart\n", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(snippet, namespace)
    assert namespace["results"] == [{"i": i} for i in range(1000)]
    # All 1000 calls overlapped: one round trip of virtual time.
    assert namespace["net"].clock.now < 0.1
    assert namespace["client"].calls_sent == 1000


def test_batching_snippet_from_readme():
    """The README's batching snippet, executed verbatim after the
    split-phase quickstart it continues."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()

    def snippet(heading):
        section = readme.split(heading, 1)[1]
        return section.split("```python\n", 1)[1].split("```", 1)[0]

    namespace = {}
    exec(snippet("### Split-phase quickstart\n"), namespace)
    before = namespace["client"].batches_sent
    exec(snippet("### The wire fast lane"), namespace)
    assert namespace["outcomes"] == [{"i": i} for i in range(100)]
    assert len(namespace["ok"]) == 100
    # 100 calls at 16 frames an envelope: 7 BATCH writes.
    assert namespace["client"].batches_sent - before == 7


def test_all_examples_present():
    names = {script.name for script in EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 3, "the deliverable requires at least three examples"
