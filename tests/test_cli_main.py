"""``python -m repro`` subcommand routing: usage listing and per-command help."""

from __future__ import annotations

import pytest

from repro.__main__ import COMMANDS, main


def test_unknown_subcommand_lists_real_registry(capsys):
    code = main(["no-such-command"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown subcommand 'no-such-command'" in err
    for name in COMMANDS:
        assert name in err  # the listing is generated, not hardcoded


def test_top_level_help_lists_subcommands(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("tour", "telemetry-report", "telemetry-dash", "stats"):
        assert name in out


@pytest.mark.parametrize("subcommand", ["telemetry-dash", "stats", "telemetry-report"])
def test_each_subcommand_answers_help(subcommand, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([subcommand, "--help"])
    assert excinfo.value.code == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_tour_help_prints_module_doc(capsys):
    assert main(["tour", "--help"]) == 0
    assert "two-minute tour" in capsys.readouterr().out


def test_the_tour_runs_every_step(capsys):
    """The default command: every step of the tour prints its header,
    and the sharded trader's import survives the crash of its primary."""
    assert main([]) == 0
    out = capsys.readouterr().out
    for step in range(1, 8):
        assert f"\n[{step}] " in out, step
    assert "the promoted replica answered the import identically: True" in out
    assert "all layers exercised" in out
