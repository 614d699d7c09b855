"""The SUT child: ready handshake, commands, shutdown on stdin EOF."""

import json
import socket

import pytest

from bench import runner


def _listening(address) -> bool:
    probe = socket.socket()
    probe.settimeout(1)
    try:
        probe.connect(tuple(address))
    except OSError:
        return False
    finally:
        probe.close()
    return True


def test_ready_line_commands_and_clean_exit_on_eof():
    with runner.Sut(offers=400, clients=1, fig6=True) as sut:
        sut.wait_ready()
        ready = sut.ready
        assert ready["ready"] is True and sut.setup_s > 0
        assert ready["front"][1] != 0 and ready["names"][1] != 0  # ephemeral ports
        assert set(ready["placement"].values()) == {"sh1", "sh2", "sh3", "sh4"}
        assert _listening(ready["front"])
        stats = sut.command(cmd="stats")
        held = sum(pair["primary"]["offers"] for pair in stats["shards"].values())
        assert held == 400 + 1  # the population plus the client's car-rental offer
        for pair in stats["shards"].values():
            assert pair["replica"]["applied_seq"] == pair["primary"]["last_seq"]
        assert "error" in sut.command(cmd="no-such-command")
        process = sut.process
    assert process.poll() == 0  # stdin EOF was enough; nothing had to be killed
    assert not _listening(ready["front"])


def test_a_failure_in_the_run_still_ends_the_child():
    with pytest.raises(RuntimeError):
        with runner.Sut(offers=100, clients=1, fig6=False) as sut:
            sut.wait_ready()
            process = sut.process
            raise RuntimeError("the load generator failed")
    assert process.poll() is not None


def test_smoke_run_prints_the_result_line(capsys):
    from bench.__main__ import main

    assert main(["run", "--workload", "export_churn", "--smoke", "--seed", "3"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    names = {metric["name"] for metric in runner.catalogue()["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
