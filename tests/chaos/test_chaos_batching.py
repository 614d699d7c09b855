"""Chaos parity for the batched wire path.

The fast lane must not change *what happens* — only how many datagrams
it takes.  Each test replays the plain-RPC chaos workload through
``RpcClient.call_many`` under the same seeded fault plane and
asserts the serial suite's invariants hold verbatim: clean runs stay
clean, drops are masked by retransmission, duplicates never
double-execute, and a same-seed replay is fingerprint-identical.
"""

from tests.chaos.harness import run_rpc_workload, run_rpc_workload_batched


def assert_core_invariants(run):
    assert run.extra["pending_replies"] == 0
    # every successful outcome executed exactly once
    succeeded = sorted(
        call_id for call_id, label in run.outcomes.items() if label == "success"
    )
    executed = sorted(run.executions)
    assert len(executed) == len(set(executed)), "a call double-executed"
    for call_id in succeeded:
        assert call_id in executed


def test_batched_baseline_matches_serial_outcomes(chaos_seed):
    serial = run_rpc_workload(chaos_seed)
    batched = run_rpc_workload_batched(chaos_seed)
    assert batched.outcomes == serial.outcomes
    assert sorted(batched.executions) == sorted(serial.executions)
    assert batched.extra["batches_sent"] >= 1
    # 12 calls leave as four envelopes; a retransmission round adds more
    assert batched.extra["batches_sent"] <= 3 * 4  # retries bound the growth
    assert_core_invariants(batched)


def test_batched_drops_are_masked_by_retransmission(chaos_seed):
    # call_many shares ONE deadline budget across the whole batch (the
    # serial workload budgets per call), so the collective gets the sum;
    # and a dropped BATCH datagram loses a whole chunk at once, so the
    # correlated loss needs more attempts than serial frames.  Twelve
    # rounds put 24 envelopes (calls and replies) in front of the drop
    # fault, so no seed escapes it (0.8 ** 24 < 0.5 %); twelve calls left
    # it a one-in-six chance of never firing.
    run = run_rpc_workload_batched(
        chaos_seed, drop=0.2, calls=36, timeout=0.96, retries=8
    )
    assert run.dropped > 0
    assert run.retransmissions > 0
    assert set(run.outcomes.values()) == {"success"}
    assert_core_invariants(run)


def test_batched_duplicates_never_double_execute(chaos_seed):
    run = run_rpc_workload_batched(chaos_seed, duplicate=0.5)
    assert set(run.outcomes.values()) == {"success"}
    assert run.duplicated > 0
    assert_core_invariants(run)


def test_batched_run_is_replay_identical(chaos_seed):
    first = run_rpc_workload_batched(chaos_seed, drop=0.15, duplicate=0.25)
    second = run_rpc_workload_batched(chaos_seed, drop=0.15, duplicate=0.25)
    assert first.fingerprint() == second.fingerprint()
