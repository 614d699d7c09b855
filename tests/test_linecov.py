"""tier-1 runs ``tools/linecov.py`` over the functions whose untested
branches an aggregate coverage floor would not notice: the at-most-once
window (replay, encode-once, eviction, oversized replies), the server's
admission path (arrival rejection and shed, coalesced duplicates, the
queue-full shed) and its post-execution epilogue (wasted handler
seconds), the trader service's constructor (its clock default), the
execute body (dequeue re-checks, the span gate with its ``sampled=0``
fault-span rebuild, an awaitable handler result refused as a typed
fault), the index probe's candidate order, the offer store's derived
index removals and its ordered walk (NaN and the other unrankable values
in its tail; the sorted run's writes, tombstones included, and its walk
over a folded or a dirty run), the preference ranking that walk must agree with, the TCP
send path (a refused connect or a failed write is a typed, transient
error), the client's
split-phase pair (``start``, and ``gather``: the one attempt loop), the
envelope writer every CALL frame leaves through (``_send`` cuts, ``_write``
writes), ``call_many``, the federation fan-out over remote and in-process
links, the offer-record wire path (the ``any`` leaf, and the string
and opaque reads the compiled decoder spends its time in), and the
single-owner relay (the router's branch, the remote backend's undecoded
IMPORT answer and ``encode_result``'s rule for a relayed body), a shard's
failover on the shared engine (``ShardHandle.call``: promotion, deadline
slice, application error, no backend left), the rule that types a remote
trader's fault, the lease heartbeat's beat (renewed, lost and
re-exported, failed), the constraint code generator (every node kind,
booleans used as values, both bounds) and the matching loop (lazy lease
exclusion, marker resolution, the stop)."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TARGETS = [
    "repro.rpc.server:RpcServer._finish",
    "repro.rpc.server:RpcServer._receive",
    "repro.rpc.server:ReplyCache.put",
    "repro.rpc.server:RpcServer._run_entry",
    "repro.rpc.server:RpcServer._execute",
    "repro.rpc.server:RpcServer._invoke",
    "repro.rpc.server:RpcServer._admit",
    "repro.rpc.server:RpcServer._observe",
    "repro.trader.trader:TraderService.__init__",
    "repro.trader.offers:OfferStore._filter",
    "repro.trader.offers:OfferStore._unindex",
    "repro.trader.offers:OfferStore.ordered_by",
    "repro.trader.offers:_SortedValues.add",
    "repro.trader.offers:_SortedValues.discard",
    "repro.trader.offers:_SortedValues.walk",
    "repro.trader.policies:Preference.apply",
    "repro.rpc.transport:TcpTransport.send",
    "repro.rpc.client:RpcClient.start",
    "repro.rpc.client:RpcClient.gather",
    "repro.rpc.client:RpcClient._send",
    "repro.rpc.client:RpcClient._write",
    "repro.rpc.client:RpcClient.call_many",
    "repro.trader.federation:fan_out",
    "repro.rpc.codec:_compile_any",
    "repro.rpc.codec:CodecRegistry.encode_result",
    "repro.trader.sharding.router:ShardRouter.import_",
    "repro.trader.sharding.rpc:RemoteShardBackend.import_wire",
    "repro.trader.sharding.router:ShardHandle.call",
    "repro.rpc.errors:RemoteFault.reraise_as",
    "repro.trader.leases:LeaseHeartbeat.beat",
    "repro.rpc.xdr:_span",
    "repro.rpc.xdr:get_string",
    "repro.rpc.xdr:get_opaque",
    "repro.trader.constraints:generate",
    "repro.trader.constraints:_code",
    "repro.trader.constraints:_Writer.visit",
    "repro.trader.constraints:_Writer.test",
    "repro.trader.constraints:_Writer.atom",
    "repro.trader.constraints:_Writer.value",
    "repro.trader.trader:LocalTrader._matching",
]
# Deterministic tests only: what the hypothesis properties happen to
# generate must not decide whether a line counts as covered.
RPC = "tests/test_rpc_client_server.py::"
AIO = "tests/test_rpc_aio.py::"
ADMISSION = "tests/test_rpc_admission.py::"
SAMPLING = "tests/test_telemetry_sampling.py::"
TCP = "tests/test_rpc_tcp.py::"
BATCHING = "tests/test_rpc_batching.py::"
CONSTRAINTS = "tests/test_trader_constraints.py::"
UNIT_TESTS = [
    RPC + "test_at_most_once_suppresses_duplicate_execution",
    RPC + "test_reply_cache_bounded",
    RPC + "test_small_replies_outlive_a_run_of_large_ones",
    RPC + "test_reply_cache_reinsert_replaces_the_old_charge",
    RPC + "test_remote_exception_surfaces_as_fault",
    RPC + "test_unknown_program_raises",
    RPC + "test_awaitable_handler_result_is_a_typed_fault",
    AIO + "test_concurrent_calls_overlap_in_virtual_time",
    AIO + "test_retransmission_survives_drops",
    AIO + "test_gather_needed_leaves_the_rest_live_until_retired",
    AIO + "test_deadline_expired_before_send",
    "tests/test_federation_outcomes.py",
    ADMISSION + "test_queued_call_aged_out_is_dropped_before_execution",
    ADMISSION + "test_queued_call_whose_budget_shrank_below_the_estimate_is_shed_at_dequeue",
    ADMISSION + "test_estimate_shed_on_tight_budget",
    ADMISSION + "test_queue_overflow_sheds_latest_deadline_entry",
    ADMISSION + "test_retransmission_of_queued_or_executing_call_is_coalesced",
    ADMISSION + "test_disabled_shedding_burns_wasted_handler_seconds",
    "tests/test_context_integration.py::test_expired_call_rejected_before_handler_runs",
    SAMPLING + "test_sampled_in_chain_is_exported",
    SAMPLING + "test_sampled_out_fault_rebuilds_the_server_span_for_the_tail_keep[blocking]",
    "tests/test_rpc_stats.py::test_probes_beyond_budget_are_shed",
    TCP + "test_refused_connect_is_a_transient_communication_error",
    TCP + "test_resilient_caller_fails_over_past_a_closed_port",
    TCP + "test_failed_write_drops_the_connection_and_the_next_call_redials",
    BATCHING + "test_call_many_outcomes_in_order",
    BATCHING + "test_call_many_empty_is_empty",
    BATCHING + "test_call_many_mixes_results_and_typed_errors",
    BATCHING + "test_count_watermark_flushes",
    BATCHING + "test_bytes_watermark_flushes",
    BATCHING + "test_destinations_stage_independently",
    BATCHING + "test_refused_connect_settles_the_whole_envelope",
    "tests/test_wire_rules.py",
    "tests/test_trader_sharding_parity.py",
    "tests/test_sharding_migration.py::test_spliced_and_merged_paths_answer_a_migrated_type_alike",
    "tests/test_sharding_replication.py",
    "tests/test_trader_service_rpc.py::test_a_fault_is_raised_as_the_trader_error_its_kind_names",
    "tests/test_trader_leases.py",
    "tests/test_wire_golden.py::test_compiled_import_reply_of_two_offers",
    "tests/test_trader_index.py",
    "tests/test_trader_sorted_run.py::test_modify_back_to_a_folded_value_cancels_its_tombstone",
    "tests/test_trader_policies.py",
    CONSTRAINTS + "test_hostile_constraints_are_a_syntax_error",
    CONSTRAINTS + "test_and_or_not",
    CONSTRAINTS + "test_in_list",
    CONSTRAINTS + "test_unary_minus",
    CONSTRAINTS + "test_exist",
    CONSTRAINTS + "test_boolean_property_direct",
    "tests/test_trader_dynamic.py::test_only_marked_offers_are_resolved",
    "-k",
    "not candidate_order",
]


def test_named_functions_are_fully_executed_by_their_unit_tests():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "tools/linecov.py", *TARGETS, "--", *UNIT_TESTS]
    result = subprocess.run(
        command + ["-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
    counts = dict(
        line.split(": ", 1) for line in result.stdout.splitlines() if line.startswith("repro.")
    )
    assert set(counts) == set(TARGETS)
    for target, count in counts.items():
        executed, total = count.split(" ")[0].split("/")
        assert executed == total != "0", (target, count)
