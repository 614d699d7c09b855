"""The span recorder: parents, sizes, generator busy time."""

import threading
import time

from bench import trace


def test_nested_calls_record_parent_and_size():
    recorder = trace.Recorder()
    inner = recorder.traced("rpc.codec", "encode", lambda value: b"x" * value,
                            measure=lambda args, result: len(result))
    outer = recorder.traced("rpc.client", "call", lambda: inner(5))
    assert outer() == b"xxxxx"
    spans = {span["name"]: span for span in recorder.dump("p")}
    assert spans["encode"]["parent"] == spans["call"]["id"]
    assert spans["call"]["parent"] is None
    assert spans["encode"]["n"] == 5
    assert spans["call"]["start"] <= spans["encode"]["start"] <= spans["encode"]["end"] <= spans["call"]["end"]


def test_exception_still_closes_the_span():
    recorder = trace.Recorder()

    def boom():
        raise ValueError("no")

    wrapped = recorder.traced("rpc.server", "handler", boom)
    try:
        wrapped()
    except ValueError:
        pass
    (span,) = recorder.dump("p")
    assert span["end"] >= span["start"] > 0
    after = recorder.traced("rpc.server", "next", lambda: None)
    after()
    assert recorder.dump("p")[1]["parent"] is None  # the stack was unwound


def test_threads_keep_separate_stacks_and_unique_ids():
    recorder = trace.Recorder()
    work = recorder.traced("rpc.server", "work", lambda: time.sleep(0.01))
    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(5)
    spans = recorder.dump("p")
    assert len(spans) == 4 and len({span["id"] for span in spans}) == 4
    assert all(span["parent"] is None for span in spans)


def test_generator_span_covers_busy_time_only_and_counts_items():
    recorder = trace.Recorder()

    def walk():
        for item in range(3):
            time.sleep(0.01)  # the generator's own work
            yield item

    traced_walk = recorder.traced_generator("trader.offers", "ordered_by", walk)
    for _ in traced_walk():
        time.sleep(0.03)  # the consumer's work between items
    (span,) = recorder.dump("p")
    assert span["n"] == 3
    assert 0.03 <= span["end"] - span["start"] < 0.06


def test_generator_closed_early_is_still_recorded():
    recorder = trace.Recorder()
    traced_walk = recorder.traced_generator("trader.offers", "ordered_by", lambda: iter(range(100)))
    for item in traced_walk():
        if item == 4:
            break
    (span,) = recorder.dump("p")
    assert span["n"] == 5


def test_counted_calls_are_counted_not_spanned():
    recorder = trace.Recorder()
    evaluate = recorder.counted("constraint_evals", lambda value: value > 1)
    assert [evaluate(v) for v in (0, 1, 2)] == [False, False, True]
    assert recorder.counts == {"constraint_evals": 3}
    assert recorder.dump("p") == []


def test_spans_round_trip_through_jsonl(tmp_path):
    recorder = trace.Recorder()
    recorder.traced("sidl", "to_wire", lambda: None)()
    path = tmp_path / "trace.jsonl"
    trace.write_spans(str(path), recorder.dump("sut"))
    assert trace.read_spans(str(path)) == recorder.dump("sut")
