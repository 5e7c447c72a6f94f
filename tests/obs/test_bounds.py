"""Every span recorder is bounded, and stays readable after eviction.

Profiling spans and request traces share one recorder (BEGIN/END rows in
an :class:`EventStore`). These tests drive four times the row cap in
spans through both and check that resident rows stay within the cap plus one
chunk, that the run report still renders, and that the Chrome and JSONL
exports taken after eviction pass ``check --trace``.
"""

import threading

import pytest

from repro import obs
from repro.check import check_trace_file
from repro.nn.zoo import toynet
from repro.obs import EventStore, Registry, Timeline, Tracer, events
from repro.serve import InferenceService
from repro.sim import make_input


def test_every_store_is_bounded_by_default():
    stores = [EventStore(), Tracer().store, Registry().events,
              Timeline().store]
    assert all(store.max_rows == events.MAX_ROWS for store in stores)


@pytest.fixture
def cap(monkeypatch):
    """Shrink the default row cap to two chunks."""
    rows = 2 * events.CHUNK_ROWS
    monkeypatch.setattr(events, "MAX_ROWS", rows)
    return rows


def assert_exports_pass_check(tmp_path, source, tracer):
    chrome, jsonl = tmp_path / "trace.json", tmp_path / "trace.jsonl"
    obs.write_chrome_trace(str(chrome), source)
    assert tracer.to_jsonl(str(jsonl)) > 0
    assert check_trace_file(str(chrome)) == []
    assert check_trace_file(str(jsonl)) == []


def assert_tree_consistent(spans):
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        assert span.complete, span
        if span.parent_id is None:
            assert span.depth == 0
        else:
            parent = by_id[span.parent_id]  # never an evicted parent
            assert span.depth == parent.depth + 1
            assert span.trace_id == parent.trace_id


def test_profile_spans_from_two_threads(cap, tmp_path):
    # 2 threads x cap iterations x 2 spans = 4x the row cap in spans
    iterations = cap
    resident = []
    in_step = threading.Barrier(2)  # keeps both threads in the newest rows

    def work():
        with obs.span("worker"):
            for i in range(iterations):
                if i % 256 == 0:
                    in_step.wait(10)
                    resident.append(registry.events.resident_rows)
                with obs.span("outer", i=i) as span:
                    with obs.span("inner"):
                        pass
                    span.set(done=True)

    with obs.capture() as registry:
        threads = [threading.Thread(target=work, name=f"spanner-{n}")
                   for n in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    assert not any(thread.is_alive() for thread in threads)
    store = registry.events
    assert len(store) >= 8 * cap  # two rows per span
    assert store.evicted_rows > 0
    assert max(resident + [store.resident_rows]) <= cap + store.chunk_rows

    spans = registry.spans
    assert_tree_consistent(spans)
    # the long-lived "worker" roots are evicted; their children remain
    assert "worker" not in {span.name for span in spans}
    assert len({span.thread for span in spans}) == 2
    outers = [span for span in spans if span.name == "outer"]
    assert outers and all(span.attrs["done"] for span in outers)
    assert all(span.depth == 0 for span in outers)

    report = obs.render_report(registry)
    assert "spans (wall ms / cpu ms):" in report
    assert "outer x" in report and "old rows evicted" in report
    assert_exports_pass_check(tmp_path, registry, registry.tracer)


def test_traced_service(cap, tmp_path):
    net = toynet()
    x = make_input(net.input_shape, seed=0)
    svc = InferenceService(net, trace=True, workers=2, max_batch=16)
    store = svc.tracer.store
    resident = []
    try:
        while len(store) < 8 * cap:  # 4x the row cap in spans
            for future in [svc.submit(x) for _ in range(256)]:
                future.result(timeout=60)
            resident.append(store.resident_rows)
    finally:
        svc.shutdown()
    assert store.evicted_rows > 0
    assert max(resident) <= cap + store.chunk_rows

    spans = svc.tracer.spans()
    assert_tree_consistent(spans)
    # the newest requests are whole trees rooted at serve.request
    newest = svc.tracer.span_tree(max(svc.tracer.trace_ids()))
    assert [root.name for root in newest] == ["serve.request"]
    assert "tracing" in svc.report()
    assert_exports_pass_check(tmp_path, svc.tracer, svc.tracer)
