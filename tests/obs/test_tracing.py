"""Tracer: span lifecycles, tree reconstruction, exporters."""

import json

from repro.check import check_trace_file
from repro.obs import chrome_trace, write_chrome_trace
from repro.obs.tracing import Tracer


def build_request_trace(tracer, trace_id, requeue=False):
    """Emit one serve-shaped trace; returns the span ids used."""
    root = tracer.begin("serve.request", trace_id, request=trace_id)
    enq = tracer.begin("serve.enqueue", trace_id, parent_id=root)
    tracer.end(enq)
    if requeue:
        tracer.instant("serve.requeue", trace_id, parent_id=root)
        enq2 = tracer.begin("serve.enqueue", trace_id, parent_id=root,
                            requeued=True)
        tracer.end(enq2)
    batch = tracer.begin("serve.batch", trace_id, parent_id=root)
    execute = tracer.begin("serve.execute", trace_id, parent_id=batch)
    tracer.end(execute, status="ok")
    tracer.end(batch)
    tracer.end(root, status="ok")
    return root, batch, execute


class TestTracer:
    def test_begin_end_reconstructs(self):
        tracer = Tracer()
        build_request_trace(tracer, 0)
        assert tracer.trace_ids() == [0]
        spans = tracer.spans(0)
        assert [s.name for s in spans] == [
            "serve.request", "serve.enqueue", "serve.batch", "serve.execute"]
        assert all(s.complete for s in spans)
        assert tracer.complete(0)
        assert tracer.open_spans == 0

    def test_end_is_idempotent(self):
        tracer = Tracer()
        span = tracer.begin("serve.request", 0)
        tracer.end(span)
        tracer.end(span)  # no-op, no duplicate END row
        tracer.end(-1)    # sentinel for "no span" is also a no-op
        assert len(list(tracer.store.rows())) == 2

    def test_incomplete_trace_reported(self):
        tracer = Tracer()
        tracer.begin("serve.request", 0)
        assert not tracer.complete(0)
        assert tracer.open_spans == 1
        assert not tracer.complete(99)  # unknown trace is not complete

    def test_span_tree_nesting(self):
        tracer = Tracer()
        build_request_trace(tracer, 0)
        roots = tracer.span_tree(0)
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "serve.request"
        assert [c.name for c in root.children] == [
            "serve.enqueue", "serve.batch"]
        assert [c.name for c in root.children[1].children] == [
            "serve.execute"]
        assert root.find("serve.execute")[0].attrs["status"] == "ok"

    def test_end_attrs_merge_into_span(self):
        tracer = Tracer()
        span = tracer.begin("serve.request", 0, request=0)
        tracer.end(span, status="failed")
        got = tracer.spans(0)[0]
        assert got.attrs == {"request": 0, "status": "failed"}

    def test_instants_attach_to_parent(self):
        tracer = Tracer()
        root = tracer.begin("serve.request", 0)
        execute = tracer.begin("serve.execute", 0, parent_id=root)
        tracer.instant("serve.retry", 0, parent_id=execute, attempt=1)
        tracer.end(execute)
        tracer.end(root)
        exec_span = tracer.spans(0)[1]
        assert [e.name for e in exec_span.events] == ["serve.retry"]
        assert exec_span.events[0].attrs == {"attempt": 1}

    def test_traces_are_independent(self):
        tracer = Tracer()
        for trace_id in range(3):
            build_request_trace(tracer, trace_id)
        assert tracer.trace_ids() == [0, 1, 2]
        for trace_id in range(3):
            assert tracer.complete(trace_id)
            assert len(tracer.spans(trace_id)) == 4


class TestExports:
    def test_jsonl_roundtrip_passes_check(self, tmp_path):
        tracer = Tracer()
        build_request_trace(tracer, 0)
        build_request_trace(tracer, 1, requeue=True)
        path = tmp_path / "trace.jsonl"
        n = tracer.to_jsonl(str(path))
        assert n == 4 + 5
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert all(r["complete"] for r in records)
        requeued = [r for r in records
                    if r.get("attrs", {}).get("requeued")]
        assert len(requeued) == 1
        assert check_trace_file(str(path)) == []

    def test_chrome_trace_passes_check(self, tmp_path):
        tracer = Tracer()
        build_request_trace(tracer, 0)
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), tracer)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        span_events = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in span_events} == {
            "serve.request", "serve.enqueue", "serve.batch", "serve.execute"}
        assert check_trace_file(str(path)) == []

    def test_chrome_flow_arrows_pair_up(self, tmp_path):
        tracer = Tracer()
        build_request_trace(tracer, 0, requeue=True)
        events = chrome_trace(tracer)["traceEvents"]
        starts = [e for e in events if e["ph"] == "s"]
        ends = [e for e in events if e["ph"] == "f"]
        # enqueue -> batch -> ... hops: enqueue,enqueue,execute -> 2 arrows
        assert len(starts) == len(ends) == 2
        assert all(e["id"] == 0 for e in starts + ends)

    def test_chrome_lane_metadata(self):
        tracer = Tracer()
        build_request_trace(tracer, 0)
        events = chrome_trace(tracer)["traceEvents"]
        labels = {e["args"]["name"] for e in events
                  if e["ph"] == "M" and e["name"] == "thread_name"}
        assert labels == {"requests", "queue", "batch", "execute"}

    def test_incomplete_span_fails_jsonl_check(self, tmp_path):
        tracer = Tracer()
        tracer.begin("serve.request", 0)
        path = tmp_path / "trace.jsonl"
        tracer.to_jsonl(str(path))
        codes = [d.code for d in check_trace_file(str(path))]
        assert "RC502" in codes
