"""RC5xx: static validation of exported trace files."""

import json

from repro.check import check_trace_file
from repro.obs import write_chrome_trace
from repro.obs.tracing import Tracer


def codes(diagnostics):
    return [d.code for d in diagnostics]


def full_trace():
    tracer = Tracer()
    root = tracer.begin("serve.request", 0)
    enq = tracer.begin("serve.enqueue", 0, parent_id=root)
    tracer.end(enq)
    execute = tracer.begin("serve.execute", 0, parent_id=root)
    tracer.end(execute)
    tracer.end(root)
    return tracer


def jsonl(tmp_path, records):
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def span(**overrides):
    record = {"trace": 0, "span": 0, "parent": -1, "name": "serve.request",
              "start_s": 0.0, "end_s": 1.0, "complete": True}
    record.update(overrides)
    return record


class TestJsonl:
    def test_real_export_is_clean(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        full_trace().to_jsonl(str(path))
        assert check_trace_file(str(path)) == []

    def test_missing_file(self, tmp_path):
        assert codes(check_trace_file(str(tmp_path / "nope.jsonl"))) \
            == ["RC501"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert codes(check_trace_file(str(path))) == ["RC501"]

    def test_bad_json_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(span()) + "\n{not json\n")
        assert codes(check_trace_file(str(path))) == ["RC501"]

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("[1, 2]\n")
        assert codes(check_trace_file(str(path))) == ["RC501"]

    def test_missing_keys(self, tmp_path):
        record = span()
        del record["start_s"]
        path = jsonl(tmp_path, [record])
        diags = check_trace_file(path)
        assert codes(diags) == ["RC501"]
        assert diags[0].context["missing"] == ["start_s"]

    def test_incomplete_span(self, tmp_path):
        path = jsonl(tmp_path, [span(end_s=None, complete=False)])
        assert codes(check_trace_file(path)) == ["RC502"]

    def test_orphan_parent(self, tmp_path):
        path = jsonl(tmp_path, [span(), span(span=1, parent=99)])
        assert codes(check_trace_file(path)) == ["RC503"]

    def test_parent_must_be_in_same_trace(self, tmp_path):
        # span 7 exists, but in another trace entirely
        path = jsonl(tmp_path, [span(trace=0, span=7),
                                span(trace=1, span=1, parent=7)])
        assert codes(check_trace_file(path)) == ["RC503"]

    def test_end_before_start(self, tmp_path):
        path = jsonl(tmp_path, [span(start_s=2.0, end_s=1.0)])
        assert codes(check_trace_file(path)) == ["RC504"]

    def test_diagnostics_are_errors_with_sites(self, tmp_path):
        path = jsonl(tmp_path, [span(end_s=None, complete=False)])
        diag = check_trace_file(path)[0]
        assert diag.is_error
        assert path in diag.site
        assert ":1" in diag.site


class TestChrome:
    def test_real_export_is_clean(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), full_trace())
        assert check_trace_file(str(path)) == []

    def chrome(self, tmp_path, events):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"traceEvents": events}))
        return str(path)

    def x(self, **overrides):
        event = {"ph": "X", "name": "serve.execute", "pid": 10, "tid": 4,
                 "ts": 0.0, "dur": 5.0}
        event.update(overrides)
        return event

    def test_traceevents_not_a_list(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"traceEvents": {}}))
        assert codes(check_trace_file(str(path))) == ["RC501"]

    def test_event_without_phase(self, tmp_path):
        path = self.chrome(tmp_path, [self.x(), {"name": "no-ph"}])
        assert codes(check_trace_file(path)) == ["RC501"]

    def test_complete_event_missing_dur(self, tmp_path):
        event = self.x()
        del event["dur"]
        path = self.chrome(tmp_path, [event])
        assert codes(check_trace_file(path)) == ["RC501"]

    def test_negative_duration(self, tmp_path):
        path = self.chrome(tmp_path, [self.x(dur=-1.0)])
        assert codes(check_trace_file(path)) == ["RC504"]

    def test_stray_begin(self, tmp_path):
        path = self.chrome(tmp_path, [self.x(),
                                      {"ph": "B", "name": "serve.batch"}])
        assert codes(check_trace_file(path)) == ["RC502"]

    def test_no_span_events(self, tmp_path):
        path = self.chrome(tmp_path, [{"ph": "M", "name": "process_name"}])
        assert codes(check_trace_file(path)) == ["RC501"]

    def test_flow_finish_without_start(self, tmp_path):
        path = self.chrome(tmp_path, [self.x(), {"ph": "f", "id": 3}])
        diags = check_trace_file(path)
        assert codes(diags) == ["RC505"]
        assert not diags[0].is_error  # unmatched flows only warn

    def test_flow_start_without_finish(self, tmp_path):
        path = self.chrome(tmp_path, [self.x(), {"ph": "s", "id": 3}])
        assert codes(check_trace_file(path)) == ["RC505"]

    def test_balanced_flows_are_clean(self, tmp_path):
        path = self.chrome(tmp_path, [self.x(),
                                      {"ph": "s", "id": 3},
                                      {"ph": "f", "id": 3}])
        assert check_trace_file(path) == []
