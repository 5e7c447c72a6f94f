"""Chrome Trace Event Format export validity."""

import json
import threading

from repro.faults import FaultPlan
from repro.hw.pipeline import StageTiming, simulate_pipeline
from repro.obs import Registry, chrome_trace, write_chrome_trace

REQUIRED_KEYS = {"name", "ph", "pid", "tid"}


def make_registry() -> Registry:
    registry = Registry()
    with registry.span("explore", network="vgg"):
        with registry.span("explore.enumerate"):
            pass
    registry.add("explore.partitions_scored", 64)
    # finishes (2, 7, 8), (4, 12, 13), (6, 17, 18); makespan 18
    schedule = simulate_pipeline([StageTiming("load", 2),
                                  StageTiming("conv1", 5),
                                  StageTiming("store", 1)], 3)
    registry.record_pipeline(schedule, name="demo")
    return registry


class TestChromeTrace:
    def test_events_have_required_keys(self):
        trace = chrome_trace(make_registry())
        assert isinstance(trace["traceEvents"], list)
        for event in trace["traceEvents"]:
            assert REQUIRED_KEYS <= set(event), event
            assert event["ph"] in {"X", "M", "C"}

    def test_complete_events_have_nonnegative_ts_dur(self):
        for event in chrome_trace(make_registry())["traceEvents"]:
            if event["ph"] == "X":
                assert event["ts"] >= 0
                assert event["dur"] >= 0

    def test_span_events_on_main_thread(self):
        events = chrome_trace(make_registry())["traceEvents"]
        spans = [e for e in events if e.get("cat") == "span"]
        assert {e["name"] for e in spans} == {"explore", "explore.enumerate"}
        assert all(e["pid"] == 1 and e["tid"] == 1 for e in spans)

    def test_each_thread_gets_its_own_track(self):
        registry = Registry()
        with registry.span("main-work"):
            pass

        def work():
            with registry.span("worker-work"):
                pass

        worker = threading.Thread(target=work, name="worker-7")
        worker.start()
        worker.join(10)
        events = chrome_trace(registry)["traceEvents"]
        tid = {e["name"]: e["tid"] for e in events if e.get("cat") == "span"}
        assert tid == {"main-work": 1, "worker-work": 2}
        names = {e["tid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"
                 and e["pid"] == 1}
        assert names == {1: "main", 2: "worker-7"}

    def test_pipeline_one_track_per_stage(self):
        events = chrome_trace(make_registry())["traceEvents"]
        pipe = [e for e in events if e.get("cat") == "pipeline"]
        # 3 items x 3 stages, each stage on its own tid.
        assert len(pipe) == 9
        assert {e["tid"] for e in pipe} == {1, 2, 3}
        by_stage = {e["tid"]: e for e in pipe if e["args"]["item"] == 0}
        # Item 0 at stage "conv1": finished at 7 after 5 cycles -> busy [2, 7).
        assert by_stage[2]["ts"] == 2.0 and by_stage[2]["dur"] == 5.0

    def test_pipeline_boxes_include_stalls(self):
        """Each box spans [stage_begin, stage_finish], so injected stall
        cycles are drawn and no box starts late."""
        injector = FaultPlan.parse("stage_stall:p=0.5,cycles=9",
                                   seed=3).injector()
        stages = [StageTiming("a", 3), StageTiming("b", 5)]
        schedule = simulate_pipeline(stages, 6, faults=injector)
        registry = Registry()
        registry.record_pipeline(schedule, name="stalled")
        pipe = [e for e in chrome_trace(registry)["traceEvents"]
                if e.get("cat") == "pipeline"]
        assert len(pipe) == 12
        for event in pipe:
            stage, item = event["tid"] - 1, event["args"]["item"]
            assert event["ts"] == schedule.stage_begin[item][stage]
            assert event["ts"] + event["dur"] == \
                schedule.stage_finish[item][stage]
        stalled = [e for e in pipe if e["dur"] > stages[e["tid"] - 1].cycles]
        assert len(stalled) == 5

    def test_pipeline_thread_names_metadata(self):
        events = chrome_trace(make_registry())["traceEvents"]
        names = [e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        assert "stage 1: conv1" in names

    def test_counter_event_mirrors_counters(self):
        events = chrome_trace(make_registry())["traceEvents"]
        (counter,) = [e for e in events if e["ph"] == "C"]
        assert counter["args"]["explore.partitions_scored"] == 64

    def test_json_serializable_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), make_registry())
        parsed = json.loads(path.read_text())
        assert parsed["displayTimeUnit"] == "ms"
        assert len(parsed["traceEvents"]) >= 9

    def test_empty_registry_still_valid(self):
        trace = chrome_trace(Registry())
        assert all(e["ph"] == "M" for e in trace["traceEvents"])
        json.dumps(trace)
