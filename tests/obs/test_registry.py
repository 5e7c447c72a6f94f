"""Instrumentation core: spans, counters, gauges, enable/disable."""

import sys
import threading
import time

import pytest

from repro import obs
from repro.hw.pipeline import StageTiming, simulate_pipeline
from repro.obs import NOOP_SPAN, Registry


class TestRegistrySpans:
    def test_span_records_wall_and_cpu(self):
        registry = Registry()
        with registry.span("work"):
            sum(range(1000))
        (span,) = registry.spans
        assert span.name == "work"
        assert span.wall_s >= 0
        assert span.cpu_s >= 0
        assert span.parent_id is None and span.depth == 0

    def test_nesting_tracks_parent_and_depth(self):
        registry = Registry()
        with registry.span("outer"):
            with registry.span("inner"):
                with registry.span("leaf"):
                    pass
            with registry.span("sibling"):
                pass
        outer, inner, leaf, sibling = registry.spans
        assert inner.parent_id == outer.span_id and inner.depth == 1
        assert leaf.parent_id == inner.span_id and leaf.depth == 2
        assert sibling.parent_id == outer.span_id and sibling.depth == 1

    def test_span_attrs_and_set(self):
        registry = Registry()
        with registry.span("s", network="vgg") as span:
            span.set(points=64)
        assert registry.spans[0].attrs == {"network": "vgg", "points": 64}

    def test_span_closes_on_exception(self):
        registry = Registry()
        with pytest.raises(RuntimeError):
            with registry.span("boom"):
                raise RuntimeError("x")
        assert registry.spans[0].end_s >= registry.spans[0].start_s
        # The stack unwound: a new span is again a root.
        with registry.span("after"):
            pass
        assert registry.spans[1].depth == 0


class TestThreads:
    """Spans nest per thread and counters count every update."""

    @staticmethod
    def _run(*targets):
        threads = [threading.Thread(target=t) for t in targets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)

    def test_span_parent_comes_from_the_calling_thread(self):
        """Thread 1 opens A, thread 2 opens B, A closes, then B closes:
        B is a root, and a later span on the main thread is a root too
        (A does not linger on a shared stack)."""
        registry = Registry()
        a_open, b_open, a_closed = (threading.Event(), threading.Event(),
                                    threading.Event())

        def first():
            with registry.span("A"):
                a_open.set()
                b_open.wait(5)
            a_closed.set()

        def second():
            a_open.wait(5)
            with registry.span("B"):
                b_open.set()
                a_closed.wait(5)

        self._run(first, second)
        with registry.span("later"):
            pass
        spans = {s.name: s for s in registry.spans}
        for name in ("A", "B", "later"):
            assert spans[name].parent_id is None, name
            assert spans[name].depth == 0, name
        assert spans["A"].thread != spans["B"].thread
        assert spans["later"].thread == threading.get_ident()

    def test_cpu_time_is_the_calling_threads(self):
        """A span that only waits reports no CPU, while another thread
        burns 50 ms of its own CPU time."""
        registry = Registry()
        opened, burnt = threading.Event(), threading.Event()

        def idle():
            with registry.span("idle"):
                opened.set()
                burnt.wait(10)

        def burn():
            opened.wait(10)
            start = time.thread_time()
            while time.thread_time() - start < 0.05:
                pass
            burnt.set()

        self._run(idle, burn)
        (span,) = registry.spans
        assert span.cpu_s < 0.025

    def test_concurrent_counter_updates_are_all_counted(self):
        per_thread = 20_000

        def count():
            for _ in range(per_thread):
                obs.add_counter("n")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with obs.capture() as registry:
                self._run(count, count, count, count)
        finally:
            sys.setswitchinterval(interval)
        assert registry.counter("n") == 4 * per_thread


class TestCountersGauges:
    def test_counters_accumulate(self):
        registry = Registry()
        registry.add("hits")
        registry.add("hits", 4)
        assert registry.counter("hits") == 5
        assert registry.counter("missing") == 0

    def test_gauge_last_write_wins(self):
        registry = Registry()
        registry.gauge("util", 0.4)
        registry.gauge("util", 0.9)
        assert registry.gauges["util"] == 0.9

    def test_to_dict_roundtrips_structure(self):
        registry = Registry()
        with registry.span("a", k=1):
            registry.add("c", 2)
        registry.gauge("g", 3.5)
        snapshot = registry.to_dict()
        assert snapshot["spans"][0]["name"] == "a"
        assert snapshot["spans"][0]["attrs"] == {"k": 1}
        assert snapshot["counters"] == {"c": 2}
        assert snapshot["gauges"] == {"g": 3.5}
        assert snapshot["pipelines"] == []


class TestPipelineRecord:
    def test_busy_idle_utilization(self):
        registry = Registry()
        schedule = simulate_pipeline([StageTiming("a", 3),
                                      StageTiming("b", 5)], 4)
        assert schedule.stage_finish == ((3, 8), (6, 13), (9, 18), (12, 23))
        assert registry.record_pipeline(schedule) == "pipeline0"
        assert registry.pipelines == [("pipeline0", schedule)]
        (summary,) = registry.to_dict()["pipelines"]
        assert summary["name"] == "pipeline0" and summary["makespan"] == 23
        stage = summary["stages"][1]
        assert stage["busy_cycles"] == 20
        assert stage["idle_cycles"] == 3
        assert stage["utilization"] == pytest.approx(20 / 23)

    def test_zero_makespan_utilization(self):
        registry = Registry()
        registry.record_pipeline(simulate_pipeline([StageTiming("a", 0)], 0))
        (summary,) = registry.to_dict()["pipelines"]
        assert summary["stages"][0]["utilization"] == 0.0


class TestGlobalSwitch:
    def test_disabled_span_is_shared_noop(self):
        """The disabled hot path allocates nothing: every span() call
        returns the same do-nothing context manager."""
        assert not obs.enabled()
        assert obs.span("anything", x=1) is NOOP_SPAN
        assert obs.span("other") is NOOP_SPAN
        with obs.span("ignored") as span:
            assert span.set(a=1) is span

    def test_disabled_counters_record_nothing(self):
        before = dict(obs.get_registry().counters)
        obs.add_counter("ghost", 7)
        obs.set_gauge("ghost_gauge", 1.0)
        assert obs.get_registry().counters == before
        assert "ghost_gauge" not in obs.get_registry().gauges
        schedule = simulate_pipeline([StageTiming("a", 1)], 1)
        before = list(obs.get_registry().pipelines)
        assert obs.record_pipeline(schedule) is None
        assert obs.get_registry().pipelines == before

    def test_capture_enables_then_restores(self):
        assert not obs.enabled()
        with obs.capture() as registry:
            assert obs.enabled()
            with obs.span("inside"):
                obs.add_counter("n", 3)
        assert not obs.enabled()
        assert registry.spans[0].name == "inside"
        assert registry.counters["n"] == 3
        # Post-capture activity does not leak into the captured registry.
        obs.add_counter("n", 100)
        assert registry.counters["n"] == 3

    def test_capture_nested_keeps_outer_registry(self):
        with obs.capture() as outer:
            with obs.capture(fresh=False) as inner:
                assert inner is outer
                obs.add_counter("x")
            assert obs.enabled()
            obs.add_counter("x")
        assert outer.counters["x"] == 2
        assert not obs.enabled()
