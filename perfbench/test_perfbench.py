"""Self-tests for the benchmark code (not part of the tier-1 suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from itertools import islice

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench import measure  # noqa: E402
from perfbench.loadgen import closed_loop, request_stream  # noqa: E402
from perfbench.tracing import (END, PARENT, START, Patcher,  # noqa: E402
                               SpanRecorder, self_times)
from perfbench.workloads import (END_TO_END, PER_LAYER,  # noqa: E402
                                 ServeDag, _derived_seed)


def test_nearest_rank_agrees_with_serve_stats():
    from repro.serve.stats import percentile

    rng = random.Random(7)
    for n in (1, 2, 3, 10, 99, 100, 101, 1000, 1234):
        values = [rng.expovariate(1.0) for _ in range(n)]
        for q in (1, 25, 50, 90, 99, 99.9, 100):
            assert measure.nearest_rank(values, q) == percentile(values, q)


def test_beyond_counts_samples_above_p99():
    values = list(range(1, 1001))
    assert measure.nearest_rank(values, 99) == 990
    assert measure.beyond(values, 99) == 10


class _SlowService:
    """Completes each submitted request on a background thread after a
    short random delay; counts futures not yet done at each submit."""

    def __init__(self, corrupt=()):
        self.corrupt = set(corrupt)
        self.outstanding = 0
        self.max_outstanding = 0
        self.lock = threading.Lock()
        self.rng = random.Random(3)
        self.threads = []

    def submit(self, tenant, index, rid):
        future: Future = Future()
        with self.lock:
            self.outstanding += 1
            self.max_outstanding = max(self.max_outstanding, self.outstanding)
            delay = self.rng.uniform(0.0, 0.002)

        def finish():
            time.sleep(delay)
            with self.lock:
                self.outstanding -= 1
            value = np.full(3, float(index))
            if rid in self.corrupt:
                value[1] += 1.0
            future.set_result(value)

        thread = threading.Thread(target=finish)
        self.threads.append(thread)
        thread.start()
        return future

    def join(self):
        for thread in self.threads:
            thread.join(timeout=10)
            assert not thread.is_alive()


def _check(tenant, index, result):
    return result.tobytes() == np.full(3, float(index)).tobytes()


@pytest.mark.parametrize("window", [1, 4, 32])
def test_closed_loop_holds_exactly_window_in_flight(window):
    service = _SlowService()
    stream = request_stream([("a", 1), ("b", 3)], 8, seed=1)
    res = closed_loop(service.submit, _check, stream, window, seconds=0.3)
    service.join()
    assert res.failed == 0
    assert res.completed == res.attempted > window
    assert res.max_in_flight == window
    assert service.max_outstanding <= window
    # every wait before sending stops sees exactly `window` in flight;
    # the final drain sees window, window-1, ..., 1
    waits = res.in_flight_at_wait
    assert sum(waits.values()) == res.completed
    assert waits[window] == res.completed - window + 1
    assert all(waits[k] == 1 for k in range(1, window))


def test_corrupted_response_counts_as_failed():
    service = _SlowService(corrupt={5})
    stream = request_stream([("a", 1)], 8, seed=2)
    res = closed_loop(service.submit, _check, stream, 4, seconds=0.0,
                      min_samples=20)
    service.join()
    assert res.attempted == 20
    assert res.failed == 1 and "differs" in res.failures[0]
    assert res.completed == 19


def test_serve_check_is_bit_for_bit():
    serve = ServeDag()
    ref = np.array([0.0, 1.0, -2.0])
    serve.refs = {"t": [ref.tobytes()]}
    serve.ref_meta = {"t": (ref.shape, ref.dtype)}
    assert serve.check("t", 0, ref.copy())
    assert not serve.check("t", 0, np.array([-0.0, 1.0, -2.0]))
    assert not serve.check("t", 0, ref.astype(np.float32))
    assert not serve.check("t", 0, ref[:2])
    assert not serve.check("t", 0, None)


def test_rejection_counts_as_failed():
    def submit(tenant, index, rid):
        raise RuntimeError("queue full")

    stream = request_stream([("a", 1)], 8, seed=2)
    res = closed_loop(submit, _check, stream, 4, seconds=0.0, min_samples=5)
    assert res.attempted == 5 and res.failed == 5 and res.completed == 0


def test_seeded_request_sequence_repeats():
    tenants = [("resnet18_37", 4), ("mobilenetv2_33", 1), ("yolohead_48", 3)]
    first = list(islice(request_stream(tenants, 8, seed=11), 4000))
    again = list(islice(request_stream(tenants, 8, seed=11), 4000))
    other = list(islice(request_stream(tenants, 8, seed=12), 4000))
    assert first == again
    assert first != other
    for start in range(0, len(first), 8):
        block = [name for name, _ in first[start:start + 8]]
        assert sorted(block) == sorted(["resnet18_37"] * 4
                                       + ["mobilenetv2_33"]
                                       + ["yolohead_48"] * 3)
    assert {index for _, index in first} == set(range(8))


def test_seeded_inputs_repeat():
    from repro.graph.zoo import yolo_head
    from repro.sim.weights import make_input

    shape = yolo_head(48).input_shape
    a = make_input(shape, seed=_derived_seed(4, "yolohead_48", 2), integer=True)
    b = make_input(shape, seed=_derived_seed(4, "yolohead_48", 2), integer=True)
    c = make_input(shape, seed=_derived_seed(5, "yolohead_48", 2), integer=True)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()


def test_self_time_with_two_threads_nesting_at_once():
    recorder = SpanRecorder()
    barrier = threading.Barrier(2)

    def work():
        barrier.wait(timeout=10)
        outer = recorder.begin("outer")
        time.sleep(0.02)
        inner = recorder.begin("inner")
        time.sleep(0.04)
        recorder.end(inner)
        time.sleep(0.02)
        recorder.end(outer)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    per_thread = recorder.threads()
    assert len(per_thread) == 2
    starts = []
    for _, _, spans in per_thread:
        assert [s[0] for s in spans] == ["outer", "inner"]
        assert spans[0][PARENT] == -1 and spans[1][PARENT] == 0
        selfs = self_times(spans)
        outer, inner = spans
        assert selfs[1] == inner[END] - inner[START]
        assert selfs[0] == pytest.approx(
            (outer[END] - outer[START]) - (inner[END] - inner[START]))
        assert selfs[0] >= 0.035
        starts.append(outer[START])
    # the two outer spans really overlapped in time
    a, b = (spans[0] for _, _, spans in per_thread)
    assert a[START] < b[END] and b[START] < a[END]


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1, None], ["c", 1.0, 3.0, 0, None],
             ["c", 2.0, 5.0, 0, None], ["c", 7.0, 8.0, 0, None],
             ["g", 7.2, 7.5, 3, None]]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 0.7, 0.3])


def test_patcher_wraps_every_binding_and_restores():
    import repro
    import repro.core.fusion as fusion
    import repro.core.partition as partition
    from repro import toynet

    original = fusion.analyze_group
    recorder = SpanRecorder()
    patcher = Patcher(recorder)
    patcher.function(original, "core.analyze_group")
    try:
        assert partition.analyze_group is not original
        assert repro.analyze_group is partition.analyze_group
        repro.explore(toynet())
    finally:
        patcher.uninstall()
    assert partition.analyze_group is original
    assert repro.analyze_group is original
    spans = [s for _, _, t in recorder.threads() for s in t]
    assert len(spans) == 3 and all(s[END] is not None for s in spans)


@pytest.mark.xfail(reason="known defect: FusedExecutor.run keeps per-call "
                   "state on the executor a graph plan shares between "
                   "threads; once fixed, serve-dag can go back to the "
                   "service's default of 2 workers", strict=False)
def test_two_threads_sharing_a_graph_plan_match_the_reference():
    from repro.graph.executor import GraphExecutor
    from repro.graph.plan import compile_graph_plan
    from repro.graph.zoo import yolo_head
    from repro.sim.weights import make_input

    net = yolo_head(48)
    plan = compile_graph_plan(net)
    reference = GraphExecutor(net, seed=plan.seed, integer=True).run_reference
    xs = [make_input(net.input_shape, seed=i, integer=True) for i in range(4)]
    refs = [reference(x).tobytes() for x in xs]
    mismatches = []

    def hammer(offset):
        stop = time.perf_counter() + 5.0
        i = offset
        while time.perf_counter() < stop and not mismatches:
            if plan.execute([xs[i % 4]])[0].tobytes() != refs[i % 4]:
                mismatches.append(i % 4)
            i += 1

    threads = [threading.Thread(target=hammer, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert not mismatches


def test_declared_metrics_match_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == list(PER_LAYER)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
