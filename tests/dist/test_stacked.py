"""Served DAG batches run as one stacked array, chosen by one bound.

``GraphExecutor.batch_envs`` carries a batch as one ``(B, C, H, W)``
array in float32 while :func:`repro.graph.executor.graph_bound` stays
below 2^24, in float64 below 2^53, and item by item in float64
otherwise (an operator that rounds, a non-integral input, a fault
injector). Whatever path a batch takes, every integer-mode output is
float64 and byte-equal to a per-item ``run_reference``. The tests read
the path from the ``graph.run``/``dist.execute`` span attributes and
the ``graph.per_item_batches`` counter.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.dist import compile_pipeline_plan
from repro.faults import FaultPlan, RetryPolicy
from repro.graph import GraphExecutor, compile_graph_plan
from repro.graph.executor import contract_bound, graph_bound
from repro.graph.lower import lower_graph
from repro.graph.zoo import mobilenetv2, resnet18, resnet50, yolo_head
from repro.hw.device import DEFAULT_DEVICE
from repro.obs import capture
from repro.sim import TrafficTrace
from repro.sim.ops import weight_norms
from repro.sim.weights import INPUT_PEAK

from ..graph.conftest import tiny_concat, tiny_diamond, tiny_residual
from .test_atoms import _group_less, _layer_by_layer, _lrn_first

NETWORKS = {
    "resnet18_37": lambda: resnet18(37),
    "resnet50_37": lambda: resnet50(37),
    "mobilenetv2_33": lambda: mobilenetv2(33),
    "yolohead_48": lambda: yolo_head(48),
    "tiny_residual": tiny_residual,
    "tiny_concat": tiny_concat,
    "tiny_diamond": tiny_diamond,
}
BATCHES = (1, 2, 3, 8)


def _split(devices):
    """Whole devices, so every network's every stage split is feasible
    (the numerics do not depend on the fleet)."""
    return [DEFAULT_DEVICE] * devices


def _capture_execute(plan, xs):
    """Outputs of ``plan.execute(xs)``, its top span's attributes and the
    per-item counter."""
    with capture() as registry:
        outs = plan.execute(xs)
    top = [s for s in registry.spans if s.name in ("graph.run", "dist.execute")]
    return outs, top[0].attrs, registry.counters.get("graph.per_item_batches", 0)


@pytest.fixture(scope="module", params=sorted(NETWORKS))
def served(request):
    """A network's graph plan, its 1/2/3-device pipeline plans sharing
    that base, 8 integer inputs and their per-item reference bytes."""
    net = NETWORKS[request.param]()
    base = compile_graph_plan(net, seed=5)
    plans = {"graph": base}
    for devices in (1, 2, 3):
        plans[f"pipeline{devices}"] = compile_pipeline_plan(
            base=base, devices=_split(devices))
    reference = GraphExecutor(net, seed=5)
    xs = [reference.make_input(seed=s) for s in range(max(BATCHES))]
    refs = [reference.run_reference(x).tobytes() for x in xs]
    return plans, xs, refs


class TestBitIdentityMatrix:
    @pytest.mark.parametrize("plan_name",
                             ["graph", "pipeline1", "pipeline2", "pipeline3"])
    def test_stacked_batches_match_per_item_reference(self, served,
                                                      plan_name):
        plans, xs, refs = served
        plan = plans[plan_name]
        for batch in BATCHES:
            outs, attrs, per_item = _capture_execute(plan, xs[:batch])
            assert (attrs["batch"], attrs["dtype"], per_item) == (
                batch, "float32", 0)
            assert len(outs) == batch
            for out, ref in zip(outs, refs):
                assert out.dtype == np.float64
                assert out.tobytes() == ref

    def test_stage_report_holds_real_boundaries(self, served):
        plans, xs, _ = served
        plan = plans["pipeline3"]
        plan.execute(xs[:2])
        report = plan.last_stage_report
        assert [entry["stage"] for entry in report] == [0, 1, 2]
        for entry, after in zip(report, report[1:]):
            assert entry["start_s"] <= entry["end_s"] <= after["start_s"]


class TestInputSensitivity:
    """Under the integer contract the matrix above compares outputs that
    depend on their inputs: distinct inputs give distinct outputs, and a
    one-pixel shift of the input changes the output."""

    def test_distinct_inputs_give_distinct_outputs(self, served):
        _, xs, refs = served
        assert len(set(refs)) == len(xs)

    def test_shifted_input_changes_the_output(self, served):
        plans, xs, refs = served
        shifted = plans["graph"].executor.run_reference(
            np.roll(xs[0], 1, axis=-1))
        assert shifted.tobytes() != refs[0]


class TestBound:
    @pytest.mark.parametrize("name, log2_bound", [
        ("resnet18_37", 15.2), ("resnet50_37", 23.3),
        ("mobilenetv2_33", 17.7), ("yolohead_48", 5.6)])
    def test_zoo_bounds_at_the_input_contract(self, name, log2_bound):
        bound, exact = contract_bound(NETWORKS[name]())
        assert exact and round(math.log2(bound), 1) == log2_bound

    def test_built_weights_meet_the_contract(self):
        net = resnet50(37)
        executor = GraphExecutor(net, seed=2)
        norms = weight_norms(executor.params)
        assert all(norm is not None and norm[0] == 1.0 and norm[1] <= 2.0
                   for norm in norms.values())
        assert graph_bound(net, INPUT_PEAK, norms)[0] <= contract_bound(net)[0]

    def test_non_integral_weights_have_no_bound(self):
        net = tiny_residual()
        params = {name: (w * 0.5, b)
                  for name, (w, b) in GraphExecutor(net).params.items()}
        assert set(weight_norms(params).values()) == {None}
        assert graph_bound(net, 3.0, weight_norms(params))[0] == math.inf

    def test_scaled_input_carries_float64_stacked(self):
        """ResNet-50@37 scaled by 2^2 bounds at 2^25.1: past float32's
        exact range, inside float64's, so the batch stacks in float64."""
        plan = compile_graph_plan(resnet50(37), seed=1)
        reference = GraphExecutor(plan.network, seed=1)
        xs = [reference.make_input(seed=s) * 2 ** 2 for s in (1, 2)]
        bound, _ = contract_bound(plan.network)
        scaled, _ = graph_bound(plan.network, INPUT_PEAK * 2 ** 2,
                                weight_norms(reference.params))
        assert round(math.log2(scaled), 1) == 25.1 > math.log2(bound)
        outs, attrs, per_item = _capture_execute(plan, xs)
        assert (attrs["dtype"], per_item) == ("float64", 0)
        for out, x in zip(outs, xs):
            assert out.dtype == np.float64
            assert out.tobytes() == reference.run_reference(x).tobytes()


class TestPerItemFallback:
    """Batches the bound cannot clear run one volume at a time, exactly
    as a single-item run does."""

    def test_non_integral_input(self):
        plan = compile_graph_plan(tiny_residual(), seed=2)
        reference = GraphExecutor(plan.network, seed=2)
        xs = [reference.make_input(seed=s) + 0.25 for s in (1, 2, 3)]
        outs, attrs, per_item = _capture_execute(plan, xs)
        assert (attrs["dtype"], per_item) == ("float64", 1)
        for out, x in zip(outs, xs):
            assert out.tobytes() == reference.run_reference(x).tobytes()

    def test_float_precision(self):
        plan = compile_graph_plan(tiny_residual(), precision="float", seed=2)
        executor = GraphExecutor(plan.network, seed=2, integer=False)
        xs = [executor.make_input(seed=s) for s in (1, 2, 3)]
        with capture() as registry:
            outs = plan.execute(xs)
        atom = plan.executor.atoms[0].name
        names = [s.name for s in registry.spans]
        assert names.count(f"graph.atom[{atom}]") == 3  # one per item
        assert "graph.per_item_batches" not in registry.counters
        for out, x in zip(outs, xs):
            assert out.dtype == np.float32
            assert out.tobytes() == plan.executor.run_fused(x).tobytes()

    @pytest.mark.parametrize("devices", [1, 2])
    def test_lrn_first_dag(self, devices):
        net = _lrn_first()
        base = compile_graph_plan(net, decisions=_layer_by_layer(
            lower_graph(net)))
        plan = compile_pipeline_plan(base=base, devices=_split(devices))
        reference = GraphExecutor(net, seed=base.seed)
        xs = [reference.make_input(seed=s) for s in (1, 2, 3)]
        for target in (base, plan):
            outs, attrs, per_item = _capture_execute(target, xs)
            assert (attrs["dtype"], per_item) == ("float64", 1)
            for out, x in zip(outs, xs):
                assert out.tobytes() == reference.run_reference(x).tobytes()

    def test_group_less_dag(self):
        plan = compile_graph_plan(_group_less())
        reference = GraphExecutor(plan.network, seed=0)
        xs = [reference.make_input(seed=s) for s in (1, 2)]
        outs, attrs, per_item = _capture_execute(plan, xs)
        assert (attrs["dtype"], per_item) == ("float64", 1)
        for out, x in zip(outs, xs):
            assert out.tobytes() == reference.run_reference(x).tobytes()

    def test_fault_injector_keeps_per_item_draws(self):
        net = tiny_residual()
        xs = np.stack([GraphExecutor(net).make_input(seed=s)
                       for s in (1, 2, 3)])

        def refetches(run):
            executor = GraphExecutor(
                net, tip=2, retry=RetryPolicy(max_attempts=12),
                faults=FaultPlan.parse("transfer_corrupt:p=0.3",
                                       seed=9).injector())
            trace = TrafficTrace()
            outs = run(executor, trace)
            return outs, trace.by_label()["input_refetch"]

        batched, batch_refetch = refetches(
            lambda ex, trace: ex.run_fused(xs, trace))
        items, item_refetch = refetches(
            lambda ex, trace: [ex.run_fused(x, trace) for x in xs])
        assert batch_refetch == item_refetch
        reference = GraphExecutor(net)
        for out, x in zip(batched, xs):
            assert out.tobytes() == reference.run_reference(x).tobytes()


class TestStackedRuns:
    @pytest.mark.parametrize("tip", [None, 2])
    def test_trace_totals_equal_the_sum_of_per_item_traces(self, tip):
        executor = GraphExecutor(tiny_residual(), seed=1, tip=tip)
        xs = np.stack([executor.make_input(seed=s) for s in (1, 2, 3)])
        batch_trace = TrafficTrace()
        executor.run_fused(xs, batch_trace)
        item_traces = [TrafficTrace() for _ in xs]
        for x, trace in zip(xs, item_traces):
            executor.run_fused(x, trace)
        for total in ("dram_read_elements", "dram_write_elements", "ops"):
            assert getattr(batch_trace, total) == sum(
                getattr(t, total) for t in item_traces), total
        assert batch_trace.by_label() == {
            label: tuple(sum(t.by_label()[label][i] for t in item_traces)
                         for i in range(3))
            for label in item_traces[0].by_label()}

    @pytest.mark.parametrize("devices", [0, 2])
    def test_empty_batch_builds_nothing(self, devices):
        plan = (compile_pipeline_plan(tiny_residual(), devices=_split(devices))
                if devices else compile_graph_plan(tiny_residual()))
        base = plan.base if devices else plan
        assert plan.execute([]) == []
        assert "executor" not in vars(base)

    def test_threads_share_a_plan(self):
        plan = compile_pipeline_plan(mobilenetv2(33), devices=_split(2),
                                     seed=3)
        reference = GraphExecutor(plan.network, seed=3)
        batches = [[reference.make_input(seed=10 * t + s) for s in range(3)]
                   for t in range(2)]
        want = [[reference.run_reference(x).tobytes() for x in xs]
                for xs in batches]
        plan.execute(batches[0][:1])  # build the weights once
        start = threading.Barrier(2)
        got = [None, None]

        def serve(slot):
            start.wait()
            got[slot] = [[out.tobytes() for out in plan.execute(batches[slot])]
                         for _ in range(3)]

        threads = [threading.Thread(target=serve, args=(t,)) for t in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for slot in (0, 1):
            assert got[slot] == [want[slot]] * 3
