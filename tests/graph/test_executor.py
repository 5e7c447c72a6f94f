"""GraphExecutor: fused vs reference bit-identity, faults, traffic.

The load-bearing correctness claim of the whole subsystem: for every
zoo DAG, executing the lowered segment program (fused pyramids, joins,
retained skips) is **bit-identical** to evaluating the IR node by node —
with or without injected ``transfer_corrupt`` faults. Weights use the
single-tap integer mode, which keeps activations tiny (every float64
exactly representable) while staying maximally sensitive to geometry
bugs: each output channel's value depends on one exact input position.
"""

import numpy as np
import pytest

from repro.faults import FaultPlan, RetryPolicy
from repro.graph import (
    GRAPH_ZOO,
    GraphExecutor,
    SegmentDecision,
    default_decisions,
    explore_graph,
    lower_graph,
    make_graph_weights,
)
from repro.sim import TrafficTrace

from .conftest import tiny_concat, tiny_diamond, tiny_lrn, tiny_residual

BYTES_PER_WORD = 4

#: Families whose fused traffic equals the analytic model exactly at
#: tip=1. ResNets are excluded: their strided 1x1 projection segments
#: read only the strided input subsample, while the analytic model
#: charges the whole input map (the paper's convention) — so measured
#: traffic is strictly <= analytic there.
EXACT_TRAFFIC = ("mobilenetv2", "yolohead")


def zoo_net(name):
    builder, size = GRAPH_ZOO[name]
    return builder(size)


class TestBitIdentity:
    @pytest.mark.parametrize("zoo_name", sorted(GRAPH_ZOO))
    def test_zoo_fused_matches_reference(self, zoo_name):
        network = zoo_net(zoo_name)
        result = explore_graph(network)
        executor = GraphExecutor(network,
                                 decisions=result.chosen.decisions, seed=7)
        x = executor.make_input()
        assert np.array_equal(executor.run_reference(x),
                              executor.run_fused(x))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_tiny_graphs_match_across_seeds(self, seed):
        for net in (tiny_residual(), tiny_concat(), tiny_diamond()):
            executor = GraphExecutor(net, seed=seed)
            x = executor.make_input(seed=seed + 11)
            assert np.array_equal(executor.run_reference(x),
                                  executor.run_fused(x))

    def test_tip_does_not_change_arithmetic(self, residual_net):
        whole = GraphExecutor(residual_net, tip=None)
        tiled = GraphExecutor(residual_net, tip=1)
        x = whole.make_input()
        assert np.array_equal(whole.run_fused(x), tiled.run_fused(x))

    @pytest.mark.parametrize("sizes", [(2,), (1, 1)])
    @pytest.mark.parametrize("tip", [1, 3, None])
    def test_folded_lrn_matches_reference(self, tip, sizes):
        net = tiny_lrn()
        executor = GraphExecutor(net, decisions=(SegmentDecision(sizes),),
                                 tip=tip)
        (segment,) = executor.program.segments
        assert segment.levels[0].lrn.name == "c1_norm"
        for seed in (1, 2):
            x = executor.make_input(seed=seed)
            assert (executor.run_fused(x).tobytes()
                    == executor.run_reference(x).tobytes())

    def test_default_decisions_fully_fuse(self, residual_net):
        program = lower_graph(residual_net)
        decisions = default_decisions(program)
        assert all(len(d.sizes) == 1 for d in decisions)
        executor = GraphExecutor(residual_net, decisions=decisions,
                                 program=program)
        x = executor.make_input()
        assert np.array_equal(executor.run_reference(x),
                              executor.run_fused(x))


class TestFaults:
    @pytest.mark.parametrize("zoo_name", sorted(GRAPH_ZOO))
    def test_bit_identity_survives_transfer_corruption(self, zoo_name):
        network = zoo_net(zoo_name)
        plan = FaultPlan.parse("transfer_corrupt:p=0.2", seed=7)
        injector = plan.injector()
        # tip=1 maximizes the number of faultable DRAM reads.
        executor = GraphExecutor(network, faults=injector, tip=1,
                                 retry=RetryPolicy(max_attempts=12))
        x = executor.make_input()
        expected = executor.run_reference(x)
        got = executor.run_fused(x)
        assert injector.counts.get("transfer_corrupt", 0) > 0
        assert np.array_equal(expected, got)


class TestTraffic:
    @pytest.mark.parametrize("zoo_name", EXACT_TRAFFIC)
    def test_measured_traffic_equals_analytic(self, zoo_name):
        network = zoo_net(zoo_name)
        result = explore_graph(network)
        executor = GraphExecutor(network,
                                 decisions=result.chosen.decisions, tip=1)
        trace = TrafficTrace()
        executor.run_fused(executor.make_input(), trace)
        measured = (trace.dram_read_elements
                    + trace.dram_write_elements) * BYTES_PER_WORD
        assert measured == result.chosen.feature_transfer_bytes

    @pytest.mark.parametrize("zoo_name", ("resnet18", "resnet50"))
    def test_measured_traffic_bounded_by_analytic(self, zoo_name):
        network = zoo_net(zoo_name)
        result = explore_graph(network)
        executor = GraphExecutor(network,
                                 decisions=result.chosen.decisions, tip=1)
        trace = TrafficTrace()
        executor.run_fused(executor.make_input(), trace)
        measured = (trace.dram_read_elements
                    + trace.dram_write_elements) * BYTES_PER_WORD
        assert measured <= result.chosen.feature_transfer_bytes

    def test_fused_moves_fewer_measured_bytes_than_layer_by_layer(
            self, residual_net):
        result = explore_graph(residual_net)
        fused = GraphExecutor(residual_net,
                              decisions=result.chosen.decisions, tip=1)
        lbl = GraphExecutor(residual_net,
                            decisions=result.layer_by_layer.decisions, tip=1)
        x = fused.make_input()
        t_fused, t_lbl = TrafficTrace(), TrafficTrace()
        assert np.array_equal(fused.run_fused(x, t_fused),
                              lbl.run_fused(x, t_lbl))
        assert (t_fused.dram_read_elements + t_fused.dram_write_elements
                < t_lbl.dram_read_elements + t_lbl.dram_write_elements)


class TestWeights:
    def test_single_tap_integer_filters(self, residual_net):
        params = make_graph_weights(residual_net, seed=0, integer=True)
        for w, b in params.values():
            flat = w.reshape(w.shape[0], -1)
            nonzero = (flat != 0).sum(axis=1)
            assert (nonzero == 1).all()
            assert set(np.unique(flat[flat != 0])) <= {-1.0, 1.0}
            assert (np.abs(b) <= 2).all()

    def test_activations_stay_exactly_representable(self):
        """The rationale for single-tap weights: even the deepest zoo
        net keeps activations far inside float64's 2^53 exact-integer
        range, so summation order can never round."""
        network = zoo_net("resnet50")
        executor = GraphExecutor(network, seed=1)
        out = executor.run_reference(executor.make_input())
        assert np.abs(out).max() < 2**53
