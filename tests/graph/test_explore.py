"""Branch-aware exploration: ordering, budgets, decision round-trips."""

import pytest

from repro.core import Strategy
from repro.dist.stage import plan_atoms
from repro.graph import (
    GRAPH_ZOO,
    GraphNetwork,
    SegmentDecision,
    compile_graph_plan,
    explore_graph,
    lower_graph,
)
from repro.nn.layers import LRNSpec

from .conftest import tiny_lrn, tiny_residual


class TestOrdering:
    @pytest.mark.parametrize("zoo_name", sorted(GRAPH_ZOO))
    def test_chosen_strictly_beats_baselines(self, zoo_name):
        """The acceptance inequality: branch-aware fusion must move
        strictly fewer bytes AND fuse strictly more layers than the
        all-boundary baseline on every zoo network (each has at least
        one structurally fusable join)."""
        builder, size = GRAPH_ZOO[zoo_name]
        result = explore_graph(builder(size))
        chosen, boundary = result.chosen, result.all_boundary
        lbl = result.layer_by_layer
        assert chosen.feature_transfer_bytes < boundary.feature_transfer_bytes
        assert boundary.feature_transfer_bytes < lbl.feature_transfer_bytes
        assert chosen.fused_layer_count > boundary.fused_layer_count
        assert chosen.fused_join_count > 0
        assert boundary.fused_join_count == 0
        assert lbl.fused_layer_count == 0

    def test_layer_by_layer_has_no_storage(self, residual_net):
        result = explore_graph(residual_net)
        assert result.layer_by_layer.extra_storage_bytes == 0

    def test_retained_skips_cost_storage_not_traffic(self, residual_net):
        """Fusing the residual join retains the skip tensor on chip:
        the chosen config's storage grows but its traffic shrinks."""
        result = explore_graph(residual_net)
        assert result.chosen.fused_join_count == 1
        assert result.chosen.retained_skip_bytes > 0
        assert (result.chosen.feature_transfer_bytes
                < result.all_boundary.feature_transfer_bytes)


class TestBudget:
    def test_unbounded_budget_matches_argmin(self, residual_net):
        free = explore_graph(residual_net)
        capped = explore_graph(residual_net,
                               storage_budget_bytes=2**30)
        assert (capped.chosen.feature_transfer_bytes
                == free.chosen.feature_transfer_bytes)

    def test_tight_budget_respected(self, residual_net):
        free = explore_graph(residual_net)
        budget = max(0, free.chosen.extra_storage_bytes - 1)
        capped = explore_graph(residual_net, storage_budget_bytes=budget)
        assert capped.chosen.extra_storage_bytes <= budget
        assert (capped.chosen.feature_transfer_bytes
                >= free.chosen.feature_transfer_bytes)

    def test_zero_budget_degenerates_to_layer_by_layer_storage(
            self, residual_net):
        capped = explore_graph(residual_net, storage_budget_bytes=0)
        assert capped.chosen.extra_storage_bytes == 0


class TestDecisions:
    def test_decisions_cover_segments(self, diamond_net):
        result = explore_graph(diamond_net)
        program = result.program
        assert len(result.chosen.decisions) == len(program.segments)
        for step, decision in zip(program.segments,
                                  result.chosen.decisions):
            assert sum(decision.sizes) == len(step.levels)

    def test_decision_round_trips_through_dict(self):
        decision = SegmentDecision(sizes=(2, 1), join_fused=True)
        assert SegmentDecision.from_dict(decision.to_dict()) == decision

    def test_recompute_strategy_runs(self, residual_net):
        result = explore_graph(residual_net,
                               strategy=Strategy.RECOMPUTE)
        assert (result.chosen.feature_transfer_bytes
                <= result.layer_by_layer.feature_transfer_bytes)

    def test_program_reuse_gives_identical_result(self, residual_net):
        program = lower_graph(residual_net)
        a = explore_graph(residual_net)
        b = explore_graph(residual_net, program=program)
        assert (a.chosen.decisions == b.chosen.decisions
                and a.chosen.feature_transfer_bytes
                == b.chosen.feature_transfer_bytes)


class TestFoldedLRNPricing:
    """An LRN folded onto its level (``Level.lrn``) is priced like a
    folded ReLU: no cost model reads it. So a DAG with conv -> ReLU ->
    LRN -> conv explores and prices exactly as the same DAG without its
    LRN: one segment, and no opaque DRAM round trip or arithmetic for
    the LRN."""

    @staticmethod
    def _numbers(config):
        return (config.decisions, config.feature_transfer_bytes,
                config.fixed_transfer_bytes, config.extra_storage_bytes,
                config.fused_layer_count)

    @staticmethod
    def _priced(plan):
        return [(a.ops, a.weight_bytes, a.dsp_floor, a.bram_words,
                 [nbytes for _, nbytes, _ in a.reads],
                 [nbytes for _, nbytes in a.writes])
                for a in plan_atoms(plan)]

    def test_explore_and_plan_atoms_ignore_the_folded_lrn(self):
        with_lrn = tiny_lrn()
        twin = GraphNetwork("tiny-lrn-free", with_lrn.input_shape)
        for node in with_lrn:
            if not isinstance(node.spec, LRNSpec):
                twin.add(node.spec)
        assert len(lower_graph(with_lrn).segments) == 1
        for tip in (1, 3):
            got, want = explore_graph(with_lrn, tip=tip), explore_graph(
                twin, tip=tip)
            for config in ("chosen", "all_boundary", "layer_by_layer"):
                assert self._numbers(getattr(got, config)) == self._numbers(
                    getattr(want, config)), (tip, config)
            assert got.chosen.fixed_transfer_bytes == 0
        for decisions in (None, (SegmentDecision(sizes=(1, 1)),)):
            assert self._priced(compile_graph_plan(
                with_lrn, decisions=decisions)) == self._priced(
                    compile_graph_plan(twin, decisions=decisions))
