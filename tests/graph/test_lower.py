"""Lowering: segment decomposition, join classification, coverage."""

from dataclasses import replace

import pytest

from repro import alexnet, googlenet_stem, nin_cifar, toynet, vgg16, vggnet_e, zfnet
from repro.graph import (
    GRAPH_ZOO,
    GraphNetwork,
    SegmentDecision,
    chain_graph,
    lower_graph,
)
from repro.graph.executor import graph_atoms
from repro.nn.layers import ConvSpec, FCSpec, LRNSpec, PadSpec, ReLUSpec
from repro.nn.shapes import TensorShape
from repro.nn.stages import extract_levels

from .conftest import tiny_lrn

LINEAR_ZOO = [toynet, nin_cifar, alexnet, zfnet, googlenet_stem, vgg16,
              vggnet_e]


class TestTinyGraphs:
    def test_residual_join_is_fusable(self, residual_net):
        program = lower_graph(residual_net)
        fused = [s for s in program.segments if s.join is not None]
        assert len(fused) == 1
        (segment,) = fused
        join = segment.join
        assert join.kind == "add"
        # The skip operand is the segment's own input: retained on chip,
        # never re-streamed.
        assert segment.retained_skips() == ("c1_relu",)
        assert segment.streamed_skips() == ()
        # The trailing ReLU folded onto the join.
        assert join.has_relu

    def test_concat_join_is_fusable(self, concat_net):
        program = lower_graph(concat_net)
        fused = [s for s in program.segments if s.join is not None]
        assert len(fused) == 1
        assert fused[0].join.kind == "concat"

    def test_diamond_join_fuses_one_branch_streams_other(self, diamond_net):
        program = lower_graph(diamond_net)
        # The join fuses through whichever branch is still open; the
        # other operand is not the segment's input, so fusing the join
        # means re-streaming it from DRAM rather than retaining it.
        fused = [s for s in program.segments if s.join is not None]
        assert len(fused) == 1
        (segment,) = fused
        assert segment.retained_skips() == ()
        assert len(segment.streamed_skips()) == 1

    def test_relu_folds_into_levels(self, residual_net):
        program = lower_graph(residual_net)
        claimed = set(program.node_step)
        # ReLU nodes never surface as their own steps.
        assert "c1_relu" in claimed and "res_relu" in claimed
        names = {step.name for step in program.steps}
        assert "c1_relu" not in names and "res_relu" not in names


class TestCoverage:
    @pytest.mark.parametrize("zoo_name", sorted(GRAPH_ZOO))
    def test_every_node_claimed_exactly_once(self, zoo_name):
        builder, size = GRAPH_ZOO[zoo_name]
        network = builder(size)
        program = lower_graph(network)
        assert set(program.node_step) == {node.name for node in network}

    @pytest.mark.parametrize("zoo_name", sorted(GRAPH_ZOO))
    def test_segment_levels_chain_geometrically(self, zoo_name):
        builder, size = GRAPH_ZOO[zoo_name]
        program = lower_graph(builder(size))
        for segment in program.segments:
            for prev, nxt in zip(segment.levels, segment.levels[1:]):
                assert prev.out_shape == nxt.in_shape

    def test_output_tensor_is_the_sink(self, residual_net):
        program = lower_graph(residual_net)
        assert program.output_tensor == "c3"


class TestFolding:
    def test_pad_folds_into_consuming_conv(self):
        net = GraphNetwork("padded", TensorShape(3, 8, 8))
        net.add(PadSpec("p", pad=1))
        net.add(ConvSpec("c", kernel=3, stride=1, out_channels=4))
        program = lower_graph(net)
        assert program.node_step["p"] == program.node_step["c"]
        (segment,) = program.segments
        assert segment.levels[0].in_shape == TensorShape(3, 8, 8)

    def test_fc_becomes_opaque_step(self):
        net = GraphNetwork("fc-tail", TensorShape(3, 8, 8))
        net.add(ConvSpec("c", kernel=3, stride=1, out_channels=4, padding=1))
        net.add(ReLUSpec("c_relu"))
        net.add(FCSpec("fc", out_features=10))
        program = lower_graph(net)
        assert [step.name for step in program.opaques] == ["fc"]

    def test_lrn_folds_onto_its_level(self):
        program = lower_graph(tiny_lrn())
        (segment,) = program.segments
        assert program.steps == (segment,)
        assert [lv.name for lv in segment.levels] == ["c1", "c2"]
        first = segment.levels[0]
        assert first.has_relu and first.lrn == LRNSpec("c1_norm")
        assert program.node_step["c1_norm"] == segment.name

    def test_relu_after_lrn_stays_opaque(self):
        """A level applies its ReLU before its LRN, so a ReLU after a
        folded LRN cannot fold: it bounds the segment."""
        net = GraphNetwork("lrn-relu", TensorShape(3, 8, 8))
        net.add(ConvSpec("c1", kernel=3, stride=1, out_channels=4, padding=1))
        net.add(LRNSpec("n1"))
        net.add(ReLUSpec("r1"))
        net.add(ConvSpec("c2", kernel=3, stride=1, out_channels=4, padding=1))
        program = lower_graph(net)
        assert len(program.segments) == 2
        assert [step.name for step in program.opaques] == ["r1"]
        assert not program.segments[0].levels[0].has_relu


class TestChainGraph:
    def test_one_node_per_layer(self):
        net = alexnet()
        graph = chain_graph(net)
        assert [(node.name, node.spec) for node in graph] == [
            (binding.name, binding.spec) for binding in net]
        assert [node.output_shape for node in graph] == [
            binding.output_shape for binding in net]
        assert graph.output_name == net[-1].name

    @pytest.mark.parametrize("factory", LINEAR_ZOO, ids=lambda f: f.__name__)
    def test_linear_zoo_lowers_to_one_segment(self, factory):
        net = factory()
        program = lower_graph(chain_graph(net))
        (segment,) = program.segments
        assert program.steps[0] is segment
        assert [replace(lv, lrn=None) for lv in segment.levels] == (
            extract_levels(net.feature_extractor()))
        assert [lv.lrn.name for lv in segment.levels if lv.lrn] == [
            b.name for b in net if isinstance(b.spec, LRNSpec)]
        atoms = graph_atoms(program, [SegmentDecision(
            sizes=(1,) * len(segment.levels))])
        classifier = list(net)[len(net.feature_extractor()):]
        assert [rider.name for rider in atoms[-1].riders] == [
            b.name for b in classifier]
        assert all(atom.riders == atom.leading == () for atom in atoms[:-1])
