"""Cross-cutting invariants of the fusion model, property-tested."""

import sys
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (ConvSpec, Network, PoolSpec, Strategy, TensorShape, alexnet,
                   extract_levels, toynet, vggnet_e)
from repro.core import pyramid
from repro.core.costs import (
    intermediate_transfer_saved,
    one_pass_ops,
    recompute_ops,
    recompute_overhead_adjacent,
    recompute_overhead_ops,
    reuse_storage_bytes,
)
from repro.core.partition import analyze_partition, compositions, group_tip
from repro.nn.stages import independent_units
from repro.nn.zoo import googlenet_stem, nin_cifar, zfnet


@st.composite
def conv_pool_stack(draw):
    """Small random conv/pool stacks with valid geometry."""
    channels = draw(st.integers(1, 3))
    size = draw(st.sampled_from([16, 24, 32]))
    specs = []
    height = size
    for i in range(draw(st.integers(2, 5))):
        if draw(st.booleans()) or height < 4 or height % 2:
            kernel = draw(st.sampled_from([1, 3, 5]))
            pad = kernel // 2 if draw(st.booleans()) else 0
            if height + 2 * pad < kernel:
                continue
            specs.append(ConvSpec(f"c{i}", out_channels=draw(st.integers(1, 4)),
                                  kernel=kernel, stride=1, padding=pad))
            height = height + 2 * pad - kernel + 1
        else:
            specs.append(PoolSpec(f"p{i}", kernel=2, stride=2))
            height //= 2
    if not specs:
        specs = [ConvSpec("c", out_channels=2, kernel=3, stride=1, padding=1)]
    return Network("rand", TensorShape(channels, size, size), specs)


class TestPartitionInvariants:
    @given(net=conv_pool_stack())
    @settings(max_examples=30, deadline=None)
    def test_transfer_decomposes_over_boundaries(self, net):
        """Any partition's traffic = network input + network output + two
        passes over every group-boundary map."""
        levels = extract_levels(net)
        units = independent_units(levels)
        for sizes in list(compositions(len(units)))[:16]:
            analysis = analyze_partition(units, sizes)
            boundary_bytes = sum(
                2 * group.output_shape.bytes for group in analysis.groups[:-1])
            expected = (levels[0].in_shape.bytes + levels[-1].out_shape.bytes
                        + boundary_bytes)
            assert analysis.feature_transfer_bytes == expected

    @given(net=conv_pool_stack())
    @settings(max_examples=30, deadline=None)
    def test_full_fusion_minimizes_transfer(self, net):
        levels = extract_levels(net)
        units = independent_units(levels)
        scores = [analyze_partition(units, sizes).feature_transfer_bytes
                  for sizes in compositions(len(units))]
        fused = analyze_partition(units, (len(units),)).feature_transfer_bytes
        assert fused == min(scores)

    @given(net=conv_pool_stack())
    @settings(max_examples=20, deadline=None)
    def test_ops_identical_across_partitions_under_reuse(self, net):
        """Reuse never changes arithmetic, however the net is partitioned."""
        levels = extract_levels(net)
        units = independent_units(levels)
        baselines = {
            analyze_partition(units, sizes, strategy=Strategy.REUSE).baseline_ops
            for sizes in list(compositions(len(units)))[:16]
        }
        assert len(baselines) == 1


class TestCostInvariants:
    @given(net=conv_pool_stack(), tip=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_recompute_overhead_nonnegative(self, net, tip):
        levels = extract_levels(net)
        final = levels[-1].out_shape
        tip = min(tip, final.height, final.width)
        assert recompute_overhead_ops(levels, tip, tip) >= 0
        assert recompute_overhead_adjacent(levels, tip, tip) >= 0

    @given(net=conv_pool_stack())
    @settings(max_examples=30, deadline=None)
    def test_whole_map_tip_has_no_overhead(self, net):
        levels = extract_levels(net)
        final = levels[-1].out_shape
        assert recompute_overhead_ops(levels, final.height, final.width) == 0

    @given(net=conv_pool_stack())
    @settings(max_examples=30, deadline=None)
    def test_reuse_storage_nonnegative_and_bounded(self, net):
        """Reuse buffers never exceed the intermediate maps they shadow."""
        levels = extract_levels(net)
        storage = reuse_storage_bytes(levels)
        assert storage >= 0
        total_intermediate = sum(l.out_shape.bytes for l in levels[:-1])
        assert storage <= 2 * total_intermediate or total_intermediate == 0

    @given(net=conv_pool_stack())
    @settings(max_examples=30, deadline=None)
    def test_saved_transfer_consistent(self, net):
        levels = extract_levels(net)
        saved = intermediate_transfer_saved(levels)
        assert saved == 2 * sum(l.out_shape.bytes for l in levels[:-1])


def per_position_ops(levels, tip_h, tip_w):
    """The recompute integral summed position by position over
    :func:`~repro.core.pyramid.position_footprint` regions."""
    final = levels[-1].out_shape
    total = 0
    for r in range(ceil(final.height / tip_h)):
        for c in range(ceil(final.width / tip_w)):
            footprint = pyramid.position_footprint(levels, r, c, tip_h, tip_w)
            for level, (r0, r1, c0, c1) in zip(levels, footprint.out_ranges):
                total += ((r1 - r0) * (c1 - c0) * level.out_channels
                          * level.ops_per_output)
    return total


@st.composite
def strided_stack_and_tip(draw):
    """A conv/pool stack over a non-square input, and a tip.

    Layers are drawn from the output back, so every window tiles its map
    exactly: strides 1-4, convs with and without padding, pools. The
    tip is drawn per axis up to the final map, so it is often
    non-square and often leaves a clamped last row or column.
    """
    height, width = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    final = (height, width)
    specs = []
    for i in range(draw(st.integers(1, 4))):
        stride = draw(st.integers(1, 4))
        kernel = draw(st.integers(stride, stride + 3))
        if draw(st.booleans()):
            pad = kernel // 2 if draw(st.booleans()) else 0
            if min(height, width) == 1 and kernel - 2 * pad <= 0:
                pad = 0
            specs.append(ConvSpec(f"c{i}", out_channels=draw(st.integers(1, 4)),
                                  kernel=kernel, stride=stride, padding=pad))
        else:
            pad = 0
            specs.append(PoolSpec(f"p{i}", kernel=kernel, stride=stride))
        height = stride * (height - 1) + kernel - 2 * pad
        width = stride * (width - 1) + kernel - 2 * pad
    net = Network("strided", TensorShape(draw(st.integers(1, 3)), height, width),
                  specs[::-1])
    tip_h = draw(st.integers(1, final[0]))
    tip_w = draw(st.integers(1, final[1]))
    return net, tip_h, tip_w


class TestRecomputeIntegral:
    """The closed-form integral (per-level row sums x column sums) equals
    the position-by-position sum the recompute executor's trace makes."""

    @given(case=strided_stack_and_tip())
    @settings(max_examples=80, deadline=None)
    def test_closed_form_equals_per_position_sum(self, case):
        net, tip_h, tip_w = case
        levels = extract_levels(net)
        assert levels[-1].out_shape.height <= 9
        assert (recompute_ops(levels, tip_h, tip_w)
                == per_position_ops(levels, tip_h, tip_w))

    @pytest.mark.parametrize("tip", [(2, 3), (7, 5)], ids=["2x3", "7x5"])
    @pytest.mark.parametrize("make_net,convs", [
        (alexnet, 2), (vggnet_e, 5), (zfnet, 3), (googlenet_stem, 3),
        (nin_cifar, 4), (toynet, 2)],
        ids=["alexnet", "vggnet-e", "zfnet", "googlenet-stem", "nin", "toynet"])
    def test_zoo_prefixes(self, make_net, convs, tip):
        levels = extract_levels(make_net().prefix(convs))
        tip_h, tip_w = group_tip(levels, *tip)
        assert (recompute_ops(levels, tip_h, tip_w)
                == per_position_ops(levels, tip_h, tip_w))

    def test_full_vgg_at_tip_1_walks_no_position(self, monkeypatch):
        """The integral back-projects rows and columns, never positions:
        with every binding of ``position_footprint`` raising, full
        VGGNet-E still prices."""
        original = pyramid.position_footprint

        def walked(*args, **kwargs):
            raise AssertionError("recompute_ops walked a pyramid position")

        for name, module in list(sys.modules.items()):
            if module is not None and name.split(".")[0] == "repro":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, walked)
        levels = extract_levels(vggnet_e())
        assert recompute_ops(levels, 1, 1) > one_pass_ops(levels)
