"""The DP Pareto frontier vs brute-force enumeration."""

import pytest

from repro import alexnet, extract_levels, googlenet_stem, vggnet_e, zfnet
from repro.core.explorer import explore
from repro.core.frontier import pareto_frontier_dp
from repro.nn.stages import extract_levels as _extract, independent_units
from repro.nn.stages import pooling_merged_units

MB = 2 ** 20
KB = 2 ** 10


def brute_force_front(network, num_convs=None):
    result = explore(network, num_convs=num_convs)
    return {(p.extra_storage_bytes, p.feature_transfer_bytes)
            for p in result.front}


class TestAgainstBruteForce:
    def test_vgg5_front_identical(self):
        units = independent_units(extract_levels(vggnet_e().prefix(5)))
        dp = pareto_frontier_dp(units)
        assert {(p.storage_bytes, p.transfer_bytes) for p in dp} == \
            brute_force_front(vggnet_e(), num_convs=5)

    def test_alexnet_front_identical(self):
        units = independent_units(extract_levels(alexnet()))
        dp = pareto_frontier_dp(units)
        assert {(p.storage_bytes, p.transfer_bytes) for p in dp} == \
            brute_force_front(alexnet())

    @pytest.mark.parametrize("network, num_convs", [
        (alexnet(), None), (zfnet(), None), (googlenet_stem(), None),
        (vggnet_e(), 7)], ids=["alexnet", "zfnet", "googlenet_stem", "vgg7"])
    def test_pooling_merged_front_identical(self, network, num_convs):
        """A merged conv+pool unit is two levels, so alone it still
        charges BL/BT storage; the DP must score it as explore does."""
        result = explore(network, num_convs=num_convs, merge_pooling=True)
        units = pooling_merged_units(extract_levels(
            network.prefix(num_convs) if num_convs else network))
        assert units == list(result.units)
        dp = pareto_frontier_dp(units)
        assert [(p.sizes, p.storage_bytes, p.transfer_bytes) for p in dp] == \
            [(p.sizes, p.extra_storage_bytes, p.feature_transfer_bytes)
             for p in result.front]

    def test_sizes_are_valid_partitions(self):
        units = independent_units(extract_levels(vggnet_e().prefix(5)))
        for point in pareto_frontier_dp(units):
            assert sum(point.sizes) == len(units)
            assert all(s > 0 for s in point.sizes)


class TestFullVgg:
    def test_full_network_tractable(self):
        """All 21 windowed levels: 2^20 partitions by enumeration; the DP
        finds the exact front directly."""
        units = independent_units(extract_levels(vggnet_e().feature_extractor()))
        assert len(units) == 21
        front = pareto_frontier_dp(units)
        assert front
        # Endpoints: layer-by-layer storage 0; full fusion's transfer is
        # network input + final pooled output.
        assert front[0].storage_bytes == 0
        levels = extract_levels(vggnet_e().feature_extractor())
        fused_transfer = levels[0].in_shape.bytes + levels[-1].out_shape.bytes
        assert front[-1].transfer_bytes == fused_transfer
        # Monotone trade-off along the front.
        for a, b in zip(front, front[1:]):
            assert a.storage_bytes < b.storage_bytes
            assert a.transfer_bytes > b.transfer_bytes

    def test_empty_units(self):
        assert pareto_frontier_dp([]) == []


class TestFrontierProperty:
    def test_dp_equals_brute_force_on_random_nets(self):
        """The DP's Pareto set matches enumeration on arbitrary stacks."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro import ConvSpec, Network, PoolSpec, TensorShape
        from repro.core.pareto import pareto_front
        from repro.core.partition import enumerate_partitions

        @st.composite
        def stack(draw):
            size = draw(st.sampled_from([16, 24, 32]))
            specs = []
            height = size
            for i in range(draw(st.integers(2, 6))):
                if draw(st.booleans()) or height < 4 or height % 2:
                    k = draw(st.sampled_from([1, 3]))
                    pad = k // 2 if draw(st.booleans()) else 0
                    if height + 2 * pad < k:
                        continue
                    specs.append(ConvSpec(f"c{i}", out_channels=draw(st.integers(1, 6)),
                                          kernel=k, stride=1, padding=pad))
                    height = height + 2 * pad - k + 1
                else:
                    specs.append(PoolSpec(f"p{i}", kernel=2, stride=2))
                    height //= 2
            if not specs:
                specs = [ConvSpec("c", out_channels=2, kernel=3, stride=1)]
            return Network("fr", TensorShape(draw(st.integers(1, 3)), size, size),
                           specs)

        @given(net=stack())
        @settings(max_examples=25, deadline=None)
        def check(net):
            units = independent_units(extract_levels(net))
            dp = {(p.storage_bytes, p.transfer_bytes)
                  for p in pareto_frontier_dp(units)}
            brute = pareto_front(
                enumerate_partitions(units),
                cost_x=lambda p: p.extra_storage_bytes,
                cost_y=lambda p: p.feature_transfer_bytes,
            )
            assert dp == {(p.extra_storage_bytes, p.feature_transfer_bytes)
                          for p in brute}

        check()
