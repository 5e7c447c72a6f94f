"""Partition enumeration and scoring (Section V-B)."""

import gc
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Strategy, explore, extract_levels, obs, toynet, vgg16, vggnet_e
from repro.core import analyze_group, partition, units_to_levels
from repro.core.partition import (
    analyze_partition,
    compositions,
    enumerate_partitions,
    group_tip,
    split_groups,
)
from repro.faults import ExplorationBudget
from repro.nn.shapes import ShapeError
from repro.nn.stages import independent_units

MB = 2 ** 20


@pytest.fixture(scope="module")
def vgg5_units():
    return independent_units(extract_levels(vggnet_e().prefix(5)))


class TestSplitGroups:
    @given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6))
    def test_groups_concatenate_back(self, sizes):
        items = list(range(sum(sizes)))
        groups = split_groups(items, sizes)
        assert [len(g) for g in groups] == sizes
        assert [x for g in groups for x in g] == items

    @pytest.mark.parametrize("sizes", [(3, 3), (7, 0), (8, -1), ()])
    def test_bad_sizes_are_a_shape_error(self, sizes):
        with pytest.raises(ShapeError, match="cover"):
            split_groups(list(range(7)), sizes)

    def test_tip_clipped_to_the_group_output(self):
        levels = extract_levels(toynet())
        final = levels[-1].out_shape
        assert group_tip(levels, 1) == (1, 1)
        assert group_tip(levels, 10 ** 6) == (final.height, final.width)
        assert group_tip(levels, 10 ** 6, 1) == (final.height, 1)


class TestCompositions:
    def test_papers_three_layer_example(self):
        # "(1, 1, 1), (1, 2), (2, 1), or (3)"
        assert set(compositions(3)) == {(1, 1, 1), (1, 2), (2, 1), (3,)}

    @given(n=st.integers(0, 10))
    def test_count_is_2_to_n_minus_1(self, n):
        expected = 1 if n == 0 else 2 ** (n - 1)
        assert sum(1 for _ in compositions(n)) == expected

    @given(n=st.integers(1, 10))
    def test_all_sum_to_n_and_positive(self, n):
        for sizes in compositions(n):
            assert sum(sizes) == n
            assert all(s > 0 for s in sizes)

    @given(n=st.integers(1, 9))
    def test_all_distinct(self, n):
        everything = list(compositions(n))
        assert len(everything) == len(set(everything))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(compositions(-1))


class TestAnalyzePartition:
    def test_sizes_must_cover(self, vgg5_units):
        with pytest.raises(ValueError):
            analyze_partition(vgg5_units, (3, 3))
        with pytest.raises(ValueError):
            analyze_partition(vgg5_units, (7, 0))

    def test_group_boundaries(self, vgg5_units):
        analysis = analyze_partition(vgg5_units, (3, 4))
        assert analysis.num_groups == 2
        assert analysis.groups[0].name == "conv1_1+conv1_2+pool1"
        assert analysis.groups[1].name == "conv2_1+conv2_2+pool2+conv3_1"

    def test_transfer_chains_through_groups(self, vgg5_units):
        """Adjacent groups hand off through DRAM: the boundary map is
        written by one group and read by the next."""
        analysis = analyze_partition(vgg5_units, (3, 4))
        boundary = analysis.groups[0].output_shape
        assert analysis.groups[1].input_shape == boundary
        expected = (analysis.groups[0].transfer.input_bytes
                    + 2 * boundary.bytes
                    + analysis.groups[1].transfer.output_bytes)
        assert analysis.feature_transfer_bytes == expected

    def test_layer_by_layer_flags(self, vgg5_units):
        lbl = analyze_partition(vgg5_units, (1,) * 7)
        assert lbl.is_layer_by_layer and not lbl.is_fully_fused
        assert lbl.extra_storage_bytes == 0
        fused = analyze_partition(vgg5_units, (7,))
        assert fused.is_fully_fused and not fused.is_layer_by_layer

    def test_recompute_strategy_propagates(self, vgg5_units):
        analysis = analyze_partition(vgg5_units, (2, 5), strategy=Strategy.RECOMPUTE)
        assert analysis.strategy is Strategy.RECOMPUTE
        assert analysis.extra_ops > 0
        assert analysis.extra_storage_bytes == 0

    def test_describe(self, vgg5_units):
        assert "|" in analyze_partition(vgg5_units, (3, 4)).describe()


class TestEnumeratePartitions:
    def test_vgg5_space_size(self, vgg5_units):
        points = enumerate_partitions(vgg5_units)
        assert len(points) == 64  # paper: "64 possible combinations"

    def test_fusion_dominates_on_transfer(self, vgg5_units):
        """More fusion never increases feature-map traffic."""
        points = {p.sizes: p for p in enumerate_partitions(vgg5_units)}
        assert (points[(7,)].feature_transfer_bytes
                < points[(3, 4)].feature_transfer_bytes
                < points[(1,) * 7].feature_transfer_bytes)

    def test_extremes_match_paper(self, vgg5_units):
        points = {p.sizes: p for p in enumerate_partitions(vgg5_units)}
        assert points[(1,) * 7].feature_transfer_bytes / MB == pytest.approx(86.3, abs=0.1)
        assert points[(7,)].feature_transfer_bytes / MB == pytest.approx(3.64, abs=0.01)


@pytest.fixture()
def analyses(monkeypatch):
    """Counts the group analyses a sweep makes through ``partition``'s
    own ``analyze_group`` binding."""
    made = []
    real = partition.analyze_group

    def counted(levels, **kwargs):
        made.append(tuple(level.name for level in levels))
        return real(levels, **kwargs)

    monkeypatch.setattr(partition, "analyze_group", counted)
    return made


class TestGroupTable:
    """One sweep analyzes each contiguous unit run once."""

    def test_full_sweep_analyzes_each_run_once(self, analyses):
        units = independent_units(extract_levels(
            vgg16(include_classifier=False).prefix(11)))
        assert len(units) == 15
        with obs.capture() as registry:
            points = enumerate_partitions(units)
        assert len(points) == 2 ** 14
        # l(l+1)/2 runs, where scoring each group of each partition
        # anew would take 131,072 analyses
        assert len(analyses) == len(set(analyses)) == 15 * 16 // 2
        assert registry.counters["partition.groups_analyzed"] == 120

    def test_budgeted_sweep_analyzes_only_the_runs_it_reaches(self, analyses):
        units = independent_units(extract_levels(
            vgg16(include_classifier=False).prefix(11)))
        budget = ExplorationBudget(max_evaluations=3)
        budget.start()
        points = enumerate_partitions(units, budget=budget)
        assert [p.sizes for p in points] == [(15,), (1, 14), (2, 13)]
        assert len(analyses) == 5  # (0,15), (0,1), (1,14), (0,2), (2,13)

    def test_partitions_share_group_entries(self, vgg5_units):
        points = {p.sizes: p for p in enumerate_partitions(vgg5_units)}
        assert points[(3, 4)].groups[0] is points[(3, 1, 3)].groups[0]
        assert points[(1,) * 7].groups[6] is points[(6, 1)].groups[1]

    @pytest.mark.parametrize("network, strategy", [
        (vggnet_e().prefix(5), Strategy.REUSE),
        (toynet(), Strategy.RECOMPUTE)])
    def test_points_equal_group_by_group_analysis(self, network, strategy):
        units = independent_units(extract_levels(network))
        for point in enumerate_partitions(units, strategy=strategy):
            start = 0
            for size, group in zip(point.sizes, point.groups):
                run = units_to_levels(units[start:start + size])
                assert group == analyze_group(run, strategy=strategy)
                start += size

    def test_sweep_memory_per_partition_is_bounded(self):
        network = vggnet_e()
        explore(network, num_convs=9)  # warm imports and shape caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = explore(network, num_convs=9)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert result.num_partitions == 2048
        # one PartitionAnalysis per point, its groups shared through the
        # sweep's table (about 3.3 KB a point when each was analyzed anew)
        assert held / result.num_partitions < 1024
