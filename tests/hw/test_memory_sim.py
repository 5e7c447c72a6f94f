"""Shared-DRAM-channel pipeline simulation vs the analytic roofline.

The channel is :func:`repro.hw.pipeline.simulate_pipeline` with
``words_per_cycle`` set: stages that carry ``words`` queue for it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import extract_levels, vggnet_e
from repro.hw import optimize_fused
from repro.hw.pipeline import StageTiming, simulate_pipeline


def channel_stage(name, words):
    """A stage whose work is moving ``words`` over the channel."""
    return StageTiming(name, 0, words=words)


def compute_stage(name, cycles):
    return StageTiming(name, cycles)


def channel_run(stages, items, words_per_cycle):
    return simulate_pipeline(stages, items, words_per_cycle=words_per_cycle)


class TestSimulateWithChannel:
    def test_compute_bound_regime(self):
        stages = [channel_stage("ld", 10),
                  compute_stage("c", 1000),
                  channel_stage("st", 10)]
        schedule = channel_run(stages, 20, words_per_cycle=100)
        assert schedule.bound == "compute"
        # Steady state: one item per 1000 cycles.
        assert schedule.makespan == pytest.approx(20 * 1000, rel=0.01)

    def test_memory_bound_regime(self):
        stages = [channel_stage("ld", 1000),
                  compute_stage("c", 10),
                  channel_stage("st", 1000)]
        schedule = channel_run(stages, 20, words_per_cycle=1)
        assert schedule.bound == "memory"
        assert schedule.makespan >= schedule.memory_bound
        assert schedule.channel_utilization > 0.95

    def test_makespan_lower_bounds(self):
        stages = [channel_stage("ld", 64),
                  compute_stage("c", 80),
                  channel_stage("st", 32)]
        schedule = channel_run(stages, 50, words_per_cycle=2)
        assert schedule.makespan >= schedule.compute_bound
        assert schedule.makespan >= schedule.memory_bound

    def test_channel_serializes_load_and_store(self):
        # Load and store each need the full channel: together they can
        # exceed the compute stage even though each alone would not.
        stages = [channel_stage("ld", 60),
                  compute_stage("c", 100),
                  channel_stage("st", 60)]
        schedule = channel_run(stages, 50, words_per_cycle=1)
        assert schedule.bound == "memory"
        assert schedule.makespan >= 50 * 120

    def test_zero_items(self):
        assert channel_run([channel_stage("ld", 1)], 0, 1).makespan == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            channel_run([channel_stage("ld", 1)], -1, 1)
        with pytest.raises(ValueError):
            channel_run([channel_stage("ld", 1)], 1, 0)
        with pytest.raises(ValueError):
            channel_run([], 1, 1)
        with pytest.raises(ValueError):
            channel_stage("m", -1)
        with pytest.raises(ValueError):
            compute_stage("c", -1)

    @given(
        mem=st.lists(st.integers(0, 50), min_size=1, max_size=3),
        compute=st.integers(1, 100),
        items=st.integers(1, 20),
        bw=st.sampled_from([1, 2, 8, 64]),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounds_always_hold(self, mem, compute, items, bw):
        stages = [channel_stage(f"m{i}", w) for i, w in enumerate(mem)]
        stages.insert(len(stages) // 2, compute_stage("c", compute))
        schedule = channel_run(stages, items, bw)
        assert schedule.makespan >= schedule.compute_bound
        assert schedule.makespan + len(stages) >= schedule.memory_bound
        assert 0 <= schedule.channel_utilization <= 1.0 + 1e-9


class TestFusedDesignChannel:
    @pytest.fixture(scope="class")
    def design(self):
        levels = extract_levels(vggnet_e().prefix(5))
        return optimize_fused(levels, dsp_budget=2987)

    def test_stage_conversion(self, design):
        """Load and store move their tiles over the channel; every other
        stage computes."""
        stages = design.stage_timings()
        base = design.geometry.tiles[0]
        assert stages[0].words == (base.new_in_h * base.new_in_w
                                   * design.levels[0].in_channels)
        assert stages[-1].words == (design.tip_h * design.tip_w
                                    * design.levels[-1].out_shape.channels)
        assert all(s.words is None for s in stages[1:-1])

    def test_ample_bandwidth_matches_pipeline(self, design):
        """With a fat channel the simulation reduces to the pure pipeline
        model (within the small load/store stage effects)."""
        stages = design.stage_timings()
        schedule = channel_run(stages, design.num_pyramids, 1024)
        assert schedule.makespan == pytest.approx(design.total_cycles, rel=0.01)

    def test_starved_bandwidth_goes_memory_bound(self, design):
        stages = design.stage_timings()
        schedule = channel_run(stages, design.num_pyramids, 0.01)
        assert schedule.bound == "memory"
        assert schedule.makespan > design.total_cycles
