"""Micro-batch pipeline runs: steady state, fill/drain, backpressure.

:meth:`PipelineEstimate.simulate` folds each stage's link-out cycles
into its service time and runs the items through
:func:`repro.hw.pipeline.simulate_pipeline` with bounded queues.
"""

import pytest

from repro.dist import (
    DEFAULT_DEVICE,
    DEFAULT_LINK,
    PipelineEstimate,
    StageEstimate,
)
from repro.errors import ConfigError
from repro.hw.pipeline import StageTiming, simulate_pipeline

FAST_THEN_SLOW = [StageTiming("0", 10), StageTiming("1", 500)]


def estimate(stage_cycles, link_cycles):
    """A priced pipeline with the given compute and link-out cycles per
    stage (no DRAM time)."""
    return PipelineEstimate(stages=tuple(
        StageEstimate(index=i, device=DEFAULT_DEVICE, atom_start=i,
                      atom_count=1, ops=0, compute_cycles=cycles,
                      dram_bytes=0, dram_cycles=0, link_out_bytes=0,
                      link_cycles=link, dsp_floor=0, bram_words=0)
        for i, (cycles, link) in enumerate(zip(stage_cycles, link_cycles))),
        link=DEFAULT_LINK)


class TestSteadyState:
    def test_single_stage_interval_is_service_time(self):
        run = estimate([100], [0]).simulate(10)
        assert run.steady_state_interval == 100
        assert run.makespan == 1000

    def test_bottleneck_sets_the_interval(self):
        run = estimate([100, 300, 50], [0, 0, 0]).simulate(20)
        assert run.steady_state_interval == 300
        assert run.bottleneck.name == "1"

    def test_link_cycles_count_toward_the_stage(self):
        without = estimate([100, 100], [0, 0]).simulate(16)
        with_link = estimate([100, 100], [40, 0]).simulate(16)
        assert with_link.steady_state_interval == 140
        assert without.steady_state_interval == 100

    def test_makespan_decomposes_into_fill_drain_plus_steady(self):
        run = estimate([100, 300, 50], [0, 0, 0]).simulate(25)
        assert run.makespan == (run.fill_drain_cycles
                                + 25 * run.steady_state_interval)

    def test_simulated_interval_is_the_priced_interval(self):
        priced = estimate([75, 120, 40], [10, 5, 0])
        run = priced.simulate(50)
        assert run.steady_state_interval == priced.interval_cycles
        assert run.measured_interval == priced.interval_cycles
        assert run.fill_cycles == priced.latency_cycles


class TestBackpressure:
    def test_shallow_queue_blocks_fast_upstream(self):
        deep = simulate_pipeline(FAST_THEN_SLOW, 32, queue_depth=64)
        shallow = simulate_pipeline(FAST_THEN_SLOW, 32, queue_depth=1)
        assert shallow.blocked_cycles >= deep.blocked_cycles
        # backpressure never changes the bottleneck's verdict
        assert (shallow.steady_state_interval
                == deep.steady_state_interval)

    def test_queue_occupancy_bounded_by_depth(self):
        # stage 0 reads the unbounded ingress; the depth caps the
        # inter-stage queues
        run = estimate([10, 500], [0, 0]).simulate(32)
        assert run.queue_depth == 2
        assert max(run.max_queue[1:]) <= 2


class TestValidation:
    def test_empty_pipeline_rejected(self):
        with pytest.raises(ConfigError):
            estimate([], []).simulate(4)

    def test_zero_items_rejected(self):
        with pytest.raises(ConfigError):
            estimate([10], [0]).simulate(0)

    def test_last_stage_has_no_link_out(self):
        assert estimate([10, 10], [0, 99]).simulate(2).service == (10, 10)

    def test_free_stages_take_one_cycle(self):
        assert estimate([0, 5], [0, 0]).simulate(2).service == (1, 5)

    def test_zero_queue_depth_rejected(self):
        with pytest.raises(ConfigError):
            simulate_pipeline(FAST_THEN_SLOW, 2, queue_depth=0)


class TestDeterminism:
    def test_identical_runs_identical_verdicts(self):
        a = estimate([75, 120, 40], [10, 5, 0]).simulate(50)
        b = estimate([75, 120, 40], [10, 5, 0]).simulate(50)
        assert a.to_dict() == b.to_dict()
