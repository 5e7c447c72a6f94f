"""Discrete-event pipeline simulation (Figure 6)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hw.pipeline import StageTiming, analytic_makespan, simulate_pipeline


def stages(*cycles):
    return [StageTiming(f"s{i}", c) for i, c in enumerate(cycles)]


class TestSimulatePipeline:
    def test_single_item(self):
        schedule = simulate_pipeline(stages(3, 5, 2), 1)
        assert schedule.makespan == 10
        assert schedule.stage_finish[0] == (3, 8, 10)

    def test_steady_state_bottleneck(self):
        schedule = simulate_pipeline(stages(3, 5, 2), 4)
        # fill (10) + 3 more items x bottleneck (5).
        assert schedule.makespan == 10 + 3 * 5

    def test_figure6_shape(self):
        """Pyramid 2's first stage starts as soon as pyramid 1 leaves it."""
        schedule = simulate_pipeline(stages(4, 4), 2)
        assert schedule.stage_finish[0][0] == 4
        assert schedule.stage_finish[1][0] == 8
        assert schedule.stage_finish[1][1] == 12

    def test_zero_items(self):
        assert simulate_pipeline(stages(3, 5), 0).makespan == 0

    def test_negative_items_rejected(self):
        with pytest.raises(ValueError):
            simulate_pipeline(stages(1), -1)

    def test_negative_cycles_rejected(self):
        with pytest.raises(ValueError):
            StageTiming("s", -1)

    def test_bottleneck_property(self):
        schedule = simulate_pipeline(stages(1, 9, 2), 5)
        assert schedule.bottleneck.cycles == 9
        assert schedule.steady_state_interval == 9
        assert schedule.fill_cycles == 12

    def test_utilization_bottleneck_near_one(self):
        schedule = simulate_pipeline(stages(1, 9, 2), 50)
        util = schedule.utilization
        assert util[1] == pytest.approx(1.0, rel=0.05)
        assert util[0] < util[1]

    @given(cycles=st.lists(st.integers(0, 20), min_size=1, max_size=6),
           items=st.integers(1, 12))
    def test_matches_analytic_for_identical_items(self, cycles, items):
        """For identical items the closed form is exact."""
        timing = stages(*cycles)
        assert simulate_pipeline(timing, items).makespan == analytic_makespan(
            timing, items)

    @given(cycles=st.lists(st.integers(1, 20), min_size=1, max_size=6),
           items=st.integers(1, 12))
    def test_finish_times_monotone(self, cycles, items):
        schedule = simulate_pipeline(stages(*cycles), items)
        for earlier, later in zip(schedule.stage_finish, schedule.stage_finish[1:]):
            assert all(a < b for a, b in zip(earlier, later))


class TestEdgeCases:
    """Degenerate schedules: no items, one stage, zero-cycle stages."""

    def test_zero_items_empty_schedule(self):
        schedule = simulate_pipeline(stages(3, 5), 0)
        assert schedule.makespan == 0
        assert schedule.stage_finish == ()
        assert schedule.utilization == [0.0, 0.0]
        assert schedule.idle_cycles(0) == 0

    def test_single_stage(self):
        """One stage degenerates to sequential execution: n * cycles."""
        schedule = simulate_pipeline(stages(7), 5)
        assert schedule.makespan == 5 * 7
        assert schedule.makespan == analytic_makespan(stages(7), 5)
        assert schedule.stage_finish == ((7,), (14,), (21,), (28,), (35,))
        assert schedule.utilization == [1.0]

    def test_zero_cycle_stage_allowed(self):
        """cycles == 0 is a legal pass-through stage (only negatives are
        rejected); the analytic fill + (n-1) * bottleneck still holds."""
        timing = stages(3, 0, 5)
        schedule = simulate_pipeline(timing, 4)
        assert schedule.makespan == (3 + 0 + 5) + 3 * 5
        assert schedule.makespan == analytic_makespan(timing, 4)
        assert schedule.busy_cycles(1) == 0
        assert schedule.idle_cycles(1) == schedule.makespan
        assert schedule.utilization[1] == 0.0

    def test_all_zero_cycles(self):
        timing = stages(0, 0)
        schedule = simulate_pipeline(timing, 3)
        assert schedule.makespan == 0
        assert schedule.makespan == analytic_makespan(timing, 3)
        assert schedule.utilization == [0.0, 0.0]

    def test_busy_idle_partition_makespan(self):
        schedule = simulate_pipeline(stages(3, 5, 2), 4)
        for i in range(3):
            assert schedule.busy_cycles(i) + schedule.idle_cycles(i) == schedule.makespan
        assert schedule.busy_cycles(1) == 4 * 5


class TestAnalyticMakespan:
    def test_zero_items(self):
        assert analytic_makespan(stages(5), 0) == 0

    def test_formula(self):
        assert analytic_makespan(stages(3, 5, 2), 4) == 10 + 3 * 5

    def test_single_stage_formula(self):
        assert analytic_makespan(stages(9), 6) == 9 + 5 * 9


class TestPinnedOutputs:
    """Schedules pinned before the Figure 6, shared-channel and
    bounded-queue simulators became one."""

    def test_bounded_queue_backpressure(self):
        for depth, blocked, peaks in ((1, 14_700, (31, 1)),
                                      (2, 14_200, (31, 2))):
            run = simulate_pipeline(stages(10, 500), 32, queue_depth=depth)
            assert run.makespan == 16_010
            assert run.blocked_cycles == blocked
            assert run.max_queue == peaks
