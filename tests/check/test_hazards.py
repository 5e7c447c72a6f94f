"""Hazard detectors: silent on real schedules, loud on injected hazards."""

import dataclasses

import pytest

from repro.check import check_fused_schedule, check_pipeline_schedule
from repro.core.schedule import FusedSchedule
from repro.faults import FaultPlan
from repro.hw.pipeline import PipelineSchedule, StageTiming, simulate_pipeline
from repro.nn.stages import extract_levels
from repro.nn.zoo import alexnet, toynet, vggnet_e


def codes(diagnostics):
    return sorted({d.code for d in diagnostics})


class _ShiftedLoads(FusedSchedule):
    """A corrupted schedule: every non-origin load origin is shifted by
    ``shift`` columns/rows — the foreign-scheduler bug the detector
    exists to catch (the genuine calcparams algebra is self-consistent,
    so hazards can only come from outside it)."""

    def __init__(self, levels, tip, shift):
        super().__init__(levels, tip, tip)
        self._shift = shift

    def position(self, row, col):
        params = super().position(row, col)
        return dataclasses.replace(
            params,
            colt=params.colt + (self._shift if col > 0 else 0),
            rowt=params.rowt + (self._shift if row > 0 else 0))


class TestFusedScheduleHazards:
    def test_zoo_schedules_are_hazard_free(self):
        for factory, num_convs in ((toynet, None), (alexnet, None),
                                   (vggnet_e, 5)):
            network = factory()
            sliced = (network.prefix(num_convs) if num_convs
                      else network.feature_extractor())
            levels = extract_levels(sliced)
            schedule = FusedSchedule(levels, 1, 1)
            assert check_fused_schedule(schedule) == [], factory.__name__

    def test_tips_above_one_are_hazard_free(self):
        levels = extract_levels(toynet())
        for tip in (1, 2, 3):
            assert check_fused_schedule(FusedSchedule(levels, tip, tip)) == []

    def test_gapped_loads_read_before_write_rc301(self):
        # Loads shifted apart overlap by less than K-S: a band of
        # columns is consumed that no load ever wrote.
        schedule = _ShiftedLoads(extract_levels(toynet()), 1, shift=+1)
        findings = check_fused_schedule(schedule)
        assert "RC301" in codes(findings)
        assert {d.context.get("axis") for d in findings
                if d.code == "RC301"} == {"col", "row"}

    def test_packed_loads_clobber_reuse_rc302(self):
        # Loads shifted together overlap by more than K-S: the fresh
        # DRAM burst lands on live double-buffered reuse columns.
        schedule = _ShiftedLoads(extract_levels(toynet()), 1, shift=-1)
        assert "RC302" in codes(check_fused_schedule(schedule))

    def test_truncated_grid_leaves_output_uncovered_rc305(self):
        for field in ("rows", "cols"):
            schedule = FusedSchedule(extract_levels(toynet()), 1, 1)
            setattr(schedule, field, getattr(schedule, field) - 1)
            assert "RC305" in codes(check_fused_schedule(schedule)), field

    def test_corrupted_level_kernel_rc103(self):
        # A schedule claiming to serve levels whose windows no longer
        # match its tiles is rejected by the calcparams probes.
        schedule = FusedSchedule(extract_levels(toynet()), 1, 1)
        schedule.levels[0] = dataclasses.replace(
            schedule.levels[0], kernel=schedule.levels[0].kernel + 1)
        assert "RC103" in codes(check_fused_schedule(schedule))


class TestPipelineScheduleHazards:
    def test_simulated_schedules_are_hazard_free(self):
        stages = [StageTiming("a", 5), StageTiming("b", 3),
                  StageTiming("c", 7)]
        for items in (1, 2, 16):
            schedule = simulate_pipeline(stages, items)
            assert check_pipeline_schedule(schedule) == []

    def test_zoo_pipeline_schedules_are_hazard_free(self):
        for factory in (toynet, alexnet):
            levels = extract_levels(factory().feature_extractor())
            stages = [StageTiming(lv.name, max(lv.out_shape.height, 1))
                      for lv in levels]
            schedule = simulate_pipeline(stages, 32)
            assert check_pipeline_schedule(schedule) == [], factory.__name__

    def test_bounded_queue_and_faulted_schedules_are_hazard_free(self):
        stages = [StageTiming("a", 5), StageTiming("b", 30),
                  StageTiming("c", 7)]
        for depth in (1, 2, 8):
            schedule = simulate_pipeline(stages, 16, queue_depth=depth)
            assert schedule.blocked_cycles > 0
            assert check_pipeline_schedule(schedule) == [], depth
        plan = FaultPlan.parse("stage_stall:p=0.5,cycles=9", seed=3)
        schedule = simulate_pipeline(stages, 16, faults=plan.injector())
        assert check_pipeline_schedule(schedule) == []

    def test_read_before_write_rc301(self):
        stages = (StageTiming("a", 5), StageTiming("b", 3))
        # item 0: stage b begins at 3 and finishes at 6 < 5 + 3 — it read
        # a's output before a produced it.
        schedule = PipelineSchedule(stages=stages, num_items=1, makespan=6,
                                    stage_begin=((0, 3),),
                                    stage_finish=((5, 6),))
        assert "RC301" in codes(check_pipeline_schedule(schedule))

    def test_finish_only_corruptions_keep_their_codes(self):
        """Corrupting a simulated finish time alone (begin times as
        simulated) still fires the code that finish time violates."""
        good = simulate_pipeline((StageTiming("a", 5), StageTiming("b", 3)), 2)
        early_b = dataclasses.replace(
            good, stage_finish=((5, 7), good.stage_finish[1]))
        assert "RC301" in codes(check_pipeline_schedule(early_b))
        early_a = dataclasses.replace(
            good, stage_finish=(good.stage_finish[0], (8, 13)))
        assert "RC302" in codes(check_pipeline_schedule(early_a))

    def test_double_buffer_overlap_rc302(self):
        stages = (StageTiming("a", 5),)
        # item 1 runs [3, 8) on a 5-cycle stage that holds item 0 until
        # 5: the stage held both items at once.
        schedule = PipelineSchedule(stages=stages, num_items=2, makespan=8,
                                    stage_begin=((0,), (3,)),
                                    stage_finish=((5,), (8,)))
        assert "RC302" in codes(check_pipeline_schedule(schedule))

    def test_wrong_makespan_rc303(self):
        stages = (StageTiming("a", 5),)
        schedule = PipelineSchedule(stages=stages, num_items=1, makespan=99,
                                    stage_begin=((0,),),
                                    stage_finish=((5,),))
        assert codes(check_pipeline_schedule(schedule)) == ["RC303"]

    def test_row_count_mismatch_rc303(self):
        stages = (StageTiming("a", 5),)
        schedule = PipelineSchedule(stages=stages, num_items=2, makespan=5,
                                    stage_begin=((0,),),
                                    stage_finish=((5,),))
        assert codes(check_pipeline_schedule(schedule)) == ["RC303"]


class TestChannelScheduleHazards:
    STAGES = [StageTiming("load", 0, words=512), StageTiming("mac", 40),
              StageTiming("store", 0, words=128)]

    def run(self, items, wpc, faults=None):
        return simulate_pipeline(self.STAGES, items, words_per_cycle=wpc,
                                 faults=faults)

    def test_simulated_channel_schedules_are_clean(self):
        for wpc in (1.0, 4.0, 64.0):
            schedule = self.run(16, wpc)
            assert check_pipeline_schedule(schedule) == [], wpc
        plan = FaultPlan.parse("dram_stall:p=0.1;bandwidth_degrade", seed=2)
        schedule = self.run(16, 4.0, plan.injector())
        assert schedule.stalls > 0
        assert check_pipeline_schedule(schedule) == []

    def test_overcommitted_channel_rc304(self):
        good = self.run(8, 4.0)
        bad = dataclasses.replace(good, channel_busy=good.makespan + 1)
        assert "RC304" in codes(check_pipeline_schedule(bad))

    def test_makespan_beats_bandwidth_bound_rc304(self):
        good = self.run(8, 4.0)
        bad = dataclasses.replace(good, makespan=good.memory_bound - 1,
                                  channel_busy=0)
        assert "RC304" in codes(check_pipeline_schedule(bad))

    def test_makespan_beats_compute_bound_rc303(self):
        good = self.run(8, 64.0)  # compute bound 320 > memory bound 80
        bad = dataclasses.replace(good, makespan=good.compute_bound - 1,
                                  channel_busy=0)
        findings = check_pipeline_schedule(bad)
        assert "RC303" in codes(findings)
        assert "RC304" not in codes(findings)
        assert any("compute bound" in d.message for d in findings)

    def test_stall_accounting_warning_rc306(self):
        good = self.run(4, 4.0)
        bad = dataclasses.replace(good, stall_cycles=7)
        findings = check_pipeline_schedule(bad)
        assert codes(findings) == ["RC306"]
        assert all(not d.is_error for d in findings)
        unretried = dataclasses.replace(good, stalls=1, stall_cycles=7)
        assert codes(check_pipeline_schedule(unretried)) == ["RC306"]

    def test_negative_field_rc303(self):
        bad = dataclasses.replace(self.run(4, 4.0), makespan=-1)
        assert codes(check_pipeline_schedule(bad)) == ["RC303"]
