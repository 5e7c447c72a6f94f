"""Fault injection in the DRAM channel and pipeline simulators."""

import pytest

from repro import obs
from repro.errors import SimFaultError
from repro.faults import FaultPlan, RetryPolicy
from repro.hw.pipeline import StageTiming, simulate_pipeline

STAGES = [StageTiming("load", 0, words=64), StageTiming("conv", 10),
          StageTiming("store", 0, words=32)]


def run(plan=None, retry=None, items=12, wpc=8.0):
    faults = plan.injector() if plan is not None else None
    return simulate_pipeline(STAGES, items, words_per_cycle=wpc,
                             faults=faults, retry=retry)


class TestChannelFaults:
    def test_empty_injector_matches_fault_free(self):
        clean = run()
        inert = run(FaultPlan())  # no specs: injector enabled but inert
        assert inert.makespan == clean.makespan
        assert inert.stalls == inert.retries == inert.stall_cycles == 0

    def test_dram_stalls_slow_the_channel(self):
        clean = run()
        faulty = run(FaultPlan.parse("dram_stall:p=0.3,cycles=50", seed=1))
        assert faulty.stalls > 0
        assert faulty.retries == faulty.stalls
        assert faulty.stall_cycles > 0
        assert faulty.makespan > clean.makespan
        assert faulty.channel_busy > clean.channel_busy

    def test_deterministic_across_runs(self):
        plan = FaultPlan.parse("dram_stall:p=0.3", seed=5)
        assert run(plan).makespan == run(plan).makespan

    def test_retry_budget_exhaustion_is_diagnosed(self):
        plan = FaultPlan.parse("dram_stall:p=1", seed=0)
        with pytest.raises(SimFaultError) as err:
            run(plan, retry=RetryPolicy(max_attempts=2))
        assert err.value.context["kind"] == "dram_stall"
        assert err.value.context["max_attempts"] == 2
        assert "channel[" in err.value.context["site"]

    def test_bandwidth_degrade_scales_transfers(self):
        clean = run()
        halved = run(FaultPlan.parse("bandwidth_degrade:factor=0.5"))
        assert halved.makespan > clean.makespan
        # Transfers take exactly twice as long, so channel busy doubles.
        assert halved.channel_busy == 2 * clean.channel_busy

    def test_bandwidth_degrade_after_horizon_is_noop(self):
        clean = run()
        late = run(FaultPlan.parse(
            "bandwidth_degrade:factor=0.5,after_cycle=100000000"))
        assert late.makespan == clean.makespan

    def test_memory_bound_stays_nominal(self):
        """The roofline bound reports the healthy machine; faults only
        move the simulated makespan."""
        clean = run()
        faulty = run(FaultPlan.parse("dram_stall:p=0.3,cycles=50", seed=1))
        assert faulty.memory_bound == clean.memory_bound
        assert faulty.compute_bound == clean.compute_bound

    def test_channel_run_draws_no_stage_stalls(self):
        """``stage_stall`` hits runs without a channel; a channel run
        with the same plan leaves its compute stages alone."""
        plan = FaultPlan.parse("stage_stall:p=1,cycles=7")
        injector = plan.injector()
        assert run().makespan == simulate_pipeline(
            STAGES, 12, words_per_cycle=8.0, faults=injector).makespan
        assert injector.counts == {}

    def test_stall_counters_mirrored_to_obs(self):
        plan = FaultPlan.parse("dram_stall:p=0.3,cycles=50", seed=1)
        with obs.capture() as registry:
            schedule = run(plan)
        counters = registry.to_dict()["counters"]
        assert counters["faults.injected[dram_stall]"] == schedule.stalls
        assert counters["faults.retries"] == schedule.retries
        assert counters["faults.stall_cycles"] == 50 * schedule.stalls


class TestPipelineStageStalls:
    TIMINGS = [StageTiming("conv1", 4), StageTiming("conv2", 6),
               StageTiming("pool", 2)]

    def test_universal_stall_stretches_every_stage(self):
        clean = simulate_pipeline(self.TIMINGS, 5)
        plan = FaultPlan.parse("stage_stall:p=1,cycles=3")
        faulty = simulate_pipeline(self.TIMINGS, 5, faults=plan.injector())
        # Every (item, stage) execution gains 3 cycles, so the bottleneck
        # interval grows from 6 to 9.
        assert faulty.makespan > clean.makespan
        assert faulty.stage_finish[0][0] == clean.stage_finish[0][0] + 3

    def test_stage_filter(self):
        plan = FaultPlan.parse("stage_stall:p=1,cycles=100,stage=pool")
        faulty = simulate_pipeline(self.TIMINGS, 3, faults=plan.injector())
        # conv1 of item 0 is untouched; pool is stretched.
        assert faulty.stage_finish[0][0] == 4

    def test_no_faults_identical(self):
        clean = simulate_pipeline(self.TIMINGS, 7)
        inert = simulate_pipeline(self.TIMINGS, 7, faults=FaultPlan().injector())
        assert inert.makespan == clean.makespan
        assert inert.stage_finish == clean.stage_finish

    def test_stall_cycles_counted(self):
        plan = FaultPlan.parse("stage_stall:p=1,cycles=3")
        with obs.capture() as registry:
            simulate_pipeline(self.TIMINGS, 5, faults=plan.injector())
        counters = registry.to_dict()["counters"]
        assert counters["faults.stage_stall_cycles"] == 3 * 5 * len(self.TIMINGS)
