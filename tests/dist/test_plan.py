"""PipelinePlan: keys, compilation, persistence, bit-identity."""

import numpy as np
import pytest

from repro.dist import (
    DEFAULT_LINK,
    DEFAULT_WEIGHT_ITEMS,
    LinkSpec,
    PipelinePlan,
    compile_pipeline_plan,
    pipeline_plan_key,
    split_device,
)
from repro.errors import ConfigError
from repro.hw.device import DEFAULT_DEVICE
from repro.nn.zoo import toynet
from repro.serve import CompiledPlan, compile_plan
from repro.sim import make_input


@pytest.fixture(scope="module")
def fleet():
    return split_device(DEFAULT_DEVICE, 2)


@pytest.fixture(scope="module")
def plan(fleet):
    return compile_plan(toynet(), partition_sizes=(1, 1), devices=fleet)


@pytest.fixture(scope="module")
def inputs():
    return [make_input(toynet().input_shape, seed=42 + i, integer=True)
            for i in range(6)]


class TestPlanKey:
    def test_family_is_pipeline(self, plan):
        assert plan.key.family == "pipeline"
        assert plan.key.variant.startswith("pipe:d2:")

    def test_key_computable_without_compiling(self, plan, fleet):
        base = compile_plan(toynet(), partition_sizes=(1, 1))
        derived = pipeline_plan_key(base.key, fleet, DEFAULT_LINK,
                                    DEFAULT_WEIGHT_ITEMS)
        assert derived == plan.key

    def test_different_fleets_never_alias(self, plan):
        other = compile_plan(toynet(), partition_sizes=(1, 1),
                             devices=split_device(DEFAULT_DEVICE, 2),
                             link=LinkSpec(latency_cycles=1,
                                           bytes_per_cycle=1.0))
        assert other.key != plan.key

    def test_pipeline_never_aliases_base(self, plan):
        base = compile_plan(toynet(), partition_sizes=(1, 1))
        assert plan.key != base.key


class TestExecution:
    def test_bit_identical_to_base_plan(self, plan, inputs):
        base = compile_plan(toynet(), partition_sizes=(1, 1))
        for x in inputs:
            sharded = plan.execute([x])[0]
            direct = base.execute([x])[0]
            np.testing.assert_array_equal(sharded, direct)

    def test_execute_runs_no_cycle_simulation(self, plan, inputs,
                                              monkeypatch):
        """Timing is priced once, at compile time: serving a batch runs
        the numerics only."""
        from repro.hw import pipeline

        def forbidden(*args, **kwargs):
            raise AssertionError("execute ran a pipeline simulation")

        monkeypatch.setattr(pipeline, "_schedule", forbidden)
        assert len(plan.execute(inputs)) == len(inputs)

    def test_each_thread_sees_its_own_stage_report(self, plan, inputs):
        """Two threads execute batches on one plan, then both read
        ``last_stage_report``: each must see its own batch's timings."""
        import threading

        barrier = threading.Barrier(2, timeout=60)
        seen = {}

        def execute(size):
            plan.execute(inputs[:size])
            barrier.wait()  # both executes are done before either reads
            seen[size] = plan.last_stage_report

        threads = [threading.Thread(target=execute, args=(size,))
                   for size in (1, 3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert seen[1] is not seen[3]
        for report in seen.values():
            assert [entry["device"] for entry in report] == [
                d.name for d in plan.devices]

    def test_stage_report_covers_every_device(self, plan, inputs):
        plan.execute(inputs[:2])
        report = plan.last_stage_report
        assert report is not None
        assert [entry["device"] for entry in report] == [
            d.name for d in plan.devices]
        for entry in report:
            assert entry["end_s"] >= entry["start_s"]


class TestPersistence:
    def test_roundtrip_preserves_key_and_boundaries(self, plan):
        restored = CompiledPlan.from_dict(plan.to_dict())
        assert isinstance(restored, PipelinePlan)
        assert restored.key == plan.key
        assert restored.boundaries == plan.boundaries
        assert (restored.estimate.interval_cycles
                == plan.estimate.interval_cycles)

    def test_roundtrip_execution_identical(self, plan, inputs):
        restored = CompiledPlan.from_dict(plan.to_dict())
        for x in inputs[:3]:
            np.testing.assert_array_equal(restored.execute([x])[0],
                                          plan.execute([x])[0])


class TestCompile:
    def test_needs_at_least_one_device(self):
        with pytest.raises(ConfigError):
            compile_pipeline_plan(toynet(), devices=())

    def test_more_devices_than_groups_rejected(self):
        with pytest.raises(ConfigError):
            compile_plan(toynet(), partition_sizes=(2,),
                         devices=split_device(DEFAULT_DEVICE, 2))

    def test_wrapping_an_existing_base_plan(self, fleet):
        base = compile_plan(toynet(), partition_sizes=(1, 1))
        wrapped = compile_pipeline_plan(base=base, devices=fleet)
        assert wrapped.key.family == "pipeline"
        assert wrapped.base is base
