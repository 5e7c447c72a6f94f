"""Property tests for repro.dist (ISSUE satellite).

Invariants the subsystem promises regardless of configuration: spec
round-trips are lossless, the partitioner covers every atom exactly
once, the micro-batch scheduler's makespan always decomposes into
fill/drain plus a steady-state interval, and plan keys are pure
functions of their inputs.
"""

from math import comb

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dist import (
    DEFAULT_LINK,
    LinkSpec,
    PipelinePlan,
    balance_stages,
    enumerate_boundaries,
    pipeline_plan_key,
    plan_atoms,
    split_device,
)
from repro.check import check_pipeline_schedule
from repro.hw.device import DEFAULT_DEVICE, DeviceSpec
from repro.hw.pipeline import StageTiming, simulate_pipeline
from repro.nn.zoo import toynet, vggnet_e
from repro.serve import CompiledPlan, compile_plan

_SETTINGS = dict(max_examples=8, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def vgg_atoms():
    plan = compile_plan(vggnet_e().prefix(5), partition_sizes=(1,) * 7,
                        validate=False)
    return plan_atoms(plan)


class TestDeviceSpecRoundtrip:
    @given(dsp=st.integers(5, 10_000), bram=st.integers(1, 8_000),
           clock=st.floats(10.0, 800.0, allow_nan=False),
           channel=st.floats(0.25, 64.0, allow_nan=False))
    @settings(**_SETTINGS)
    def test_to_dict_from_dict_lossless(self, dsp, bram, clock, channel):
        spec = DeviceSpec(name="prop", dsp=dsp, bram18=bram,
                          clock_mhz=clock, dram_bytes_per_cycle=channel)
        again = DeviceSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()


class TestPartitionCoverage:
    @given(n=st.integers(1, 8), k=st.integers(1, 8))
    @settings(**_SETTINGS)
    def test_enumeration_is_the_complete_composition_set(self, n, k):
        if k > n:
            return
        seen = set()
        for boundaries in enumerate_boundaries(n, k):
            assert len(boundaries) == k
            assert sum(boundaries) == n
            assert all(b >= 1 for b in boundaries)
            seen.add(boundaries)
        assert len(seen) == comb(n - 1, k - 1)

    @given(k=st.integers(1, 7))
    @settings(**_SETTINGS)
    def test_balancer_covers_every_atom_exactly_once(self, k, vgg_atoms):
        fleet = split_device(DEFAULT_DEVICE, k)
        estimate = balance_stages(vgg_atoms, fleet, DEFAULT_LINK)
        assert sum(estimate.boundaries) == len(vgg_atoms)
        assert all(b >= 1 for b in estimate.boundaries)
        assert estimate.num_stages == k
        starts = [s.atom_start for s in estimate.stages]
        counts = [s.atom_count for s in estimate.stages]
        assert starts[0] == 0
        for prev_start, prev_count, start in zip(starts, counts, starts[1:]):
            assert start == prev_start + prev_count


class TestSchedulerInvariants:
    stages = st.lists(st.integers(1, 1000), min_size=1, max_size=5)

    @given(stages=stages, data=st.data(),
           num_items=st.integers(1, 40), queue_depth=st.integers(1, 8))
    @settings(**_SETTINGS)
    def test_makespan_decomposition_and_queue_bound(self, stages, data,
                                                    num_items, queue_depth):
        links = data.draw(st.lists(st.integers(0, 200),
                                   min_size=len(stages),
                                   max_size=len(stages)))
        # a stage's service is its cycles plus its link out, as
        # PipelineEstimate.simulate folds them
        timing = [StageTiming(str(i), cycles + link)
                  for i, (cycles, link) in enumerate(zip(stages, links))]
        run = simulate_pipeline(timing, num_items, queue_depth=queue_depth)
        assert run.makespan == (run.fill_drain_cycles
                                + num_items * run.steady_state_interval)
        assert run.steady_state_interval == max(run.service)
        if len(stages) > 1:
            assert max(run.max_queue[1:]) <= queue_depth
        assert check_pipeline_schedule(run) == []
        again = simulate_pipeline(timing, num_items, queue_depth=queue_depth)
        assert again.to_dict() == run.to_dict()


class TestPlanKeyPurity:
    @given(devices=st.integers(1, 2),
           latency=st.integers(0, 2000),
           bandwidth=st.floats(0.5, 64.0, allow_nan=False),
           weight_items=st.integers(1, 16))
    @settings(**_SETTINGS)
    def test_key_is_a_pure_function_of_its_inputs(self, devices, latency,
                                                  bandwidth, weight_items):
        base = compile_plan(toynet(), partition_sizes=(1, 1))
        fleet = split_device(DEFAULT_DEVICE, devices)
        link = LinkSpec(latency_cycles=latency, bytes_per_cycle=bandwidth)
        a = pipeline_plan_key(base.key, fleet, link, weight_items)
        b = pipeline_plan_key(base.key, fleet, link, weight_items)
        assert a == b
        assert a.family == "pipeline"
        other = pipeline_plan_key(base.key, fleet, link, weight_items + 1)
        assert other != a


class TestPlanRoundtrip:
    @given(latency=st.integers(0, 2000),
           bandwidth=st.floats(0.5, 64.0, allow_nan=False))
    @settings(**_SETTINGS)
    def test_serialized_plan_restores_key_and_interval(self, latency,
                                                       bandwidth):
        link = LinkSpec(latency_cycles=latency, bytes_per_cycle=bandwidth)
        plan = compile_plan(toynet(), partition_sizes=(1, 1),
                            devices=split_device(DEFAULT_DEVICE, 2),
                            link=link)
        restored = CompiledPlan.from_dict(plan.to_dict())
        assert isinstance(restored, PipelinePlan)
        assert restored.key == plan.key
        assert (restored.estimate.interval_cycles
                == plan.estimate.interval_cycles)
        assert restored.boundaries == plan.boundaries
