"""Sharded plans through the serving stack: bit-identity, trace lanes,
tuned-record auto-sharding, soak spot checks."""

import numpy as np
import pytest

from repro import obs
from repro.dist import split_device
from repro.hw.device import DEFAULT_DEVICE
from repro.nn.zoo import toynet
from repro.serve import InferenceService, PlanCache, compile_plan
from repro.serve.soak import run_soak


@pytest.fixture(scope="module")
def fleet():
    return split_device(DEFAULT_DEVICE, 2)


class TestServedBitIdentity:
    def test_outputs_match_golden(self, net, inputs, golden, fleet):
        svc = InferenceService(net, devices=fleet, partition_sizes=(1, 1))
        try:
            futures = [svc.submit(x) for x in inputs]
            outs = [f.result(timeout=60) for f in futures]
        finally:
            svc.shutdown()
        for out, ref in zip(outs, golden):
            np.testing.assert_array_equal(out, ref)

    def test_service_serves_pipeline_family(self, net, fleet):
        svc = InferenceService(net, devices=fleet, partition_sizes=(1, 1))
        try:
            assert svc.plan().key.family == "pipeline"
        finally:
            svc.shutdown()


class TestPlanCache:
    def test_warm_cache_hits_pipeline_key(self, net, fleet):
        cache = PlanCache()
        first = cache.get_or_compile(net, devices=fleet,
                                     partition_sizes=(1, 1))
        again = cache.get_or_compile(net, devices=fleet,
                                     partition_sizes=(1, 1))
        assert again is first
        assert cache.hits >= 1

    def test_sharded_and_unsharded_coexist(self, net, fleet):
        cache = PlanCache()
        sharded = cache.get_or_compile(net, devices=fleet,
                                       partition_sizes=(1, 1))
        plain = cache.get_or_compile(net, partition_sizes=(1, 1))
        assert sharded.key != plain.key

    def test_save_load_roundtrip(self, net, fleet, tmp_path):
        cache = PlanCache()
        plan = cache.get_or_compile(net, devices=fleet,
                                    partition_sizes=(1, 1))
        path = tmp_path / "plans.json"
        cache.save(path)
        fresh = PlanCache()
        assert fresh.load(path) >= 1
        restored = fresh.lookup(plan.key)
        assert restored is not None
        assert restored.key == plan.key


class TestTraceLanes:
    def test_stage_spans_and_device_lanes(self, net, inputs, fleet):
        svc = InferenceService(net, devices=fleet, partition_sizes=(1, 1),
                               trace=True)
        try:
            [svc.submit(x).result(timeout=60) for x in inputs[:4]]
        finally:
            svc.shutdown()
        spans = [s for tid in svc.tracer.trace_ids()
                 for s in svc.tracer.spans(tid) if s.name == "serve.stage"]
        assert spans, "sharded serving must emit serve.stage spans"
        devices = {s.attrs.get("device") for s in spans}
        assert devices == {d.name for d in fleet}
        events = obs.chrome_trace(svc.tracer)["traceEvents"]
        lane_names = {e["args"]["name"] for e in events
                      if e.get("ph") == "M"
                      and e.get("name") == "thread_name"}
        for d in fleet:
            assert f"device {d.name}" in lane_names


class TestTunedAutoShard:
    def test_record_with_devices_serves_sharded(self, net, inputs, golden):
        from repro.tune import tune

        record = tune(net, objective="interval_dsp", device_counts=(2,),
                      evals=8, seed=0, batch=4).record
        assert record.devices == 2
        plan = compile_plan(net, tuned=record)
        assert plan.key.family == "pipeline"
        svc = InferenceService(net, tuned=record)
        try:
            outs = [svc.submit(x).result(timeout=60) for x in inputs[:4]]
        finally:
            svc.shutdown()
        for out, ref in zip(outs, golden):
            np.testing.assert_array_equal(out, ref)

    def test_explicit_empty_devices_forces_unsharded(self, net):
        from repro.tune import tune

        record = tune(net, objective="interval_dsp", device_counts=(2,),
                      evals=8, seed=0, batch=4).record
        plan = compile_plan(net, tuned=record, devices=())
        assert plan.key.family == "linear"


class TestSoak:
    def test_soak_spot_checks_sharded_plans(self, fleet):
        report = run_soak([toynet()], requests=300, rate_rps=2000.0,
                          seed=7, devices=fleet, partition_sizes=(1, 1),
                          spot_check_every=10)
        assert report.config["devices"] == [d.name for d in fleet]
        assert report.wrong_answers == 0
        assert report.counts["spot_checks"] > 0
