"""InferenceService edge cases: lifecycles, overload, stats, multi-network."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (ConfigError, ServeOverloadError, ServeShedError,
                          SimFaultError)
from repro.nn.shapes import ShapeError
from repro.nn.zoo import nin_cifar
from repro.obs.slo import SLOTarget
from repro.serve import (GUARANTEED, AdmissionPolicy, AutoscalePolicy,
                         InferenceService, PlanCache, ServeStats, make_plan_key,
                         percentile)


class TestEdgeCases:
    def test_zero_requests_shutdown_is_clean(self, net):
        svc = InferenceService(net, workers=2)
        svc.start()
        svc.shutdown()
        assert svc.stats.summary()["submitted"] == 0

    def test_zero_workers_zero_requests(self, net):
        svc = InferenceService(net, workers=0)
        svc.shutdown()  # must not hang waiting for a drain
        assert svc.stats.pending == 0

    def test_zero_workers_queued_requests_abort_at_shutdown(self, net, inputs):
        svc = InferenceService(net, workers=0)
        futures = svc.submit_batch(inputs[:3])
        svc.shutdown(drain=True)  # drain impossible: forced abort
        for future in futures:
            with pytest.raises(SimFaultError):
                future.result(timeout=1)
        assert svc.stats.pending == 0

    def test_shutdown_with_drain_serves_the_backlog(self, net, inputs, golden):
        svc = InferenceService(net, workers=1, max_batch=4,
                               max_wait_ms=60_000)
        futures = svc.submit_batch(inputs[:4])
        svc.shutdown(drain=True)
        for future, ref in zip(futures, golden):
            assert np.array_equal(future.result(timeout=1), ref)

    def test_shutdown_without_drain_aborts_the_backlog(self, net, inputs):
        svc = InferenceService(net, workers=0, max_wait_ms=60_000)
        futures = svc.submit_batch(inputs[:4])
        svc.shutdown(drain=False)
        aborted = 0
        for future in futures:
            if isinstance(future.exception(timeout=1), SimFaultError):
                aborted += 1
        assert aborted == 4

    def test_shutdown_is_idempotent(self, net):
        svc = InferenceService(net, workers=1)
        svc.shutdown()
        svc.shutdown()

    def test_submit_after_shutdown_is_diagnosed(self, net, inputs):
        svc = InferenceService(net, workers=1)
        svc.shutdown()
        with pytest.raises(SimFaultError):
            svc.submit(inputs[0])

    def test_no_network_registered_is_diagnosed(self, inputs):
        svc = InferenceService(workers=0)
        with pytest.raises(ConfigError):
            svc.submit(inputs[0])

    def test_bad_shaped_request_is_rejected_at_submit(self, net, inputs,
                                                      golden):
        """A request its plan cannot run would fail every batch it joined
        and be requeued forever: it raises at submit instead, and the
        requests around it resolve with no worker respawned."""
        with InferenceService(net, workers=1, max_batch=4) as svc:
            first = svc.submit(inputs[0])
            with pytest.raises(ShapeError, match="network input"):
                svc.submit(np.zeros((1, 2, 2)))
            with pytest.raises(ShapeError):
                svc.submit_batch([inputs[1], inputs[1][None]])
            last = svc.submit(inputs[2])
            outs = [f.result(timeout=10) for f in (first, last)]
        for out, ref in zip(outs, (golden[0], golden[2])):
            assert np.array_equal(out, ref)
        assert svc.pool.respawns == 0

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_request_that_cannot_run_fails_alone(self, net, inputs, golden,
                                                 mode):
        """A request of the right shape that still cannot run (an object
        array of strings) fails on its own future: its batch is re-run
        item by item, the requests around it are served, and no worker
        dies. It used to be requeued, and its worker respawned, forever."""
        svc = InferenceService(net, workers=1, max_batch=4, mode=mode)
        unrunnable = np.full(inputs[1].shape, "x", dtype=object)
        futures = [svc.submit(inputs[0]), svc.submit(unrunnable),
                   svc.submit(inputs[2])]
        try:
            for future, ref in zip(futures[::2], golden[::2]):
                assert np.array_equal(future.result(timeout=10), ref)
            with pytest.raises((TypeError, SimFaultError)):
                futures[1].result(timeout=10)
        finally:
            svc.shutdown(drain=False, timeout=10)
        assert not any(t.is_alive() for t in svc.pool._threads)
        assert svc.pool.respawns == 0
        assert svc.stats.failed == 1

    def test_unregistered_key_is_rejected_at_submit(self, net, inputs):
        with InferenceService(net, workers=1) as svc:
            with pytest.raises(ConfigError, match="no plan registered"):
                svc.submit(inputs[0], key=make_plan_key(nin_cifar()))
            assert svc.stats.summary()["submitted"] == 0


class TestOverload:
    def test_fast_fail_and_backpressure_counters(self, net, inputs):
        svc = InferenceService(net, workers=0, max_queue=2)
        svc.submit(inputs[0])
        svc.submit(inputs[1])
        with pytest.raises(ServeOverloadError):
            svc.submit(inputs[2])
        assert svc.stats.rejected == 1
        assert svc.stats.submitted == 3
        svc.shutdown()

    def test_error_carries_queue_diagnostics(self, net, inputs):
        svc = InferenceService(net, workers=0, max_queue=1)
        svc.submit(inputs[0])
        with pytest.raises(ServeOverloadError) as excinfo:
            svc.submit(inputs[1])
        assert "max_queue=1" in str(excinfo.value)
        svc.shutdown()


class TestShedding:
    def _svc(self, net) -> InferenceService:
        return InferenceService(
            net, workers=0, max_queue=4,
            admission=AdmissionPolicy(max_queue=4, shed_depth_fraction=0.5))

    def test_sheddable_requests_shed_at_the_watermark(self, net, inputs):
        svc = self._svc(net)
        svc.submit(inputs[0])
        svc.submit(inputs[1])
        with pytest.raises(ServeShedError) as info:
            svc.submit(inputs[2])
        assert info.value.retry_after_s >= 0.0
        assert svc.stats.shed == 1
        assert svc.stats.rejected == 1  # sheds are a kind of rejection
        svc.shutdown()

    def test_guaranteed_requests_ride_past_the_watermark(self, net, inputs):
        svc = self._svc(net)
        for x in inputs[:4]:
            svc.submit(x, klass=GUARANTEED)
        with pytest.raises(ServeOverloadError) as info:
            svc.submit(inputs[4], klass=GUARANTEED)
        assert not isinstance(info.value, ServeShedError)
        assert svc.stats.shed == 0
        svc.shutdown()

    def test_shed_requests_are_not_counted_pending(self, net, inputs):
        svc = self._svc(net)
        svc.submit(inputs[0])
        svc.submit(inputs[1])
        with pytest.raises(ServeShedError):
            svc.submit(inputs[2])
        assert svc.stats.pending == 2
        svc.shutdown()


class TestDeadlinesAndScaling:
    def test_deadline_ms_defaults_from_the_slo_target(self, net):
        svc = InferenceService(net, workers=0, slo=SLOTarget(latency_ms=40.0))
        assert svc.scheduler.default_deadline_ms == pytest.approx(40.0)
        svc.shutdown()

    def test_explicit_deadline_overrides_the_slo(self, net):
        svc = InferenceService(net, workers=0, deadline_ms=15.0,
                               slo=SLOTarget(latency_ms=40.0))
        assert svc.scheduler.default_deadline_ms == pytest.approx(15.0)
        svc.shutdown()

    def test_per_request_deadline_reaches_the_scheduler(self, net, inputs):
        svc = InferenceService(net, workers=0, max_wait_ms=60_000)
        svc.submit(inputs[0], deadline_ms=30.0)
        shard = next(iter(svc.scheduler._shards.values()))
        assert shard[0].deadline_ms == pytest.approx(30.0)
        svc.shutdown()

    def test_autoscaled_service_serves_bit_exact(self, net, inputs, golden):
        policy = AutoscalePolicy(min_workers=1, max_workers=3,
                                 sustain_s=0.01, cooldown_s=0.01,
                                 idle_s=10.0)
        with InferenceService(net, workers=1, max_batch=2,
                              autoscale=policy) as svc:
            futures = svc.submit_batch(inputs)
            outs = [f.result(timeout=60) for f in futures]
        for out, ref in zip(outs, golden):
            assert np.array_equal(out, ref)
        assert 1 <= svc.pool.workers <= 3

    def test_report_mentions_autoscaling_after_an_event(self, net, inputs):
        policy = AutoscalePolicy(min_workers=1, max_workers=4,
                                 backlog_per_worker=1.0, sustain_s=0.0,
                                 cooldown_s=0.0)
        with InferenceService(net, workers=1, max_batch=2,
                              autoscale=policy) as svc:
            futures = svc.submit_batch(inputs)
            for future in futures:
                future.result(timeout=60)
        if svc.pool.scale_events:
            assert "autoscale:" in svc.report()


class TestMultiNetwork:
    def test_requests_route_to_their_network(self, net, inputs, golden):
        other = nin_cifar()
        with InferenceService(net, networks=[other], workers=2,
                              max_batch=4) as svc:
            other_key = svc.register(other)
            shape = other.input_shape
            other_x = np.round(np.ones(
                (shape.channels, shape.height, shape.width)))
            toy_future = svc.submit(inputs[0])
            other_future = svc.submit(other_x, key=other_key)
            assert np.array_equal(toy_future.result(timeout=30), golden[0])
            out = other_future.result(timeout=60)
        assert out.shape != golden[0].shape

    def test_shared_cache_across_services(self, net, inputs, golden):
        cache = PlanCache()
        with InferenceService(net, workers=1, cache=cache) as svc:
            svc.infer(inputs[0], timeout=30)
        with InferenceService(net, workers=1, cache=cache) as svc:
            out = svc.infer(inputs[0], timeout=30)
        assert np.array_equal(out, golden[0])
        assert cache.hits == 1  # the second service reused the plan


class TestStats:
    def test_counts_and_histogram(self, net, inputs):
        with InferenceService(net, workers=1, max_batch=4,
                              max_wait_ms=60_000) as svc:
            futures = svc.submit_batch(inputs[:8])
            for future in futures:
                future.result(timeout=30)
            summary = svc.stats.summary()
        assert summary["submitted"] == 8
        assert summary["completed"] == 8
        assert summary["pending"] == 0
        assert summary["batch_size_histogram"] == {"4": 2}
        assert summary["requests_per_s"] > 0

    def test_report_renders(self, net, inputs):
        with InferenceService(net, workers=1) as svc:
            svc.infer(inputs[0], timeout=30)
            report = svc.report()
        assert "requests/s" in report and "plan cache" in report

    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 99) == 4.0
        assert percentile([], 50) == 0.0

    def test_aborts_count_as_failed(self):
        stats = ServeStats()
        stats.record_submit(3)
        stats.record_aborts(3)
        assert stats.pending == 0
        assert stats.failed == 3
