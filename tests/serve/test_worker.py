"""The worker pool: bit-exactness, fault retries, crash recovery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError, SimFaultError
from repro.faults import FaultPlan, RetryPolicy
from repro.serve import AutoscalePolicy, InferenceService, ManualClock


class TestBitExactness:
    def test_served_outputs_match_direct_runs(self, net, inputs, golden):
        with InferenceService(net, workers=2, max_batch=4) as svc:
            outs = [f.result(timeout=30)
                    for f in svc.submit_batch(inputs)]
        for out, ref in zip(outs, golden):
            assert out.dtype == ref.dtype
            assert np.array_equal(out, ref)

    def test_results_stay_paired_with_their_requests(self, net, inputs, golden):
        # distinct inputs produce distinct outputs, so any batching or
        # sharding mix-up shows up as a cross-pairing
        with InferenceService(net, workers=4, max_batch=3,
                              max_wait_ms=0.5) as svc:
            futures = svc.submit_batch(inputs)
            for future, ref in zip(futures, golden):
                assert np.array_equal(future.result(timeout=30), ref)

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_modes_agree(self, net, inputs, golden, mode):
        with InferenceService(net, workers=2, max_batch=4, mode=mode) as svc:
            outs = [f.result(timeout=60)
                    for f in svc.submit_batch(inputs[:8])]
        for out, ref in zip(outs, golden):
            assert np.array_equal(out, ref)


class TestFaultRetries:
    def test_bit_identical_under_transfer_corrupt(self, net, inputs, golden):
        """The acceptance criterion: a fault plan corrupting ~half of all
        deliveries changes nothing about the served values."""
        injector = FaultPlan.parse("transfer_corrupt:p=0.5", seed=11).injector()
        with InferenceService(net, workers=2, max_batch=4, faults=injector,
                              retry=RetryPolicy(max_attempts=16)) as svc:
            outs = [f.result(timeout=60)
                    for f in svc.submit_batch(inputs)]
        assert injector.total_injected > 0  # the plan actually fired
        for out, ref in zip(outs, golden):
            assert out.dtype == ref.dtype
            assert np.array_equal(out, ref)

    def test_fault_decisions_are_deterministic_per_request(self, net, inputs):
        def retries_with(workers, max_batch):
            injector = FaultPlan.parse("transfer_corrupt:p=0.5",
                                       seed=11).injector()
            with InferenceService(net, workers=workers, max_batch=max_batch,
                                  faults=injector,
                                  retry=RetryPolicy(max_attempts=16)) as svc:
                for f in svc.submit_batch(inputs):
                    f.result(timeout=60)
            return injector.total_injected

        # fault sites key on request id, not batch/worker placement
        assert retries_with(1, 1) == retries_with(4, 8)

    def test_retry_exhaustion_fails_only_that_request(self, net, inputs):
        injector = FaultPlan.parse("transfer_corrupt:p=1.0", seed=0).injector()
        with InferenceService(net, workers=1, max_batch=4, faults=injector,
                              retry=RetryPolicy(max_attempts=2)) as svc:
            futures = svc.submit_batch(inputs[:4])
            for future in futures:
                with pytest.raises(SimFaultError):
                    future.result(timeout=30)
        assert svc.stats.failed == 4

    def test_request_that_cannot_run_draws_no_transfer_fault(self, net,
                                                            inputs):
        """A request whose execution raises delivers nothing, so no
        corrupted delivery re-runs it (which would raise again, out of
        the batch, and requeue it forever)."""
        injector = FaultPlan.parse("transfer_corrupt:p=1.0", seed=0).injector()
        svc = InferenceService(net, workers=1, max_batch=4, faults=injector,
                               retry=RetryPolicy(max_attempts=2))
        unrunnable = np.full(inputs[1].shape, "x", dtype=object)
        futures = svc.submit_batch([inputs[0], unrunnable])
        try:
            with pytest.raises(SimFaultError):
                futures[0].result(timeout=10)  # retries exhausted
            with pytest.raises(TypeError):
                futures[1].result(timeout=10)
        finally:
            svc.shutdown(drain=False, timeout=10)
        assert svc.pool.respawns == 0
        assert svc.stats.failed == 2


class TestCrashRecovery:
    def test_dead_worker_is_respawned_and_batch_requeued(
            self, net, inputs, golden):
        svc = InferenceService(net, workers=1, max_batch=4)
        crashed = []

        def fail_once(wid, batch):
            if not crashed:
                crashed.append(wid)
                raise RuntimeError("synthetic worker death")

        svc.pool.fail_hook = fail_once
        outs = [f.result(timeout=30) for f in svc.submit_batch(inputs[:6])]
        svc.shutdown()
        assert crashed  # the hook actually fired
        assert svc.pool.respawns == 1
        for out, ref in zip(outs, golden):
            assert np.array_equal(out, ref)

    def test_repeated_crashes_each_respawn(self, net, inputs):
        svc = InferenceService(net, workers=1, max_batch=2)
        crashes = {"n": 0}

        def fail_twice(wid, batch):
            if crashes["n"] < 2:
                crashes["n"] += 1
                raise RuntimeError("synthetic worker death")

        svc.pool.fail_hook = fail_twice
        futures = svc.submit_batch(inputs[:4])
        for future in futures:
            future.result(timeout=30)
        svc.shutdown()
        assert svc.pool.respawns == 2


class TestAutoscaling:
    def test_manual_clock_pool_scales_only_on_explicit_ticks(self, net,
                                                             inputs):
        """With a ManualClock no supervisor thread runs: scaling is
        driven (deterministically) by explicit scale_tick calls."""
        clock = ManualClock()
        policy = AutoscalePolicy(min_workers=1, max_workers=4,
                                 backlog_per_worker=1.0, sustain_s=0.5,
                                 cooldown_s=0.0)
        svc = InferenceService(net, workers=1, max_wait_ms=60_000,
                               max_batch=16, autoscale=policy, clock=clock)
        svc.start()
        assert not any(t.name == "serve-autoscaler"
                       for t in svc.pool._threads)
        for x in inputs[:8]:
            svc.submit(x)
        assert svc.pool.scale_tick() is None          # pressure starts
        clock.advance(0.6)
        event = svc.pool.scale_tick()                 # sustained: scale up
        assert event is not None and event.action == "up"
        assert svc.pool.workers == 2
        assert svc.stats.scale_ups == 1
        svc.shutdown()

    def test_live_pool_scales_up_under_backlog_and_stays_exact(
            self, net, inputs, golden):
        policy = AutoscalePolicy(min_workers=1, max_workers=4,
                                 backlog_per_worker=1.0, sustain_s=0.0,
                                 cooldown_s=0.0, idle_s=30.0)
        with InferenceService(net, workers=1, max_batch=2,
                              autoscale=policy) as svc:
            futures = svc.submit_batch(inputs)
            outs = [f.result(timeout=60) for f in futures]
        for out, ref in zip(outs, golden):
            assert np.array_equal(out, ref)
        events = svc.pool.scale_events
        for event in events:
            assert policy.min_workers <= event.workers_to \
                <= policy.max_workers

    def test_scale_down_retires_worker_seats(self, net, inputs):
        clock = ManualClock()
        policy = AutoscalePolicy(min_workers=1, max_workers=4,
                                 idle_s=0.5, cooldown_s=0.0)
        svc = InferenceService(net, workers=2, autoscale=policy, clock=clock)
        svc.start()
        assert svc.pool.scale_tick() is None    # idle trend begins
        clock.advance(1.0)
        event = svc.pool.scale_tick()           # idle the whole virtual second
        assert event is not None and event.action == "down"
        assert svc.pool.workers == 1
        assert svc.stats.scale_downs == 1
        svc.shutdown()

    def test_bad_tick_is_diagnosed(self):
        from repro.serve.worker import WorkerPool

        with pytest.raises(ConfigError):
            WorkerPool(None, None, tick_s=0.0)


class TestValidation:
    def test_bad_pool_knobs_are_diagnosed(self, net):
        with pytest.raises(ConfigError):
            InferenceService(net, workers=-1)
        with pytest.raises(ConfigError):
            InferenceService(net, mode="fiber")
