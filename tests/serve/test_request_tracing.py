"""End-to-end request tracing and SLO monitoring through the service.

Covers the PR's acceptance bar: every served request reconstructs as a
complete span tree (enqueue -> batch -> execute, retries included) even
across worker crashes, and an SLO monitor with a 5 ms p99 target sees an
injected ``dram_stall`` burst (burn rate goes nonzero) while the clean
run, under identical seeds, stays at zero.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import obs
from repro.errors import ServeOverloadError
from repro.faults import FaultPlan, RetryPolicy
from repro.serve import InferenceService, ManualClock


def traced_service(net, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("max_batch", 4)
    return InferenceService(net, trace=True, **kw)


def the_root(tracer, trace_id):
    roots = tracer.span_tree(trace_id)
    assert len(roots) == 1, f"trace {trace_id} has {len(roots)} roots"
    return roots[0]


class TestSpanTrees:
    def test_every_request_is_a_complete_span_tree(self, net, inputs, golden):
        svc = traced_service(net)
        futures = svc.submit_batch(inputs)
        outs = [f.result(timeout=30) for f in futures]
        svc.shutdown()
        tracer = svc.tracer
        assert len(tracer.trace_ids()) == len(inputs)
        for trace_id in tracer.trace_ids():
            assert tracer.complete(trace_id), \
                f"trace {trace_id} has unfinished spans"
            root = the_root(tracer, trace_id)
            assert root.name == "serve.request"
            assert root.attrs["status"] == "ok"
            # the full pipeline is visible: queue wait, batch, execution
            for stage in ("serve.enqueue", "serve.batch", "serve.execute"):
                stages = root.find(stage)
                assert stages, f"trace {trace_id} missing {stage}"
                assert all(s.complete for s in stages)
            # enqueue nests under the root; execute under its batch
            assert all(s.parent_id == root.span_id
                       for s in root.find("serve.enqueue"))
            for exec_span in root.find("serve.execute"):
                parent = [s for s in root.walk()
                          if s.span_id == exec_span.parent_id]
                assert parent and parent[0].name == "serve.batch"
        assert tracer.open_spans == 0
        for out, ref in zip(outs, golden):
            assert np.array_equal(out, ref)

    def test_trace_ids_are_request_ids(self, net, inputs):
        svc = traced_service(net)
        futures = svc.submit_batch(inputs[:4])
        for future in futures:
            future.result(timeout=30)
        svc.shutdown()
        for trace_id in svc.tracer.trace_ids():
            root = the_root(svc.tracer, trace_id)
            assert root.attrs["request"] == trace_id

    def test_rejected_request_closes_its_spans(self, net, inputs):
        svc = traced_service(net, workers=0, max_queue=1)
        svc.submit(inputs[0])
        with pytest.raises(ServeOverloadError):
            svc.submit(inputs[1])
        svc.shutdown(drain=False)
        tracer = svc.tracer
        assert len(tracer.trace_ids()) == 2
        rejected = the_root(tracer, 1)
        assert rejected.attrs["status"] == "rejected"
        for trace_id in tracer.trace_ids():
            assert tracer.complete(trace_id)
        assert tracer.open_spans == 0

    def test_aborted_backlog_closes_its_spans(self, net, inputs):
        svc = traced_service(net, workers=0)
        futures = svc.submit_batch(inputs[:3])
        svc.shutdown(drain=False)
        for future in futures:
            assert future.exception(timeout=1) is not None
        tracer = svc.tracer
        for trace_id in tracer.trace_ids():
            assert tracer.complete(trace_id)
            assert the_root(tracer, trace_id).attrs["status"] == "failed"
        assert tracer.open_spans == 0

    def test_tracing_disabled_records_nothing(self, net, inputs):
        svc = InferenceService(net, workers=1)
        for future in svc.submit_batch(inputs[:2]):
            future.result(timeout=30)
        svc.shutdown()
        assert svc.tracer is None


class TestCrashPropagation:
    def test_trace_survives_worker_crash_and_requeue(self, net, inputs,
                                                     golden):
        svc = traced_service(net, workers=1, max_batch=4)
        crashed = []

        def fail_once(wid, batch):
            if not crashed:
                crashed.append([r.id for r in batch])
                raise RuntimeError("synthetic worker death")

        svc.pool.fail_hook = fail_once
        futures = svc.submit_batch(inputs[:6])
        outs = [f.result(timeout=30) for f in futures]
        svc.shutdown()
        assert crashed
        tracer = svc.tracer
        for trace_id in crashed[0]:
            assert tracer.complete(trace_id)
            root = the_root(tracer, trace_id)
            # the crashed attempt leaves a "crashed" batch span behind ...
            batches = root.find("serve.batch")
            assert [s.attrs.get("status") for s in batches].count("crashed") \
                == 1
            # ... a requeue marker on the root ...
            assert [e.name for e in root.events].count("serve.requeue") == 1
            # ... and a second enqueue for the second trip through the queue
            enqueues = root.find("serve.enqueue")
            assert len(enqueues) == 2
            assert enqueues[1].attrs.get("requeued") is True
            # the retried execution still completed
            assert root.attrs["status"] == "ok"
        # requests never near the crash are untouched by it
        for trace_id in tracer.trace_ids():
            assert tracer.complete(trace_id)
        for out, ref in zip(outs, golden):
            assert np.array_equal(out, ref)

    def test_retry_instants_attach_to_execute_span(self, net, inputs):
        injector = FaultPlan.parse("transfer_corrupt:p=0.5",
                                   seed=11).injector()
        svc = traced_service(net, workers=1, max_batch=4, faults=injector,
                             retry=RetryPolicy(max_attempts=16))
        for future in svc.submit_batch(inputs[:8]):
            future.result(timeout=60)
        svc.shutdown()
        assert injector.counts.get("transfer_corrupt", 0) > 0
        tracer = svc.tracer
        retries = 0
        for trace_id in tracer.trace_ids():
            assert tracer.complete(trace_id)
            for span in the_root(tracer, trace_id).find("serve.execute"):
                retries += sum(1 for e in span.events
                               if e.name == "serve.retry")
        assert retries == injector.counts["transfer_corrupt"]


class TestSLOAcceptance:
    def serve(self, net, inputs, faults):
        # virtual time: latencies are the injected stalls alone, so no
        # host hiccup can push the clean run over the 5 ms target
        svc = InferenceService(net, workers=2, max_batch=8, slo=5.0,
                               faults=faults, clock=ManualClock())
        for future in svc.submit_batch(inputs + inputs):  # 32 requests
            future.result(timeout=60)
        svc.shutdown()
        assert len(svc.stats.slos) == 1
        return svc.stats.slos[0]

    def test_dram_stall_burst_trips_burn_rate_clean_run_stays_zero(
            self, net, inputs):
        # identical request stream and seeds; only the fault plan differs
        injector = FaultPlan.parse("dram_stall:p=0.3,cycles=64",
                                   seed=3).injector()
        stalled = self.serve(net, inputs, injector)
        clean = self.serve(net, inputs, None)

        # each injected stall advances the clock 6.4 ms: over the 5 ms target
        assert injector.counts.get("dram_stall", 0) > 0
        assert stalled.violations > 0
        assert stalled.burn_rate() > 0.0
        assert stalled.alerts > 0
        assert "ALERT" in stalled.render()

        assert clean.violations == 0
        assert clean.burn_rate() == 0.0
        assert clean.alerts == 0
        assert not clean.breached()

    def test_monitor_sees_every_request(self, net, inputs):
        monitor = self.serve(net, inputs, None)
        assert monitor.observed == 32
        assert "burn-rate" in monitor.render()


class TestDisabledOverhead:
    def test_disabled_obs_overhead_under_one_percent(self, net, monkeypatch):
        """Regression bound: with the registry disabled, the obs calls an
        explore sweep makes must cost < 1% of the sweep's wall time."""
        from repro.core import explore

        obs.disable()

        # 1. how many obs calls one sweep issues (span enter counts as one)
        calls = {"n": 0}
        for name in ("add_counter", "set_gauge", "emit_event", "span"):
            real = getattr(obs, name)

            def counted(*args, _real=real, **kwargs):
                calls["n"] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(obs, name, counted)
        explore(net)
        monkeypatch.undo()
        assert calls["n"] > 0  # the sweep is actually instrumented

        # 2. the sweep's wall time without the counting shims
        sweep_s = min(self.timed(lambda: explore(net)) for _ in range(3))

        # 3. disabled per-call cost, generously taking the slower API
        def per_call(fn):
            def batch():
                for _ in range(2000):
                    fn("obs.overhead_probe", 1.0)
            return min(self.timed(batch) for _ in range(5)) / 2000

        cost = max(per_call(obs.add_counter), per_call(obs.emit_event))
        overhead = calls["n"] * cost
        assert overhead < 0.01 * sweep_s, (
            f"{calls['n']} obs calls x {cost * 1e9:.0f} ns = "
            f"{overhead * 1e3:.3f} ms vs sweep {sweep_s * 1e3:.1f} ms")

    @staticmethod
    def timed(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0
