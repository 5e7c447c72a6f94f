"""Virtual-time soak harness: overload + faults, at six-figure scale.

The soak drives the *real* serving control plane — the
:class:`~repro.serve.scheduler.BatchScheduler` (admission watermarks,
deadline batching, promotion guard), the
:class:`~repro.serve.autoscale.Autoscaler`, and the
:class:`~repro.faults.injector.FaultInjector` — through a discrete-event
loop on a :class:`~repro.serve.clock.ManualClock` instead of live worker
threads. Virtual time makes a 100 000-request soak run in seconds and,
more importantly, makes it **deterministic**: the same seed replays the
exact same arrival trace, fault decisions, shed sequence, and scaling
events, byte for byte, which is what the determinism gate and
``repro check --soak`` verify.

What stays real despite the simulated clock:

* scheduling — batches form, flush, shed, and promote through the
  production scheduler code path;
* correctness — every ``spot_check_every``-th completed request executes
  its compiled plan on a seeded input and compares bit-for-bit against
  an independent :class:`~repro.sim.network_exec.NetworkExecutor`
  reference (``wrong_answers`` must be zero, faults or not);
* fault pressure — injected ``dram_stall``/``transfer_corrupt``
  decisions come from the standard per-site CRC32 streams and are
  priced into batch service times, so overload and fault recovery
  compound the way they would live.

Service time is modeled per network from the paper's cost model:
:func:`~repro.core.costs.one_pass_ops` of each network's fused levels,
normalized so the zoo's mean batch-of-one service time is
``mean_service_ms``.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.costs import one_pass_ops
from ..errors import ConfigError, ServeOverloadError, ServeShedError
from ..faults.injector import FaultInjector
from ..nn.network import Network
from ..nn.stages import extract_levels
from ..sim.network_exec import NetworkExecutor
from ..sim.weights import make_input
from .autoscale import Autoscaler, AutoscalePolicy, ScaleEvent
from .clock import ManualClock
from .loadgen import Arrival, make_trace
from .plan import CompiledPlan, PlanCache
from .scheduler import (GUARANTEED, AdmissionPolicy, BatchScheduler,
                        ServeRequest)
from .stats import percentile

#: Virtual seconds of injected stall per stalled DRAM cycle (matches the
#: live worker's default pacing of 1e-4 s/cycle).
STALL_S_PER_CYCLE = 1e-4


def _digest(entries: Sequence[Tuple[Any, ...]]) -> str:
    """Order-sensitive digest of an event log (replay fingerprint)."""
    h = hashlib.sha256()
    for entry in entries:
        h.update(repr(entry).encode())
    return h.hexdigest()[:16]


@dataclass
class SoakReport:
    """Everything a soak run measured, JSON-ready via :meth:`to_dict`."""

    config: Dict[str, Any]
    counts: Dict[str, int]
    latency_ms: Dict[str, float]
    queue_wait_ms: Dict[str, float]
    shed_rate: float
    throughput_rps: float
    virtual_s: float
    scale_events: List[ScaleEvent]
    faults_injected: Dict[str, int]
    #: ``(request id, reason)`` per shed/reject, in arrival order.
    shed_log: List[Tuple[int, str]] = field(default_factory=list)
    spot_failures: List[int] = field(default_factory=list)

    @property
    def wrong_answers(self) -> int:
        return self.counts["wrong_answers"]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bench": "serve_soak",
            "config": self.config,
            "counts": self.counts,
            "latency_ms": self.latency_ms,
            "queue_wait_ms": self.queue_wait_ms,
            "shed_rate": self.shed_rate,
            "throughput_rps": self.throughput_rps,
            "virtual_s": self.virtual_s,
            "scale_events": [e.to_dict() for e in self.scale_events],
            "scale_ups": sum(1 for e in self.scale_events
                             if e.action == "up"),
            "scale_downs": sum(1 for e in self.scale_events
                               if e.action == "down"),
            "faults_injected": self.faults_injected,
            "shed_log_digest": _digest(self.shed_log),
            "scale_log_digest": _digest(
                tuple(sorted(e.to_dict().items())) for e in self.scale_events),
        }

    def save(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        c = self.counts
        lines = [
            "soak report",
            f"  requests : {c['submitted']} submitted, {c['completed']} "
            f"completed, {c['shed']} shed, {c['rejected']} rejected hard",
            f"  wrong answers: {c['wrong_answers']} "
            f"(of {c['spot_checks']} spot checks)",
            f"  guaranteed shed: {c['guaranteed_shed']}",
            f"  shed rate: {self.shed_rate:.4f}",
            "  latency  : p50 {p50:.2f} ms  p99 {p99:.2f} ms  "
            "p99.9 {p999:.2f} ms".format(**self.latency_ms),
            f"  scaling  : {sum(1 for e in self.scale_events if e.action == 'up')}"
            f" ups, {sum(1 for e in self.scale_events if e.action == 'down')}"
            f" downs (final {self.config['final_workers']} workers)",
            f"  faults   : " + (", ".join(
                f"{k}={v}" for k, v in sorted(self.faults_injected.items()))
                or "none"),
            f"  virtual  : {self.virtual_s:.2f} s simulated, "
            f"{self.throughput_rps:.0f} requests/s served",
        ]
        return "\n".join(lines)


def _service_model(networks: Sequence[Network],
                   mean_service_ms: float) -> List[float]:
    """Per-item service seconds per network, proportional to the cost
    model's one-pass arithmetic, normalized to ``mean_service_ms``."""
    ops = [max(1, one_pass_ops(extract_levels(net.feature_extractor())))
           for net in networks]
    mean_ops = sum(ops) / len(ops)
    return [mean_service_ms / 1e3 * (o / mean_ops) for o in ops]


def run_soak(networks: Sequence[Network], requests: int = 100_000, *,
             trace: str = "burst", rate_rps: float = 2000.0,
             seed: int = 0, guaranteed_fraction: float = 0.1,
             faults: Optional[FaultInjector] = None,
             max_batch: int = 8, max_queue: int = 256,
             shed_depth_fraction: float = 0.75,
             deadline_ms: float = 25.0,
             autoscale: Optional[AutoscalePolicy] = None,
             mean_service_ms: float = 1.0, batch_setup_ms: float = 0.2,
             spot_check_every: int = 1000, tick_s: float = 0.02,
             cache: Optional[PlanCache] = None,
             trace_kwargs: Optional[Dict[str, Any]] = None,
             devices: Optional[Sequence[Any]] = None,
             link: Optional[Any] = None,
             weight_items: Optional[int] = None,
             partition_sizes: Optional[Sequence[int]] = None) -> SoakReport:
    """Run one deterministic virtual-time soak; returns its report.

    ``networks`` is the serving zoo (arrivals round-robin over it by the
    trace's seeded choice); ``spot_check_every`` executes every Nth
    request for real and bit-compares against an independent reference
    (0 disables). All randomness flows from ``seed``. With ``devices``
    every plan is sharded across that simulated fleet (the
    ``"pipeline"`` family, :mod:`repro.dist`); spot checks then pin the
    sharded execution against the same single-executor reference.
    """
    if not networks:
        raise ConfigError("soak needs at least one network")
    if requests < 1:
        raise ConfigError("soak needs at least one request",
                          requests=requests)
    if mean_service_ms <= 0 or batch_setup_ms < 0:
        raise ConfigError("service model times must be positive",
                          mean_service_ms=mean_service_ms,
                          batch_setup_ms=batch_setup_ms)
    if spot_check_every < 0:
        raise ConfigError("spot_check_every must be >= 0",
                          spot_check_every=spot_check_every)
    if tick_s <= 0:
        raise ConfigError("tick_s must be positive", tick_s=tick_s)

    networks = list(networks)
    injector = faults if faults is not None else FaultInjector()
    policy = autoscale if autoscale is not None else AutoscalePolicy()
    cache = cache if cache is not None else PlanCache()
    plans: List[CompiledPlan] = [
        cache.get_or_compile(net, devices=devices, link=link,
                             weight_items=weight_items,
                             partition_sizes=partition_sizes)
        for net in networks]
    references = [NetworkExecutor(net, seed=plan.seed,
                                  integer=plan.key.precision == "int")
                  for net, plan in zip(networks, plans)]
    key_to_index = {plan.key: i for i, plan in enumerate(plans)}
    per_item_s = _service_model(networks, mean_service_ms)

    clock = ManualClock()
    scheduler = BatchScheduler(
        max_batch=max_batch, max_queue=max_queue,
        admission=AdmissionPolicy(max_queue=max_queue,
                                  shed_depth_fraction=shed_depth_fraction),
        default_deadline_ms=deadline_ms, clock=clock)
    scaler = Autoscaler(policy)

    arrivals: List[Arrival] = make_trace(
        trace, requests, rate_rps, seed=seed,
        guaranteed_fraction=guaranteed_fraction, networks=len(networks),
        **(trace_kwargs or {}))

    counts = {"submitted": 0, "completed": 0, "shed": 0, "rejected": 0,
              "guaranteed_shed": 0, "spot_checks": 0, "wrong_answers": 0,
              "batches": 0, "deadline_flushes": 0, "fault_stall_batches": 0,
              "fault_repairs": 0}
    latencies: List[float] = []
    waits: List[float] = []
    shed_log: List[Tuple[int, str]] = []
    spot_failures: List[int] = []
    spot_inputs: Dict[int, np.ndarray] = {}
    placeholder = np.empty(0)

    # -- discrete-event loop ---------------------------------------------------
    # busy: finish times of in-flight batches (len(busy) = busy workers)
    busy: List[Tuple[float, int]] = []
    done_payload: Dict[int, Tuple[List[ServeRequest], float]] = {}
    seq = 0
    next_arrival = 0
    next_tick = 0.0

    def _price_batch(batch: List[ServeRequest]) -> float:
        """Virtual service seconds for one batch, faults included."""
        index = key_to_index[batch[0].key]
        service = batch_setup_ms / 1e3 + per_item_s[index] * len(batch)
        for request in batch:
            site = f"serve[{request.id}]"
            stall = injector.transfer_stalls(site)
            if stall:
                service += stall * STALL_S_PER_CYCLE
                counts["fault_stall_batches"] += 1
            if injector.corrupts(site):
                # repaired by re-fetch: one extra item's worth of work
                service += per_item_s[index]
                counts["fault_repairs"] += 1
                injector.record_refetch(site)
        return service

    def _dispatch() -> None:
        nonlocal seq
        while len(busy) < scaler.workers:
            batch = scheduler.poll()
            if batch is None:
                break
            counts["batches"] += 1
            now = clock.now()
            finish = now + _price_batch(batch)
            seq += 1
            heapq.heappush(busy, (finish, seq))
            done_payload[seq] = (batch, now)

    def _complete(batch: List[ServeRequest], started_s: float) -> None:
        now = clock.now()
        scheduler.note_service(len(batch), now - started_s)
        for request in batch:
            latencies.append(now - request.enqueued_s)
            waits.append(started_s - request.enqueued_s)
            counts["completed"] += 1
            if request.id in spot_inputs:
                x = spot_inputs.pop(request.id)
                index = key_to_index[request.key]
                counts["spot_checks"] += 1
                got = plans[index].execute([x])[0]
                want = references[index].run(x)
                if not np.array_equal(got, want):
                    counts["wrong_answers"] += 1
                    spot_failures.append(request.id)

    while (next_arrival < len(arrivals) or busy or scheduler.depth > 0):
        candidates = [next_tick]
        if next_arrival < len(arrivals):
            candidates.append(arrivals[next_arrival].t)
        if busy:
            candidates.append(busy[0][0])
        if len(busy) < scaler.workers:
            # a flush deadline only matters while a worker is free to
            # take the batch; with the pool saturated the next real
            # event is a completion or a tick
            flush_at = scheduler.next_flush_at()
            if flush_at is not None:
                candidates.append(flush_at)
        clock.advance_to(max(min(candidates), clock.now()))
        now = clock.now()

        while busy and busy[0][0] <= now:
            _, done_seq = heapq.heappop(busy)
            batch, started_s = done_payload.pop(done_seq)
            _complete(batch, started_s)

        while (next_arrival < len(arrivals)
               and arrivals[next_arrival].t <= now):
            arrival = arrivals[next_arrival]
            next_arrival += 1
            rid = counts["submitted"]
            counts["submitted"] += 1
            spot = (spot_check_every > 0 and rid % spot_check_every == 0)
            x = (make_input(networks[arrival.network].input_shape,
                            seed=seed + rid, integer=True)
                 if spot else placeholder)
            request = ServeRequest(id=rid, key=plans[arrival.network].key,
                                   x=x, klass=arrival.klass)
            try:
                scheduler.submit(request)
            except ServeShedError as exc:
                counts["shed"] += 1
                shed_log.append((rid, exc.context.get("watermark", "shed")))
                if arrival.klass == GUARANTEED:
                    counts["guaranteed_shed"] += 1
            except ServeOverloadError:
                counts["rejected"] += 1
                shed_log.append((rid, "full"))
            else:
                if spot:
                    spot_inputs[rid] = x

        if now >= next_tick:
            scaler.observe(scheduler.depth, now)
            next_tick = now + tick_s

        _dispatch()

    counts["deadline_flushes"] = scheduler.deadline_flushes
    virtual_s = clock.now()
    lat_ms = [s * 1e3 for s in latencies]
    wait_ms = [s * 1e3 for s in waits]

    def _quantiles(values: List[float]) -> Dict[str, float]:
        return {"p50": percentile(values, 50), "p99": percentile(values, 99),
                "p999": percentile(values, 99.9),
                "max": max(values) if values else 0.0,
                "mean": (sum(values) / len(values)) if values else 0.0}

    config = {
        "networks": [net.name for net in networks],
        "requests": requests, "trace": trace, "rate_rps": rate_rps,
        "seed": seed, "guaranteed_fraction": guaranteed_fraction,
        "faults": str(injector.plan) if injector.enabled else "",
        "max_batch": max_batch, "max_queue": max_queue,
        "shed_depth_fraction": shed_depth_fraction,
        "deadline_ms": deadline_ms,
        "min_workers": policy.min_workers,
        "max_workers": policy.max_workers,
        "final_workers": scaler.workers,
        "mean_service_ms": mean_service_ms,
        "spot_check_every": spot_check_every,
        "devices": [d.name for d in devices] if devices else [],
    }
    return SoakReport(
        config=config, counts=counts,
        latency_ms=_quantiles(lat_ms), queue_wait_ms=_quantiles(wait_ms),
        shed_rate=(counts["shed"] + counts["rejected"])
        / max(1, counts["submitted"]),
        throughput_rps=counts["completed"] / virtual_s if virtual_s else 0.0,
        virtual_s=virtual_s, scale_events=list(scaler.events),
        faults_injected=dict(injector.counts),
        shed_log=shed_log, spot_failures=spot_failures)
