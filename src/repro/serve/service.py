"""The serving front end: submit inputs, get futures, drain gracefully.

:class:`InferenceService` ties the subsystem together — plan cache,
batching scheduler, worker pool, stats — behind a small synchronous +
futures API::

    from repro.serve import InferenceService
    from repro.nn.zoo import toynet

    with InferenceService(toynet(), workers=4, max_batch=8) as svc:
        y = svc.infer(x)                      # synchronous
        futures = svc.submit_batch(xs)        # pipelined
        outs = [f.result() for f in futures]

Every served output is bit-identical to a direct
``NetworkExecutor(network).run(x)`` — including under an injected
``transfer_corrupt`` fault plan, whose repairs happen inside the worker
retry loop. Shutdown is graceful by default (drain the queue, join the
workers) or immediate (``drain=False`` fails queued requests with a
diagnosed error).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..core.fusion import Strategy
from ..errors import ConfigError, ServeShedError, SimFaultError
from ..faults.budget import ExplorationBudget
from ..faults.injector import FaultInjector
from ..faults.retry import RetryPolicy
from ..nn.network import Network
from ..nn.shapes import ShapeError
from ..obs.slo import SLOTarget
from ..obs.tracing import Tracer
from .autoscale import AutoscalePolicy
from .clock import Clock
from .plan import CompiledPlan, PlanCache, PlanKey
from .sanitizer import make_lock
from .scheduler import SHEDDABLE, AdmissionPolicy, BatchScheduler, ServeRequest
from .stats import ServeStats
from .worker import STALL_S_PER_CYCLE, WorkerPool


def _slo_targets(slo: Any) -> List[SLOTarget]:
    """Normalize the service's ``slo`` argument to a list of targets.

    Accepts ``None``, a latency budget in milliseconds (``float``/``int``
    shorthand for a p99 target), one :class:`SLOTarget`, or a sequence
    mixing the two.
    """
    if slo is None:
        return []
    if isinstance(slo, SLOTarget):
        return [slo]
    if isinstance(slo, (int, float)) and not isinstance(slo, bool):
        return [SLOTarget(latency_ms=float(slo))]
    if isinstance(slo, (list, tuple)):
        out: List[SLOTarget] = []
        for item in slo:
            out.extend(_slo_targets(item))
        return out
    raise ConfigError("slo must be a latency in ms, an SLOTarget, or a "
                      "sequence of either", slo=repr(slo))


class InferenceService:
    """Batched inference over one or more compiled plans.

    Parameters mirror the subsystem's layers: plan knobs (``strategy``,
    ``tip``, ``storage_budget_bytes``, ``precision``, ``seed``,
    ``explore_budget``) feed the plan cache; batching knobs
    (``max_batch``, ``max_wait_ms``, ``max_queue``) feed the scheduler;
    ``workers``/``mode``/``retry``/``faults`` feed the pool. ``workers=0``
    is legal — requests queue but never execute until shutdown aborts
    them (useful for tests and for staging queues).

    Observability knobs: ``trace=True`` mints a trace per request (the
    request id doubles as the trace id) and records a span tree —
    ``serve.request`` → ``serve.enqueue`` → ``serve.batch`` →
    ``serve.execute``, with retry/requeue/stall instants — on
    ``service.tracer``, independent of the global :mod:`repro.obs`
    profiling switch. ``slo`` attaches latency SLO monitors to the
    stats (a bare number is shorthand for a p99 latency budget in
    milliseconds); ``stall_s_per_cycle`` scales how injected
    ``dram_stall`` cycles slow served requests down.

    ``devices`` shards every registered network across that fleet of
    simulated accelerators (see :mod:`repro.dist`): plans compile to
    the ``"pipeline"`` family, execute bit-identically to direct runs,
    and report per-device stage timing into the tracer. ``link`` and
    ``weight_items`` tune the inter-device link model and micro-batch
    weight amortization; both default to the :mod:`repro.dist`
    defaults.
    """

    def __init__(self, network: Optional[Network] = None, *,
                 networks: Sequence[Network] = (),
                 workers: int = 2, mode: str = "thread",
                 max_batch: int = 8, max_wait_ms: float = 2.0,
                 max_queue: int = 1024,
                 strategy: Strategy = Strategy.REUSE, tip: int = 1,
                 storage_budget_bytes: Optional[int] = None,
                 precision: str = "int", seed: int = 0,
                 explore_budget: Optional[ExplorationBudget] = None,
                 retry: Optional[RetryPolicy] = None,
                 faults: Optional[FaultInjector] = None,
                 cache: Optional[PlanCache] = None,
                 trace: bool = False,
                 slo: Any = None,
                 admission: Optional[AdmissionPolicy] = None,
                 deadline_ms: Optional[float] = None,
                 autoscale: Optional[AutoscalePolicy] = None,
                 clock: Optional[Clock] = None,
                 stall_s_per_cycle: float = STALL_S_PER_CYCLE,
                 devices: Optional[Sequence[Any]] = None,
                 link: Optional[Any] = None,
                 weight_items: Optional[int] = None,
                 partition_sizes: Optional[Sequence[int]] = None,
                 tuned: Optional[Any] = None):
        self.cache = cache if cache is not None else PlanCache()
        self.stats = ServeStats()
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        targets = _slo_targets(slo)
        for target in targets:
            self.stats.add_slo(target)
        if deadline_ms is None and targets:
            # SLO-derived default: finishing by the tightest latency
            # target is the natural per-request deadline budget.
            deadline_ms = min(t.latency_ms for t in targets)
        self.scheduler = BatchScheduler(max_batch=max_batch,
                                        max_wait_ms=max_wait_ms,
                                        max_queue=max_queue,
                                        admission=admission,
                                        default_deadline_ms=deadline_ms,
                                        clock=clock)
        self.pool = WorkerPool(self.scheduler, self._resolve_plan,
                               workers=workers, mode=mode, retry=retry,
                               faults=faults, stats=self.stats,
                               autoscale=autoscale, clock=clock,
                               stall_s_per_cycle=stall_s_per_cycle)
        self._plan_defaults = dict(strategy=strategy, tip=tip,
                                   storage_budget_bytes=storage_budget_bytes,
                                   precision=precision, seed=seed,
                                   budget=explore_budget,
                                   devices=(tuple(devices) if devices
                                            else devices),
                                   link=link, weight_items=weight_items,
                                   partition_sizes=partition_sizes,
                                   tuned=tuned)
        self._plans: Dict[PlanKey, CompiledPlan] = {}
        self._default_key: Optional[PlanKey] = None
        self._next_id = 0
        # guards _plans, _default_key, _next_id, and _shut_down
        self._lock = make_lock("serve.service.state")
        self._shut_down = False
        for net in ([network] if network is not None else []) + list(networks):
            self.register(net)

    # -- plan management -------------------------------------------------------

    def register(self, network: Network, **overrides: Any) -> PlanKey:
        """Compile (or fetch from cache) a plan for ``network``."""
        options = {**self._plan_defaults, **overrides}
        plan = self.cache.get_or_compile(network, **options)
        with self._lock:
            self._plans[plan.key] = plan
            if self._default_key is None:
                self._default_key = plan.key
        return plan.key

    def plan(self, key: Optional[PlanKey] = None) -> CompiledPlan:
        key = key if key is not None else self._default_key
        if key is None:
            raise ConfigError("no network registered with this service")
        return self._resolve_plan(key)

    def _resolve_plan(self, key: PlanKey) -> CompiledPlan:
        plan = self._plans.get(key)
        if plan is None:
            raise ConfigError("no plan registered under this key",
                              key=str(key))
        return plan

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "InferenceService":
        self.pool.start()
        return self

    def __enter__(self) -> "InferenceService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown(drain=exc_type is None)
        return False

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait (without shutting down) until no request is pending."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        while self.stats.pending > 0:
            if self.pool.workers == 0:
                return False
            if deadline is not None and time.perf_counter() > deadline:
                return False
            time.sleep(0.0005)
        return True

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Stop the service. ``drain=True`` serves everything already
        queued first; ``drain=False`` (or a zero-worker pool, which could
        never drain) fails queued requests with a diagnosed error."""
        with self._lock:
            if self._shut_down:
                return
            self._shut_down = True
        if self.pool.workers == 0:
            drain = False
        aborted = self.scheduler.close(drain=drain)
        for request in aborted:
            if request.tracer is not None:
                # close the open queue stint before the root span's
                # done-callback fires (tracer.end is idempotent, so a
                # request that never reached a worker is still complete)
                request.tracer.end(request.enqueue_span, status="aborted")
                request.tracer.end(request.batch_span, status="aborted")
            if not request.future.done():
                request.future.set_exception(SimFaultError(
                    "request aborted at shutdown", request=request.id))
        if aborted:
            self.stats.record_aborts(len(aborted))
        self.pool.join(timeout=timeout)

    # -- request API -----------------------------------------------------------

    def submit(self, x: np.ndarray, key: Optional[PlanKey] = None, *,
               klass: str = SHEDDABLE,
               deadline_ms: Optional[float] = None) -> Future:
        """Enqueue one input.

        Overload surfaces as structured backpressure rather than silence:
        a watermark shed raises :class:`~repro.errors.ServeShedError`
        (sheddable class only, with a ``retry_after_s`` drain estimate)
        and a hard-full queue raises
        :class:`~repro.errors.ServeOverloadError`. ``klass`` selects the
        request class (``"guaranteed"`` requests are admitted up to the
        hard queue cap); ``deadline_ms`` overrides the service's default
        per-request latency budget for deadline-aware batching. An input
        that is not one ``(C, H, W)`` volume of the plan's network raises
        :class:`~repro.nn.shapes.ShapeError` before it is enqueued: every
        batch it joined would fail, and the pool would requeue it forever.
        """
        self.start()
        plan_key = key if key is not None else self._default_key
        if plan_key is None:
            raise ConfigError("no network registered with this service")
        x = np.asarray(x)
        expected = self._resolve_plan(plan_key).network.input_shape
        if x.shape != (expected.channels, expected.height, expected.width):
            raise ShapeError(f"input {x.shape} != network input {expected}")
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
        request = ServeRequest(id=request_id, key=plan_key, x=x,
                               klass=klass, deadline_ms=deadline_ms)
        if self.tracer is not None:
            self._begin_trace(request)
        self.stats.record_submit()
        try:
            self.scheduler.submit(request)
        except Exception as exc:
            if isinstance(exc, ServeShedError):
                self.stats.record_shed()
            else:
                self.stats.record_rejection()
            if request.tracer is not None:
                request.tracer.end(request.enqueue_span, status="rejected")
                request.tracer.end(request.root_span, status="rejected")
            raise
        return request.future

    def _begin_trace(self, request: ServeRequest) -> None:
        """Mint the request's trace: the request id is the trace id, the
        root span brackets submit → future-done, and the first enqueue
        span opens now (workers close it when the batch picks up)."""
        tracer = self.tracer
        assert tracer is not None
        request.tracer = tracer
        request.trace_id = request.id
        request.root_span = tracer.begin("serve.request", request.id,
                                         request=request.id)
        request.enqueue_span = tracer.begin("serve.enqueue", request.id,
                                            parent_id=request.root_span)
        root_span = request.root_span

        def _close_root(future: Future) -> None:
            status = "ok"
            if future.cancelled() or future.exception() is not None:
                status = "failed"
            tracer.end(root_span, status=status)

        request.future.add_done_callback(_close_root)

    def submit_batch(self, xs: Sequence[np.ndarray],
                     key: Optional[PlanKey] = None) -> List[Future]:
        return [self.submit(x, key=key) for x in xs]

    def infer(self, x: np.ndarray, key: Optional[PlanKey] = None,
              timeout: Optional[float] = None) -> np.ndarray:
        """Synchronous single-input inference."""
        return self.submit(x, key=key).result(timeout=timeout)

    def result(self, future: Future,
               timeout: Optional[float] = None) -> np.ndarray:
        return future.result(timeout=timeout)

    # -- reporting -------------------------------------------------------------

    def report(self) -> str:
        lines = [self.stats.render(), "plan cache"]
        stats = self.cache.stats_dict()
        lines.append(
            f"  plans    : {stats['plans']} resident "
            f"({stats['bytes'] / 2**10:.0f} KB), {stats['hits']} hits, "
            f"{stats['misses']} misses, {stats['evictions']} evictions")
        for plan in self._plans.values():
            lines.append(f"  - {plan.describe()}")
        if self.pool.respawns:
            lines.append(f"  workers  : {self.pool.respawns} respawned")
        if self.pool.scale_events:
            lines.append(
                f"  autoscale: {len(self.pool.scale_events)} events, "
                f"{self.pool.workers} workers now")
        if self.tracer is not None:
            spans = self.tracer.spans()
            traces = {span.trace_id for span in spans}
            open_traces = {span.trace_id for span in spans
                           if not span.complete}
            lines.append(
                f"  tracing  : {len(traces)} traces recorded, "
                f"{len(traces - open_traces)} complete, "
                f"{self.tracer.open_spans} spans still open")
        return "\n".join(lines)
