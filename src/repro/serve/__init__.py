"""``repro.serve``: batched inference serving over compiled fusion plans.

The paper's tool splits into an offline search and an online fused
evaluation; this subsystem productizes that split. Compilation
(:func:`compile_plan`) runs the exploration sweep once and freezes the
winning fusion partition into a :class:`CompiledPlan`; a
:class:`PlanCache` memoizes and persists those plans; an
:class:`InferenceService` then serves requests through a micro-batching
:class:`BatchScheduler` and a :class:`WorkerPool`, with admission
control, fault-tolerant retries, and rolling :class:`ServeStats` —
plus opt-in per-request tracing (``trace=True``) and latency SLO
monitoring (``slo=...``) built on :mod:`repro.obs`.

Overload resilience rides on the same pieces: watermark
:class:`AdmissionPolicy` sheds :data:`SHEDDABLE` traffic early
(:class:`~repro.errors.ServeShedError` carries a ``retry_after_s``
hint) while :data:`GUARANTEED` traffic is admitted to the hard cap;
deadline-aware batching flushes on per-request latency budgets; an
:class:`AutoscalePolicy` grows and shrinks the pool under a seeded
:class:`Clock`; :func:`run_soak` drives it all through a deterministic
virtual-time soak under open-loop :mod:`~repro.serve.loadgen` traces.

Quick start::

    from repro.nn.zoo import toynet
    from repro.serve import InferenceService

    with InferenceService(toynet(), workers=4, max_batch=8) as svc:
        out = svc.infer(x)
"""

from ..errors import ServeOverloadError, ServeShedError
from .plan import (
    CompiledPlan,
    PlanCache,
    PlanKey,
    compile_plan,
    make_plan_key,
)
from .sanitizer import (
    LockSanitizer,
    SanitizedCondition,
    SanitizedLock,
    Violation,
    get_sanitizer,
    make_condition,
    make_lock,
    sanitize_enabled,
)
from ..obs.slo import SLOMonitor, SLOTarget
from ..obs.tracing import Tracer
from .autoscale import Autoscaler, AutoscalePolicy, ScaleEvent
from .clock import Clock, ManualClock, SystemClock
from .loadgen import (
    TRACE_KINDS,
    Arrival,
    burst_trace,
    diurnal_trace,
    make_trace,
    poisson_trace,
)
from .scheduler import (
    GUARANTEED,
    REQUEST_CLASSES,
    SHEDDABLE,
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
    BatchScheduler,
    ServeRequest,
)
from .service import InferenceService
from .soak import SoakReport, run_soak
from .stats import LATENCY_WINDOW, ServeStats, percentile
from .worker import STALL_S_PER_CYCLE, WorkerPool

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "Arrival",
    "Autoscaler",
    "AutoscalePolicy",
    "BatchScheduler",
    "Clock",
    "CompiledPlan",
    "GUARANTEED",
    "InferenceService",
    "LATENCY_WINDOW",
    "LockSanitizer",
    "ManualClock",
    "PlanCache",
    "PlanKey",
    "REQUEST_CLASSES",
    "STALL_S_PER_CYCLE",
    "SHEDDABLE",
    "SLOMonitor",
    "SLOTarget",
    "SanitizedCondition",
    "SanitizedLock",
    "ScaleEvent",
    "ServeOverloadError",
    "ServeRequest",
    "ServeShedError",
    "ServeStats",
    "SoakReport",
    "SystemClock",
    "TRACE_KINDS",
    "Tracer",
    "Violation",
    "WorkerPool",
    "burst_trace",
    "compile_plan",
    "diurnal_trace",
    "get_sanitizer",
    "make_condition",
    "make_lock",
    "make_plan_key",
    "make_trace",
    "percentile",
    "poisson_trace",
    "run_soak",
    "sanitize_enabled",
]
