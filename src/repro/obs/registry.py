"""Zero-dependency instrumentation core: spans, counters, gauges.

A :class:`Registry` accumulates three kinds of signal:

* **spans** — hierarchical timed regions (wall time and the calling
  thread's CPU time) opened with :meth:`Registry.span`, nesting tracked
  by one stack per thread, each span tagged with its thread. They are
  recorded by the registry's :class:`~repro.obs.tracing.Tracer` as
  BEGIN/END rows in its bounded event store; :attr:`Registry.spans`
  rebuilds them on read;
* **counters** — monotonically increasing numeric totals
  (:meth:`Registry.add`), e.g. partitions scored or DRAM bytes moved;
* **gauges** — last-write-wins numeric values (:meth:`Registry.gauge`).

Counter and gauge updates hold a lock, so concurrent threads lose none.
It also keeps the discrete-event pipeline schedules it is handed, so
exporters can render one timeline track per fused stage (see
:mod:`repro.obs.chrome_trace`).

The module-level API (:func:`span`, :func:`add_counter`, :func:`set_gauge`,
:func:`record_pipeline`) routes to a process-global registry and is a
**no-op while disabled** — a single flag check and a shared do-nothing
context manager — so instrumented hot paths cost nothing in ordinary
test runs. Enable explicitly with :func:`enable` / :func:`capture`.

Only the standard library is used; importing this module never pulls in
NumPy or any other subsystem of the reproduction.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .tracing import ActiveSpan, Span, Tracer


def pipeline_summary(name: str, schedule) -> Dict[str, Any]:
    """Metrics form of one recorded pipeline schedule, read duck-typed
    (as :func:`repro.obs.mirror_traffic` reads a trace) so the
    observability layer never imports ``hw``."""
    utilization = schedule.utilization
    return {
        "name": name,
        "num_items": schedule.num_items,
        "makespan": schedule.makespan,
        "stages": [
            {
                "name": stage.name,
                "cycles_per_item": stage.cycles,
                "busy_cycles": schedule.busy_cycles(i),
                "idle_cycles": schedule.idle_cycles(i),
                "utilization": utilization[i],
            }
            for i, stage in enumerate(schedule.stages)
        ],
    }


class _NoopSpan:
    """Shared do-nothing span returned while instrumentation is off."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Registry:
    """Accumulates spans, counters, gauges, and pipeline schedules.

    A registry's methods always record — the global on/off switch lives
    in the module-level convenience functions, so standalone registries
    (benchmark harnesses, tests) work without flipping global state.
    """

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        #: records every span; its bounded store also holds the
        #: timestamped events of :meth:`emit`
        self.tracer = Tracer(epoch=self.epoch)
        self.events = self.tracer.store
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        #: ``(name, schedule)`` per recorded pipeline run
        self.pipelines: List[Tuple[str, Any]] = []
        self._lock = threading.Lock()
        self.__dict__.pop("_timeline", None)  # reset() re-runs __init__

    @property
    def timeline(self):
        """A :class:`~repro.obs.timeline.Timeline` view over the store
        (built lazily so importing the registry stays dependency-free)."""
        view = self.__dict__.get("_timeline")
        if view is None:
            from .timeline import Timeline

            view = self.__dict__["_timeline"] = Timeline(
                bucket_s=0.1, store=self.events, epoch=self.epoch)
        return view

    # -- recording -------------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> ActiveSpan:
        """Open a timed region; close it by exiting the context manager.

        Its parent is the innermost span still open on the calling
        thread (:meth:`repro.obs.tracing.Tracer.span`)."""
        return self.tracer.span(name, **attrs)

    def add(self, name: str, value: float = 1) -> None:
        """Increment a monotonic counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set a last-write-wins gauge."""
        with self._lock:
            self.gauges[name] = value

    def emit(self, name: str, value: float = 1.0,
             attrs: Optional[Dict[str, Any]] = None) -> None:
        """Record one timestamped event into the columnar store.

        Unlike :meth:`add`, events keep *when*: windowed rates and
        bucketed series are derivable afterwards via :attr:`timeline`.
        """
        self.events.append(name, time.perf_counter() - self.epoch,
                           value=value, attrs=attrs)

    def record_pipeline(self, schedule, name: Optional[str] = None) -> str:
        """Keep a pipeline schedule for the exporters; returns the name
        it is kept under (``pipeline<N>`` when unnamed)."""
        with self._lock:
            name = name or f"pipeline{len(self.pipelines)}"
            self.pipelines.append((name, schedule))
        return name

    # -- introspection ---------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """Every retained span in begin order, rebuilt from the tracer's
        rows on each read."""
        return self.tracer.spans()

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def reset(self) -> None:
        self.__init__()

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable snapshot of everything recorded."""
        return {
            "spans": [
                {
                    "id": s.span_id,
                    "parent_id": s.parent_id,
                    "name": s.name,
                    "depth": s.depth,
                    "start_s": s.start_s,
                    "wall_s": s.wall_s,
                    "cpu_s": s.cpu_s,
                    "attrs": dict(s.attrs),
                }
                for s in self.spans
            ],
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "pipelines": [pipeline_summary(name, schedule)
                          for name, schedule in self.pipelines],
            "events": self.events.summary(),
        }


# -- process-global switchboard ------------------------------------------------

_REGISTRY = Registry()
_ENABLED = False


def get_registry() -> Registry:
    """The process-global registry (recording only while enabled)."""
    return _REGISTRY


def enabled() -> bool:
    return _ENABLED


def enable(fresh: bool = True) -> Registry:
    """Turn the global instrumentation on (optionally on a new registry)."""
    global _REGISTRY, _ENABLED
    if fresh:
        _REGISTRY = Registry()
    _ENABLED = True
    return _REGISTRY


def disable() -> None:
    global _ENABLED
    _ENABLED = False


@contextmanager
def capture(fresh: bool = True) -> Iterator[Registry]:
    """Enable instrumentation for a block; restore the prior state after.

    The yielded registry stays readable after the block exits, so callers
    can render reports from it once the instrumented work is done.
    """
    global _REGISTRY, _ENABLED
    prior_registry, prior_enabled = _REGISTRY, _ENABLED
    registry = enable(fresh=fresh)
    try:
        yield registry
    finally:
        _REGISTRY, _ENABLED = prior_registry, prior_enabled


def span(name: str, **attrs: Any):
    """Open a span on the global registry; free when disabled."""
    if not _ENABLED:
        return NOOP_SPAN
    return _REGISTRY.tracer.span(name, **attrs)


def add_counter(name: str, value: float = 1) -> None:
    if _ENABLED:
        _REGISTRY.add(name, value)


def set_gauge(name: str, value: float) -> None:
    if _ENABLED:
        _REGISTRY.gauge(name, value)


def emit_event(name: str, value: float = 1.0,
               attrs: Optional[Dict[str, Any]] = None) -> None:
    """Record a timestamped event on the global registry; free when
    disabled (a single flag check, like :func:`add_counter`)."""
    if _ENABLED:
        _REGISTRY.emit(name, value, attrs=attrs)


def record_pipeline(schedule, name: Optional[str] = None) -> Optional[str]:
    """Keep a pipeline schedule on the global registry; free if disabled."""
    if not _ENABLED:
        return None
    return _REGISTRY.record_pipeline(schedule, name=name)
