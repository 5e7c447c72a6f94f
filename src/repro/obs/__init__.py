"""repro.obs — spans, counters, events, timelines, traces, and SLOs.

One span model underlies it all. A :class:`~repro.obs.tracing.Tracer`
records every span — a profiling region opened with :func:`span`, or a
hop of a served request's trace — as BEGIN/END rows in a bounded
columnar event store (:mod:`repro.obs.events`, default cap
:data:`~repro.obs.events.MAX_ROWS`); :class:`~repro.obs.tracing.Span`
records are rebuilt from the rows on read, consistently after eviction.
Exporters: a human run report (:mod:`repro.obs.report`), a metrics
snapshot (:meth:`Registry.to_dict`), span JSONL (``Tracer.to_jsonl``),
and one Chrome Trace Event exporter (:mod:`repro.obs.chrome_trace`).
Around it: counters, gauges and pipeline schedules
(:mod:`repro.obs.registry`), timeline metrics and bounded-memory
quantiles (:mod:`repro.obs.timeline`), SLO burn-rate monitors
(:mod:`repro.obs.slo`), and Prometheus exposition
(:mod:`repro.obs.prometheus`).

Instrumentation is **off by default**: :func:`span` returns a shared
no-op context manager and :func:`add_counter` / :func:`emit_event` are
a flag check, so the instrumented hot paths run at full speed in
ordinary test runs. Turn it on around a region with :func:`capture`::

    from repro import obs

    with obs.capture() as registry:
        result = explore(vggnet_e(), num_convs=5)
    print(obs.render_report(registry))

or globally with ``python -m repro <command> --profile``. Request
tracing and SLO monitoring in :mod:`repro.serve` are *opt-in per
service* (``InferenceService(trace=True, slo=...)``) and independent of
the global profiling switch.
"""

from .benchdiff import BenchDiff, MetricDelta, diff_benchmarks, render_diff
from .chrome_trace import chrome_trace, write_chrome_trace
from .events import BEGIN, END, INSTANT, POINT, Column, Event, EventStore
from .prometheus import prometheus_text, write_prometheus
from .registry import (
    NOOP_SPAN,
    Registry,
    add_counter,
    capture,
    disable,
    emit_event,
    enable,
    enabled,
    get_registry,
    record_pipeline,
    set_gauge,
    span,
)
from .report import render_report
from .slo import SLOMonitor, SLOTarget, render_slos
from .timeline import RollingQuantile, Timeline
from .tracing import Span, Tracer
from .traffic import mirror_traffic, traffic_mark

__all__ = [
    "BEGIN",
    "BenchDiff",
    "Column",
    "END",
    "Event",
    "EventStore",
    "INSTANT",
    "MetricDelta",
    "NOOP_SPAN",
    "POINT",
    "Registry",
    "RollingQuantile",
    "SLOMonitor",
    "SLOTarget",
    "Span",
    "Timeline",
    "Tracer",
    "add_counter",
    "capture",
    "chrome_trace",
    "diff_benchmarks",
    "disable",
    "emit_event",
    "enable",
    "enabled",
    "get_registry",
    "mirror_traffic",
    "prometheus_text",
    "record_pipeline",
    "render_diff",
    "render_report",
    "render_slos",
    "set_gauge",
    "span",
    "traffic_mark",
    "write_chrome_trace",
    "write_prometheus",
]
