"""Chrome Trace Event Format export (Perfetto / ``chrome://tracing``).

:func:`chrome_trace` renders a :class:`~repro.obs.registry.Registry` or a
bare :class:`~repro.obs.tracing.Tracer`; every span is one complete
(``"ph": "X"``) event, placed by what it is:

* a profiling span goes on the track of the thread that opened it (pid
  1; the main thread is tid 1, others follow in order of their first
  span) — nesting falls out of the timestamps;
* a request-trace span goes on its stage's lane (pid 10), or on one lane
  per device when it carries a ``device`` attribute, with ``s``/``f``
  flow arrows joining each request's hops from queue to execution.

A registry adds its counters (one ``"ph": "C"`` sample), its timeline
events (per-bucket samples), and one process per recorded pipeline with
one track per stage, each item drawn over ``[stage_begin,
stage_finish]`` so stalls show (1 cycle = 1 us). Span timestamps are
microseconds since the recorder's epoch.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple, Union

from .registry import Registry
from .tracing import Span, Tracer

#: pid used for the profiling span timeline.
MAIN_PID = 1
#: first pid used for pipeline processes (one per recorded schedule).
PIPELINE_PID_BASE = 2
#: pid used for request-trace lanes.
REQUEST_PID = 10
#: request span name -> (lane tid, lane label); unknown names share a lane.
REQUEST_LANES: Dict[str, Tuple[int, str]] = {
    "serve.request": (1, "requests"),
    "serve.enqueue": (2, "queue"),
    "serve.batch": (3, "batch"),
    "serve.execute": (4, "execute"),
}
OTHER_LANE = (9, "other")
#: first tid of the per-device lanes (spans carrying a ``device``
#: attribute get one lane per distinct device, in first-seen order).
DEVICE_LANE_BASE = 20


def _metadata(pid: int, tid: int, kind: str, name: str) -> Dict[str, Any]:
    return {"ph": "M", "pid": pid, "tid": tid, "name": kind,
            "args": {"name": name}}


def _span_event(span: Span, cat: str, pid: int, tid: int,
                args: Dict[str, Any]) -> Dict[str, Any]:
    args.update(span.attrs)
    return {"name": span.name, "cat": cat, "ph": "X", "pid": pid,
            "tid": tid, "ts": span.start_s * 1e6,
            "dur": max(span.wall_s, 1e-7) * 1e6, "args": args}


def _profile_events(tracer: Tracer, spans: List[Span]) -> List[Dict[str, Any]]:
    """Profiling spans on one track per thread (track = tid)."""
    tracks = {ident: track for track, (ident, _) in enumerate(tracer.threads)}
    events = [_metadata(MAIN_PID, 0, "process_name", "repro"),
              _metadata(MAIN_PID, 1, "thread_name", "main")]
    used = {tracks[span.thread] for span in spans}
    events.extend(_metadata(MAIN_PID, track, "thread_name", name)
                  for track, (_, name) in enumerate(tracer.threads)
                  if track > 1 and track in used)
    events.extend(
        _span_event(span, "span", MAIN_PID, tracks[span.thread],
                    {"cpu_ms": round(span.cpu_s * 1e3, 3)})
        for span in spans)
    return events


def _request_events(spans: List[Span]) -> List[Dict[str, Any]]:
    """Request-trace spans on stage and device lanes, plus flow arrows."""
    events = [_metadata(REQUEST_PID, 0, "process_name", "serve.trace")]
    by_trace: Dict[int, List[Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    lanes_used: Dict[int, str] = {}
    device_lanes: Dict[str, int] = {}
    for trace_id, order in sorted(by_trace.items()):
        for span in order:
            device = span.attrs.get("device")
            if device is not None:
                tid = device_lanes.setdefault(
                    str(device), DEVICE_LANE_BASE + len(device_lanes))
                label = f"device {device}"
            else:
                tid, label = REQUEST_LANES.get(span.name, OTHER_LANE)
            lanes_used[tid] = label
            events.append(_span_event(span, "serve", REQUEST_PID, tid,
                                      {"trace": trace_id,
                                       "span": span.span_id}))
            events.extend({"name": inst.name, "cat": "serve", "ph": "i",
                           "pid": REQUEST_PID, "tid": tid,
                           "ts": inst.ts * 1e6, "s": "t",
                           "args": dict(inst.attrs or {})}
                          for inst in span.events)
        # flow arrows: queue -> execute hops of this request
        hops = [s for s in order
                if s.name in ("serve.enqueue", "serve.execute")
                and s.complete]
        for a, b in zip(hops, hops[1:]):
            events.append({"name": "request", "cat": "serve.flow",
                           "ph": "s", "id": trace_id, "pid": REQUEST_PID,
                           "tid": REQUEST_LANES[a.name][0],
                           "ts": a.end_s * 1e6})
            events.append({"name": "request", "cat": "serve.flow",
                           "ph": "f", "bp": "e", "id": trace_id,
                           "pid": REQUEST_PID,
                           "tid": REQUEST_LANES[b.name][0],
                           "ts": b.start_s * 1e6})
    events.extend(_metadata(REQUEST_PID, tid, "thread_name", label)
                  for tid, label in sorted(lanes_used.items()))
    return events


def _registry_events(registry: Registry,
                     spans: List[Span]) -> List[Dict[str, Any]]:
    """Counters, timeline samples, and one process per pipeline."""
    events: List[Dict[str, Any]] = []
    if registry.counters:
        last = max((s.end_s if s.complete else s.start_s for s in spans),
                   default=0.0)
        events.append({"name": "counters", "cat": "counter", "ph": "C",
                       "pid": MAIN_PID, "tid": 1, "ts": last * 1e6,
                       "args": dict(registry.counters)})
    # Timeline events become per-bucket counter samples so rates (fault
    # bursts, tuner generations) are visible over time, not just as one
    # final total.
    for name in sorted(registry.events.totals()):
        for t, count, total in registry.timeline.series(name):
            events.append({"name": name, "cat": "timeline", "ph": "C",
                           "pid": MAIN_PID, "tid": 1, "ts": t * 1e6,
                           "args": {"count": count, "sum": round(total, 6)}})
    for index, (name, schedule) in enumerate(registry.pipelines):
        pid = PIPELINE_PID_BASE + index
        events.append(_metadata(pid, 0, "process_name", f"pipeline:{name}"))
        for stage, timing in enumerate(schedule.stages):
            tid = stage + 1
            events.append(_metadata(pid, tid, "thread_name",
                                    f"stage {stage}: {timing.name}"))
            for item, (begin_row, finish_row) in enumerate(
                    zip(schedule.stage_begin, schedule.stage_finish)):
                begin, finish = begin_row[stage], finish_row[stage]
                events.append({"name": timing.name, "cat": "pipeline",
                               "ph": "X", "pid": pid, "tid": tid,
                               "ts": float(begin),
                               "dur": float(finish - begin),
                               "args": {"item": item,
                                        "finish_cycle": finish}})
    return events


def chrome_trace(source: Union[Registry, Tracer]) -> Dict[str, Any]:
    """Render a registry or a tracer as a Trace Event Format JSON object."""
    registry = source if isinstance(source, Registry) else None
    tracer = registry.tracer if registry is not None else source
    spans = tracer.spans()
    profile = [span for span in spans if span.trace_id < 0]
    requests = [span for span in spans if span.trace_id >= 0]
    events: List[Dict[str, Any]] = []
    if registry is not None or profile:
        events += _profile_events(tracer, profile)
    if requests:
        events += _request_events(requests)
    if registry is not None:
        events += _registry_events(registry, spans)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"tool": "repro.obs",
                      "note": "pipeline tracks use 1 cycle = 1 us"},
    }


def write_chrome_trace(path: str, source: Union[Registry, Tracer]) -> None:
    """Write the Chrome trace JSON of a registry or tracer to ``path``."""
    with open(path, "w") as handle:
        json.dump(chrome_trace(source), handle, indent=1)
        handle.write("\n")
