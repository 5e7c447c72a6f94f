"""Chrome Trace Event Format export (Perfetto / ``chrome://tracing``).

Renders a :class:`~repro.obs.registry.Registry` as the JSON-object form
of the Trace Event Format:

* every span becomes a complete (``"ph": "X"``) event on the track of
  the thread that opened it (pid 1; the main thread is tid 1, other
  threads follow in order of their first span) — nesting falls out of
  the timestamps;
* every recorded pipeline schedule becomes its own process with **one
  track (tid) per fused stage**; each item's busy interval at a stage is
  one complete event, so the fill wavefront and the bottleneck stage are
  visible at a glance. Pipeline time is in cycles, mapped 1 cycle = 1 us;
* counters are emitted as a single counter (``"ph": "C"``) sample so the
  totals appear in the trace viewer alongside the timeline.

Span timestamps are microseconds since the registry epoch. The output of
:func:`chrome_trace` is a plain dict; :func:`write_chrome_trace` dumps it
as JSON ready to load into https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, List

from .registry import Registry

#: pid used for the span timeline.
MAIN_PID = 1
#: first pid used for pipeline processes (one per recorded schedule).
PIPELINE_PID_BASE = 2


def _metadata(pid: int, tid: int, kind: str, name: str) -> Dict[str, Any]:
    return {"ph": "M", "pid": pid, "tid": tid, "name": kind,
            "args": {"name": name}}


def chrome_trace(registry: Registry) -> Dict[str, Any]:
    """Render the registry as a Trace Event Format JSON object."""
    events: List[Dict[str, Any]] = [
        _metadata(MAIN_PID, 0, "process_name", "repro"),
        _metadata(MAIN_PID, 1, "thread_name", "main"),
    ]
    tids = {threading.main_thread().ident: 1}
    for span in registry.spans:
        tids.setdefault(span.thread, len(tids) + 1)
    events.extend(_metadata(MAIN_PID, tid, "thread_name",
                            registry.thread_names.get(thread, f"thread {tid}"))
                  for thread, tid in tids.items() if tid > 1)
    for span in registry.spans:
        args: Dict[str, Any] = {"cpu_ms": round(span.cpu_s * 1e3, 3)}
        args.update(span.attrs)
        events.append({
            "name": span.name,
            "cat": "span",
            "ph": "X",
            "pid": MAIN_PID,
            "tid": tids[span.thread],
            "ts": span.start_s * 1e6,
            "dur": span.wall_s * 1e6,
            "args": args,
        })
    if registry.counters:
        last = max((s.end_s for s in registry.spans), default=0.0)
        events.append({
            "name": "counters",
            "cat": "counter",
            "ph": "C",
            "pid": MAIN_PID,
            "tid": 1,
            "ts": last * 1e6,
            "args": dict(registry.counters),
        })
    # Timeline events become per-bucket counter samples so rates (fault
    # bursts, tuner generations) are visible over time, not just as one
    # final total.
    for name in sorted(registry.events.totals()):
        for t, count, total in registry.timeline.series(name):
            events.append({
                "name": name,
                "cat": "timeline",
                "ph": "C",
                "pid": MAIN_PID,
                "tid": 1,
                "ts": t * 1e6,
                "args": {"count": count, "sum": round(total, 6)},
            })
    for index, (name, schedule) in enumerate(registry.pipelines):
        pid = PIPELINE_PID_BASE + index
        events.append(_metadata(pid, 0, "process_name", f"pipeline:{name}"))
        for stage, timing in enumerate(schedule.stages):
            tid = stage + 1
            events.append(_metadata(pid, tid, "thread_name",
                                    f"stage {stage}: {timing.name}"))
            cycles = timing.cycles
            for item, finish_row in enumerate(schedule.stage_finish):
                finish = finish_row[stage]
                events.append({
                    "name": timing.name,
                    "cat": "pipeline",
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": float(finish - cycles),
                    "dur": float(cycles),
                    "args": {"item": item, "finish_cycle": finish},
                })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"tool": "repro.obs",
                      "note": "pipeline tracks use 1 cycle = 1 us"},
    }


def write_chrome_trace(path: str, registry: Registry) -> None:
    """Write the registry's Chrome trace JSON to ``path``."""
    with open(path, "w") as handle:
        json.dump(chrome_trace(registry), handle, indent=1)
        handle.write("\n")
