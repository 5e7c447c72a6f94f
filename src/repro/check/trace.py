"""Static validation of exported request-trace files (RC5xx).

``repro serve-bench --trace PATH`` (and ``Tracer.to_jsonl`` /
``repro.obs.write_chrome_trace`` directly) emit two formats:

* **JSONL** — one span object per line (``trace``, ``span``,
  ``parent``, ``name``, ``start_s``, ``end_s``, ``complete``), the
  machine-diffable form;
* **Chrome Trace Event Format** — a ``{"traceEvents": [...]}`` JSON
  object with per-lane complete events and ``s``/``f`` flow arrows,
  the form Perfetto loads.

:func:`check_trace_file` sniffs the format and verifies the structural
contract either way: every line/event parses, every span that began
also ended, no span points at a parent outside its trace, timestamps
are ordered, and every flow arrow that starts also finishes. CI greps
the resulting RC5xx codes exactly like the RC4xx record checks.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Set

from .diagnostics import Diagnostic, diag

#: Keys every JSONL span record must carry.
_SPAN_KEYS = ("trace", "span", "parent", "name", "start_s")


def check_trace_file(path: str) -> List[Diagnostic]:
    """Validate one exported trace file; returns RC5xx diagnostics."""
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as err:
        return [diag("RC501", f"cannot read trace file: {err}", site=path)]
    stripped = text.lstrip()
    if not stripped:
        return [diag("RC501", "trace file is empty", site=path)]
    # Chrome traces are one JSON object; JSONL lines are objects too, so
    # sniff by whether the whole file parses to a traceEvents payload.
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None
        if isinstance(payload, dict) and "traceEvents" in payload:
            return _check_chrome(path, payload)
    return _check_jsonl(path, text)


# -- JSONL span records --------------------------------------------------------


def _check_jsonl(path: str, text: str) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    spans_by_trace: Dict[Any, Set[Any]] = {}
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        site = f"{path}:{lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            out.append(diag("RC501", f"line is not valid JSON: {err.msg}",
                            site=site))
            continue
        if not isinstance(record, dict):
            out.append(diag("RC501", "line is not a JSON object", site=site))
            continue
        missing = [k for k in _SPAN_KEYS if k not in record]
        if missing:
            out.append(diag("RC501", "span record is missing required keys",
                            site=site, missing=missing))
            continue
        record["_site"] = site
        records.append(record)
        spans_by_trace.setdefault(record["trace"],
                                  set()).add(record["span"])
    if not records and not out:
        out.append(diag("RC501", "no span records in trace file", site=path))
    for record in records:
        site = record["_site"]
        name = record["name"]
        if not record.get("complete", False) or record.get("end_s") is None:
            out.append(diag("RC502", f"span {name!r} never ended",
                            site=site, trace=record["trace"],
                            span=record["span"]))
        elif record["end_s"] < record["start_s"]:
            out.append(diag("RC504", f"span {name!r} ends before it starts",
                            site=site, start_s=record["start_s"],
                            end_s=record["end_s"]))
        parent = record["parent"]
        if parent not in (-1, None) \
                and parent not in spans_by_trace.get(record["trace"], ()):
            out.append(diag("RC503",
                            f"span {name!r} references a parent outside "
                            "its trace", site=site, parent=parent,
                            trace=record["trace"]))
    return out


# -- Chrome Trace Event Format -------------------------------------------------


def _check_chrome(path: str, payload: Dict[str, Any]) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    events = payload["traceEvents"]
    if not isinstance(events, list):
        return [diag("RC501", "traceEvents is not a list", site=path)]
    flows_open: Dict[Any, int] = {}
    flows_finished: Set[Any] = set()
    seen_complete = 0
    for index, event in enumerate(events):
        site = f"{path}#traceEvents[{index}]"
        if not isinstance(event, dict) or "ph" not in event:
            out.append(diag("RC501", "event has no phase ('ph')", site=site))
            continue
        ph = event["ph"]
        if ph == "X":
            seen_complete += 1
            if "ts" not in event or "dur" not in event:
                out.append(diag("RC501", "complete event missing ts/dur",
                                site=site, name=event.get("name")))
            elif event["dur"] < 0:
                out.append(diag("RC504", "complete event has negative "
                                "duration", site=site,
                                name=event.get("name"), dur=event["dur"]))
        elif ph == "B":
            # the exporter emits complete ("X") events; a stray begin
            # means a span never ended upstream
            out.append(diag("RC502", "begin event without a matching end",
                            site=site, name=event.get("name")))
        elif ph == "s":
            flows_open[event.get("id")] = flows_open.get(event.get("id"), 0) + 1
        elif ph == "f":
            fid = event.get("id")
            if flows_open.get(fid, 0) > 0:
                flows_open[fid] -= 1
            else:
                flows_finished.add(fid)
                out.append(diag("RC505", "flow finish without a start",
                                site=site, id=fid))
    for fid, count in sorted(flows_open.items(),
                             key=lambda kv: str(kv[0])):
        if count > 0:
            out.append(diag("RC505", "flow start without a finish",
                            site=f"{path}#flows", id=fid, open=count))
    if not seen_complete:
        out.append(diag("RC501", "trace has no span events", site=path))
    return out
