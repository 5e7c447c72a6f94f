"""In-memory span recording around the public entry points of ``repro``.

Used only by traced benchmark runs (``--trace 1``). Nothing under
``src/`` changes: :class:`Patcher` swaps each entry point for a wrapper
that records a span, in every ``repro`` module that binds it, and puts
the originals back on :meth:`Patcher.uninstall`.

Span stacks are kept per thread, so spans opened concurrently by the
serving workers nest under their own thread's parent. A span records
its name, start, end, parent, thread and attributes (the request ids of
a served batch, a tenant, an item count). Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# One span: [name, start, end, parent index in the same thread or -1,
# attributes]. Lists rather than objects keep the per-span cost small.
NAME, START, END, PARENT, ATTRS = range(5)


class SpanRecorder:
    """Per-thread span stacks; one span list per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[Tuple[int, str, List[list]]] = []
        self._async: List[list] = []

    def _state(self):
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            thread = threading.current_thread()
            with self._lock:
                self._threads.append((thread.ident, thread.name, spans))
        return spans, local.stack

    def begin(self, name: str, attrs: Optional[dict] = None) -> list:
        spans, stack = self._state()
        record = [name, time.perf_counter(), None,
                  stack[-1] if stack else -1, attrs]
        stack.append(len(spans))
        spans.append(record)
        return record

    def end(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._local.stack.pop()

    def interval(self, name: str, start: float, end: float,
                 attrs: Optional[dict] = None) -> None:
        """A span that starts in one thread and ends in another (a served
        request: submit in the generator, done in a worker). It has no
        parent and takes no part in any thread's stack."""
        with self._lock:
            self._async.append([name, start, end, -1, attrs])

    def threads(self) -> List[Tuple[int, str, List[list]]]:
        with self._lock:
            return list(self._threads)

    def async_spans(self) -> List[list]:
        with self._lock:
            return list(self._async)

    def dump(self) -> Dict[str, Any]:
        """Every finished span as columns, with self time."""
        rows = []
        for ident, tname, spans in self.threads():
            selfs = self_times(spans)
            for i, s in enumerate(spans):
                if s[END] is None:
                    continue
                rows.append([s[NAME], s[START], s[END], s[PARENT], ident,
                             tname, selfs[i], s[ATTRS]])
        for s in self.async_spans():
            rows.append([s[NAME], s[START], s[END], -1, None, "async",
                         s[END] - s[START], s[ATTRS]])
        return {"columns": ["name", "start", "end", "parent", "thread",
                            "thread_name", "self_s", "attrs"],
                "rows": rows}


def summary(recorder: SpanRecorder) -> Dict[str, Dict[str, float]]:
    """Per span name: spans, total duration and total self time. Self
    times add up without double counting, so they show where time went."""
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"spans": 0, "total_s": 0.0, "self_s": 0.0})
    for _, _, spans in recorder.threads():
        for s, own in zip(spans, self_times(spans)):
            if s[END] is None:
                continue
            row = out[s[NAME]]
            row["spans"] += 1
            row["total_s"] += s[END] - s[START]
            row["self_s"] += own
    return dict(out)


def self_times(spans: List[list]) -> List[float]:
    """Self time of each span of one thread: its duration minus the part
    of that interval its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0 and s[END] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        if s[END] is None:
            out.append(0.0)
            continue
        covered = 0.0
        cursor = s[START]
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, s[END])
            if b > a:
                covered += b - a
                cursor = b
        out.append((s[END] - s[START]) - covered)
    return out


def top_level(spans: List[list], name: str) -> Iterable[list]:
    """Finished spans of ``name`` with no ancestor of the same name, so a
    recursive entry point (``compile_plan`` compiling a pipeline's base
    plan) counts once."""
    for s in spans:
        if s[NAME] != name or s[END] is None:
            continue
        parent = s[PARENT]
        nested = False
        while parent >= 0:
            if spans[parent][NAME] == name:
                nested = True
                break
            parent = spans[parent][PARENT]
        if not nested:
            yield s


class Patcher:
    """Swaps entry points for recording wrappers, and back."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: List[Tuple[Any, str, Any]] = []

    def function(self, original: Callable, name: str,
                 after: Optional[Callable] = None,
                 before: Optional[Callable] = None) -> None:
        """Wrap a module-level function wherever a ``repro`` module binds
        it. ``before(args, kwargs)`` may return attributes for the span;
        ``after(span, result, args, kwargs)`` runs once the call returns."""
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before is not None else None
            span = recorder.begin(name, attrs)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end(span)
            if after is not None:
                after(span, result, args, kwargs)
            return result

        self._rebind(original, wrapper)

    def counter(self, original: Callable, counts: Dict[str, int],
                name: str) -> None:
        """Count calls without recording spans (for leaf functions called
        millions of times). Only for single-threaded callers."""

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._rebind(original, wrapper)

    def method(self, cls: type, attr: str, name: str,
               before: Optional[Callable] = None,
               after: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            attrs = before(obj, args, kwargs) if before is not None else None
            span = recorder.begin(name, attrs)
            try:
                result = original(obj, *args, **kwargs)
            finally:
                recorder.end(span)
            if after is not None:
                after(span, obj, result)
            return result

        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, original))

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        hits = 0
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "repro"
                                      or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))
                    hits += 1
        if not hits:
            raise RuntimeError(f"no repro module binds {original!r}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
