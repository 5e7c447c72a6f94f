"""The one span recorder: BEGIN/END rows over the columnar event store.

A :class:`Tracer` writes every span as a BEGIN and an END row (and
zero-duration events as INSTANT rows) into a bounded
:class:`~repro.obs.events.EventStore`, and rebuilds :class:`Span` records
from the rows only when read. Spans open two ways:

* :meth:`Tracer.span` (= :meth:`repro.obs.Registry.span`), a context
  manager for profiling: the parent is the innermost span open on the
  calling thread; BEGIN carries the thread's track in ``value``, END the
  thread CPU seconds spent inside and any :meth:`ActiveSpan.set` attrs.
  Profiling spans belong to no trace (trace id -1).
* :meth:`Tracer.begin`/:meth:`Tracer.end` (and :meth:`Tracer.span_at`),
  with explicit ids, for request traces whose spans open and close on
  different threads. Each served request is one trace::

    serve.request                       (root: submit -> future done)
      serve.enqueue                     (queue wait; again after requeue)
      serve.batch                       (batch assembly + execution)
        serve.execute                   (the compiled plan call)
          serve.retry                   (instant: fault-repair attempt)
      serve.requeue                     (instant: worker crash recovery)

After eviction a span whose BEGIN row is gone is dropped and a span
whose parent is gone becomes a root, so every view and export names only
parents it contains. Exports: :meth:`Tracer.to_jsonl` and
:func:`repro.obs.chrome_trace`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .events import BEGIN, END, INSTANT, Event, EventStore


@dataclass
class Span:
    """One reconstructed span (still open: ``end_s is None``)."""

    span_id: int
    parent_id: Optional[int]  # None for a root
    name: str
    start_s: float  # seconds since the tracer epoch
    end_s: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    trace_id: int = -1  # -1: a profiling span, part of no trace
    depth: int = 0
    thread: int = 0   # threading.get_ident() of the opening thread, if known
    cpu_s: float = 0.0  # CPU seconds the span's thread consumed inside it
    children: List["Span"] = field(default_factory=list)
    events: List[Event] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.end_s is not None

    @property
    def wall_s(self) -> float:
        return (self.end_s - self.start_s) if self.end_s is not None else 0.0

    def walk(self) -> Iterable["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        return [s for s in self.walk() if s.name == name]


class ActiveSpan:
    """Context manager for one open profiling span."""

    __slots__ = ("_tracer", "_name", "_span", "_parent", "_stack", "_cpu0",
                 "_attrs")

    def __init__(self, tracer: "Tracer", name: str, span: int, parent: int,
                 stack: List[int]):
        self._tracer = tracer
        self._name = name
        self._span = span
        self._parent = parent
        self._stack = stack
        self._attrs: Optional[Dict[str, Any]] = None
        self._cpu0 = time.thread_time()

    def set(self, **attrs: Any) -> "ActiveSpan":
        """Attach attributes to the span (recorded when it closes)."""
        if self._attrs is None:
            self._attrs = attrs
        else:
            self._attrs.update(attrs)
        return self

    def __enter__(self) -> "ActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        tracer.store.append(self._name, time.perf_counter() - tracer.epoch,
                            time.thread_time() - self._cpu0, END, -1,
                            self._span, self._parent, self._attrs)
        stack = self._stack
        if stack and stack[-1] == self._span:
            stack.pop()
        return False


class Tracer:
    """Mints span ids and records span lifecycles columnarly."""

    def __init__(self, store: Optional[EventStore] = None,
                 epoch: Optional[float] = None):
        self.store = store if store is not None else EventStore()
        self.epoch = epoch if epoch is not None else time.perf_counter()
        self._ids = itertools.count()
        #: span_id -> (name, trace, parent) of spans open via begin()
        self._open: Dict[int, Tuple[str, int, int]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        main = threading.main_thread()
        #: track -> (thread ident, thread name) of every thread that
        #: opened a profiling span; track 0 is "no thread" (begin/span_at
        #: spans) and track 1 the main thread
        self.threads: List[Tuple[int, str]] = [(0, ""),
                                               (main.ident or 0, main.name)]

    def now(self) -> float:
        return time.perf_counter() - self.epoch

    # -- recording: profiling spans --------------------------------------------

    def span(self, name: str, **attrs: Any) -> ActiveSpan:
        """Open a profiling span; close it by exiting the context manager.

        Its parent is the innermost span still open on the calling
        thread."""
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = self._enter_thread()
        parent = stack[-1] if stack else -1
        span_id = next(self._ids)
        self.store.append(name, time.perf_counter() - self.epoch,
                          local.track, BEGIN, -1, span_id, parent, attrs)
        stack.append(span_id)
        return ActiveSpan(self, name, span_id, parent, stack)

    def _enter_thread(self) -> List[int]:
        """Give the calling thread its span stack and track number."""
        thread = threading.current_thread()
        with self._lock:
            idents = [ident for ident, _ in self.threads]
            if thread.ident in idents:
                track = idents.index(thread.ident)
            else:
                track = len(self.threads)
                self.threads.append((thread.ident or 0, thread.name))
        self._local.track = float(track)
        stack: List[int] = []
        self._local.stack = stack
        return stack

    # -- recording: request traces ---------------------------------------------

    def begin(self, name: str, trace_id: int, parent_id: int = -1,
              **attrs: Any) -> int:
        """Open a span; returns its id (pass to :meth:`end`)."""
        span_id = next(self._ids)
        with self._lock:
            self._open[span_id] = (name, trace_id, parent_id)
        self.store.append(name, self.now(), 0.0, BEGIN, trace_id, span_id,
                          parent_id, attrs)
        return span_id

    def end(self, span_id: int, **attrs: Any) -> None:
        """Close a span. Idempotent: a second end of the same id is a
        no-op, so crash-recovery paths may close defensively."""
        if span_id < 0:
            return
        with self._lock:
            opened = self._open.pop(span_id, None)
        if opened is None:
            return
        name, trace, parent = opened
        self.store.append(name, self.now(), 0.0, END, trace, span_id, parent,
                          attrs)

    def instant(self, name: str, trace_id: int, parent_id: int = -1,
                value: float = 1.0, **attrs: Any) -> None:
        """Record a zero-duration trace event (retry, requeue, ...)."""
        self.store.append(name, self.now(), value, INSTANT, trace_id, -1,
                          parent_id, attrs)

    def span_at(self, name: str, trace_id: int, start_s: float,
                end_s: float, parent_id: int = -1, **attrs: Any) -> int:
        """Record an already-finished span at explicit timestamps.

        ``start_s``/``end_s`` are offsets on this tracer's clock (the
        :func:`time.perf_counter` value minus :attr:`epoch`). Used to
        replay timing a plan measured internally — e.g. per-device
        pipeline stage windows — into the trace after the fact.
        """
        span_id = next(self._ids)
        self.store.append(name, start_s, 0.0, BEGIN, trace_id, span_id,
                          parent_id, attrs)
        self.store.append(name, end_s, 0.0, END, trace_id, span_id,
                          parent_id)
        return span_id

    @property
    def open_spans(self) -> int:
        """Spans opened with :meth:`begin` and not yet ended."""
        with self._lock:
            return len(self._open)

    # -- reconstruction --------------------------------------------------------

    def trace_ids(self) -> List[int]:
        return sorted({e.trace for e in self.store.rows() if e.trace >= 0})

    def spans(self, trace_id: Optional[int] = None) -> List[Span]:
        """Every retained span (of one trace, or all), in begin order."""
        threads = self.threads  # append-only: a row's track is already in
        by_id: Dict[int, Span] = {}
        order: List[Span] = []
        instants: List[Event] = []
        for event in self.store.rows(trace=trace_id):
            if event.kind == BEGIN:
                parent = by_id.get(event.parent)
                span = Span(
                    span_id=event.span,
                    parent_id=parent.span_id if parent is not None else None,
                    name=event.name, start_s=event.ts,
                    attrs=dict(event.attrs or {}), trace_id=event.trace,
                    depth=parent.depth + 1 if parent is not None else 0,
                    thread=threads[int(event.value)][0])
                by_id[event.span] = span
                order.append(span)
            elif event.kind == END:
                span = by_id.get(event.span)
                if span is not None:
                    span.end_s = event.ts
                    span.cpu_s = event.value
                    if event.attrs:
                        span.attrs.update(event.attrs)
            elif event.kind == INSTANT:
                instants.append(event)
        for event in instants:
            parent = by_id.get(event.parent)
            if parent is not None:
                parent.events.append(event)
        return order

    def span_tree(self, trace_id: int) -> List[Span]:
        """Root spans of one trace, children nested."""
        order = self.spans(trace_id)
        by_id = {span.span_id: span for span in order}
        roots: List[Span] = []
        for span in order:
            if span.parent_id is None:
                roots.append(span)
            else:
                by_id[span.parent_id].children.append(span)
        return roots

    def complete(self, trace_id: int) -> bool:
        """True when the trace has spans and every one of them ended."""
        order = self.spans(trace_id)
        return bool(order) and all(span.complete for span in order)

    # -- export ----------------------------------------------------------------

    def to_jsonl(self, path: str) -> int:
        """One JSON object per span (plus instants), trace-major order."""
        spans = sorted(self.spans(), key=lambda span: span.trace_id)
        with open(path, "w") as handle:
            for span in spans:
                record: Dict[str, Any] = {
                    "trace": span.trace_id, "span": span.span_id,
                    "parent": (span.parent_id if span.parent_id is not None
                               else -1),
                    "name": span.name,
                    "start_s": span.start_s, "end_s": span.end_s,
                    "complete": span.complete,
                }
                if span.attrs:
                    record["attrs"] = span.attrs
                if span.events:
                    record["events"] = [
                        {"name": e.name, "ts": e.ts,
                         **({"attrs": e.attrs} if e.attrs else {})}
                        for e in span.events]
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(spans)
