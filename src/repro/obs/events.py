"""Columnar event store: typed, chunked column arrays for obs signals.

Every obs signal that has a time — a timeline metric point, the start
and end of a span, an instant in a request trace — is one row of an
:class:`EventStore`. The store keeps rows **columnarly**: one typed
:class:`Column` per field, each a chain of fixed-size ``array.array``
chunks, so a row costs a few machine words, names are interned once,
and windowed aggregation walks contiguous memory.

Schema (one row per event):

========== ====== ====================================================
column     type   meaning
========== ====== ====================================================
``ts``     f64    seconds since the store epoch
``name``   i64    interned event-name id (:meth:`EventStore.name_id`)
``kind``   i64    :data:`POINT` | :data:`BEGIN` | :data:`END` |
                  :data:`INSTANT`
``value``  f64    numeric payload: a POINT's metric value; a span
                  BEGIN's thread track, its END's thread CPU seconds
                  (see :mod:`repro.obs.tracing`)
``trace``  i64    trace id (-1 when the event is not part of a trace)
``span``   i64    span id (-1 likewise)
``parent`` i64    parent span id (-1 for roots)
========== ====== ====================================================

Rare per-event attributes live in sparse ``{row: dict}`` side tables,
one per chunk, so the hot columns stay fixed-width. Every store is
bounded: past ``max_rows`` (default :data:`MAX_ROWS`) whole chunks are
evicted FIFO, and the per-name POINT totals stay lifetime-exact.

Only the standard library is used; like the rest of :mod:`repro.obs`
this module never imports NumPy.
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Event kinds. POINT is a timeline metric sample; BEGIN/END bracket a
#: trace span; INSTANT is a zero-duration trace event (retry, requeue).
POINT = 0
BEGIN = 1
END = 2
INSTANT = 3

#: Rows per chunk. 4096 rows × 7 columns × 8 bytes ≈ 224 KB per chunk.
CHUNK_ROWS = 4096

#: Default cap on a store's resident rows: 64 chunks, about 14 MB of
#: columns plus the attribute side table.
MAX_ROWS = 64 * CHUNK_ROWS


class Column:
    """One typed, chunked, append-only column.

    Values live in fixed-size ``array.array`` chunks; appends never
    reallocate previous chunks, and :meth:`drop_chunks` evicts from the
    front in O(1) per chunk. Indexing is by *absolute* row id — rows
    evicted from the front raise ``IndexError``.
    """

    __slots__ = ("typecode", "chunk_rows", "chunks", "offset")

    def __init__(self, typecode: str, chunk_rows: int = CHUNK_ROWS):
        self.typecode = typecode
        self.chunk_rows = chunk_rows
        self.chunks: List[array] = []
        self.offset = 0  # absolute row id of the first retained row

    def append(self, value: float) -> None:
        if not self.chunks or len(self.chunks[-1]) >= self.chunk_rows:
            self.chunks.append(array(self.typecode))
        self.chunks[-1].append(value)

    def __len__(self) -> int:
        if not self.chunks:
            return self.offset
        return (self.offset + (len(self.chunks) - 1) * self.chunk_rows
                + len(self.chunks[-1]))

    def __getitem__(self, row: int):
        local = row - self.offset
        if local < 0:
            raise IndexError(f"row {row} evicted (offset {self.offset})")
        chunk, at = divmod(local, self.chunk_rows)
        return self.chunks[chunk][at]

    def drop_chunks(self, n: int) -> None:
        """Evict the ``n`` oldest chunks (caller keeps columns in sync)."""
        for _ in range(min(n, len(self.chunks))):
            self.offset += len(self.chunks.pop(0))

    def iter_values(self) -> Iterator:
        for chunk in self.chunks:
            yield from chunk


@dataclass(frozen=True)
class Event:
    """A decoded row view (only materialized on read paths)."""

    row: int
    ts: float
    name: str
    kind: int
    value: float
    trace: int
    span: int
    parent: int
    attrs: Optional[Dict[str, Any]]


class EventStore:
    """Typed, chunked, thread-safe, bounded columnar store of obs events.

    An append takes one lock, one capacity check and seven appends to the
    tail chunks; aggregation reads walk the chunks without materializing
    row objects. Resident rows stay within ``max_rows`` (default
    :data:`MAX_ROWS`; at least one chunk) by whole-chunk FIFO eviction
    when a new chunk opens — :meth:`totals` keeps exact lifetime POINT
    counts/sums regardless.
    """

    def __init__(self, max_rows: Optional[int] = None,
                 chunk_rows: int = CHUNK_ROWS):
        self._lock = threading.Lock()
        self.chunk_rows = chunk_rows
        self.max_rows = MAX_ROWS if max_rows is None else max_rows
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.ts = Column("d", chunk_rows)
        self.name = Column("q", chunk_rows)
        self.kind = Column("q", chunk_rows)
        self.value = Column("d", chunk_rows)
        self.trace = Column("q", chunk_rows)
        self.span = Column("q", chunk_rows)
        self.parent = Column("q", chunk_rows)
        self._columns = (self.ts, self.name, self.kind, self.value,
                         self.trace, self.span, self.parent)
        #: per-chunk ``{row: attrs}`` side tables, aligned with the chunks
        self._attrs: List[Dict[int, Dict[str, Any]]] = []
        self._totals: Dict[int, List[float]] = {}  # name_id -> [count, sum]
        self._rows = 0  # absolute id of the next row
        self.evicted_rows = 0
        self._tail = self._open_chunk()

    # -- writing ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        """Intern ``name`` (callers may cache the id for hot paths)."""
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.get(name)
                if nid is None:
                    nid = len(self.names)
                    self.names.append(name)
                    self._name_ids[name] = nid
        return nid

    def append(self, name: str, ts: float, value: float = 1.0,
               kind: int = POINT, trace: int = -1, span: int = -1,
               parent: int = -1,
               attrs: Optional[Dict[str, Any]] = None) -> int:
        """Append one event row; returns its absolute row id.

        The store keeps ``attrs`` as given (callers pass a fresh dict)."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self.name_id(name)
        with self._lock:
            tail = self._tail
            if len(tail[0]) >= self.chunk_rows:
                tail = self._tail = self._open_chunk()
            row = self._rows
            self._rows = row + 1
            tail[0].append(ts)
            tail[1].append(nid)
            tail[2].append(kind)
            tail[3].append(value)
            tail[4].append(trace)
            tail[5].append(span)
            tail[6].append(parent)
            if attrs:
                self._attrs[-1][row] = attrs
            if kind == POINT:
                total = self._totals.get(nid)
                if total is None:
                    self._totals[nid] = [1.0, value]
                else:
                    total[0] += 1.0
                    total[1] += value
            return row

    def _open_chunk(self) -> List[array]:
        """Evict the oldest chunks until a fresh one fits under
        ``max_rows``, then open it; returns the new tail chunks."""
        while (self.ts.chunks
               and self._resident() + self.chunk_rows > self.max_rows):
            dropped = len(self.ts.chunks[0])
            for column in self._columns:
                column.drop_chunks(1)
            del self._attrs[0]
            self.evicted_rows += dropped
        tail = [array(column.typecode) for column in self._columns]
        for column, chunk in zip(self._columns, tail):
            column.chunks.append(chunk)
        self._attrs.append({})
        return tail

    def _resident(self) -> int:
        return self._rows - self.ts.offset

    # -- reading ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._rows

    @property
    def resident_rows(self) -> int:
        return self._resident()

    def _snapshot(self) -> Tuple[int, List[Iterator], List[Dict[int, Any]]]:
        """The first retained row, one value iterator per column, and the
        attribute tables — taken under the lock, so a concurrent eviction
        cannot misalign the columns mid-read."""
        with self._lock:
            start = self.ts.offset
            chunks = [list(column.chunks) for column in self._columns]
            attrs = list(self._attrs)
        return start, [chain.from_iterable(c) for c in chunks], attrs

    def rows(self, name: Optional[str] = None,
             kind: Optional[int] = None,
             trace: Optional[int] = None) -> Iterator[Event]:
        """Iterate retained rows, optionally filtered (decoded lazily)."""
        want_name = self._name_ids.get(name, -2) if name is not None else None
        start, columns, attrs = self._snapshot()
        for i, (ts, nid, knd, val, trc, spn, par) in enumerate(zip(*columns)):
            if want_name is not None and nid != want_name:
                continue
            if kind is not None and knd != kind:
                continue
            if trace is not None and trc != trace:
                continue
            row = start + i
            yield Event(row=row, ts=ts, name=self.names[nid], kind=knd,
                        value=val, trace=trc, span=spn, parent=par,
                        attrs=attrs[i // self.chunk_rows].get(row))

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Lifetime ``{name: (count, value_sum)}`` of POINT rows
        (eviction-proof)."""
        return {self.names[nid]: (int(count), total)
                for nid, (count, total) in self._totals.items()}

    def window(self, name: Optional[str] = None,
               t0: float = float("-inf"),
               t1: float = float("inf")) -> Tuple[int, float]:
        """``(count, value_sum)`` of retained POINT rows in ``[t0, t1)``."""
        want = self._name_ids.get(name, -2) if name is not None else None
        count, total = 0, 0.0
        for ts, nid, knd, val in zip(*self._snapshot()[1][:4]):
            if knd != POINT or ts < t0 or ts >= t1:
                continue
            if want is not None and nid != want:
                continue
            count += 1
            total += val
        return count, total

    def bucket_series(self, name: str,
                      bucket_s: float) -> List[Tuple[float, int, float]]:
        """``[(bucket_start_s, count, value_sum)]`` for one event name.

        Buckets are aligned to multiples of ``bucket_s`` from the store
        epoch; only non-empty buckets are returned, in time order.
        """
        want = self._name_ids.get(name)
        if want is None or bucket_s <= 0:
            return []
        buckets: Dict[int, List[float]] = {}
        for ts, nid, knd, val in zip(*self._snapshot()[1][:4]):
            if nid != want or knd != POINT:
                continue
            key = int(ts / bucket_s)
            slot = buckets.get(key)
            if slot is None:
                buckets[key] = [1.0, val]
            else:
                slot[0] += 1.0
                slot[1] += val
        return [(key * bucket_s, int(count), total)
                for key, (count, total) in sorted(buckets.items())]

    # -- export ----------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Machine-readable store summary (bounded size: no row dump)."""
        return {
            "rows": len(self),
            "resident_rows": self.resident_rows,
            "evicted_rows": self.evicted_rows,
            "names": len(self.names),
            "totals": {name: {"count": count, "sum": total}
                       for name, (count, total) in sorted(self.totals().items())},
        }
