"""Columnar event store: typed columns, filters, windows, eviction."""

import sys
import threading

import pytest

from repro.obs.events import (BEGIN, CHUNK_ROWS, END, POINT, Column,
                              EventStore)


class TestColumn:
    def test_append_and_index(self):
        col = Column("d", chunk_rows=4)
        for i in range(10):
            col.append(float(i))
        assert len(col) == 10
        assert col[0] == 0.0
        assert col[9] == 9.0
        assert list(col.iter_values()) == [float(i) for i in range(10)]

    def test_chunking(self):
        col = Column("q", chunk_rows=4)
        for i in range(9):
            col.append(i)
        assert len(col.chunks) == 3
        assert [len(c) for c in col.chunks] == [4, 4, 1]

    def test_drop_chunks_shifts_offset(self):
        col = Column("d", chunk_rows=4)
        for i in range(12):
            col.append(float(i))
        col.drop_chunks(1)
        assert col.offset == 4
        assert len(col) == 12  # absolute length is stable
        assert col[4] == 4.0  # absolute row ids keep working
        with pytest.raises(IndexError):
            col[3]  # evicted


class TestEventStore:
    def test_append_and_totals(self):
        store = EventStore()
        store.append("a.x", ts=0.0, value=2.0)
        store.append("a.x", ts=1.0, value=3.0)
        store.append("a.y", ts=2.0)
        assert store.totals() == {"a.x": (2, 5.0), "a.y": (1, 1.0)}
        assert len(store) == 3

    def test_name_interning(self):
        store = EventStore()
        assert store.name_id("a.x") == store.name_id("a.x")
        assert store.name_id("a.y") != store.name_id("a.x")

    def test_rows_filters(self):
        store = EventStore()
        store.append("a.x", ts=0.0, kind=POINT)
        store.append("a.span", ts=1.0, kind=BEGIN, trace=7, span=1)
        store.append("a.span", ts=2.0, kind=END, trace=7, span=1)
        store.append("a.x", ts=3.0, kind=POINT)
        assert len(list(store.rows(name="a.x"))) == 2
        assert len(list(store.rows(kind=BEGIN))) == 1
        assert len(list(store.rows(trace=7))) == 2
        assert list(store.rows(name="missing")) == []

    def test_attrs_side_table(self):
        store = EventStore()
        row = store.append("a.x", ts=0.0, attrs={"k": "v"})
        store.append("a.x", ts=1.0)
        events = list(store.rows())
        assert events[0].row == row
        assert events[0].attrs == {"k": "v"}
        assert events[1].attrs is None

    def test_window_counts_points_only(self):
        store = EventStore()
        store.append("a.x", ts=0.5, value=2.0)
        store.append("a.x", ts=1.5, value=4.0)
        store.append("a.x", ts=2.5, value=8.0)
        store.append("a.span", ts=1.0, kind=BEGIN)
        assert store.window("a.x", 1.0, 3.0) == (2, 12.0)
        assert store.window("a.x") == (3, 14.0)
        assert store.window("a.span") == (0, 0.0)

    def test_bucket_series(self):
        store = EventStore()
        for ts in (0.1, 0.2, 1.1, 2.9):
            store.append("a.x", ts=ts, value=1.0)
        series = store.bucket_series("a.x", bucket_s=1.0)
        assert series == [(0.0, 2, 2.0), (1.0, 1, 1.0), (2.0, 1, 1.0)]
        assert store.bucket_series("missing", 1.0) == []

    def test_eviction_bounds_memory_keeps_totals(self):
        store = EventStore(max_rows=8, chunk_rows=4)
        for i in range(20):
            store.append("a.x", ts=float(i), value=1.0)
        assert store.resident_rows <= 8
        assert store.evicted_rows == 20 - store.resident_rows
        # lifetime totals survive eviction
        assert store.totals() == {"a.x": (20, 20.0)}
        # retained rows keep their absolute ids and the newest data
        retained = list(store.rows())
        assert retained[-1].ts == 19.0
        assert retained[0].row == store.evicted_rows

    def test_summary_shape(self):
        store = EventStore(max_rows=8, chunk_rows=4)
        for i in range(10):
            store.append("a.x", ts=float(i))
        summary = store.summary()
        assert summary["rows"] == 10
        assert summary["resident_rows"] <= 8
        assert summary["evicted_rows"] >= 1
        assert summary["totals"]["a.x"]["count"] == 10

    def test_default_chunk_rows(self):
        store = EventStore()
        assert store.ts.chunk_rows == CHUNK_ROWS

    def test_reads_stay_aligned_under_concurrent_eviction(self):
        """A reader racing a writer that evicts never sees a row whose
        columns come from different rows."""
        store = EventStore(max_rows=64, chunk_rows=8)
        stop = threading.Event()

        def write():
            i = 0
            while not stop.is_set():
                store.append("a.x", ts=float(i), value=float(i), trace=i,
                             span=i, parent=i)
                i += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        writer = threading.Thread(target=write)
        writer.start()
        try:
            for _ in range(300):
                for event in store.rows():
                    assert event.ts == event.value == event.trace \
                        == event.span == event.parent == event.row
        finally:
            stop.set()
            writer.join(10)
            sys.setswitchinterval(interval)
        assert not writer.is_alive()
        assert store.evicted_rows > 0
