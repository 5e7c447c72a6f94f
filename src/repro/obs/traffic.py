"""Mirror simulator :class:`~repro.sim.trace.TrafficTrace` totals into
registry counters.

The simulators keep their own event-level traffic trace (it predates the
registry and tests compare schedules event by event). This bridge copies
the totals — overall and per label — into the global registry so every
run report and metrics JSON shows DRAM bytes next to the timing spans,
matching the trace exactly.

Duck-typed on purpose: anything exposing ``events``, ``macs`` and
``by_label(start)`` works, so this module never imports
:mod:`repro.sim`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .registry import enabled, get_registry


def traffic_mark(trace) -> Optional[Tuple[int, int]]:
    """Where a call's own traffic starts in ``trace`` (its event count
    and MAC total), or ``None`` while instrumentation is off or there is
    no trace, so marking costs a flag check."""
    if trace is None or not enabled():
        return None
    return len(trace.events), trace.macs


def mirror_traffic(trace, prefix: str,
                   mark: Optional[Tuple[int, int]] = (0, 0)) -> None:
    """Add the traffic ``trace`` recorded since ``mark`` (from
    :func:`traffic_mark`) to the global registry under ``prefix``.

    A trace shared across calls (a per-item batch loop, the groups of a
    partitioned run) holds every call's events, so each call mirrors
    only its own. A ``None`` mark (instrumentation was off) mirrors
    nothing."""
    if mark is None or not enabled():
        return
    start, macs = mark
    labels = trace.by_label(start)
    read, write, ops = map(sum, zip((0, 0, 0), *labels.values()))
    registry = get_registry()
    registry.add(f"{prefix}.dram_read_bytes", read)
    registry.add(f"{prefix}.dram_write_bytes", write)
    registry.add(f"{prefix}.dram_total_bytes", read + write)
    registry.add(f"{prefix}.ops", ops)
    registry.add(f"{prefix}.macs", trace.macs - macs)
    for label, (read_bytes, write_bytes, ops) in labels.items():
        if read_bytes:
            registry.add(f"{prefix}.dram_read_bytes[{label}]", read_bytes)
        if write_bytes:
            registry.add(f"{prefix}.dram_write_bytes[{label}]", write_bytes)
        if ops:
            registry.add(f"{prefix}.ops[{label}]", ops)
