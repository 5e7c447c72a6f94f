"""Human-readable run report for a :class:`~repro.obs.registry.Registry`.

One text artifact answers the three questions an optimisation PR has to
answer: where did the time go (span tree, wall + CPU), how much work was
done (counters, with byte counters scaled to MB), and how busy was the
modelled hardware (per-stage pipeline utilization).
"""

from __future__ import annotations

from typing import Any, Dict, List

from .registry import Registry, pipeline_summary

_BYTE_SUFFIX = ("_bytes",)


def _fmt_count(name: str, value: float) -> str:
    """Counters named ``*_bytes`` (or ``...bytes[label]``) render as MB."""
    base = name.split("[", 1)[0]
    if base.endswith(_BYTE_SUFFIX):
        return f"{value / 2**20:,.3f} MB"
    if value == int(value):
        return f"{int(value):,}"
    return f"{value:,.3f}"


#: A parent with more of same-named children than this gets one
#: aggregated line instead of a line per child (per-pyramid spans would
#: otherwise dominate the report; the Chrome trace keeps every one).
MAX_SIBLINGS = 6


def _render_spans(registry: Registry, lines: List[str]) -> None:
    lines.append("spans (wall ms / cpu ms):")
    spans = registry.spans
    if not spans:
        lines.append("  (none)")
        return
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)
    width = max(len("  " * s.depth + s.name) for s in spans) + 4

    def emit(span) -> None:
        label = "  " * span.depth + span.name
        attrs = ""
        if span.attrs:
            attrs = "  " + " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
        lines.append(f"  {label:<{width}s} {span.wall_s * 1e3:10.3f} "
                     f"{span.cpu_s * 1e3:10.3f}{attrs}")
        walk(span.span_id)

    def walk(parent_id) -> None:
        group = children.get(parent_id, [])
        by_name: dict = {}
        for child in group:
            by_name.setdefault(child.name, []).append(child)
        for name, peers in by_name.items():
            if len(peers) > MAX_SIBLINGS:
                wall = sum(p.wall_s for p in peers)
                cpu = sum(p.cpu_s for p in peers)
                label = "  " * peers[0].depth + f"{name} x{len(peers)}"
                lines.append(f"  {label:<{width}s} {wall * 1e3:10.3f} "
                             f"{cpu * 1e3:10.3f}  (aggregated)")
            else:
                for peer in peers:
                    emit(peer)

    walk(None)
    evicted = registry.events.evicted_rows
    if evicted:
        lines.append(f"  ({evicted:,} old rows evicted: spans begun before "
                     "them are gone, and their children show as roots)")


def _render_counters(registry: Registry, lines: List[str]) -> None:
    lines.append("counters:")
    if not registry.counters:
        lines.append("  (none)")
        return
    width = max(len(name) for name in registry.counters) + 2
    for name in sorted(registry.counters):
        lines.append(f"  {name:<{width}s} {_fmt_count(name, registry.counters[name])}")


def _render_events(registry: Registry, lines: List[str]) -> None:
    totals = registry.events.totals()
    if not totals:
        return
    lines.append("events (columnar store):")
    width = max(len(name) for name in totals) + 2
    for name in sorted(totals):
        count, total = totals[name]
        extra = "" if total == count else f"  (sum {_fmt_count(name, total)})"
        lines.append(f"  {name:<{width}s} {count:,}{extra}")
    if registry.events.evicted_rows:
        lines.append("  (old rows evicted; totals are lifetime-exact)")


def _render_gauges(registry: Registry, lines: List[str]) -> None:
    if not registry.gauges:
        return
    lines.append("gauges:")
    width = max(len(name) for name in registry.gauges) + 2
    for name in sorted(registry.gauges):
        lines.append(f"  {name:<{width}s} {registry.gauges[name]:g}")


def _render_pipeline(pipe: Dict[str, Any], lines: List[str]) -> None:
    stages = pipe["stages"]
    lines.append(f"pipeline {pipe['name']}: {len(stages)} stages, "
                 f"{pipe['num_items']} items, makespan "
                 f"{pipe['makespan']:,} cycles")
    width = max((len(s["name"]) for s in stages), default=5) + 2
    lines.append(f"  {'stage':<{width}s} {'cyc/item':>10s} {'busy':>12s} "
                 f"{'idle':>12s} {'util':>7s}")
    for s in stages:
        lines.append(
            f"  {s['name']:<{width}s} {s['cycles_per_item']:>10,} "
            f"{s['busy_cycles']:>12,} {s['idle_cycles']:>12,} "
            f"{s['utilization']:>6.1%}"
        )


def render_report(registry: Registry, title: str = "run report") -> str:
    """Render the full report as plain text."""
    bar = "=" * 64
    lines = [bar, title, bar]
    _render_spans(registry, lines)
    lines.append("")
    _render_counters(registry, lines)
    _render_events(registry, lines)
    _render_gauges(registry, lines)
    for name, schedule in registry.pipelines:
        lines.append("")
        _render_pipeline(pipeline_summary(name, schedule), lines)
    return "\n".join(lines)
