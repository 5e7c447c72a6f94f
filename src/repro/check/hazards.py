"""Static hazard detection over schedule objects.

A schedule is a claim about time: *this* tile is loaded before *that*
module reads it, a stage finishes one pyramid before accepting the
next, one DRAM channel carries all the traffic it is billed for. The
detectors here audit those claims on the finished schedule objects —
:class:`~repro.core.schedule.FusedSchedule` (the Section IV-B
calcparams form) and :class:`~repro.hw.pipeline.PipelineSchedule` (the
discrete-event Figure 6 form, with or without bounded queues and a
shared channel) — without re-running any simulation.

Two hazard flavours recur:

* **read-before-write** (RC301) — a consumer is scheduled before its
  producer's data exists: a calcparams load origin that leaves a gap
  of never-loaded columns, or a pipeline stage finishing an item
  before input-ready + busy time allows.
* **overlap conflict** (RC302/RC304) — two writers own the same
  resource at once: a fresh DRAM load landing on live reuse columns
  (double-buffer clobber), a stage serving two pyramids
  simultaneously, or two transfers holding one channel at once.

On anything the repo's own simulators produce these detectors are
provably silent (the tests sweep the zoo to assert it); they exist to
catch *foreign or corrupted* schedules — deserialized, hand-edited,
or produced by a future scheduler that breaks the contract.
"""

from __future__ import annotations

from typing import List

from ..core.schedule import FusedSchedule
from ..hw.pipeline import PipelineSchedule
from ..nn.shapes import ShapeError
from .diagnostics import Diagnostic, diag


def _probe_indices(count: int) -> List[int]:
    """Stitching positions worth probing: both edges of the grid plus the
    first steady-state interior pair. Probing all of a 224x224 grid would
    re-prove the same algebra thousands of times."""
    return sorted({i for i in (1, 2, count - 1) if 1 <= i < count})


def check_fused_schedule(schedule: FusedSchedule) -> List[Diagnostic]:
    """Audit a calcparams schedule for load-stitching hazards.

    Consecutive pyramid loads along a row/column must overlap by exactly
    ``K - S`` padded-input columns/rows (Section IV-B): a smaller overlap
    leaves a gap the modules will read before anything wrote it
    (RC301); a larger one lands fresh DRAM data on live reuse columns
    (RC302). For padding-free groups the loads must also reach the far
    edge of the input needed by the last pyramid column/row (RC305);
    padded groups are exempt — the literal formulas' load origins drift
    by the accumulated border (see :mod:`repro.core.schedule`).
    """
    out: List[Diagnostic] = []
    first = schedule.levels[0]
    k1, s1 = first.kernel, first.stride
    overlap = k1 - s1
    site = "+".join(level.name for level in schedule.levels)

    try:
        origin = schedule.position(0, 0)
    except ShapeError as err:
        out.append(diag("RC103", f"origin position rejected: {err}",
                        site=site))
        return out
    if (origin.rowt, origin.colt) != (0, 0):
        out.append(diag("RC301", f"origin load starts at "
                        f"({origin.rowt},{origin.colt}), not (0,0): the "
                        "first pyramid would read unloaded data",
                        site=site, rowt=origin.rowt, colt=origin.colt))
    if (origin.load_h, origin.load_w) != (schedule.Y, schedule.X):
        out.append(diag("RC303", f"origin load {origin.load_h}x"
                        f"{origin.load_w} != pyramid base "
                        f"{schedule.Y}x{schedule.X}", site=site))

    for axis, count in (("col", schedule.cols), ("row", schedule.rows)):
        for i in _probe_indices(count):
            try:
                if axis == "col":
                    prev = schedule.position(0, i - 1)
                    cur = schedule.position(0, i)
                    prev_end = prev.colt + prev.load_w
                    got = prev_end - cur.colt
                else:
                    prev = schedule.position(i - 1, 0)
                    cur = schedule.position(i, 0)
                    prev_end = prev.rowt + prev.load_h
                    got = prev_end - cur.rowt
            except ShapeError as err:
                out.append(diag("RC103", f"position probe failed: {err}",
                                site=site, axis=axis, index=i))
                break
            if got < overlap:
                out.append(diag(
                    "RC301", f"{axis} loads {i - 1}->{i} overlap by {got} "
                    f"but the window needs K-S={overlap}: "
                    f"{overlap - got} {axis}s are read before any load "
                    "writes them", site=site, axis=axis, index=i,
                    overlap=got, required=overlap))
            elif got > overlap:
                out.append(diag(
                    "RC302", f"{axis} loads {i - 1}->{i} overlap by {got} "
                    f"(expected K-S={overlap}): the fresh load clobbers "
                    "live reuse data", site=site, axis=axis, index=i,
                    overlap=got, required=overlap))

    if all(level.pad == 0 for level in schedule.levels):
        out.extend(_check_coverage(schedule, site))
    return out


def _check_coverage(schedule: FusedSchedule, site: str) -> List[Diagnostic]:
    """RC305 for padding-free groups: the union of loads must reach the
    input extent the last pyramid row/column consumes."""
    out: List[Diagnostic] = []
    final = schedule.levels[-1].out_shape
    need_h, need_w = final.height, final.width
    for level in reversed(schedule.levels):
        need_h = min((need_h - 1) * level.stride + level.kernel,
                     level.in_shape.height)
        need_w = min((need_w - 1) * level.stride + level.kernel,
                     level.in_shape.width)
    try:
        last = schedule.position(schedule.rows - 1, schedule.cols - 1)
    except ShapeError as err:
        return [diag("RC103", f"final position rejected: {err}", site=site)]
    covered_h = last.rowt + last.load_h
    covered_w = last.colt + last.load_w
    if covered_h < need_h or covered_w < need_w:
        out.append(diag(
            "RC305", f"loads cover {covered_h}x{covered_w} of the "
            f"{need_h}x{need_w} input the output map needs",
            site=site, covered=(covered_h, covered_w),
            needed=(need_h, need_w)))
    return out


def check_pipeline_schedule(schedule: PipelineSchedule) -> List[Diagnostic]:
    """Audit a pipeline schedule's begin/finish matrices and tallies.

    Stage ``s`` takes item ``i`` once stage ``s-1`` finished it and
    stage ``s`` finished item ``i-1``, and serves it for at least its
    fault-free cycles ``c[s]``. A stage that begins before its input
    exists or finishes under ``c[s]`` after it began (or after its input
    was ready) read before the write (RC301); one that begins before, or
    finishes within ``c[s]`` of, its previous item held two items at
    once (RC302). Shape, negative tallies, a makespan other than the
    last completion or below the compute bound are RC303; channel busy
    beyond the makespan or a makespan below the bandwidth bound are
    RC304; stalls without retries or stall cycles
    without stalls are RC306 (warning). Faults and full queues only
    *delay* work, so every schedule ``simulate_pipeline`` produces
    passes.
    """
    out: List[Diagnostic] = []
    stages = schedule.stages
    site = "+".join(stage.name for stage in stages)
    for name in ("makespan", "channel_busy", "stalls", "retries",
                 "stall_cycles", "blocked_cycles"):
        if getattr(schedule, name) < 0:
            out.append(diag("RC303", f"negative {name}: "
                            f"{getattr(schedule, name)}", site=site))
    begin, finish = schedule.stage_begin, schedule.stage_finish
    if len(begin) != schedule.num_items or len(finish) != schedule.num_items:
        out.append(diag("RC303", f"{len(begin)} begin and {len(finish)} "
                        f"finish rows for {schedule.num_items} items",
                        site=site))
    if out:
        return out
    service = schedule.service
    peak = 0
    for i, (starts, row) in enumerate(zip(begin, finish)):
        if len(starts) != len(stages) or len(row) != len(stages):
            return out + [diag("RC303", f"item {i} has {len(starts)} stage "
                               f"begins and {len(row)} finishes for "
                               f"{len(stages)} stages", site=site)]
        for s, (start, done) in enumerate(zip(starts, row)):
            name = stages[s].name
            ready = row[s - 1] if s > 0 else 0
            if start < ready or done < start + service[s]:
                out.append(diag(
                    "RC301", f"stage {name!r} serves item {i} over "
                    f"[{start}, {done}], before its input (ready {ready}) "
                    f"plus {service[s]} busy cycles allow",
                    site=site, item=i, stage=name, begin=start,
                    finish=done, ready=ready))
            if i > 0 and (start < finish[i - 1][s]
                          or done < finish[i - 1][s] + service[s]):
                out.append(diag(
                    "RC302", f"stage {name!r} holds items {i - 1} and {i} "
                    f"concurrently (item {i} over [{start}, {done}], item "
                    f"{i - 1} finished {finish[i - 1][s]})",
                    site=site, item=i, stage=name))
            peak = max(peak, done)
    if schedule.makespan != peak:
        out.append(diag("RC303", f"makespan {schedule.makespan} != last "
                        f"completion {peak}", site=site,
                        makespan=schedule.makespan, last=peak))
    if schedule.makespan < schedule.compute_bound:
        out.append(diag(
            "RC303", f"makespan {schedule.makespan} beats the compute "
            f"bound {schedule.compute_bound}", site=site,
            makespan=schedule.makespan, compute_bound=schedule.compute_bound))
    if schedule.channel_busy > schedule.makespan:
        out.append(diag(
            "RC304", f"channel busy {schedule.channel_busy} cycles in a "
            f"{schedule.makespan}-cycle run: two transfers must have "
            "held the channel at once", site=site,
            channel_busy=schedule.channel_busy, makespan=schedule.makespan))
    if schedule.makespan < schedule.memory_bound:
        out.append(diag(
            "RC304", f"makespan {schedule.makespan} beats the bandwidth "
            f"bound {schedule.memory_bound}: the channel moved more words "
            "per cycle than it has", site=site,
            makespan=schedule.makespan, memory_bound=schedule.memory_bound))
    if schedule.stall_cycles > 0 and schedule.stalls == 0:
        out.append(diag("RC306", f"{schedule.stall_cycles} stall cycles "
                        "billed with zero stalls recorded", site=site))
    if schedule.stalls > 0 and schedule.retries == 0:
        out.append(diag("RC306", f"{schedule.stalls} stalls recorded with "
                        "zero retries: every stall is repaired by a retry",
                        site=site))
    return out
