"""Domain static analysis: verify dataflow invariants without executing.

The exploration/serving stack prices designs with closed-form geometry
(Section III-B); a wrong tile size or an undersized reuse buffer would
silently price an infeasible design and only surface when a simulator
runs. The functions here re-derive every invariant independently — in
milliseconds, with no NumPy execution — and report structured
:class:`~repro.check.diagnostics.Diagnostic`\\ s instead of raising:

* :func:`check_levels` — shape/stride/padding consistency through a
  chain of windowed levels (the producer/consumer contract the pyramid
  walks over);
* :func:`check_group` — one fused group: pyramid geometry re-derivation,
  tile divisibility at schedule positions, reuse/recompute buffer bounds
  against device BRAM, DSP feasibility, weight residency;
* :func:`check_partition` — a full partition: coverage, per-group
  checks, and the exact DSP-share arithmetic of
  :func:`~repro.hw.multi.design_partition`;
* :func:`check_network` — the CLI entry point, aggregating everything
  into a :class:`~repro.check.diagnostics.CheckReport`.

Resource findings are *lower bounds* (single-bank BRAM rounding, one
MAC lane per module): anything flagged RC201/RC202 is infeasible for
the real banked design too, so the analyzer never cries wolf — the
zero-false-positive contract the test suite enforces with an exhaustive
partition sweep over the model zoo.
"""

from __future__ import annotations

from math import ceil
from typing import List, Optional, Sequence, Tuple

from ..core.schedule import FusedSchedule
from ..core.costs import reuse_buffer_plans
from ..core.partition import group_tip, split_groups
from ..core.pyramid import PyramidGeometry, build_pyramid
from ..hw.device import DSP_PER_MAC, VIRTEX7_690T, FpgaDevice, WORDS_PER_BRAM18
from ..nn.network import Network
from ..nn.shapes import ShapeError
from ..nn.stages import Level, extract_levels, independent_units
from .diagnostics import CheckReport, Diagnostic, Severity, diag
from .hazards import check_fused_schedule, check_pipeline_schedule

#: Per-conv-module DSP floor ``design_partition`` reserves for a group.
_GROUP_DSP_FLOOR = 400


def check_levels(levels: Sequence[Level]) -> List[Diagnostic]:
    """Shape/stride/padding consistency through a chain of levels.

    Verifies, for every level, the paper's output-size rule
    ``out = (in + 2*pad - K)/S + 1`` (windows must fit and divide
    evenly), channel bookkeeping, and that each consumer's input shape
    is exactly its producer's output shape.
    """
    out: List[Diagnostic] = []
    for level in levels:
        k, s = level.kernel, level.stride
        if k <= 0 or s <= 0:
            out.append(diag("RC101", f"kernel/stride must be positive, "
                            f"got K={k} S={s}", site=level.name))
            continue
        if level.pad < 0:
            out.append(diag("RC104", f"negative padding {level.pad}",
                            site=level.name, pad=level.pad))
            continue
        if level.is_pool and level.pad:
            out.append(diag("RC104", "padding before pooling is unsupported",
                            site=level.name, pad=level.pad))
        if level.pad >= k:
            out.append(diag("RC104", f"padding {level.pad} >= kernel {k}: "
                            "windows fall entirely inside the border zeros",
                            site=level.name, severity=Severity.WARNING,
                            pad=level.pad, kernel=k))
        padded = level.padded_in_shape
        for axis, extent, got in (("height", padded.height, level.out_shape.height),
                                  ("width", padded.width, level.out_shape.width)):
            if extent < k:
                out.append(diag("RC101", f"window K={k} does not fit the "
                                f"padded input {axis} {extent}",
                                site=level.name, axis=axis, extent=extent))
                continue
            if (extent - k) % s:
                out.append(diag("RC103", f"padded input {axis} {extent} with "
                                f"K={k}, S={s} leaves a partial window",
                                site=level.name, axis=axis, extent=extent))
                continue
            want = (extent - k) // s + 1
            if got != want:
                out.append(diag("RC101", f"output {axis} {got} != "
                                f"({extent} - {k})/{s} + 1 = {want}",
                                site=level.name, axis=axis,
                                expected=want, got=got))
        if level.is_pool and level.out_channels != level.in_channels:
            out.append(diag("RC101", "pooling must preserve channels: "
                            f"{level.in_channels} -> {level.out_channels}",
                            site=level.name))
        if level.is_conv:
            g = level.groups
            if g < 1 or level.in_channels % g or level.out_channels % g:
                out.append(diag("RC101", f"groups={g} does not divide "
                                f"channels {level.in_channels}->"
                                f"{level.out_channels}", site=level.name))
    for producer, consumer in zip(levels, levels[1:]):
        if producer.out_shape != consumer.in_shape:
            out.append(diag(
                "RC101", f"{consumer.name} consumes {consumer.in_shape} but "
                f"{producer.name} produces {producer.out_shape}",
                site=consumer.name,
                producer=str(producer.out_shape),
                consumer=str(consumer.in_shape)))
    return out


def check_pyramid_geometry(levels: Sequence[Level],
                           geometry: PyramidGeometry) -> List[Diagnostic]:
    """Re-derive the pyramid backwards and compare against ``geometry``.

    Guards any *stored* geometry (e.g. inside a restored
    :class:`~repro.serve.plan.CompiledPlan`) against drift from the
    levels it claims to describe: per-level tile extents must follow
    ``D = S*D' + K - S`` (clamped to the padded map) and the step sizes
    must be the downstream stride products.
    """
    out: List[Diagnostic] = []
    if len(geometry.tiles) != len(levels):
        out.append(diag("RC106", f"geometry has {len(geometry.tiles)} tiles "
                        f"for {len(levels)} levels"))
        return out
    out_h, out_w = geometry.tip_h, geometry.tip_w
    step_h, step_w = geometry.tip_h, geometry.tip_w
    for level, tile in zip(reversed(list(levels)), reversed(geometry.tiles)):
        k, s = level.kernel, level.stride
        padded = level.padded_in_shape
        want_h = min(s * out_h + k - s, padded.height)
        want_w = min(s * out_w + k - s, padded.width)
        step_h *= s
        step_w *= s
        if tile.level.name != level.name:
            out.append(diag("RC106", f"tile bound to {tile.level.name!r}, "
                            f"expected {level.name!r}", site=level.name))
        if (tile.out_h, tile.out_w) != (out_h, out_w):
            out.append(diag("RC106", f"output tile {tile.out_h}x{tile.out_w} "
                            f"!= expected {out_h}x{out_w}", site=level.name))
        if (tile.in_h, tile.in_w) != (want_h, want_w):
            out.append(diag("RC106", f"input tile {tile.in_h}x{tile.in_w} != "
                            f"S*D' + K - S = {want_h}x{want_w}",
                            site=level.name, kernel=k, stride=s))
        if (tile.step_h, tile.step_w) != (step_h, step_w):
            out.append(diag("RC106", f"step {tile.step_h}x{tile.step_w} != "
                            f"stride product {step_h}x{step_w}",
                            site=level.name))
        out_h, out_w = tile.in_h, tile.in_w
    return out


def _group_buffer_words(levels: Sequence[Level], geometry: PyramidGeometry,
                        strategy: str) -> List[Tuple[str, int, bool]]:
    """Closed-form on-chip buffer inventory of one fused group.

    Mirrors :meth:`~repro.hw.fused_accel.FusedDesign.resources` (window
    tiles double-buffered, resident weights, BL/BT reuse buffers, store
    tile) but without running ``optimize_fused`` — banks are ignored, so
    the BRAM count derived from it lower-bounds the real banked design.
    """
    if not any(level.is_conv for level in levels):
        # Pool-only groups run on a PoolEngine: one line buffer per level
        # (kernel rows x map width x channels), nothing else. This is the
        # engine's exact inventory, not a bound.
        return [(f"line[{level.name}]",
                 level.kernel * level.in_shape.width * level.in_channels,
                 False)
                for level in levels]
    buffers: List[Tuple[str, int, bool]] = []
    for level, tile in zip(levels, geometry.tiles):
        window = tile.in_h * tile.in_w * level.in_channels
        buffers.append((f"in[{level.name}]", window, True))
        if level.is_conv and level.weight_count:
            buffers.append((f"weights[{level.name}]", level.weight_count,
                            False))
    if strategy == "reuse" and len(levels) > 0:
        for plan in reuse_buffer_plans(levels, geometry.tip_h, geometry.tip_w,
                                       include_input_level=True):
            buffers.append((f"BL[{plan.consumer_name}]", plan.bl_elements,
                            False))
            buffers.append((f"BT[{plan.consumer_name}]", plan.bt_elements,
                            False))
    out = levels[-1].out_shape
    buffers.append(("store", geometry.tip_h * geometry.tip_w * out.channels,
                    True))
    return buffers


def _bram18_lower_bound(buffers: Sequence[Tuple[str, int, bool]]) -> int:
    total = 0
    for _name, words, double in buffers:
        if words <= 0:
            continue
        total += ceil(words / WORDS_PER_BRAM18) * (2 if double else 1)
    return total


def check_group(levels: Sequence[Level], tip_h: int = 1, tip_w: int = 1,
                strategy: str = "reuse",
                device: FpgaDevice = VIRTEX7_690T,
                dsp_budget: Optional[int] = None,
                tile: Optional[Tuple[int, int]] = None,
                check_resources: bool = True,
                schedule_probes: bool = True) -> List[Diagnostic]:
    """Statically verify one fused group of ``levels``.

    Covers: level-chain consistency, tip bounds, pyramid re-derivation,
    calcparams tile divisibility and load stitching at the schedule's
    probe positions, and (with ``check_resources``) BRAM/DSP lower
    bounds plus weight residency for the group's device.
    """
    site = "+".join(level.name for level in levels) if levels else "<empty>"
    if not levels:
        return [diag("RC105", "a fused group needs at least one level")]
    out = check_levels(levels)
    if any(d.is_error for d in out):
        return out  # geometry below would just cascade

    final = levels[-1].out_shape
    if tip_h <= 0 or tip_w <= 0:
        out.append(diag("RC102", f"tip must be positive, got {tip_h}x{tip_w}",
                        site=site, tip=(tip_h, tip_w)))
        return out
    if tip_h > final.height or tip_w > final.width:
        out.append(diag("RC102", f"tip {tip_h}x{tip_w} exceeds the group's "
                        f"final output map {final.height}x{final.width}",
                        site=site, tip=(tip_h, tip_w),
                        output=(final.height, final.width)))
        return out

    try:
        geometry = build_pyramid(levels, tip_h, tip_w)
    except ShapeError as err:  # pragma: no cover - prechecks above cover this
        out.append(diag("RC106", f"pyramid construction failed: {err}",
                        site=site))
        return out
    out.extend(check_pyramid_geometry(levels, geometry))

    if schedule_probes:
        try:
            schedule = FusedSchedule(levels, tip_h, tip_w)
        except ShapeError as err:
            out.append(diag("RC103", f"calcparams schedule rejected the "
                            f"group: {err}", site=site))
        else:
            out.extend(check_fused_schedule(schedule))

    if check_resources:
        out.extend(_check_group_resources(levels, geometry, strategy, device,
                                          dsp_budget, tile, site))
    return out


def _check_group_resources(levels: Sequence[Level],
                           geometry: PyramidGeometry, strategy: str,
                           device: FpgaDevice, dsp_budget: Optional[int],
                           tile: Optional[Tuple[int, int]],
                           site: str) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    conv_levels = [level for level in levels if level.is_conv]

    buffers = _group_buffer_words(levels, geometry, strategy)
    bram = _bram18_lower_bound(buffers)
    if bram > device.bram18:
        worst = max(buffers, key=lambda b: b[1])
        out.append(diag(
            "RC201", f"on-chip buffers need >= {bram} BRAM18 but "
            f"{device.name} has {device.bram18} "
            f"(largest: {worst[0]} at {worst[1]:,} words)",
            site=site, bram18_needed=bram, bram18_available=device.bram18,
            largest_buffer=worst[0]))
    else:
        weight_words = sum(level.weight_count for level in levels)
        budget_words = device.bram18 * WORDS_PER_BRAM18 // 2
        if weight_words > budget_words:
            out.append(diag(
                "RC203", f"{weight_words:,} weight words exceed half of "
                f"{device.name}'s BRAM ({budget_words:,} words): weights "
                "will not stay resident alongside the feature-map buffers",
                site=site, weight_words=weight_words,
                budget_words=budget_words))

    if conv_levels:
        budget = device.dsp_slices if dsp_budget is None else dsp_budget
        control_tax = 16 * (len(levels) + 2)
        lanes = len(conv_levels)  # one MAC lane per module, the floor
        if tile is not None:
            tm, tn = tile
            for level in conv_levels:
                m = level.out_channels // level.groups
                n = level.in_channels // level.groups
                if tm > m or tn > n:
                    out.append(diag(
                        "RC205", f"tile cap ({tm}, {tn}) exceeds "
                        f"{level.name}'s per-group channels ({m}, {n}); "
                        "the cap will be clipped",
                        site=level.name, tile=(tm, tn), channels=(m, n)))
            lanes = sum(min(tm, level.out_channels // level.groups)
                        * min(tn, level.in_channels // level.groups)
                        for level in conv_levels)
        dsp = lanes * DSP_PER_MAC + control_tax
        if dsp > budget:
            detail = ("explicit tile caps" if tile is not None
                      else "one lane per module plus control")
            out.append(diag(
                "RC202", f"group needs >= {dsp} DSPs ({detail}) but the "
                f"budget is {budget}", site=site,
                dsp_needed=dsp, dsp_budget=budget, modules=len(conv_levels)))
    return out


def check_partition(levels: Sequence[Level], sizes: Sequence[int],
                    tip: int = 1, strategy: str = "reuse",
                    device: FpgaDevice = VIRTEX7_690T,
                    dsp_budget: Optional[int] = None,
                    tiles: Optional[Sequence[Optional[Tuple[int, int]]]] = None,
                    check_resources: bool = True,
                    schedule_probes: bool = True,
                    clip_tip: bool = True) -> List[Diagnostic]:
    """Statically verify a full fusion partition of ``levels``.

    Coverage first (RC105), then each group via :func:`check_group`
    with its tip clipped to the group's output map (the clamp the
    hardware designer, tuner, and plan compiler all apply), with the
    DSP budget split across conv groups exactly the way
    :func:`~repro.hw.multi.design_partition` splits it. With
    ``clip_tip=False`` an oversized tip is reported (RC102) instead of
    clamped — the right behavior for a tip the user *requested*, as
    opposed to one restored from a record that relies on the clamp.
    """
    sizes = tuple(int(s) for s in sizes)
    if not sizes or any(s <= 0 for s in sizes):
        return [diag("RC105", f"partition sizes must be positive: {sizes}",
                     sizes=sizes)]
    if sum(sizes) != len(levels):
        return [diag("RC105", f"partition {sizes} covers {sum(sizes)} units "
                     f"but the network has {len(levels)}",
                     sizes=sizes, units=len(levels))]
    if tiles is not None and len(tiles) != len(sizes):
        return [diag("RC105", f"got {len(tiles)} tile entries for "
                     f"{len(sizes)} groups", sizes=sizes)]

    groups = split_groups(levels, sizes)
    budget = device.dsp_slices if dsp_budget is None else dsp_budget
    out: List[Diagnostic] = []
    shares: List[Optional[int]] = [None] * len(groups)
    if check_resources:
        computed = _partition_dsp_shares(groups, budget)
        if computed is None:
            floor = _GROUP_DSP_FLOOR * sum(
                1 for group in groups for level in group if level.is_conv)
            out.append(diag(
                "RC202", f"DSP budget {budget} cannot host {len(groups)} "
                f"engines (needs at least {floor})",
                dsp_budget=budget, groups=len(groups), floor=floor))
        else:
            shares = computed

    for i, group in enumerate(groups):
        tip_h, tip_w = group_tip(group, tip) if clip_tip else (tip, tip)
        out.extend(check_group(
            group,
            tip_h=tip_h, tip_w=tip_w,
            strategy=strategy, device=device,
            dsp_budget=shares[i],
            tile=None if tiles is None else tiles[i],
            check_resources=check_resources,
            schedule_probes=schedule_probes))
    return out


def _partition_dsp_shares(groups: Sequence[Sequence[Level]],
                          dsp_budget: int) -> Optional[List[Optional[int]]]:
    """Per-group DSP shares, mirroring ``design_partition`` exactly.

    Returns ``None`` when the budget cannot host the engines at all
    (the same condition under which ``design_partition`` raises).
    Pool-only groups get ``None`` (no DSP constraint applies).
    """
    work = [sum(level.total_ops for level in group if level.is_conv)
            for group in groups]
    total_work = sum(work) or 1
    floors = [_GROUP_DSP_FLOOR * sum(1 for level in group if level.is_conv)
              for group in groups]
    floor_total = sum(floors)
    if floor_total > dsp_budget:
        return None
    spare = dsp_budget - floor_total
    shares: List[Optional[int]] = []
    for group, floor, group_work in zip(groups, floors, work):
        if not any(level.is_conv for level in group):
            shares.append(None)
        else:
            shares.append(floor + int(spare * group_work / total_work))
    return shares


def check_network(network: Network, partition: Optional[Sequence[int]] = None,
                  tip: int = 1, strategy: str = "reuse",
                  device: FpgaDevice = VIRTEX7_690T,
                  dsp_budget: Optional[int] = None,
                  num_convs: Optional[int] = None,
                  pipeline_items: int = 64) -> CheckReport:
    """The ``repro check NETWORK`` entry point.

    Without ``partition``, the network's *dataflow* is verified on the
    layer-by-layer partition: level-chain consistency, pyramid
    re-derivation, calcparams stitching, pipeline hazards. With an
    explicit ``partition`` — a concrete design — the resource bounds
    (BRAM inventory with resident weights, ``design_partition`` DSP
    shares) are verified too; without one there is no design whose
    buffers could be sized. A capped discrete-event pipeline run feeds
    the hazard detector so schedule invariants are exercised on real
    schedules, not just closed forms.
    """
    report = CheckReport()
    sliced = (network.prefix(num_convs) if num_convs is not None
              else network.feature_extractor())
    levels = extract_levels(sliced)
    if not levels:
        report.extend(f"{sliced.name}: levels",
                      [diag("RC105", "network has no windowed levels",
                            site=sliced.name)])
        return report
    report.extend(f"{sliced.name}: {len(levels)} levels", check_levels(levels))

    explicit = partition is not None
    sizes = (tuple(int(s) for s in partition) if explicit
             else (1,) * len(independent_units(levels)))
    label = "+".join(str(s) for s in sizes)
    mode = "design" if explicit else "dataflow"
    report.extend(
        f"{sliced.name}: partition {label} (tip {tip}, {strategy}, {mode})",
        check_partition(levels, sizes, tip=tip, strategy=strategy,
                        device=device, dsp_budget=dsp_budget,
                        check_resources=explicit, clip_tip=False))

    # Drive the hazard detector over a real discrete-event schedule for
    # the partition's fused groups (capped items keep this millisecond-
    # scale; the detector sees genuine stage_finish matrices).
    if not report.errors:
        from ..hw.pipeline import StageTiming, simulate_pipeline

        hazard: List[Diagnostic] = []
        for group in split_groups(levels, sizes):
            try:
                geometry = build_pyramid(group, *group_tip(group, tip))
            except ShapeError:
                continue
            rows, cols = geometry.num_positions
            items = min(rows * cols, pipeline_items)
            stages = [StageTiming(t.level.name,
                                  max(t.new_in_h * t.new_in_w, 1))
                      for t in geometry.tiles]
            hazard.extend(check_pipeline_schedule(
                simulate_pipeline(stages, items)))
        report.extend(f"{sliced.name}: pipeline hazard scan "
                      f"({len(sizes)} groups)", hazard)
    return report
