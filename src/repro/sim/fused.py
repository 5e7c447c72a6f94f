"""The fused pyramid executor — Listing 3 realized in NumPy.

For every pyramid position (row-major over the final output map), each
fused level computes only the *fresh* block of its output: the data no
earlier pyramid produced. The input window for that block is assembled
from three sources, exactly as Listing 4's ``reuse`` module does:

* **BT** — rows computed during the previous pyramid row (top overlap),
* **BL** — columns computed by the previous pyramid in this row (left
  overlap),
* the producer level's fresh block (or a DRAM read at the group input).

Reuse buffers are bounded at their steady-state capacities and every read
is checked (:mod:`repro.sim.reuse`), so a schedule bug that touches
non-resident data raises instead of silently reusing stale values. The
executor's output is checked bit-identical (integer weights) or
numerically identical (float) to :class:`~repro.sim.reference.ReferenceExecutor`
by the test suite, and its DRAM traffic counters show each input element
read exactly once and each output element written exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..faults.retry import RetryPolicy
from ..faults.spec import TRANSFER_CORRUPT
from ..nn.shapes import ShapeError
from ..nn.stages import Level
from . import ops
from .reuse import BufferSpec, MapReuseState
from .trace import TrafficTrace
from .weights import make_network_weights


@dataclass(frozen=True)
class _LevelPlan:
    """Precomputed boundaries for one level of the fused group.

    ``ob_r[i]`` — output rows complete after pyramid row ``i-1`` (``ob_r[0]
    = 0``); ``ib_r[i]`` — the corresponding padded-input row boundary
    ``(ob_r[i] - 1) * S + K``. Same for columns. The fresh block of
    pyramid ``(p, q)`` at this level is rows ``[ob_r[p], ob_r[p+1])`` x
    cols ``[ob_c[q], ob_c[q+1])`` of the output map, and its input window
    is rows ``[ob_r[p]*S, ib_r[p+1])`` x cols ``[ob_c[q]*S, ib_c[q+1])``.
    """

    level: Level
    ob_r: Tuple[int, ...]
    ib_r: Tuple[int, ...]
    ob_c: Tuple[int, ...]
    ib_c: Tuple[int, ...]


def _bounds(out_bounds: Sequence[int], kernel: int, stride: int) -> Tuple[int, ...]:
    return tuple(0 if ob == 0 else (ob - 1) * stride + kernel for ob in out_bounds)


class _Call(NamedTuple):
    """Per-call state of one :meth:`FusedExecutor.run`: kept off the
    executor so concurrent calls on one executor never share it."""

    input: np.ndarray
    trace: TrafficTrace
    states: List[Optional[MapReuseState]]

    @property
    def lead(self) -> Tuple[int, ...]:
        """The batch axis the call carries (``()`` for one volume)."""
        return self.input.shape[:-3]


def plan_levels(levels: Sequence[Level], tip_h: int, tip_w: int) -> List[_LevelPlan]:
    """Backward boundary propagation from the pyramid tip to the input."""
    if not levels:
        raise ShapeError("cannot fuse zero levels")
    final = levels[-1].out_shape
    if final.height % tip_h or final.width % tip_w:
        raise ShapeError(
            f"tip {tip_h}x{tip_w} must divide the final output map "
            f"{final.height}x{final.width} evenly"
        )
    rows = final.height // tip_h
    cols = final.width // tip_w
    ob_r: Sequence[int] = tuple(i * tip_h for i in range(rows + 1))
    ob_c: Sequence[int] = tuple(j * tip_w for j in range(cols + 1))

    plans: List[_LevelPlan] = []
    for level in reversed(levels):
        ib_r = _bounds(ob_r, level.kernel, level.stride)
        ib_c = _bounds(ob_c, level.kernel, level.stride)
        plans.append(_LevelPlan(level=level, ob_r=tuple(ob_r), ib_r=ib_r,
                                ob_c=tuple(ob_c), ib_c=ib_c))
        # Producer's output bounds: strip this level's padding, clamp.
        in_shape = level.in_shape
        ob_r = tuple(min(max(b - level.pad, 0), in_shape.height) for b in ib_r)
        ob_c = tuple(min(max(b - level.pad, 0), in_shape.width) for b in ib_c)
    return list(reversed(plans))


class FusedExecutor:
    """Evaluates a fused group of levels with the pyramid schedule.

    Parameters
    ----------
    levels:
        The fused group, e.g. ``extract_levels(vggnet_e().prefix(5))``.
    params:
        ``{conv_name: (weights, bias)}``; generated deterministically when
        omitted.
    tip_h, tip_w:
        Pyramid tip (output tile); must divide the final output map.
    input_reuse:
        When True (default, the paper's design) the group input also gets
        BL/BT buffers so every input element is read from DRAM exactly
        once. When False, window overlaps at the input are re-read from
        DRAM each pyramid (halo traffic), an ablation of the input-level
        buffering.
    faults, retry:
        A :class:`~repro.faults.injector.FaultInjector` subjects every
        DRAM input read to the plan's ``transfer_corrupt`` fault.
        Corruption is detected (checksum model) and repaired by bounded
        re-reads under ``retry`` — the repair traffic is traced under the
        ``input_refetch`` label — so the executor's *outputs stay
        bit-identical to the fault-free golden reference*; only the
        traffic changes. Exhausting the retry budget raises
        :class:`~repro.errors.SimFaultError`.

    The executor holds configuration only: every :meth:`run` allocates
    its own reuse buffers and trace, so threads may share one executor.
    A run carries a leading batch axis of its input through every
    window, buffer and operator, so one pass of the schedule serves a
    stacked batch.
    """

    def __init__(self, levels: Sequence[Level],
                 params: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None,
                 tip_h: int = 1, tip_w: int = 1, seed: int = 0,
                 integer: bool = False, input_reuse: bool = True,
                 dtype=None, faults=None, retry: Optional[RetryPolicy] = None):
        if dtype is None:
            dtype = np.float64 if integer else np.float32
        self.levels = list(levels)
        self.params = params if params is not None else make_network_weights(
            self.levels, seed=seed, integer=integer)
        self.tip_h = tip_h
        self.tip_w = tip_w
        self.input_reuse = input_reuse
        self.dtype = dtype
        self.plans = plan_levels(self.levels, tip_h, tip_w)
        final = self.levels[-1].out_shape
        self.grid_rows = final.height // tip_h
        self.grid_cols = final.width // tip_w
        #: BL/BT buffer geometry per level (None: no reuse buffering);
        #: every call allocates its own buffers from it.
        self.buffers = tuple(self._buffer_spec(i, plan)
                             for i, plan in enumerate(self.plans))
        self.buffer_bytes = sum(
            b.buffer_elements for b in self.buffers if b is not None
        ) * np.dtype(self.dtype).itemsize
        self._faults = faults
        self._retry = retry if retry is not None else RetryPolicy()
        #: the ``fused.run`` span's attributes, fixed per executor
        self._span_attrs = {"levels": len(self.levels),
                            "grid": f"{self.grid_rows}x{self.grid_cols}",
                            "tip": f"{tip_h}x{tip_w}"}

    # -- public API -----------------------------------------------------------

    def run(self, x: np.ndarray, trace: Optional[TrafficTrace] = None) -> np.ndarray:
        """Evaluate the fused group over input ``x``; returns the final map.

        ``x`` is one ``(C, H, W)`` volume or a stacked ``(B, C, H, W)``
        batch. A batch's traffic is the sum of its items': each DRAM read
        moves the block of every item at once (under one fault draw).
        """
        first = self.levels[0].in_shape
        x = np.asarray(x, dtype=self.dtype)
        if (x.ndim not in (3, 4)
                or x.shape[-3:] != (first.channels, first.height, first.width)):
            raise ShapeError(f"input shape {x.shape} != expected {first}")
        call = _Call(input=x,
                     trace=trace if trace is not None else TrafficTrace(),
                     states=[None if b is None
                             else b.allocate(self.dtype, x.shape[:-3])
                             for b in self.buffers])
        mark = obs.traffic_mark(call.trace)
        final = self.levels[-1].out_shape
        out = np.zeros(call.lead + (final.channels, final.height, final.width),
                       dtype=self.dtype)

        with obs.span("fused.run", **self._span_attrs):
            for p in range(self.grid_rows):
                with obs.span("fused.pyramid_row", row=p):
                    for q in range(self.grid_cols):
                        fresh, box = self._run_pyramid(call, p, q)
                        r0, r1, c0, c1 = box
                        out[..., r0:r1, c0:c1] = fresh
                        call.trace.write("output", fresh.size)
                        obs.add_counter("sim.fused.pyramids", 1)
            obs.set_gauge("sim.fused.buffer_bytes", self.buffer_bytes)
            obs.mirror_traffic(call.trace, "sim.fused", mark)
        return out

    # -- setup ----------------------------------------------------------------

    def _buffer_spec(self, i: int, plan: _LevelPlan) -> Optional[BufferSpec]:
        level = plan.level
        if i == 0 and not self.input_reuse:
            return None
        # A buffer is only needed along an axis where pyramids actually
        # overlap: K > S and more than one pyramid position.
        need_v = level.overlap if self.grid_rows > 1 else 0
        need_h = level.overlap if self.grid_cols > 1 else 0
        if need_v == 0 and need_h == 0:
            return None
        padded = level.padded_in_shape
        # Tallest input window over all pyramid rows (usually the
        # first row's, but padding larger than K - S makes interior
        # windows taller).
        max_bl_rows = max(
            plan.ib_r[p + 1] - plan.ob_r[p] * level.stride
            for p in range(self.grid_rows)
        )
        return BufferSpec(name=f"in[{level.name}]", channels=level.in_channels,
                          hp=padded.height, wp=padded.width, o_v=need_v,
                          o_h=need_h, max_bl_rows=max_bl_rows)

    # -- per-pyramid execution --------------------------------------------------

    def _run_pyramid(self, call: _Call, p: int,
                     q: int) -> Tuple[np.ndarray, Tuple[int, int, int, int]]:
        with obs.span("fused.pyramid", p=p, q=q):
            return self._run_pyramid_levels(call, p, q)

    def _run_pyramid_levels(self, call: _Call, p: int,
                            q: int) -> Tuple[np.ndarray, Tuple[int, int, int, int]]:
        pending: Optional[Tuple[np.ndarray, Tuple[int, int, int, int]]] = None
        for i, plan in enumerate(self.plans):
            level = plan.level
            a_r, b_r = plan.ob_r[p], plan.ob_r[p + 1]
            a_c, b_c = plan.ob_c[q], plan.ob_c[q + 1]
            if b_r <= a_r or b_c <= a_c:
                # Nothing new at this level for this pyramid: everything the
                # consumer needs was computed by earlier pyramids (possible
                # near map edges, where a consumer's last rows/columns
                # depend only on padding). Pass an empty block upward.
                empty = np.zeros(
                    call.lead + (level.out_channels, b_r - a_r, b_c - a_c),
                    dtype=self.dtype)
                pending = (empty, (a_r, b_r, a_c, b_c))
                continue
            rlo, rhi = a_r * level.stride, plan.ib_r[p + 1]
            clo, chi = a_c * level.stride, plan.ib_c[q + 1]
            rbt = max(plan.ib_r[p], rlo)
            cbl = max(plan.ib_c[q], clo)

            window = self._assemble(call, i, pending, rlo, rbt, rhi, clo, cbl, chi)
            self._update_buffers(call, i, window, p, q, rlo, rbt, rhi, clo, chi)
            fresh = ops.run_level(level, window, self.params, pad=0)
            expect = call.lead + (level.out_channels, b_r - a_r, b_c - a_c)
            if fresh.shape != expect:
                raise ShapeError(
                    f"{level.name}: fresh block {fresh.shape} != expected {expect}"
                )
            call.trace.compute(level.name, fresh.size * level.ops_per_output)
            pending = (fresh, (a_r, b_r, a_c, b_c))
        assert pending is not None
        return pending

    def _assemble(self, call: _Call, i: int, pending, rlo: int, rbt: int,
                  rhi: int, clo: int, cbl: int, chi: int) -> np.ndarray:
        """Build level ``i``'s input window from BT + BL + fresh data."""
        state = call.states[i]
        if state is None:
            # No reuse buffering at this map: the whole window is fresh
            # (only legal for the group input with input_reuse=False, or a
            # map with no inter-pyramid overlap), framed in a new array.
            if i == 0:
                return self._read_input(call, rlo, rhi, clo, chi)
            return self._place_fresh(i, pending, rlo, rhi, clo, chi)

        level = self.plans[i].level
        window = np.zeros(
            call.lead + (level.in_channels, rhi - rlo, chi - clo),
            dtype=self.dtype)
        if rbt > rlo:
            window[..., :rbt - rlo, :] = state.read_bt(rlo, rbt, clo, chi)
        if cbl > clo:
            window[..., rbt - rlo:, :cbl - clo] = state.read_bl(rbt, rhi, clo, cbl)
        if i == 0:
            fresh = self._read_input(call, rbt, rhi, cbl, chi)
        else:
            fresh = self._place_fresh(i, pending, rbt, rhi, cbl, chi)
        window[..., rbt - rlo:, cbl - clo:] = fresh
        return window

    def _update_buffers(self, call: _Call, i: int, window: np.ndarray, p: int,
                        q: int, rlo: int, rbt: int, rhi: int, clo: int,
                        chi: int) -> None:
        state = call.states[i]
        if state is None:
            return
        plan = self.plans[i]
        # A pyramid is the row's (column's) last *active* one for this
        # level when no later pyramid produces fresh data here — either it
        # is literally the last, or the level's bounds have saturated
        # (remaining outputs depend only on padding).
        last_active_col = plan.ob_c[q + 1] >= plan.ob_c[-1]
        last_active_row = plan.ob_r[p + 1] >= plan.ob_r[-1]
        if state.o_h > 0 and not last_active_col:
            state.write_bl(window[..., rbt - rlo:, chi - clo - state.o_h:],
                           row_lo=rbt, col_lo=chi - state.o_h)
        if state.o_v > 0 and not last_active_row:
            # Defer the last o_h columns to the next active pyramid (they
            # are its window's BL-adjacent region and it writes them
            # itself); the row's last active pyramid writes to the edge.
            w1 = chi if last_active_col else chi - state.o_h
            if w1 > clo:
                state.write_bt(window[..., rhi - state.o_v - rlo:, :w1 - clo],
                               row_lo=rhi - state.o_v, col_lo=clo, col_hi=w1)

    def _read_input(self, call: _Call, r0: int, r1: int, c0: int,
                    c1: int) -> np.ndarray:
        """Read a padded-coordinate block of the group input from DRAM."""
        level = self.levels[0]
        block = self._pad_block(call.input, level.pad, r0, r1, c0, c1)
        real = self._real_elements(level.pad, level.in_shape, r0, r1, c0, c1)
        if real:
            words = real * math.prod(call.input.shape[:-2])  # items x channels
            call.trace.read("input", words)
            if self._faults is not None:
                self._repair_corrupt_read(call.trace, f"input[{r0}:{c0}]", words)
        return block

    def _repair_corrupt_read(self, trace: TrafficTrace, site: str,
                             words: int) -> None:
        """Detect-and-refetch loop for one DRAM read under injected
        ``transfer_corrupt`` faults. The returned data is always correct
        (detection never misses); the cost is re-read traffic, traced as
        ``input_refetch`` so the once-per-element invariant of the
        ``input`` label is preserved."""
        attempt = 1
        while self._faults.corrupts(site):
            obs.add_counter("sim.fused.corrupt_reads")
            if attempt >= self._retry.max_attempts:
                raise self._retry.exhausted(site, TRANSFER_CORRUPT, words=words)
            self._faults.record_refetch(site)
            trace.read("input_refetch", words)
            attempt += 1

    def _place_fresh(self, i: int, pending, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """Frame the producer's fresh block into padded coordinates.

        The producer's block must *cover* the demand; it can exceed it
        when this level's kernel is smaller than its stride (the windows
        skip data, so the gap columns the producer computed are never
        consumed) — the demanded subrange is sliced out.
        """
        if pending is None:
            raise ShapeError("no pending fresh block from producer")
        fresh, (fr0, fr1, fc0, fc1) = pending
        level = self.plans[i].level
        pad = level.pad
        if pad == 0 and (fr0, fr1, fc0, fc1) == (r0, r1, c0, c1):
            return fresh  # the demand exactly: nothing to frame
        block = np.zeros(fresh.shape[:-2] + (r1 - r0, c1 - c0), dtype=self.dtype)
        in_shape = level.in_shape
        u_r0 = min(max(r0 - pad, 0), in_shape.height)
        u_r1 = min(max(r1 - pad, 0), in_shape.height)
        u_c0 = min(max(c0 - pad, 0), in_shape.width)
        u_c1 = min(max(c1 - pad, 0), in_shape.width)
        if not (fr0 <= u_r0 and u_r1 <= fr1 and fc0 <= u_c0 and u_c1 <= fc1):
            raise ShapeError(
                f"{level.name}: fresh block {(fr0, fr1, fc0, fc1)} does not "
                f"cover window demand {(u_r0, u_r1, u_c0, u_c1)}"
            )
        if u_r1 > u_r0 and u_c1 > u_c0:
            block[..., pad + u_r0 - r0:pad + u_r1 - r0,
                  pad + u_c0 - c0:pad + u_c1 - c0] = \
                fresh[..., u_r0 - fr0:u_r1 - fr0, u_c0 - fc0:u_c1 - fc0]
        return block

    @staticmethod
    def _pad_block(x: np.ndarray, pad: int, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """Block [r0,r1)x[c0,c1) of the zero-padded version of ``x``."""
        height, width = x.shape[-2:]
        if pad == 0 and (r0, r1, c0, c1) == (0, height, 0, width):
            return x  # the whole unpadded map: nothing to frame
        block = np.zeros(x.shape[:-2] + (r1 - r0, c1 - c0), dtype=x.dtype)
        u_r0, u_r1 = max(r0 - pad, 0), min(r1 - pad, height)
        u_c0, u_c1 = max(c0 - pad, 0), min(c1 - pad, width)
        if u_r1 > u_r0 and u_c1 > u_c0:
            block[..., pad + u_r0 - r0:pad + u_r1 - r0,
                  pad + u_c0 - c0:pad + u_c1 - c0] = x[..., u_r0:u_r1, u_c0:u_c1]
        return block

    @staticmethod
    def _real_elements(pad, shape, r0, r1, c0, c1) -> int:
        u_r0, u_r1 = max(r0 - pad, 0), min(r1 - pad, shape.height)
        u_c0, u_c1 = max(c0 - pad, 0), min(c1 - pad, shape.width)
        return max(u_r1 - u_r0, 0) * max(u_c1 - u_c0, 0)
