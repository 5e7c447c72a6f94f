"""The recompute-strategy executor (Section III-C's alternative).

Where the reuse strategy stores inter-pyramid overlap in BL/BT buffers,
the recompute strategy re-derives every intermediate value each pyramid
needs: "Recomputing the values obviously adds extra arithmetic
operations, but has the advantage of simplicity; each pyramid's internal
dataflow is the same."

Each pyramid therefore evaluates its complete clamped footprint from the
input up, with no intermediate state carried between pyramids. The only
retained data is an input *line buffer* (the last ``base_h`` rows of the
input, full width) so the input is still read from DRAM exactly once —
the strategy trades arithmetic, not bandwidth.

The executor's operation counter reproduces
:func:`repro.core.costs.recompute_ops` exactly, tying the analytic model
of Section III-B to executed arithmetic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.pyramid import build_pyramid, position_footprint
from ..nn.shapes import ShapeError
from ..nn.stages import Level
from . import ops
from .trace import TrafficTrace
from .weights import make_network_weights


class InputLineBuffer:
    """Rolling buffer of the last ``rows`` padded input rows, full width.

    Reads outside the resident row window raise, machine-checking that
    the recompute schedule's input locality fits the buffer the paper's
    accelerator would provision.
    """

    def __init__(self, x: np.ndarray, pad: int, rows: int,
                 trace: TrafficTrace, dtype):
        self._x = x
        self._pad = pad
        self._rows = rows
        self._trace = trace
        self._dtype = dtype
        channels = x.shape[0]
        self._wp = x.shape[2] + 2 * pad
        self._hp = x.shape[1] + 2 * pad
        self._buffer = np.zeros((channels, rows, self._wp), dtype=dtype)
        self._row_lo = 0  # absolute padded row of buffer slot 0
        self._loaded = 0  # padded rows materialized so far

    @property
    def capacity_elements(self) -> int:
        return self._buffer.size

    def _load_through(self, row_hi: int) -> None:
        """Slide the buffer down until padded rows [.., row_hi) are resident."""
        if row_hi > self._hp:
            raise ShapeError(f"input row {row_hi} beyond padded height {self._hp}")
        while self._loaded < row_hi:
            row = self._loaded
            if row >= self._row_lo + self._rows:
                shift = row - (self._row_lo + self._rows) + 1
                self._buffer[:, :-shift] = self._buffer[:, shift:]
                self._row_lo += shift
            slot = row - self._row_lo
            real = row - self._pad
            if 0 <= real < self._x.shape[1]:
                self._buffer[:, slot, self._pad:self._wp - self._pad] = self._x[:, real]
                self._buffer[:, slot, :self._pad] = 0
                self._buffer[:, slot, self._wp - self._pad:] = 0
                self._trace.read("input", self._x.shape[2] * self._x.shape[0])
            else:
                self._buffer[:, slot] = 0
            self._loaded += 1

    def window(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """Padded-coordinate block, loading fresh rows from DRAM as needed."""
        self._load_through(r1)
        if r0 < self._row_lo:
            raise ShapeError(
                f"input row {r0} evicted from the line buffer (holds "
                f"[{self._row_lo}, {self._row_lo + self._rows}))"
            )
        lo = r0 - self._row_lo
        return self._buffer[:, lo:lo + (r1 - r0), c0:c1]


class RecomputeExecutor:
    """Evaluates a fused group by full per-pyramid recomputation."""

    def __init__(self, levels: Sequence[Level],
                 params: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None,
                 tip_h: int = 1, tip_w: int = 1, seed: int = 0,
                 integer: bool = False, dtype=None):
        if dtype is None:
            dtype = np.float64 if integer else np.float32
        self.levels = list(levels)
        if not self.levels:
            raise ShapeError("cannot execute zero levels")
        self.params = params if params is not None else make_network_weights(
            self.levels, seed=seed, integer=integer)
        self.tip_h = tip_h
        self.tip_w = tip_w
        self.dtype = dtype
        self.geometry = build_pyramid(self.levels, tip_h, tip_w)
        self.line_buffer_elements = 0

    def run(self, x: np.ndarray, trace: Optional[TrafficTrace] = None) -> np.ndarray:
        first = self.levels[0]
        shape = first.in_shape
        if x.shape != (shape.channels, shape.height, shape.width):
            raise ShapeError(f"input shape {x.shape} != expected {shape}")
        trace = trace if trace is not None else TrafficTrace()
        x = np.asarray(x, dtype=self.dtype)
        line = InputLineBuffer(x, first.pad, self.geometry.base_h, trace, self.dtype)
        self.line_buffer_elements = line.capacity_elements

        final = self.levels[-1].out_shape
        out = np.zeros((final.channels, final.height, final.width), dtype=self.dtype)
        rows, cols = self.geometry.num_positions
        for r in range(rows):
            for c in range(cols):
                block, box = self._run_pyramid(line, r, c, trace)
                r0, r1, c0, c1 = box
                out[:, r0:r1, c0:c1] = block
                trace.write("output", block.size)
        return out

    def _run_pyramid(self, line: InputLineBuffer, r: int, c: int,
                     trace: TrafficTrace):
        footprint = position_footprint(self.levels, r, c, self.tip_h, self.tip_w)
        current: Optional[np.ndarray] = None
        current_box: Optional[Tuple[int, int, int, int]] = None
        for level, box in zip(self.levels, footprint.out_ranges):
            r0, r1, c0, c1 = box
            # Padded input window this level needs for output [r0,r1)x[c0,c1).
            w_r0, w_r1 = r0 * level.stride, (r1 - 1) * level.stride + level.kernel
            w_c0, w_c1 = c0 * level.stride, (c1 - 1) * level.stride + level.kernel
            if current is None:
                window = line.window(w_r0, w_r1, w_c0, w_c1)
            else:
                window = self._frame(level, current, current_box,
                                     w_r0, w_r1, w_c0, w_c1)
            block = ops.run_level(level, window, self.params, pad=0)
            expect = (level.out_channels, r1 - r0, c1 - c0)
            if block.shape != expect:
                raise ShapeError(f"{level.name}: block {block.shape} != {expect}")
            trace.compute(level.name, block.size * level.ops_per_output)
            current, current_box = block, box
        assert current is not None and current_box is not None
        return current, current_box

    def _frame(self, level: Level, produced: np.ndarray,
               produced_box: Tuple[int, int, int, int],
               r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """Place the producer's computed block into this level's padded
        input window, zero-filling padding borders."""
        pad = level.pad
        pr0, pr1, pc0, pc1 = produced_box
        window = np.zeros((produced.shape[0], r1 - r0, c1 - c0), dtype=self.dtype)
        in_shape = level.in_shape
        u_r0 = min(max(r0 - pad, 0), in_shape.height)
        u_r1 = min(max(r1 - pad, 0), in_shape.height)
        u_c0 = min(max(c0 - pad, 0), in_shape.width)
        u_c1 = min(max(c1 - pad, 0), in_shape.width)
        if (u_r0, u_r1, u_c0, u_c1) != (pr0, pr1, pc0, pc1):
            raise ShapeError(
                f"{level.name}: producer block {produced_box} does not match "
                f"window demand {(u_r0, u_r1, u_c0, u_c1)}"
            )
        window[:, pad + pr0 - r0:pad + pr1 - r0,
               pad + pc0 - c0:pad + pc1 - c0] = produced
        return window
