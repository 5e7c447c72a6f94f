"""Tiled baseline executor — Listings 1-2's loop nest, measured.

The baseline accelerator model (:mod:`repro.hw.baseline`) predicts the
layer-by-layer design's traffic analytically: the input is re-read once
per M-tile group, with the ``K - S`` halo re-fetched around every
spatial tile, while the output tile accumulates on chip across the N
loop. This executor *runs* that loop nest: per stage, per (m-group,
spatial tile), it loads the input tile from (traced) DRAM, computes the
partial convolution per n-group on chip, applies ReLU and any merged
pooling, and stores the tile once. Its measured traffic reproduces
:func:`repro.hw.baseline.stage_cost` exactly and its output is
bit-identical to the reference executor.
"""

from __future__ import annotations

from math import ceil
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.shapes import ShapeError
from ..nn.stages import Level
from . import ops
from .trace import TrafficTrace
from .weights import make_network_weights


class TiledBaselineExecutor:
    """Executes levels one at a time with the Tm/Tr/Tc tiling of [19].

    ``tm`` is the output-channel tile (the unrolled M loop — the model's
    traffic only depends on the M tiling, since the N loop accumulates
    into the on-chip output tile); ``tr``/``tc`` are the spatial tile.
    Pooling levels immediately following a conv are merged into its
    store, as the paper grants the baseline.
    """

    def __init__(self, levels: Sequence[Level],
                 params: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None,
                 tm: int = 16, tr: int = 16, tc: int = 16,
                 seed: int = 0, integer: bool = False, dtype=None):
        if dtype is None:
            dtype = np.float64 if integer else np.float32
        if tm <= 0 or tr <= 0 or tc <= 0:
            raise ShapeError("tile parameters must be positive")
        self.levels = list(levels)
        self.params = params if params is not None else make_network_weights(
            self.levels, seed=seed, integer=integer)
        self.tm, self.tr, self.tc = tm, tr, tc
        self.dtype = dtype

    def run(self, x: np.ndarray, trace: Optional[TrafficTrace] = None) -> np.ndarray:
        trace = trace if trace is not None else TrafficTrace()
        current = np.asarray(x, dtype=self.dtype)
        i = 0
        while i < len(self.levels):
            level = self.levels[i]
            if not level.is_conv:
                raise ShapeError(
                    f"{level.name}: the baseline schedule expects conv stages "
                    f"(pooling merges into the preceding conv's store)"
                )
            pool: Optional[Level] = None
            if i + 1 < len(self.levels) and self.levels[i + 1].is_pool:
                pool = self.levels[i + 1]
                i += 1
            current = self._run_stage(level, pool, current, trace)
            i += 1
        return current

    def _run_stage(self, level: Level, pool: Optional[Level], x: np.ndarray,
                   trace: TrafficTrace) -> np.ndarray:
        out_shape = level.out_shape
        k, s, pad = level.kernel, level.stride, level.pad
        w, b = self.params[level.name]
        conv_out = np.zeros((out_shape.channels, out_shape.height, out_shape.width),
                            dtype=self.dtype)
        padded = ops.pad2d(x, pad)
        m_groups = ceil(out_shape.channels / self.tm)
        g = level.groups
        m_per_group = out_shape.channels // g

        for mg in range(m_groups):
            m0 = mg * self.tm
            m1 = min(m0 + self.tm, out_shape.channels)
            for r0 in range(0, out_shape.height, self.tr):
                r1 = min(r0 + self.tr, out_shape.height)
                for c0 in range(0, out_shape.width, self.tc):
                    c1 = min(c0 + self.tc, out_shape.width)
                    # DRAM load: the tile's input window (with halo),
                    # real elements only — padding zeros are synthesized.
                    in_r0, in_r1 = r0 * s, (r1 - 1) * s + k
                    in_c0, in_c1 = c0 * s, (c1 - 1) * s + k
                    window = padded[:, in_r0:in_r1, in_c0:in_c1]
                    real_rows = (min(in_r1 - pad, level.in_shape.height)
                                 - max(in_r0 - pad, 0))
                    real_cols = (min(in_c1 - pad, level.in_shape.width)
                                 - max(in_c0 - pad, 0))
                    trace.read(level.name,
                               max(real_rows, 0) * max(real_cols, 0) * x.shape[0])
                    # Compute the tile for this m-group (all n on chip:
                    # the N loop accumulates into the output buffer).
                    for m in range(m0, m1):
                        grp = m // m_per_group
                        n_per = level.in_channels // g
                        w_m = w[m:m + 1]
                        block = ops.conv2d(
                            window[grp * n_per:(grp + 1) * n_per],
                            w_m, b[m:m + 1], stride=s, groups=1)
                        conv_out[m, r0:r1, c0:c1] = block[0]
                    trace.compute(
                        level.name,
                        (m1 - m0) * (r1 - r0) * (c1 - c0) * level.ops_per_output)
        if level.has_relu:
            conv_out = ops.relu(conv_out)
        if pool is not None:
            result = ops.run_level(pool, conv_out, self.params)
            trace.compute(pool.name, pool.total_ops)
        else:
            result = conv_out
        trace.write(level.name, result.size)
        return result
