"""Execute a fusion partition end to end: fused groups chained via DRAM.

The exploration tool scores partitions; this executor *runs* them — one
:class:`~repro.sim.fused.FusedExecutor` per group, handing each boundary
feature map through (traced) DRAM, exactly the multi-pyramid
organization of Figure 4. The measured traffic equals the partition
analysis's prediction and the output is bit-identical to a monolithic
layer-by-layer evaluation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.partition import group_tip, split_groups
from ..nn.stages import Level
from .fused import FusedExecutor
from .trace import TrafficTrace
from .weights import make_network_weights


class PartitionedExecutor:
    """Runs ``levels`` split into fused groups of the given ``sizes``.

    ``tip_h``/``tip_w`` apply per group (clamped to each group's output
    map). A size-1 group degenerates to plain layer-at-a-time execution
    of that level — so ``sizes=(1,)*n`` reproduces the traditional
    schedule and ``sizes=(n,)`` the fully fused one.
    """

    def __init__(self, levels: Sequence[Level], sizes: Sequence[int],
                 params: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None,
                 tip_h: int = 1, tip_w: int = 1, seed: int = 0,
                 integer: bool = False):
        groups = split_groups(levels, sizes)
        self.levels = list(levels)
        self.sizes = tuple(sizes)
        self.params = params if params is not None else make_network_weights(
            self.levels, seed=seed, integer=integer)
        self.groups: List[FusedExecutor] = []
        for group in groups:
            clipped_h, clipped_w = group_tip(group, tip_h, tip_w)
            self.groups.append(FusedExecutor(
                group, params=self.params, tip_h=clipped_h,
                tip_w=clipped_w, integer=integer))

    @property
    def boundary_shapes(self):
        """Shapes of the maps staged through DRAM between groups."""
        return [g.levels[-1].out_shape for g in self.groups[:-1]]

    def run(self, x: np.ndarray, trace: Optional[TrafficTrace] = None) -> np.ndarray:
        """Evaluate all groups; boundary traffic lands in ``trace`` via
        each group's own input-read / output-write accounting."""
        current = x
        for group in self.groups:
            current = group.run(current, trace)
        return current

    @property
    def buffer_bytes(self) -> int:
        """Peak on-chip reuse-buffer footprint (groups run one at a time,
        so the maximum group governs a time-multiplexed engine; the sum
        governs spatially separate engines)."""
        return max(g.buffer_bytes for g in self.groups)

    @property
    def total_buffer_bytes(self) -> int:
        return sum(g.buffer_bytes for g in self.groups)
