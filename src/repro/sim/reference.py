"""Layer-by-layer reference executor — the traditional CNN schedule.

"Traditional implementations of CNNs evaluate the network by following its
structure, one layer at a time", streaming every intermediate feature map
out to DRAM and back. This executor is (a) the functional golden model
the fused executor is checked against and (b) the traffic baseline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..nn.stages import Level
from .ops import run_level
from .trace import TrafficTrace
from .weights import make_level_weights


class ReferenceExecutor:
    """Executes a list of levels one layer at a time.

    Every level reads its input from (virtual) DRAM and writes its output
    back — the paper's baseline data-movement pattern. ``merge_pooling``
    folds each pooling level into the preceding level's store, the
    bandwidth-free optimization the paper grants its baseline.
    """

    def __init__(self, levels: Sequence[Level],
                 params: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None,
                 seed: int = 0, integer: bool = False):
        self.levels = list(levels)
        self.params = params if params is not None else make_level_weights(
            self.levels, seed=seed, integer=integer)

    def run(self, x: np.ndarray, trace: Optional[TrafficTrace] = None,
            merge_pooling: bool = False) -> np.ndarray:
        """Evaluate all levels; optionally record traffic into ``trace``."""
        outputs = self.run_all(x, trace=trace, merge_pooling=merge_pooling)
        return outputs[-1] if outputs else x

    def run_all(self, x: np.ndarray, trace: Optional[TrafficTrace] = None,
                merge_pooling: bool = False) -> List[np.ndarray]:
        """Evaluate all levels, returning every level's output in order."""
        outputs: List[np.ndarray] = []
        current = x
        i = 0
        mark = obs.traffic_mark(trace)
        with obs.span("reference.run", levels=len(self.levels)):
            while i < len(self.levels):
                level = self.levels[i]
                if trace is not None:
                    trace.read(level.name, current.size)
                with obs.span("reference.level", level=level.name):
                    current = run_level(level, current, self.params)
                outputs.append(current)
                # A merged pooling level consumes the conv output on chip
                # before anything is stored.
                if (merge_pooling and level.is_conv and i + 1 < len(self.levels)
                        and self.levels[i + 1].is_pool):
                    pool = self.levels[i + 1]
                    with obs.span("reference.level", level=pool.name):
                        current = run_level(pool, current, self.params)
                    outputs.append(current)
                    i += 1
                    if trace is not None:
                        trace.write(pool.name, current.size)
                        trace.compute(pool.name, pool.total_ops)
                elif trace is not None:
                    trace.write(level.name, current.size)
                if trace is not None:
                    trace.compute(level.name, level.total_ops)
                i += 1
            obs.mirror_traffic(trace, "sim.reference", mark)
        return outputs
