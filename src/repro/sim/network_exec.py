"""Whole-network execution layer by layer: the oracle for linear plans.

The level executors (:mod:`repro.sim.reference`, :mod:`repro.sim.fused`)
cover the fusion scope — windowed layers plus ReLU/padding. This module
executes complete :class:`~repro.nn.network.Network` objects, including
the LRN and fully connected layers the paper's accelerators exclude, so
zoo networks can be evaluated end to end (the role Torch played for the
paper's tool). Each layer goes through :func:`repro.sim.ops.apply_spec`.

It uses no graph IR, no lowering and no fused schedule, so it is the
independent oracle served linear plans are checked against: a
:class:`~repro.serve.plan.CompiledPlan` runs its fused partition through
:class:`~repro.graph.executor.GraphExecutor` on the network's chain
graph, and ``serve-bench --check``, the soak's spot checks and the tests
compare its outputs with :meth:`NetworkExecutor.run`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..nn.network import Network
from ..nn.shapes import ShapeError
from . import ops
from .trace import TrafficTrace
from .weights import make_network_weights


class NetworkExecutor:
    """Executes a full network layer by layer (the Torch role).

    Weights are deterministic per seed unless supplied; shapes are
    validated against the network's inferred shapes at every step, so a
    drift between the IR's shape inference and the operators fails loudly.
    A volume (or a stacked batch) runs in its own dtype.
    """

    def __init__(self, network: Network,
                 params: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None,
                 seed: int = 0, integer: bool = False):
        self.network = network
        self.params = params if params is not None else make_network_weights(
            network, seed=seed, integer=integer)

    def run(self, x: np.ndarray, trace: Optional[TrafficTrace] = None) -> np.ndarray:
        """Evaluate the whole network; returns the final output volume."""
        return self.run_all(x, trace)[-1] if len(self.network) else np.asarray(x)

    def run_all(self, x: np.ndarray, trace: Optional[TrafficTrace] = None) -> List[np.ndarray]:
        """Evaluate all layers, returning every intermediate volume.

        ``x`` is one ``(C, H, W)`` volume or a stacked ``(B, C, H, W)``
        batch; a batch's traffic is the sum of its items'.
        """
        expected = self.network.input_shape
        current = np.asarray(x)
        lead = current.shape[:-3]
        if (current.ndim not in (3, 4) or current.shape[-3:]
                != (expected.channels, expected.height, expected.width)):
            raise ShapeError(f"input {current.shape} != network input {expected}")
        items = current.shape[0] if lead else 1
        outputs: List[np.ndarray] = []
        mark = obs.traffic_mark(trace)
        with obs.span("network.run", network=self.network.name,
                      layers=len(self.network)):
            for binding in self.network:
                if trace is not None:
                    trace.read(binding.name, current.size)
                with obs.span("network.layer", layer=binding.name):
                    current = ops.apply_spec(binding.spec, current, self.params)
                out = binding.output_shape
                if current.shape != lead + (out.channels, out.height, out.width):
                    raise ShapeError(
                        f"{binding.name}: produced {current.shape}, inferred {out}"
                    )
                if trace is not None:
                    trace.write(binding.name, current.size)
                    trace.compute(binding.name, binding.total_ops * items,
                                  macs=binding.total_ops // 2 * items)
                outputs.append(current)
            obs.mirror_traffic(trace, "sim.network", mark)
        return outputs

    def classify(self, x: np.ndarray) -> int:
        """Index of the maximum output — a toy top-1 'prediction'."""
        return int(np.argmax(self.run(x).ravel()))
