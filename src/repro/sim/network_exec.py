"""Whole-network execution: every layer type, end to end.

The level executors (:mod:`repro.sim.reference`, :mod:`repro.sim.fused`)
cover the fusion scope — windowed layers plus ReLU/padding. This module
executes complete :class:`~repro.nn.network.Network` objects, including
the LRN and fully connected layers the paper's accelerators exclude, so
zoo networks can be evaluated end to end (the role Torch played for the
paper's tool). Each layer goes through :func:`repro.sim.ops.apply_spec`,
and a batch runs either as one stacked call per layer or item by item —
see :meth:`NetworkExecutor.run_batch`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn.layers import LRNSpec, PoolSpec
from .. import obs
from ..nn.network import Network
from ..nn.shapes import ShapeError
from . import ops
from .trace import TrafficTrace
from .weights import make_network_weights


def preserves_exact_arithmetic(network: Network) -> bool:
    """True when every layer keeps integer-mode activations exact.

    Convolution, ReLU, padding, max pooling, and dense layers map
    integer-valued float64 tensors to exactly-representable values, as
    does average pooling with a power-of-two window count (division by a
    power of two is exact). LRN is not exact (``scale ** 0.75`` rounds),
    and a rounded activation makes every downstream reduction
    order-sensitive — so such networks must run batches item by item to
    stay bit-identical.
    """
    for binding in network:
        spec = binding.spec
        if isinstance(spec, LRNSpec):
            return False
        if isinstance(spec, PoolSpec) and spec.mode == "avg":
            count = spec.kernel * spec.kernel
            if count & (count - 1):
                return False
    return True


class NetworkExecutor:
    """Executes a full network layer by layer (the Torch role).

    Weights are deterministic per seed unless supplied; shapes are
    validated against the network's inferred shapes at every step, so a
    drift between the IR's shape inference and the operators fails loudly.
    """

    def __init__(self, network: Network,
                 params: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None,
                 seed: int = 0, integer: bool = False):
        self.network = network
        self.params = params if params is not None else make_network_weights(
            network, seed=seed, integer=integer)
        #: One stacked call per layer is bit-identical to per-item runs
        #: only when all arithmetic is exact: integer mode on a network
        #: that keeps it so. Float BLAS may block a wider matmul
        #: differently and change final ULPs.
        self.vectorized = integer and preserves_exact_arithmetic(network)

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

    def run_batch(self, xs, trace: Optional[TrafficTrace] = None) -> List[np.ndarray]:
        """Evaluate a batch; outputs equal ``B`` independent :meth:`run` calls.

        ``xs`` is a sequence of ``(C, H, W)`` volumes or a stacked
        ``(B, C, H, W)`` array. When :attr:`vectorized` holds, the batch
        runs as one stacked call per layer (a single ``network.run``
        span); otherwise each item runs through :meth:`run` in order
        (one ``network.run`` span per item).
        """
        items: List[np.ndarray] = [np.asarray(x) for x in xs]
        expected = self.network.input_shape
        for item in items:
            if item.shape != (expected.channels, expected.height, expected.width):
                raise ShapeError(
                    f"batch item {item.shape} != network input {expected}")
        with obs.span("network.run_batch", network=self.network.name,
                      batch=len(items)):
            if self.vectorized and items and len(self.network):
                return list(self.run_all(np.stack(items), trace)[-1])
            return [self.run(x, trace) for x in items]

    def classify(self, x: np.ndarray) -> int:
        """Index of the maximum output — a toy top-1 'prediction'."""
        return int(np.argmax(self.run(x).ravel()))
