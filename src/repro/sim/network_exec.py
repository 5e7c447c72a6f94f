"""Whole-network execution: every layer type, end to end.

The level executors (:mod:`repro.sim.reference`, :mod:`repro.sim.fused`)
cover the fusion scope — windowed layers plus ReLU/padding. This module
executes complete :class:`~repro.nn.network.Network` objects, including
the LRN and fully connected layers the paper's accelerators exclude, so
zoo networks can be evaluated end to end (the role Torch played for the
paper's tool). Each layer goes through :func:`repro.sim.ops.apply_spec`,
and a batch runs either as one stacked call per layer or item by item,
by the stacking rule DAG batches use — see
:meth:`NetworkExecutor.batch_envs`.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..nn.network import Network
from ..nn.shapes import ShapeError
from . import ops
from .trace import TrafficTrace
from .weights import make_network_weights


#: The batch input's tensor name in an environment, as in a graph's.
INPUT = "input"


class NetworkExecutor:
    """Executes a full network layer by layer (the Torch role).

    Weights are deterministic per seed unless supplied; shapes are
    validated against the network's inferred shapes at every step, so a
    drift between the IR's shape inference and the operators fails loudly.
    A volume runs in its own dtype, a batch as :meth:`batch_envs` decides.
    """

    def __init__(self, network: Network,
                 params: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None,
                 seed: int = 0, integer: bool = False):
        self.network = network
        self.integer = integer
        self.params = params if params is not None else make_network_weights(
            network, seed=seed, integer=integer)
        #: Environment names: the input, then each binding's output.
        self._tensors = [INPUT] + [binding.name for binding in network]

    @functools.cached_property
    def _bound(self):
        """:func:`repro.sim.ops.chain_bound` over the weights, memoized
        per input peak (built by the first batch that could stack)."""
        return functools.lru_cache(maxsize=64)(functools.partial(
            ops.chain_bound, self.network.specs,
            norms=ops.weight_norms(self.params)))

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
        """Evaluate a batch of ``(C, H, W)`` volumes (or a stacked ``(B,
        C, H, W)`` array); outputs equal ``B`` independent :meth:`run`
        calls. A stacked batch is one ``network.run`` span, an unstacked
        one a span per item (see :meth:`batch_envs`)."""
        items: List[np.ndarray] = [np.asarray(x) for x in xs]
        expected = self.network.input_shape
        for item in items:
            if item.shape != (expected.channels, expected.height, expected.width):
                raise ShapeError(
                    f"batch item {item.shape} != network input {expected}")
        with obs.span("network.run_batch", network=self.network.name,
                      batch=len(items)) as span:
            if not items:
                return []
            envs = self.batch_envs(np.stack(items))
            span.set(dtype=envs[0][INPUT].dtype.name)
            for env in envs:
                env[self._tensors[-1]] = self.run(env[INPUT], trace)
        return self.batch_outputs(envs)

    def batch_envs(self, xs: np.ndarray) -> List[Dict[str, np.ndarray]]:
        """The environments (tensor name -> array; ``"input"``, then each
        binding's output) a stacked batch runs in: one in the dtype
        :func:`repro.sim.ops.carrying_dtype` allows for an integer-mode
        batch — the rule DAG batches use — else one per item (float64 in
        integer mode, the item's own dtype in float mode)."""
        carry = ops.carrying_dtype(xs, self._bound) if self.integer else None
        if carry is not None:
            return [{INPUT: xs.astype(carry)}]
        return [{INPUT: np.asarray(x, np.float64) if self.integer else x}
                for x in xs]

    def run_atom(self, atom, env: Dict[str, np.ndarray]) -> None:
        """Apply one :func:`repro.dist.stage.linear_atoms` atom's bindings
        to the tensor of ``env`` its first binding reads."""
        x = env[self._tensors[atom.bindings[0].index]]
        for binding in atom.bindings:
            x = ops.apply_spec(binding.spec, x, self.params)
        env[binding.name] = x

    def batch_outputs(self, envs: List[Dict[str, np.ndarray]]
                      ) -> List[np.ndarray]:
        """Each item's output from :meth:`batch_envs`' environments once
        every layer ran; float64 in integer mode."""
        outs = [env[self._tensors[-1]] for env in envs]
        outs = list(outs[0]) if outs[0].ndim == 4 else outs
        return [np.asarray(out, np.float64) if self.integer else out
                for out in outs]

    def classify(self, x: np.ndarray) -> int:
        """Index of the maximum output — a toy top-1 'prediction'."""
        return int(np.argmax(self.run(x).ravel()))
