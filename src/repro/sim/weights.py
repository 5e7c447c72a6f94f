"""Deterministic synthetic weights and inputs for simulation and testing.

The paper evaluates dataflow, not accuracy, so weights and inputs are
seeded draws: :func:`make_network_weights` for windowed levels, linear
networks and DAGs alike (float32, like the paper's accelerator, Sec.
VI-A), and :func:`make_input`. Float mode draws normal values.

Integer mode is how the repository proves that fusion preserves the
computation, by comparing schedules bit for bit; that proves something
only if values stay **exact** and outputs **depend on the input**.
Every filter (or FC row) is *single-tap*: one ``+1`` weight at a seeded
random (channel, ky, kx), every bias an integer in ``[-2, 2]``
(:data:`SINGLE_TAP_NORM`), every input an integer in ``[-INPUT_PEAK,
INPUT_PEAK]``.

* Exact: a layer adds at most ``|bias|`` to its input's peak (a residual
  join at most doubles it), so the magnitude bound of
  :mod:`repro.sim.ops` keeps the linear zoo below 2^12 and the zoo DAGs
  at their test sizes below float32's 2^24. Dense small-integer filters
  grow values multiplicatively: on VGG-16 they pass float64's 2^53.
* Input-sensitive: a ``-1`` tap on a post-ReLU map leaves at most the
  bias, which the next ReLU zeroes, and max pooling over a few input
  levels saturates; ``+1`` taps over 63 input levels keep distinct
  inputs distinct through every zoo network. A misplaced window, halo
  or stride in a fused path shifts the sampled tap and changes the
  output.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Tuple

import numpy as np

from ..nn.layers import ConvSpec, FCSpec
from ..errors import ConfigError
from ..nn.stages import Level


#: Largest |value| of an integer-mode :func:`make_input` volume.
INPUT_PEAK = 31

#: Integer mode's weights as a :data:`~repro.sim.ops.Norm`: every filter
#: holds one ``+1`` tap (L1 norm 1), every bias is an integer in [-2, 2].
SINGLE_TAP_NORM = (1.0, 2.0)


def conv_weight_shape(level: Level) -> Tuple[int, int, int, int]:
    """Weight tensor shape for a conv level: (M, N // groups, K, K)."""
    if not level.is_conv:
        raise ConfigError(f"{level.name} is not a convolution", level=level.name)
    return (
        level.out_channels,
        level.in_channels // level.groups,
        level.kernel,
        level.kernel,
    )


def make_input(shape, seed: int = 0, integer: bool = False) -> np.ndarray:
    """A deterministic input volume of the given :class:`TensorShape`:
    integers in ``[-INPUT_PEAK, INPUT_PEAK]`` as float64 in integer mode,
    standard normal float32 otherwise."""
    rng = np.random.default_rng(seed + 1_000_003)
    dims = (shape.channels, shape.height, shape.width)
    if integer:
        return rng.integers(-INPUT_PEAK, INPUT_PEAK + 1,
                            size=dims).astype(np.float64)
    return rng.standard_normal(dims).astype(np.float32)


def save_params(path, params: Dict[str, Tuple[np.ndarray, np.ndarray]]) -> None:
    """Persist a ``{name: (weights, bias)}`` dict as a ``.npz`` archive.

    Keys are stored as ``<name>.weight`` / ``<name>.bias`` — the naming
    convention most framework exporters can produce, so real trained
    weights can be run through the simulators.
    """
    arrays = {}
    for name, (w, b) in params.items():
        arrays[f"{name}.weight"] = w
        arrays[f"{name}.bias"] = b
    np.savez(path, **arrays)


def load_params(path, levels=None,
                dtype=None) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Load ``{name: (weights, bias)}`` from a ``.npz`` archive.

    When ``levels`` is given, every conv level must be present with the
    exact shape :func:`conv_weight_shape` expects; a mismatch raises
    ``ValueError`` naming the offending layer rather than failing deep in
    a convolution.
    """
    archive = np.load(path)
    params: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for key in archive.files:
        if not key.endswith(".weight"):
            continue
        name = key[: -len(".weight")]
        w = archive[key]
        bias_key = f"{name}.bias"
        if bias_key not in archive.files:
            raise ConfigError(f"{name}: archive has weights but no bias", layer=name)
        b = archive[bias_key]
        if dtype is not None:
            w = w.astype(dtype)
            b = b.astype(dtype)
        params[name] = (w, b)
    if levels is not None:
        for level in levels:
            if not level.is_conv:
                continue
            if level.name not in params:
                raise ConfigError(f"{level.name}: missing from weight archive", level=level.name)
            expected = conv_weight_shape(level)
            got = params[level.name][0].shape
            if tuple(got) != expected:
                raise ConfigError(
                    f"{level.name}: weight shape {got} != expected {expected}",
                    level=level.name,
                )
            if params[level.name][1].shape != (level.out_channels,):
                raise ConfigError(f"{level.name}: bias shape mismatch", level=level.name)
    return params


def param_shapes(layers) -> Iterator[Tuple[str, Tuple[int, ...]]]:
    """``(name, weight shape)`` of every conv and FC layer (its bias is
    ``shape[:1]``) of a ``Network``, a ``GraphNetwork``, or a sequence of
    their layers or of windowed levels, in order."""
    for layer in layers:
        if isinstance(layer, Level):
            shape = conv_weight_shape(layer) if layer.is_conv else None
        else:  # a Network's LayerBinding or a GraphNetwork's node
            spec = layer.spec
            x = (getattr(layer, "input_shapes", None) or (layer.input_shape,))[0]
            if isinstance(spec, ConvSpec):
                shape = (spec.out_channels, x.channels // spec.groups,
                         spec.kernel, spec.kernel)
            elif isinstance(spec, FCSpec):
                shape = (spec.out_features, x.elements)
            else:
                shape = None
        if shape is not None:
            yield layer.name, shape


def param_bytes(layers, itemsize: int) -> int:
    """Bytes the weights and biases of ``layers`` (as :func:`param_shapes`
    reads them) take at ``itemsize`` bytes a value, computed without
    allocating them."""
    return sum(math.prod(s) + s[0] for _, s in param_shapes(layers)) * itemsize


def make_network_weights(network, seed: int = 0, integer: bool = False
                         ) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Float32 weights and biases for every layer
    :func:`param_shapes` finds in ``network``, keyed by layer name and
    drawn in order from one seeded generator: normal filters scaled by
    ``1/sqrt(fan_in)`` in float mode, the single-tap contract of this
    module's docstring in integer mode."""
    rng = np.random.default_rng(seed)
    params: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for name, shape in param_shapes(network):
        fan_in = math.prod(shape[1:])
        if integer:
            w = np.zeros(shape, dtype=np.float32)
            taps = rng.integers(0, fan_in, size=shape[0])
            w.reshape(shape[0], -1)[np.arange(shape[0]), taps] = 1.0
            b = rng.integers(-2, 3, size=shape[0]).astype(np.float32)
        else:
            w = (rng.standard_normal(shape) / np.sqrt(fan_in)).astype(np.float32)
            b = (rng.standard_normal(shape[0]) * 0.1).astype(np.float32)
        params[name] = (w, b)
    return params
