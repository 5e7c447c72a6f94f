"""Deterministic synthetic weights for simulation and testing.

The paper evaluates dataflow, not accuracy, so weight *values* are
irrelevant — only their shapes matter. We generate reproducible random
weights per layer from a seeded generator. ``integer=True`` produces
small-integer weights so fused and layer-by-layer schedules can be
compared bit-exactly (float32 summation order differences vanish).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..nn.layers import ConvSpec, FCSpec, LayerSpec
from ..errors import ConfigError
from ..nn.network import Network
from ..nn.shapes import TensorShape
from ..nn.stages import Level


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


def make_level_weights(levels, seed: int = 0, integer: bool = False,
                       dtype=None) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Weights and biases for every conv level, keyed by level name.

    Integer mode defaults to float64 storage: integer-valued activations
    can exceed float32's 2^24 exact range after a few wide layers, which
    would make summation order observable; float64 keeps bit-exact
    comparison between schedules meaningful.
    """
    if dtype is None:
        dtype = np.float64 if integer else np.float32
    rng = np.random.default_rng(seed)
    params: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for level in levels:
        if not level.is_conv:
            continue
        shape = conv_weight_shape(level)
        if integer:
            w = rng.integers(-2, 3, size=shape).astype(dtype)
            b = rng.integers(-2, 3, size=(level.out_channels,)).astype(dtype)
        else:
            fan_in = shape[1] * shape[2] * shape[3]
            w = (rng.standard_normal(shape) / np.sqrt(fan_in)).astype(dtype)
            b = (rng.standard_normal(level.out_channels) * 0.1).astype(dtype)
        params[level.name] = (w, b)
    return params


#: Largest |value| of an integer-mode :func:`make_input` volume.
INPUT_PEAK = 3


def make_input(shape, seed: int = 0, integer: bool = False,
               dtype=None) -> np.ndarray:
    """A deterministic input volume of the given :class:`TensorShape`."""
    if dtype is None:
        dtype = np.float64 if integer else np.float32
    rng = np.random.default_rng(seed + 1_000_003)
    dims = (shape.channels, shape.height, shape.width)
    if integer:
        return rng.integers(-INPUT_PEAK, INPUT_PEAK + 1,
                            size=dims).astype(dtype)
    return rng.standard_normal(dims).astype(dtype)


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


def param_shape(spec: LayerSpec,
                input_shape: TensorShape) -> Optional[Tuple[int, ...]]:
    """Weight-tensor shape of a conv or FC layer (its bias is
    ``shape[:1]``); ``None`` for a layer without parameters."""
    if isinstance(spec, ConvSpec):
        return (spec.out_channels, input_shape.channels // spec.groups,
                spec.kernel, spec.kernel)
    if isinstance(spec, FCSpec):
        return (spec.out_features, input_shape.elements)
    return None


def param_bytes(layers: Iterable[Tuple[LayerSpec, TensorShape]],
                itemsize: int) -> int:
    """Bytes the weights and biases of ``(spec, input_shape)`` layers take
    at ``itemsize`` bytes a value, computed without allocating them."""
    shapes = [param_shape(spec, input_shape) for spec, input_shape in layers]
    return sum(math.prod(s) + s[0] for s in shapes if s) * itemsize


def make_network_weights(network: Network, seed: int = 0,
                         integer: bool = False) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Weights for every parameterized layer of a full network (conv + FC)."""
    rng = np.random.default_rng(seed)
    params: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for binding in network:
        spec = binding.spec
        shape = param_shape(spec, binding.input_shape)
        if shape is None:
            continue
        if integer:
            w = rng.integers(-2, 3, size=shape).astype(np.float32)
            b = rng.integers(-2, 3, size=(shape[0],)).astype(np.float32)
        else:
            fan_in = int(np.prod(shape[1:]))
            w = (rng.standard_normal(shape) / np.sqrt(fan_in)).astype(np.float32)
            b = (rng.standard_normal(shape[0]) * 0.1).astype(np.float32)
        params[spec.name] = (w, b)
    return params
