"""NumPy implementations of the CNN primitives, and the layer dispatch.

Every operator acts on the trailing ``(channels, height, width)`` axes
and carries any leading batch axis through, so one call evaluates a
single volume or a stacked ``(B, C, H, W)`` batch. Convolution is direct
(via stride-tricks windowing + one contraction), matching the
accelerator's arithmetic order closely enough for float32 comparison
with small tolerances; integer inputs reproduce exactly.

Two functions are the only code that maps a layer to an operator call:
:func:`apply_spec` (one table keyed on spec type, for
:class:`~repro.nn.network.Network` layers and graph nodes) and
:func:`run_level` (for the windowed levels the fused executors tile).

A second table keyed on spec type, :func:`spec_magnitude`, bounds what
each operator does to integer-mode values: how large its output and
every partial sum it forms can get, and whether it can round at all.
That bound decides which float type may carry a computation exactly:
:func:`carrying_dtype` is the one stacking rule every batch path reads,
for linear networks and DAGs alike.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from ..nn.layers import ConvSpec, FCSpec, LayerSpec, LRNSpec, PadSpec, PoolSpec, ReLUSpec
from ..nn.shapes import ShapeError, conv_output_extent
from ..nn.stages import Level

Params = Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]]


def pad2d(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the two spatial dimensions by ``pad`` on every border."""
    if pad < 0:
        raise ShapeError(f"padding must be non-negative, got {pad}")
    if pad == 0:
        return x
    return np.pad(x, ((0, 0),) * (x.ndim - 2) + ((pad, pad), (pad, pad)))


def _windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """View of all K x K windows: shape (..., C, OH, OW, K, K)."""
    out_h = conv_output_extent(x.shape[-2], kernel, stride)
    out_w = conv_output_extent(x.shape[-1], kernel, stride)
    view = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel),
                                                    axis=(-2, -1))
    return view[..., :out_h * stride:stride, :out_w * stride:stride, :, :]


def conv2d(x: np.ndarray, weights: np.ndarray, bias: "np.ndarray | None" = None,
           stride: int = 1, pad: int = 0, groups: int = 1) -> np.ndarray:
    """2-D convolution (really cross-correlation, as in every CNN framework).

    ``weights`` has shape ``(M, N // groups, K, K)``; ``bias`` shape
    ``(M,)`` or None. Grouped convolution splits input and output channels
    into ``groups`` independent blocks (AlexNet conv2/4/5, depthwise
    ``groups == N``), evaluated as one matmul stacked over a group axis.
    """
    x = pad2d(x, pad)
    m, n_per_group, kh, kw = weights.shape
    if kh != kw:
        raise ShapeError("only square kernels are supported")
    if x.shape[-3] != n_per_group * groups:
        raise ShapeError(
            f"input channels {x.shape[-3]} != weights {n_per_group} x groups {groups}"
        )
    if m % groups != 0:
        raise ShapeError(f"output channels {m} not divisible by groups {groups}")

    windows = _windows(x, kh, stride)  # (..., N, OH, OW, K, K)
    if groups == 1:
        # (M, N, K, K) x (..., N, OH, OW, K, K) -> (M, ..., OH, OW)
        out = np.tensordot(weights, windows, axes=([1, 2, 3], [-5, -2, -1]))
        out = np.moveaxis(out, 0, -3)
    else:
        lead, (out_h, out_w) = windows.shape[:-5], windows.shape[-4:-2]
        # (..., G, N/G, OH, OW, K, K) -> (..., G, N/G*K*K, OH*OW)
        cols = windows.reshape(lead + (groups, n_per_group, out_h, out_w, kh, kw))
        cols = np.moveaxis(cols, (-2, -1), (-4, -3)).reshape(
            lead + (groups, n_per_group * kh * kw, out_h * out_w))
        # (G, M/G, N/G*K*K) @ (..., G, N/G*K*K, OH*OW) -> (..., M, OH, OW)
        out = np.matmul(weights.reshape(groups, m // groups, -1), cols)
        out = out.reshape(lead + (m, out_h, out_w))
    if bias is not None:
        out = out + bias[:, None, None]
    return out.astype(x.dtype, copy=False)


def maxpool2d(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Max pooling over K x K windows with stride S."""
    return _windows(x, kernel, stride).max(axis=(-2, -1))


def avgpool2d(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Average pooling over K x K windows with stride S."""
    return (_windows(x, kernel, stride).mean(axis=(-2, -1))
            .astype(x.dtype, copy=False))


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit: max(x, 0) elementwise."""
    return np.maximum(x, 0)


def lrn(x: np.ndarray, size: int = 5, alpha: float = 1e-4, beta: float = 0.75,
        k: float = 2.0) -> np.ndarray:
    """Local response normalization across channels (AlexNet)."""
    half = size // 2
    squared = np.square(x)
    scale = np.full_like(x, k)
    channels = x.shape[-3]
    for c in range(channels):
        lo, hi = max(0, c - half), min(channels, c + half + 1)
        scale[..., c, :, :] += (alpha / size) * squared[..., lo:hi, :, :].sum(axis=-3)
    return (x / scale ** beta).astype(x.dtype, copy=False)


def fully_connected(x: np.ndarray, weights: np.ndarray,
                    bias: "np.ndarray | None" = None) -> np.ndarray:
    """Dense layer over the flattened input; returns (..., out, 1, 1).

    A stacked batch is one GEMM (items as rows), not one GEMV per item.
    """
    lead = x.shape[:-3]
    if lead:
        out = x.reshape(lead + (-1,)) @ weights.T
    else:
        out = np.matmul(weights, x.reshape(-1, 1))[:, 0]
    if bias is not None:
        out = out + bias
    return out[..., None, None].astype(x.dtype, copy=False)


# -- layer dispatch ---------------------------------------------------------------

def _conv(spec: ConvSpec, x: np.ndarray, params: Params) -> np.ndarray:
    w, b = params[spec.name]
    return conv2d(x, w, b, stride=spec.stride, pad=spec.padding, groups=spec.groups)


def _pool(spec: PoolSpec, x: np.ndarray, params: Params) -> np.ndarray:
    pool = maxpool2d if spec.mode == "max" else avgpool2d
    return pool(x, spec.kernel, spec.stride)


#: Spec type -> ``op(spec, x, params)``.
SPEC_OPS: Dict[type, Callable[[LayerSpec, np.ndarray, Params], np.ndarray]] = {
    ConvSpec: _conv,
    PoolSpec: _pool,
    ReLUSpec: lambda spec, x, params: relu(x),
    PadSpec: lambda spec, x, params: pad2d(x, spec.pad),
    LRNSpec: lambda spec, x, params: lrn(x, size=spec.size, alpha=spec.alpha,
                                         beta=spec.beta, k=spec.k),
    FCSpec: lambda spec, x, params: fully_connected(x, *params[spec.name]),
}


def apply_spec(spec: LayerSpec, x: np.ndarray, params: Params) -> np.ndarray:
    """Evaluate one layer (or non-join graph node) over ``x``; weighted
    layers look up ``params[spec.name]``."""
    op = SPEC_OPS.get(type(spec))
    if op is None:
        raise ShapeError(f"no operator for {spec!r}")
    return op(spec, x, params)


# -- integer-mode magnitudes -------------------------------------------------------

class Magnitude(NamedTuple):
    """What integer-mode arithmetic can make of one tensor.

    Every value of the tensor, and every partial sum the operator that
    produced it formed, is a multiple of ``2**-frac_bits`` no larger
    than ``peak`` in magnitude, unless ``exact`` is False: then some
    operator upstream rounded (LRN, a non-power-of-two average pool, a
    non-integral input) and no float type is guaranteed to carry the
    values exactly.
    """

    peak: float
    frac_bits: int = 0
    exact: bool = True

    @property
    def bound(self) -> float:
        """The peak in units of the finest fractional bit: float32 holds
        every such value exactly below ``2**24``, float64 below ``2**53``."""
        return self.peak * 2.0 ** self.frac_bits


#: A weighted layer's largest filter L1 norm and largest |bias|.
Norm = Tuple[float, float]


def _weighted_magnitude(spec: LayerSpec, m: Magnitude,
                        norm: Optional[Norm]) -> Magnitude:
    # integer weights keep the grid; a sum of |w| * peak plus the bias
    # bounds every partial sum, whatever the summation order
    if norm is None or math.isinf(m.peak):
        return m._replace(peak=math.inf)
    l1, bias = norm
    return m._replace(peak=l1 * m.peak + bias)


def _pool_magnitude(spec: PoolSpec, m: Magnitude,
                    norm: Optional[Norm]) -> Magnitude:
    if spec.mode == "max":
        return m
    count = spec.kernel * spec.kernel
    if count & (count - 1):
        return m._replace(exact=False)  # the quotient rounds
    # the window sum reaches count * peak; dividing by a power of two is
    # exact and moves those bits below the point
    return m._replace(frac_bits=m.frac_bits + count.bit_length() - 1)


def _lrn_magnitude(spec: LRNSpec, m: Magnitude,
                   norm: Optional[Norm]) -> Magnitude:
    # x / (k + ...)**beta rounds; its magnitude is at most |x| / k**beta
    peak = m.peak / spec.k ** spec.beta if spec.k > 0 else math.inf
    return m._replace(peak=peak, exact=False)


#: Spec type -> ``rule(spec, m, norm)``: the magnitude of the layer's
#: output given its input's; ``norm`` is a weighted layer's, or None when
#: its weights are unknown or not integers.
SPEC_MAGNITUDES: Dict[type, Callable[[LayerSpec, Magnitude, Optional[Norm]],
                                     Magnitude]] = {
    ConvSpec: _weighted_magnitude,
    FCSpec: _weighted_magnitude,
    PoolSpec: _pool_magnitude,
    ReLUSpec: lambda spec, m, norm: m,
    PadSpec: lambda spec, m, norm: m,
    LRNSpec: _lrn_magnitude,
}


def spec_magnitude(spec: LayerSpec, m: Magnitude,
                   norm: Optional[Norm] = None) -> Magnitude:
    """Magnitude of one layer's output over an input of magnitude ``m``."""
    rule = SPEC_MAGNITUDES.get(type(spec))
    if rule is None:
        raise ShapeError(f"no magnitude rule for {spec!r}")
    return rule(spec, m, norm)


def weight_norms(params: Params) -> Dict[str, Optional[Norm]]:
    """Each weighted layer's :data:`Norm`, or None when any of its
    weights or biases is not an integer (integer mode's contract).

    Filters are read in blocks of about 32K weights, so the pass makes
    no whole-tensor temporaries: those would fault in fresh pages and
    leave the allocator holding memory the served batches never use.
    """
    norms: Dict[str, Optional[Norm]] = {}
    for name, (w, b) in (params or {}).items():
        rows = w.reshape(w.shape[0], -1)
        step = max(1, 2 ** 15 // max(1, rows.shape[1]))
        l1, integral = 0.0, np.array_equal(b, np.rint(b))
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            integral = integral and np.array_equal(block, np.rint(block))
            l1 = max(l1, float(np.abs(block).sum(axis=1).max()))
        norms[name] = ((l1, float(np.abs(b).max(initial=0.0)))
                       if integral else None)
    return norms


def carrying_dtype(xs: np.ndarray,
                   bound: Callable[[float], Tuple[float, bool]]):
    """The one stacking rule: the float type that carries the stacked
    integer-mode batch ``xs`` exactly, or None to run it item by item.

    ``bound`` maps the batch's largest |input| to ``(bound, exact)``, as
    :func:`repro.graph.executor.graph_bound` does: the batch stacks in
    float32 below 2^24 and in float64 below 2^53, unless an input is
    non-integral or an operator rounds."""
    if not np.array_equal(xs, np.rint(xs)):
        return None
    peak, exact = bound(float(np.abs(xs).max(initial=0.0)))
    if not exact or peak >= 2.0 ** 53:
        return None
    return np.float32 if peak < 2.0 ** 24 else np.float64


def run_level(level: Level, x: np.ndarray, params: Params,
              pad: Optional[int] = None) -> np.ndarray:
    """Evaluate one windowed level (pad + conv/pool + optional ReLU,
    then its folded LRN, if any).

    ``pad`` defaults to the level's own padding; the pyramid executors
    pass 0 because their windows are already in padded coordinates.
    """
    pad = level.pad if pad is None else pad
    if level.is_conv:
        if params is None or level.name not in params:
            raise KeyError(f"missing weights for conv level {level.name}")
        w, b = params[level.name]
        out = conv2d(x, w, b, stride=level.stride, pad=pad, groups=level.groups)
    else:
        pool = maxpool2d if level.pool_mode == "max" else avgpool2d
        out = pool(pad2d(x, pad), level.kernel, level.stride)
    out = relu(out) if level.has_relu else out
    return out if level.lrn is None else apply_spec(level.lrn, out, params)
