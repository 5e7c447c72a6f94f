"""NumPy operator primitives against naive loop references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.shapes import ShapeError
from repro.sim import ops


def naive_conv2d(x, w, b, stride, pad, groups=1):
    """Direct quadruple-loop convolution for cross-checking."""
    x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    m, n_per_group, k, _ = w.shape
    n, h, width = x.shape
    oh = (h - k) // stride + 1
    ow = (width - k) // stride + 1
    out = np.zeros((m, oh, ow), dtype=x.dtype)
    m_per_group = m // groups
    for mi in range(m):
        g = mi // m_per_group
        for r in range(oh):
            for c in range(ow):
                acc = 0.0
                for ni in range(n_per_group):
                    patch = x[g * n_per_group + ni,
                              r * stride:r * stride + k,
                              c * stride:c * stride + k]
                    acc += float((patch * w[mi, ni]).sum())
                out[mi, r, c] = acc + (b[mi] if b is not None else 0.0)
    return out


def naive_pool(x, k, stride, reduce):
    """Window-by-window pooling for cross-checking."""
    n, h, width = x.shape
    oh = (h - k) // stride + 1
    ow = (width - k) // stride + 1
    out = np.zeros((n, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for r in range(oh):
            for c in range(ow):
                out[ni, r, c] = reduce(x[ni, r * stride:r * stride + k,
                                         c * stride:c * stride + k])
    return out


def naive_lrn(x, size=5, alpha=1e-4, beta=0.75, k=2.0):
    out = np.zeros_like(x)
    n = x.shape[0]
    for ni in range(n):
        lo, hi = max(0, ni - size // 2), min(n, ni + size // 2 + 1)
        total = sum(x[j] ** 2 for j in range(lo, hi))
        out[ni] = x[ni] / (k + alpha / size * total) ** beta
    return out


def naive_fully_connected(x, w, b):
    flat = x.reshape(-1)
    out = [sum(w[m, i] * flat[i] for i in range(flat.size)) + b[m]
           for m in range(w.shape[0])]
    return np.array(out, dtype=x.dtype).reshape(-1, 1, 1)


def naive_pad(x, pad):
    n, h, width = x.shape
    out = np.zeros((n, h + 2 * pad, width + 2 * pad), dtype=x.dtype)
    out[:, pad:pad + h, pad:pad + width] = x
    return out


def integer_valued(rng, shape):
    """Integer-valued float64 data, on which every reduction is exact: a
    batch item must then equal the single-image call bit for bit."""
    return np.round(rng.uniform(-4.0, 4.0, size=shape))


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestConv2d:
    def test_matches_naive(self, rng):
        x = rng.standard_normal((3, 8, 8)).astype(np.float64)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float64)
        b = rng.standard_normal(4).astype(np.float64)
        got = ops.conv2d(x, w, b, stride=1, pad=0)
        np.testing.assert_allclose(got, naive_conv2d(x, w, b, 1, 0), rtol=1e-10)

    def test_stride_and_pad(self, rng):
        x = rng.standard_normal((2, 11, 11)).astype(np.float64)
        w = rng.standard_normal((3, 2, 5, 5)).astype(np.float64)
        b = rng.standard_normal(3).astype(np.float64)
        got = ops.conv2d(x, w, b, stride=2, pad=2)
        np.testing.assert_allclose(got, naive_conv2d(x, w, b, 2, 2), rtol=1e-10)

    def test_groups(self, rng):
        for channels, m, groups, stride, pad, extent in [
                (4, 6, 2, 1, 0, 7),   # two groups (AlexNet conv2/4/5)
                (4, 4, 4, 1, 1, 9),   # depthwise: groups == channels
                (3, 6, 3, 1, 0, 9),   # channel multiplier: M = 2N, groups = N
                (4, 6, 2, 2, 1, 9),   # strided grouped
                (6, 6, 6, 2, 1, 9)]:  # strided depthwise
            x = rng.standard_normal((channels, extent, extent)).astype(np.float64)
            w = rng.standard_normal((m, channels // groups, 3, 3)).astype(np.float64)
            b = rng.standard_normal(m).astype(np.float64)
            got = ops.conv2d(x, w, b, stride=stride, pad=pad, groups=groups)
            np.testing.assert_allclose(
                got, naive_conv2d(x, w, b, stride, pad, groups=groups),
                rtol=1e-10)

    def test_no_bias(self, rng):
        x = rng.standard_normal((1, 5, 5)).astype(np.float64)
        w = rng.standard_normal((1, 1, 3, 3)).astype(np.float64)
        got = ops.conv2d(x, w, None)
        np.testing.assert_allclose(got, naive_conv2d(x, w, None, 1, 0), rtol=1e-10)

    def test_identity_kernel(self):
        x = np.arange(25, dtype=np.float32).reshape(1, 5, 5)
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        np.testing.assert_array_equal(ops.conv2d(x, w, None), x)

    def test_output_shape(self, rng):
        x = rng.standard_normal((3, 11, 13)).astype(np.float32)
        w = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        assert ops.conv2d(x, w, None, stride=2, pad=1).shape == (5, 6, 7)

    def test_channel_mismatch_rejected(self, rng):
        x = rng.standard_normal((3, 5, 5)).astype(np.float32)
        w = rng.standard_normal((2, 4, 3, 3)).astype(np.float32)
        with pytest.raises(ShapeError):
            ops.conv2d(x, w, None)

    def test_rectangular_kernel_rejected(self, rng):
        x = rng.standard_normal((1, 5, 5)).astype(np.float32)
        w = rng.standard_normal((1, 1, 3, 2)).astype(np.float32)
        with pytest.raises(ShapeError):
            ops.conv2d(x, w, None)

    def test_bad_groups_rejected(self, rng):
        x = rng.standard_normal((4, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        with pytest.raises(ShapeError):
            ops.conv2d(x, w, None, groups=2)  # 3 % 2 != 0


_RNG = np.random.default_rng(7)
_CONV_W, _CONV_B = integer_valued(_RNG, (4, 3, 3, 3)), integer_valued(_RNG, 4)
_GROUP_W, _GROUP_B = integer_valued(_RNG, (4, 1, 3, 3)), integer_valued(_RNG, 4)
_FC_W, _FC_B = integer_valued(_RNG, (5, 3 * 4 * 4)), integer_valued(_RNG, 5)

#: name -> (operator on (..., C, H, W), naive single-image loop, C x H x W)
BATCH_CASES = {
    "conv2d": (lambda x: ops.conv2d(x, _CONV_W, _CONV_B, stride=2, pad=1),
               lambda x: naive_conv2d(x, _CONV_W, _CONV_B, 2, 1), (3, 7, 7)),
    "conv2d-depthwise": (
        lambda x: ops.conv2d(x, _GROUP_W, _GROUP_B, pad=1, groups=4),
        lambda x: naive_conv2d(x, _GROUP_W, _GROUP_B, 1, 1, groups=4),
        (4, 6, 6)),
    "maxpool2d": (lambda x: ops.maxpool2d(x, 3, 2),
                  lambda x: naive_pool(x, 3, 2, np.max), (3, 7, 7)),
    "avgpool2d": (lambda x: ops.avgpool2d(x, 2, 2),
                  lambda x: naive_pool(x, 2, 2, np.mean), (3, 6, 6)),
    "relu": (ops.relu, lambda x: np.where(x > 0, x, 0.0), (3, 5, 5)),
    "pad2d": (lambda x: ops.pad2d(x, 2), lambda x: naive_pad(x, 2), (3, 4, 5)),
    "lrn": (ops.lrn, naive_lrn, (8, 3, 3)),
    "fully_connected": (lambda x: ops.fully_connected(x, _FC_W, _FC_B),
                        lambda x: naive_fully_connected(x, _FC_W, _FC_B),
                        (3, 4, 4)),
}


class TestBatchAxis:
    @pytest.mark.parametrize("name", list(BATCH_CASES))
    def test_items_match_single_image_and_naive_loop(self, rng, name):
        op, naive, shape = BATCH_CASES[name]
        batch = integer_valued(rng, (3,) + shape)
        got = op(batch)
        assert got.shape[0] == 3
        for x, item in zip(batch, got):
            np.testing.assert_array_equal(item, op(x))
            np.testing.assert_allclose(item, naive(x), rtol=1e-12)


class TestPooling:
    def test_maxpool_known(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        got = ops.maxpool2d(x, 2, 2)
        np.testing.assert_array_equal(got, [[[5, 7], [13, 15]]])

    def test_maxpool_overlapping(self):
        x = np.arange(25, dtype=np.float32).reshape(1, 5, 5)
        got = ops.maxpool2d(x, 3, 2)
        np.testing.assert_array_equal(got, [[[12, 14], [22, 24]]])

    def test_avgpool_known(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        got = ops.avgpool2d(x, 2, 2)
        np.testing.assert_array_equal(got, [[[2.5, 4.5], [10.5, 12.5]]])

    def test_pool_preserves_channels(self):
        x = np.random.default_rng(0).standard_normal((7, 8, 8)).astype(np.float32)
        assert ops.maxpool2d(x, 2, 2).shape == (7, 4, 4)


class TestElementwise:
    def test_relu(self):
        x = np.array([[[-1.0, 2.0], [0.0, -3.0]]], dtype=np.float32)
        np.testing.assert_array_equal(ops.relu(x), [[[0, 2], [0, 0]]])

    def test_pad2d(self):
        x = np.ones((2, 2, 2), dtype=np.float32)
        padded = ops.pad2d(x, 1)
        assert padded.shape == (2, 4, 4)
        assert padded.sum() == x.sum()
        assert padded[0, 0, 0] == 0

    def test_pad2d_zero_is_noop(self):
        x = np.ones((1, 3, 3), dtype=np.float32)
        assert ops.pad2d(x, 0) is x

    def test_pad2d_negative_rejected(self):
        with pytest.raises(ShapeError):
            ops.pad2d(np.ones((1, 2, 2), dtype=np.float32), -1)

    def test_lrn_shape_and_scale(self):
        x = np.ones((8, 3, 3), dtype=np.float32)
        out = ops.lrn(x)
        assert out.shape == x.shape
        assert np.all(out < x)  # normalization shrinks positive values

    def test_fully_connected(self):
        x = np.arange(4, dtype=np.float32).reshape(1, 2, 2)
        w = np.eye(4, dtype=np.float32)
        b = np.ones(4, dtype=np.float32)
        out = ops.fully_connected(x, w, b)
        np.testing.assert_array_equal(out.ravel(), [1, 2, 3, 4])
        assert out.shape == (4, 1, 1)


# -- window-free kernels against the window formulation ---------------------------

#: max pooling's corner cases: signed zeros, infinities and NaN
SPECIAL_VALUES = (0.0, -0.0, 1.0, -1.0, 3.0, np.inf, -np.inf, np.nan)
FLOATS = st.sampled_from([np.float32, np.float64])


def window_view(x, kernel, stride):
    """Every K x K window of a map that tiles exactly, as a stride-tricks
    view of shape (..., C, OH, OW, K, K)."""
    view = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel),
                                                    axis=(-2, -1))
    return view[..., ::stride, ::stride, :, :]


def window_maxpool(x, kernel, stride):
    return window_view(x, kernel, stride).max(axis=(-2, -1))


def window_pointwise(x, w, b, stride):
    out = np.tensordot(w, window_view(x, 1, stride),
                       axes=([1, 2, 3], [-5, -2, -1]))
    out = np.moveaxis(out, 0, -3)
    if b is not None:
        out = out + b[:, None, None]
    return out.astype(x.dtype, copy=False)


def assert_same_bytes(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@st.composite
def tiling_shapes(draw, kernel, stride, channels):
    """A non-square ``(C, H, W)`` map, with or without a batch axis,
    whose K x K windows at stride S tile it exactly."""
    out_h, out_w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    lead = draw(st.sampled_from([(), (2,)]))
    return lead + (channels, (out_h - 1) * stride + kernel,
                   (out_w - 1) * stride + kernel)


class TestWindowFreeKernels:
    """Max pooling and 1 x 1 convolution slice the map instead of building
    a window view, and must equal the window formulation byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), kernel=st.integers(1, 4), stride=st.integers(1, 3),
           dtype=FLOATS)
    def test_maxpool_equals_window_reduction(self, data, kernel, stride,
                                             dtype):
        shape = data.draw(tiling_shapes(kernel, stride,
                                        data.draw(st.integers(1, 3))))
        values = data.draw(st.lists(st.sampled_from(SPECIAL_VALUES),
                                    min_size=int(np.prod(shape)),
                                    max_size=int(np.prod(shape))))
        x = np.array(values, dtype=dtype).reshape(shape)
        assert_same_bytes(ops.maxpool2d(x, kernel, stride),
                          window_maxpool(x, kernel, stride))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), stride=st.integers(1, 3), dtype=FLOATS,
           weight_dtype=FLOATS, integer=st.booleans(), with_bias=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_pointwise_conv_equals_window_contraction(
            self, data, stride, dtype, weight_dtype, integer, with_bias, seed):
        n, m = data.draw(st.integers(1, 24)), data.draw(st.integers(1, 24))
        shape = data.draw(tiling_shapes(1, stride, n))
        rng = np.random.default_rng(seed)

        def draw(size, kind):
            values = (integer_valued(rng, size) if integer
                      else rng.standard_normal(size))
            return values.astype(kind)

        x = draw(shape, dtype)
        w = draw((m, n, 1, 1), weight_dtype)
        b = draw(m, weight_dtype) if with_bias else None
        assert_same_bytes(ops.conv2d(x, w, b, stride=stride),
                          window_pointwise(x, w, b, stride))

    def test_no_window_view_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built a sliding window view")

        monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view",
                            refuse)
        x = np.arange(2 * 3 * 5 * 7, dtype=np.float32).reshape(2, 3, 5, 7)
        assert ops.maxpool2d(x, 3, 2).shape == (2, 3, 2, 3)
        w = np.ones((4, 3, 1, 1), dtype=np.float32)
        assert ops.conv2d(x, w, np.zeros(4, np.float32),
                          stride=2).shape == (2, 4, 3, 4)
