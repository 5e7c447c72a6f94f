"""NetworkExecutor.run_batch: both paths, equivalence and instrumentation.

A batch runs as one stacked call per layer when the executor is in
integer mode and the magnitude bound proves the batch exact in its
carrying type (:func:`repro.sim.ops.carrying_dtype`, the rule DAG
batches use), and item by item otherwise. Either way the outputs are
bit-identical to per-item :meth:`NetworkExecutor.run` calls; the
``network.run`` spans show which path ran (one per batch, or one per
item) and the ``network.run_batch`` span the carrying dtype.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ConvSpec, Network, PoolSpec, ReLUSpec, TensorShape
from repro.errors import ConfigError
from repro.nn.layers import LRNSpec
from repro.nn.shapes import ShapeError
from repro.nn.zoo import alexnet, nin_cifar, toynet
from repro.obs import capture
from repro.sim import NetworkExecutor, TrafficTrace
from repro.sim.ops import Magnitude, lrn, spec_magnitude


def _inputs(network, n, seed=7):
    shape = network.input_shape
    rng = np.random.default_rng(seed)
    return [np.round(rng.uniform(-4.0, 4.0, size=(
        shape.channels, shape.height, shape.width))) for _ in range(n)]


def _grouped():
    """groups=2 convolutions (AlexNet's conv2/4/5 shape)."""
    return Network("grouped", TensorShape(3, 10, 10), [
        ConvSpec("c1", kernel=3, stride=1, out_channels=8, padding=1),
        ReLUSpec("r1"),
        ConvSpec("c2", kernel=3, stride=1, out_channels=8, padding=1,
                 groups=2),
        PoolSpec("p1", kernel=2, stride=2),
    ])


def _lrn_net():
    return Network("lrn-net", TensorShape(3, 8, 8), [
        ConvSpec("c1", kernel=3, stride=1, out_channels=4, padding=1),
        ReLUSpec("r1"),
        LRNSpec("n1"),
        ConvSpec("c2", kernel=3, stride=1, out_channels=4, padding=1),
    ])


def _run_spans(executor, xs):
    """Outputs of ``run_batch`` and the number of ``network.run`` spans."""
    with capture() as registry:
        outs = executor.run_batch(xs)
    names = [span.name for span in registry.spans]
    assert names.count("network.run_batch") == 1
    return outs, names.count("network.run")


def _carried(executor, xs):
    """The dtype ``run_batch`` carried ``xs`` in."""
    with capture() as registry:
        executor.run_batch(xs)
    (span,) = [s for s in registry.spans if s.name == "network.run_batch"]
    return span.attrs["dtype"]


def test_run_batch_matches_per_item_runs():
    network = toynet()
    executor = NetworkExecutor(network, seed=0, integer=True)
    xs = _inputs(network, 4)
    outs = executor.run_batch(xs)
    assert len(outs) == 4
    for x, out in zip(xs, outs):
        assert np.array_equal(out, executor.run(x))


@pytest.mark.parametrize("make_net", [toynet, nin_cifar, _grouped],
                         ids=["toynet", "nin", "grouped"])
def test_bit_identical_to_per_item_runs(make_net):
    network = make_net()
    executor = NetworkExecutor(network, seed=0, integer=True)
    xs = _inputs(network, 5, seed=0)
    outs, runs = _run_spans(executor, xs)
    assert runs == 1  # one stacked call
    assert _carried(executor, xs) == "float32"
    for x, out in zip(xs, outs):
        ref = executor.run(x)
        assert out.dtype == ref.dtype == np.float64
        assert np.array_equal(out, ref)


def test_lrn_batched_matches_per_item_operator():
    rng = np.random.default_rng(0)
    x = np.round(rng.uniform(-4.0, 4.0, size=(8, 6, 6)))
    out = lrn(np.stack([x, x + 1.0]))
    assert np.array_equal(out[0], lrn(x))
    assert np.array_equal(out[1], lrn(x + 1.0))


def _exact(network):
    """The exact half of the magnitude rules, as the executor reads it."""
    magnitude = Magnitude(0.0)
    for binding in network:
        magnitude = spec_magnitude(binding.spec, magnitude)
    return magnitude.exact


def test_exactness_gate():
    """LRN (and non-power-of-two average pooling) breaks the exact-integer
    regime, so those networks must run batches item by item."""
    assert _exact(toynet())
    assert _exact(nin_cifar())  # 8x8 avg pool: exact
    assert not _exact(alexnet())  # LRN rounds
    inexact_avg = Network("avg9", TensorShape(3, 9, 9), [
        PoolSpec("p1", kernel=3, stride=3, mode="avg"),
    ])
    assert not _exact(inexact_avg)
    executor = NetworkExecutor(inexact_avg, integer=True)
    assert _run_spans(executor, _inputs(inexact_avg, 2))[1] == 2


def test_run_batch_emits_one_run_span_per_item():
    """The per-item path: float mode, or an integer-mode network the
    exactness gate rejects; the vectorized path runs once per batch."""
    for network, integer in ((toynet(), False), (_lrn_net(), True)):
        executor = NetworkExecutor(network, seed=0, integer=integer)
        xs = _inputs(network, 3)
        outs, runs = _run_spans(executor, xs)
        assert runs == 3
        for x, out in zip(xs, outs):
            assert np.array_equal(out, executor.run(x))
    vectorized = NetworkExecutor(toynet(), seed=0, integer=True)
    assert _run_spans(vectorized, _inputs(vectorized.network, 3))[1] == 1


def test_vectorized_trace_totals_equal_the_sum_of_per_item_traces():
    network = toynet()
    executor = NetworkExecutor(network, seed=0, integer=True)
    xs = _inputs(network, 3)
    batch_trace = TrafficTrace()
    executor.run_batch(xs, batch_trace)
    item_traces = [TrafficTrace() for _ in xs]
    for x, trace in zip(xs, item_traces):
        executor.run(x, trace)
    for total in ("dram_read_elements", "dram_write_elements", "ops", "macs"):
        assert getattr(batch_trace, total) == sum(
            getattr(t, total) for t in item_traces), total
    for label, (read, write, ops) in batch_trace.by_label().items():
        assert (read, write, ops) == tuple(
            sum(t.by_label()[label][i] for t in item_traces) for i in range(3))


def test_accepts_stacked_4d_input():
    network = toynet()
    executor = NetworkExecutor(network, seed=0, integer=True)
    xs = np.stack(_inputs(network, 3))
    outs = executor.run_batch(xs)
    assert len(outs) == 3
    for x, out in zip(xs, outs):
        assert np.array_equal(out, executor.run(x))


def test_run_batch_of_empty_sequence():
    for integer in (True, False):
        executor = NetworkExecutor(toynet(), seed=0, integer=integer)
        assert executor.run_batch([]) == []


def test_empty_batch_returns_empty_list():
    network = toynet()
    shape = network.input_shape
    empty = np.empty((0, shape.channels, shape.height, shape.width))
    for integer in (True, False):
        executor = NetworkExecutor(network, seed=0, integer=integer)
        outs, runs = _run_spans(executor, empty)
        assert outs == []
        assert runs == 0


def test_batch_of_one_matches_single_run():
    network = toynet()
    executor = NetworkExecutor(network, seed=0, integer=True)
    x = _inputs(network, 1)[0]
    assert np.array_equal(executor.run_batch([x])[0], executor.run(x))


def test_wrong_input_shape_is_diagnosed():
    for integer in (True, False):
        executor = NetworkExecutor(toynet(), integer=integer)
        with pytest.raises(ShapeError):
            executor.run_batch([np.zeros((1, 2, 2))])
        with pytest.raises(ConfigError):
            executor.run_batch(np.zeros((2, 2)))  # not (B, C, H, W)
