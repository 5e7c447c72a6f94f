"""Linear plans run a batch: both paths, equivalence and instrumentation.

A linear :class:`~repro.serve.plan.CompiledPlan` runs a batch through
:meth:`~repro.graph.executor.GraphExecutor.run_fused` on its network's
chain graph, the executor DAG plans use. The batch runs as one stacked
array when the plan is in integer precision and the magnitude bound
proves it exact in its carrying type
(:func:`repro.sim.ops.carrying_dtype`), and item by item otherwise.
Either way the outputs are bit-identical to per-item
:meth:`NetworkExecutor.run` calls, the layer-by-layer oracle. The
``graph.run`` span reports the carrying dtype, the
``graph.per_item_batches`` counter an integer batch run item by item,
and the ``graph.atom[...]`` spans how often each atom ran.
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
from repro.serve import compile_plan
from repro.sim import NetworkExecutor, TrafficTrace, make_input
from repro.sim.ops import Magnitude, lrn, spec_magnitude


def _inputs(network, n, seed=7):
    return [make_input(network.input_shape, seed=seed + i, integer=True)
            for i in range(n)]


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


def _oracle(plan):
    """The layer-by-layer executor a plan's outputs must equal."""
    return NetworkExecutor(plan.network, seed=plan.seed,
                           integer=plan.key.precision == "int")


def _execute(plan, xs):
    """Outputs of ``plan.execute(xs)``, the carrying dtype its
    ``graph.run`` span reports, the per-item counter, and how many atom
    spans ran."""
    with capture() as registry:
        outs = plan.execute(xs)
    (span,) = [s for s in registry.spans if s.name == "graph.run"]
    atoms = sum(s.name.startswith("graph.atom[") for s in registry.spans)
    return (outs, span.attrs["dtype"],
            registry.counters.get("graph.per_item_batches", 0), atoms)


def _assert_matches_oracle(plan, xs, outs):
    oracle = _oracle(plan)
    assert len(outs) == len(xs)
    for x, out in zip(xs, outs):
        ref = oracle.run(x)
        assert out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()


def test_run_batch_matches_per_item_runs():
    plan = compile_plan(toynet())
    xs = _inputs(plan.network, 4)
    _assert_matches_oracle(plan, xs, plan.execute(xs))


@pytest.mark.parametrize("make_net", [toynet, nin_cifar, _grouped],
                         ids=["toynet", "nin", "grouped"])
def test_bit_identical_to_per_item_runs(make_net):
    plan = compile_plan(make_net())
    xs = _inputs(plan.network, 5, seed=0)
    outs, dtype, per_item, atoms = _execute(plan, xs)
    assert (dtype, per_item, atoms) == ("float32", 0, plan.num_groups)
    assert all(out.dtype == np.float64 for out in outs)
    _assert_matches_oracle(plan, xs, outs)


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
    plan = compile_plan(inexact_avg)
    xs = _inputs(inexact_avg, 2)
    outs, dtype, per_item, atoms = _execute(plan, xs)
    assert (dtype, per_item, atoms) == ("float64", 1, 2)
    _assert_matches_oracle(plan, xs, outs)


def test_run_batch_emits_one_run_span_per_item():
    """The per-item path — float precision, or an integer-mode network
    the exactness gate rejects — runs every atom once per item; the
    stacked path runs it once per batch."""
    for network, precision in ((toynet(), "float"), (_lrn_net(), "int")):
        plan = compile_plan(network, precision=precision)
        xs = _inputs(network, 3)
        outs, dtype, per_item, atoms = _execute(plan, xs)
        assert atoms == 3 * plan.num_groups
        # float64 requests: float precision computes in their own dtype
        assert (dtype, per_item) == (("float64", 0) if precision == "float"
                                     else ("float64", 1))
        _assert_matches_oracle(plan, xs, outs)
    stacked = compile_plan(toynet())
    _, _, _, atoms = _execute(stacked, _inputs(stacked.network, 3))
    assert atoms == stacked.num_groups


def test_vectorized_trace_totals_equal_the_sum_of_per_item_traces():
    plan = compile_plan(toynet(), partition_sizes=(1, 1))
    xs = _inputs(plan.network, 3)
    batch_trace = TrafficTrace()
    plan.executor.run_fused(np.stack(xs), batch_trace)
    item_traces = [TrafficTrace() for _ in xs]
    for x, trace in zip(xs, item_traces):
        plan.executor.run_fused(x, trace)
    for total in ("dram_read_elements", "dram_write_elements", "ops", "macs"):
        assert getattr(batch_trace, total) == sum(
            getattr(t, total) for t in item_traces), total
    for label, (read, write, ops) in batch_trace.by_label().items():
        assert (read, write, ops) == tuple(
            sum(t.by_label()[label][i] for t in item_traces) for i in range(3))


def test_accepts_stacked_4d_input():
    plan = compile_plan(toynet())
    xs = np.stack(_inputs(plan.network, 3))
    _assert_matches_oracle(plan, xs, plan.execute(xs))


def test_run_batch_of_empty_sequence():
    for precision in ("int", "float"):
        plan = compile_plan(toynet(), precision=precision)
        assert plan.execute([]) == []
        assert "executor" not in vars(plan)


def test_empty_batch_returns_empty_list():
    network = toynet()
    shape = network.input_shape
    empty = np.empty((0, shape.channels, shape.height, shape.width))
    for precision in ("int", "float"):
        plan = compile_plan(network, precision=precision)
        with capture() as registry:
            assert plan.execute(empty) == []
        assert not [s for s in registry.spans if s.name == "graph.run"]


def test_batch_of_one_matches_single_run():
    plan = compile_plan(toynet())
    x = _inputs(plan.network, 1)[0]
    assert plan.execute([x])[0].tobytes() == _oracle(plan).run(x).tobytes()


def test_wrong_input_shape_is_diagnosed():
    for precision in ("int", "float"):
        plan = compile_plan(toynet(), precision=precision)
        with pytest.raises(ShapeError):
            plan.execute([np.zeros((1, 2, 2))])
        with pytest.raises(ConfigError):
            plan.execute(np.zeros((2, 2)))  # not (B, C, H, W)
