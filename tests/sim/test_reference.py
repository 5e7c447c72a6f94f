"""Layer-by-layer reference executor: shapes, traffic, golden behavior."""

import numpy as np
import pytest

from repro import extract_levels, toynet
from repro.sim import ReferenceExecutor, TrafficTrace, make_input, run_level
from repro.sim.weights import make_network_weights


class TestRunLevel:
    def test_conv_shapes(self, mini_vgg_levels):
        level = mini_vgg_levels[0]
        params = make_network_weights(mini_vgg_levels, integer=True)
        x = make_input(level.in_shape, integer=True)
        out = run_level(level, x, params)
        assert out.shape == (level.out_shape.channels, level.out_shape.height,
                             level.out_shape.width)

    def test_relu_applied(self, mini_vgg_levels):
        level = mini_vgg_levels[0]
        assert level.has_relu
        params = make_network_weights(mini_vgg_levels, integer=True)
        x = make_input(level.in_shape, integer=True)
        assert run_level(level, x, params).min() >= 0

    def test_pool_needs_no_weights(self, mini_vgg_levels):
        pool = mini_vgg_levels[2]
        x = make_input(pool.in_shape, integer=True)
        out = run_level(pool, x, None)
        assert out.shape[0] == pool.out_shape.channels

    def test_missing_weights_raise(self, mini_vgg_levels):
        level = mini_vgg_levels[0]
        x = make_input(level.in_shape, integer=True)
        with pytest.raises(KeyError):
            run_level(level, x, {})


class TestReferenceExecutor:
    def test_output_shape(self, mini_vgg_levels):
        executor = ReferenceExecutor(mini_vgg_levels, integer=True)
        x = make_input(mini_vgg_levels[0].in_shape, integer=True)
        out = executor.run(x)
        final = mini_vgg_levels[-1].out_shape
        assert out.shape == (final.channels, final.height, final.width)

    def test_run_all_returns_every_level(self, mini_vgg_levels):
        executor = ReferenceExecutor(mini_vgg_levels, integer=True)
        x = make_input(mini_vgg_levels[0].in_shape, integer=True)
        outputs = executor.run_all(x)
        assert len(outputs) == len(mini_vgg_levels)
        for out, level in zip(outputs, mini_vgg_levels):
            assert out.shape[0] == level.out_shape.channels

    def test_deterministic_given_seed(self, mini_vgg_levels):
        x = make_input(mini_vgg_levels[0].in_shape, integer=True)
        a = ReferenceExecutor(mini_vgg_levels, seed=5, integer=True).run(x)
        b = ReferenceExecutor(mini_vgg_levels, seed=5, integer=True).run(x)
        np.testing.assert_array_equal(a, b)

    def test_traffic_per_level(self, mini_vgg_levels):
        executor = ReferenceExecutor(mini_vgg_levels, integer=True)
        x = make_input(mini_vgg_levels[0].in_shape, integer=True)
        trace = TrafficTrace()
        executor.run(x, trace)
        expected = sum(l.in_shape.elements + l.out_shape.elements
                       for l in mini_vgg_levels)
        assert trace.dram_read_elements + trace.dram_write_elements == expected

    def test_merge_pooling_saves_boundary_traffic(self, mini_vgg_levels):
        x = make_input(mini_vgg_levels[0].in_shape, integer=True)
        plain, merged = TrafficTrace(), TrafficTrace()
        executor = ReferenceExecutor(mini_vgg_levels, integer=True)
        out_plain = executor.run(x, plain)
        out_merged = executor.run(x, merged, merge_pooling=True)
        np.testing.assert_array_equal(out_plain, out_merged)
        # Each merged pool removes one write + one read of the conv output.
        saved = sum(2 * l.in_shape.elements
                    for l in mini_vgg_levels if l.is_pool)
        assert (plain.dram_total_bytes - merged.dram_total_bytes) == saved * 4

    def test_compute_counts_all_ops(self, mini_vgg_levels):
        x = make_input(mini_vgg_levels[0].in_shape, integer=True)
        trace = TrafficTrace()
        ReferenceExecutor(mini_vgg_levels, integer=True).run(
            x, trace, merge_pooling=True)
        assert trace.ops == sum(l.total_ops for l in mini_vgg_levels)

    def test_empty_levels(self):
        executor = ReferenceExecutor([])
        x = np.ones((1, 2, 2), dtype=np.float32)
        np.testing.assert_array_equal(executor.run(x), x)

    def test_toynet_golden_value(self):
        """Pin a tiny end-to-end value so silent arithmetic changes fail."""
        levels = extract_levels(toynet(n=1, m=1, p=1, size=5))
        x = np.ones((1, 5, 5), dtype=np.float64)
        w = np.ones((1, 1, 3, 3), dtype=np.float64)
        b = np.zeros(1, dtype=np.float64)
        executor = ReferenceExecutor(levels, params={"layer1": (w, b),
                                                     "layer2": (w, b)})
        out = executor.run(x)
        # layer1: every 3x3 window of ones sums to 9; layer2: 9 windows of
        # nine 9s -> 81.
        np.testing.assert_array_equal(out, [[[81.0]]])
