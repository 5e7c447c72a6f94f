"""The fused pyramid executor versus the layer-by-layer golden model.

These are the reproduction's core correctness tests: the restructured
dataflow of Listing 3/4 must be computation-preserving (bit-identical
outputs) while reading each input element from DRAM exactly once,
writing each output element exactly once, and performing exactly the
redundancy-free operation count (the reuse strategy's defining property).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConvSpec, Network, PoolSpec, ReLUSpec, TensorShape, extract_levels, toynet
from repro.core.costs import one_pass_ops
from repro.nn.shapes import ShapeError
from repro.sim import FusedExecutor, ReferenceExecutor, TrafficTrace, make_input
from repro.sim.fused import plan_levels


def run_both(levels, tip_h=1, tip_w=1, integer=True, input_reuse=True, seed=0):
    x = make_input(levels[0].in_shape, integer=integer, seed=seed)
    reference = ReferenceExecutor(levels, integer=integer, seed=seed)
    expected = reference.run(x)
    fused = FusedExecutor(levels, params=reference.params, tip_h=tip_h,
                          tip_w=tip_w, integer=integer, input_reuse=input_reuse)
    trace = TrafficTrace()
    got = fused.run(x, trace)
    return x, expected, got, trace, fused


class TestEquivalence:
    @pytest.mark.parametrize("tip", [(1, 1), (2, 2), (4, 4), (8, 8), (1, 8), (4, 2)])
    def test_mini_vgg(self, mini_vgg_levels, tip):
        _, expected, got, _, _ = run_both(mini_vgg_levels, *tip)
        np.testing.assert_array_equal(expected, got)

    @pytest.mark.parametrize("tip", [(1, 1), (7, 7), (1, 7)])
    def test_mini_alex(self, mini_alex_levels, tip):
        _, expected, got, _, _ = run_both(mini_alex_levels, *tip)
        np.testing.assert_array_equal(expected, got)

    def test_toynet(self):
        levels = extract_levels(toynet(n=3, m=4, p=5, with_relu=True))
        _, expected, got, _, _ = run_both(levels)
        np.testing.assert_array_equal(expected, got)

    def test_deep_padded_stack(self):
        """Ten padded convs on a tiny map: tiles clamp to the whole map
        and edge pyramids have empty fresh blocks."""
        net = Network("deep", TensorShape(2, 8, 8), [
            ConvSpec(f"c{i}", out_channels=2, kernel=3, stride=1, padding=1)
            for i in range(10)
        ])
        levels = extract_levels(net)
        _, expected, got, _, _ = run_both(levels)
        np.testing.assert_array_equal(expected, got)

    def test_float_weights_match_within_tolerance(self, mini_vgg_levels):
        _, expected, got, _, _ = run_both(mini_vgg_levels, 2, 2, integer=False)
        np.testing.assert_allclose(expected, got, rtol=1e-4, atol=1e-5)

    def test_without_input_reuse(self, mini_vgg_levels):
        _, expected, got, _, _ = run_both(mini_vgg_levels, input_reuse=False)
        np.testing.assert_array_equal(expected, got)

    def test_single_level_group(self):
        net = Network("one", TensorShape(2, 9, 9),
                      [ConvSpec("c", out_channels=3, kernel=3, stride=1)])
        levels = extract_levels(net)
        _, expected, got, _, _ = run_both(levels)
        np.testing.assert_array_equal(expected, got)

    def test_padding_larger_than_overlap(self):
        """pad > K - S makes interior windows taller than the first
        pyramid row's — the BL buffer must be sized to the max."""
        net = Network("exotic", TensorShape(2, 9, 9), [
            ConvSpec("c1", out_channels=3, kernel=3, stride=1, padding=2),
            ConvSpec("c2", out_channels=2, kernel=3, stride=1),
        ])
        levels = extract_levels(net)
        _, expected, got, _, _ = run_both(levels)
        np.testing.assert_array_equal(expected, got)

    def test_overlapping_avg_pool_within_float_tolerance(self):
        """3x3/s2 average pooling divides by 9, so downstream sums become
        order-sensitive at machine epsilon; the schedules agree to 1e-12."""
        net = Network("avg", TensorShape(1, 25, 25), [
            PoolSpec("p0", kernel=3, stride=2, mode="avg"),
            ConvSpec("c1", out_channels=2, kernel=3, stride=1),
        ])
        levels = extract_levels(net)
        x = make_input(levels[0].in_shape, integer=True)
        reference = ReferenceExecutor(levels, integer=True)
        fused = FusedExecutor(levels, params=reference.params, integer=True)
        np.testing.assert_allclose(reference.run(x), fused.run(x),
                                   rtol=1e-12, atol=1e-12)

    def test_projection_conv_with_gaps(self):
        """kernel < stride (a 1x1/s2 projection): the windows skip input
        data, so producers compute values nothing consumes and the input
        is only partially read — the schedule must still be exact."""
        net = Network("proj", TensorShape(2, 13, 13), [
            ConvSpec("c1", out_channels=3, kernel=3, stride=1, padding=1),
            ReLUSpec("r1"),
            ConvSpec("proj", out_channels=4, kernel=1, stride=2),
            ConvSpec("c2", out_channels=4, kernel=3, stride=1, padding=1),
        ])
        levels = extract_levels(net)
        x, expected, got, trace, _ = run_both(levels)
        np.testing.assert_array_equal(expected, got)
        assert trace.reads_for("input") == x.size  # first level is gap-free

    def test_gapped_first_level_reads_partial_input(self):
        net = Network("gap", TensorShape(2, 13, 13), [
            ConvSpec("c1", out_channels=3, kernel=1, stride=2),
            ConvSpec("c2", out_channels=4, kernel=3, stride=1),
        ])
        levels = extract_levels(net)
        x, expected, got, trace, _ = run_both(levels)
        np.testing.assert_array_equal(expected, got)
        # Gap pixels between windows are never fetched (pixels inside a
        # multi-column window are read contiguously, so not all gaps are
        # skipped): 9 of 13 rows/cols here.
        assert trace.reads_for("input") == 9 * 9 * 2
        assert trace.reads_for("input") < x.size

    def test_whole_map_tip_single_pyramid(self, mini_vgg_levels):
        final = mini_vgg_levels[-1].out_shape
        _, expected, got, _, fused = run_both(
            mini_vgg_levels, final.height, final.width)
        np.testing.assert_array_equal(expected, got)
        assert fused.grid_rows == fused.grid_cols == 1
        assert fused.buffer_bytes == 0  # nothing shared between pyramids


class TestTraffic:
    def test_input_read_exactly_once(self, mini_vgg_levels):
        x, _, _, trace, _ = run_both(mini_vgg_levels)
        assert trace.reads_for("input") == x.size

    def test_output_written_exactly_once(self, mini_vgg_levels):
        _, expected, _, trace, _ = run_both(mini_vgg_levels)
        assert trace.writes_for("output") == expected.size

    def test_ops_exactly_one_pass(self, mini_vgg_levels):
        """The reuse strategy performs zero redundant arithmetic."""
        _, _, _, trace, _ = run_both(mini_vgg_levels)
        assert trace.ops == one_pass_ops(mini_vgg_levels)

    def test_ops_one_pass_for_strided_net(self, mini_alex_levels):
        _, _, _, trace, _ = run_both(mini_alex_levels)
        assert trace.ops == one_pass_ops(mini_alex_levels)

    def test_halo_reads_without_input_reuse(self, mini_vgg_levels):
        x, _, _, trace, _ = run_both(mini_vgg_levels, input_reuse=False)
        assert trace.reads_for("input") > x.size

    def test_traffic_independent_of_tip(self, mini_vgg_levels):
        _, _, _, t1, _ = run_both(mini_vgg_levels, 1, 1)
        _, _, _, t2, _ = run_both(mini_vgg_levels, 4, 4)
        assert t1.dram_total_bytes == t2.dram_total_bytes


class TestBufferFootprint:
    def test_buffers_allocated_only_where_overlap(self, mini_vgg_levels):
        _, _, _, _, fused = run_both(mini_vgg_levels)
        names = [s.name for s in fused.buffers if s is not None]
        # Pool inputs (2x2/s2 -> overlap 0) get no buffers.
        assert "in[p1]" not in names and "in[p2]" not in names

    def test_footprint_grows_with_overlap(self, mini_vgg_levels):
        _, _, _, _, small = run_both(mini_vgg_levels, 1, 1)
        _, _, _, _, large = run_both(mini_vgg_levels, 4, 4)
        # Bigger tips -> taller BL buffers.
        assert large.buffer_bytes > small.buffer_bytes

    def test_footprint_reported_in_bytes(self, mini_vgg_levels):
        _, _, _, _, fused = run_both(mini_vgg_levels)
        total = sum(s.allocate(fused.dtype).buffer_elements
                    for s in fused.buffers if s is not None)
        assert fused.buffer_bytes == total * 8  # float64 in integer mode

    def test_footprint_known_before_any_run(self, mini_vgg_levels):
        _, _, _, _, ran = run_both(mini_vgg_levels, 2, 2)
        fresh = FusedExecutor(mini_vgg_levels, tip_h=2, tip_w=2, integer=True)
        assert fresh.buffer_bytes == ran.buffer_bytes > 0


class TestReentrancy:
    def test_call_paused_in_its_first_level_survives_another_call(
            self, mini_vgg_levels, monkeypatch):
        """Thread A pauses inside its first level's operator call; thread
        B runs a whole call on the same executor with a different input;
        then A resumes. Per-call state must not leak between the calls."""
        import threading

        from repro.sim import ops

        reference = ReferenceExecutor(mini_vgg_levels, integer=True)
        fused = FusedExecutor(mini_vgg_levels, params=reference.params,
                              tip_h=2, tip_w=2, integer=True)
        shape = mini_vgg_levels[0].in_shape
        xa = make_input(shape, integer=True, seed=1)
        xb = make_input(shape, integer=True, seed=2)
        expected_a, expected_b = reference.run(xa), reference.run(xb)

        paused, resume = threading.Event(), threading.Event()
        conv2d = ops.conv2d

        def hooked(*args, **kwargs):
            if threading.current_thread() is thread_a and not paused.is_set():
                paused.set()
                assert resume.wait(timeout=60)
            return conv2d(*args, **kwargs)

        monkeypatch.setattr(ops, "conv2d", hooked)
        result = {}

        def run_a():
            try:
                result["a"] = fused.run(xa)
            except Exception as exc:  # surfaced by the assertion below
                result["a"] = exc

        thread_a = threading.Thread(target=run_a)
        thread_a.start()
        try:
            assert paused.wait(timeout=60)
            got_b = fused.run(xb)
        finally:
            resume.set()
            thread_a.join(timeout=60)
        assert not thread_a.is_alive()
        np.testing.assert_array_equal(got_b, expected_b)
        assert isinstance(result["a"], np.ndarray), result["a"]
        np.testing.assert_array_equal(result["a"], expected_a)


class TestValidation:
    def test_non_dividing_tip_rejected(self, mini_vgg_levels):
        with pytest.raises(ShapeError):
            FusedExecutor(mini_vgg_levels, tip_h=3, tip_w=3, integer=True)

    def test_wrong_input_shape_rejected(self, mini_vgg_levels):
        fused = FusedExecutor(mini_vgg_levels, integer=True)
        with pytest.raises(ShapeError):
            fused.run(np.zeros((3, 10, 10)))

    def test_empty_group_rejected(self):
        with pytest.raises(ShapeError):
            plan_levels([], 1, 1)


class TestPlanBoundaries:
    def test_bounds_monotone_and_saturating(self, mini_vgg_levels):
        plans = plan_levels(mini_vgg_levels, 1, 1)
        for plan in plans:
            for bounds, limit in [
                (plan.ob_r, plan.level.out_shape.height),
                (plan.ob_c, plan.level.out_shape.width),
            ]:
                assert bounds[0] == 0
                assert bounds[-1] == limit
                assert all(a <= b for a, b in zip(bounds, bounds[1:]))

    def test_input_bounds_end_at_padded_extent(self, mini_vgg_levels):
        plans = plan_levels(mini_vgg_levels, 1, 1)
        for plan in plans:
            padded = plan.level.padded_in_shape
            assert plan.ib_r[-1] == padded.height
            assert plan.ib_c[-1] == padded.width


@st.composite
def random_net(draw):
    """Small random conv/pool stacks covering the geometry space:
    1x1/3x3/5x5 kernels, strides 1-2, optional padding, max/avg pooling
    with both tight (2x2/s2) and overlapping (3x3/s2) windows."""
    channels = draw(st.integers(1, 3))
    size = draw(st.sampled_from([12, 16, 20, 24, 25]))
    specs = []
    layers = draw(st.integers(1, 4))
    height = size
    for i in range(layers):
        kind = draw(st.sampled_from(["conv", "conv", "pool"]))
        if kind == "conv":
            kernel = draw(st.sampled_from([1, 3, 5]))
            pad = draw(st.sampled_from([0, kernel // 2, kernel - 1]))
            stride = draw(st.sampled_from([1, 1, 2]))
            extent = height + 2 * pad
            if extent < kernel or (extent - kernel) % stride:
                continue
            out_ch = draw(st.integers(1, 4))
            specs.append(ConvSpec(f"c{i}", out_channels=out_ch, kernel=kernel,
                                  stride=stride, padding=pad))
            if draw(st.booleans()):
                specs.append(ReLUSpec(f"r{i}"))
            height = (extent - kernel) // stride + 1
        else:
            kernel, stride = draw(st.sampled_from([(2, 2), (3, 2)]))
            if height < kernel or (height - kernel) % stride:
                continue
            # Average pooling only over 2x2 windows: /4 is exact in
            # binary, keeping the bit-identical comparison meaningful
            # (a 3x3 average's /9 makes downstream sums order-sensitive
            # at the 1e-15 level; covered by a tolerance test instead).
            mode = draw(st.sampled_from(["max", "avg"])) if kernel == 2 else "max"
            specs.append(PoolSpec(f"p{i}", kernel=kernel, stride=stride, mode=mode))
            height = (height - kernel) // stride + 1
    if not specs:
        specs = [ConvSpec("c", out_channels=2, kernel=3, stride=1)]
    return Network("rand", TensorShape(channels, size, size), specs)


class TestPropertyEquivalence:
    @given(net=random_net(), seed=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_fused_equals_reference_on_random_nets(self, net, seed):
        levels = extract_levels(net)
        x = make_input(levels[0].in_shape, integer=True, seed=seed)
        reference = ReferenceExecutor(levels, integer=True, seed=seed)
        expected = reference.run(x)
        fused = FusedExecutor(levels, params=reference.params, integer=True)
        trace = TrafficTrace()
        got = fused.run(x, trace)
        np.testing.assert_array_equal(expected, got)
        if levels[0].kernel >= levels[0].stride:
            # Gap-free first level: every input element is read exactly once.
            assert trace.reads_for("input") == x.size
        else:
            # kernel < stride skips input data; skipped elements are
            # never fetched.
            assert trace.reads_for("input") < x.size
        # Levels whose consumers skip data (consumer kernel < stride) may
        # compute gap values nothing reads; everything else is exactly
        # the redundancy-free count.
        if all(l.kernel >= l.stride for l in levels[1:]):
            assert trace.ops == one_pass_ops(levels)
        else:
            assert trace.ops >= one_pass_ops(levels)
