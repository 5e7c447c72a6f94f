"""Deterministic weights and inputs: one generator, one integer contract.

Integer mode must keep fused and layer-by-layer outputs exact *and*
sensitive to their input on every zoo network, or bit-identity between
the schedules proves nothing: distinct inputs must give distinct
outputs, and a one-pixel shift of the input must change the output.
"""

import numpy as np
import pytest

from repro import Network, TensorShape, alexnet, extract_levels, toynet
from repro.graph import GraphExecutor, make_graph_weights
from repro.graph.zoo import mobilenetv2
from repro.nn.zoo import nin_cifar, vgg16
from repro.sim import FusedExecutor, NetworkExecutor, ReferenceExecutor
from repro.sim.weights import (
    INPUT_PEAK,
    conv_weight_shape,
    make_input,
    make_network_weights,
)


@pytest.fixture(scope="module")
def alexnet_params():
    """One integer-mode draw of full AlexNet (conv and FC), shared."""
    return make_network_weights(alexnet(), integer=True)


class TestConvWeightShape:
    def test_plain(self, mini_vgg_levels):
        assert conv_weight_shape(mini_vgg_levels[0]) == (8, 3, 3, 3)

    def test_grouped(self, mini_alex_levels):
        c2 = mini_alex_levels[2]
        assert conv_weight_shape(c2) == (12, 4, 5, 5)

    def test_pool_rejected(self, mini_vgg_levels):
        with pytest.raises(ValueError):
            conv_weight_shape(mini_vgg_levels[2])


class TestMakeLevelWeights:
    def test_every_conv_covered(self, mini_vgg_levels):
        params = make_network_weights(mini_vgg_levels)
        conv_names = {l.name for l in mini_vgg_levels if l.is_conv}
        assert set(params) == conv_names

    def test_deterministic(self, mini_vgg_levels):
        a = make_network_weights(mini_vgg_levels, seed=3)
        b = make_network_weights(mini_vgg_levels, seed=3)
        for name in a:
            np.testing.assert_array_equal(a[name][0], b[name][0])

    def test_seed_changes_values(self, mini_vgg_levels):
        a = make_network_weights(mini_vgg_levels, seed=3)
        b = make_network_weights(mini_vgg_levels, seed=4)
        assert not np.array_equal(a["c11"][0], b["c11"][0])

    def test_float_mode_is_float32(self, mini_vgg_levels):
        w, _ = make_network_weights(mini_vgg_levels)["c11"]
        assert w.dtype == np.float32


class TestMakeInput:
    def test_shape_and_determinism(self, mini_vgg_levels):
        shape = mini_vgg_levels[0].in_shape
        a = make_input(shape, seed=1)
        b = make_input(shape, seed=1)
        assert a.shape == (shape.channels, shape.height, shape.width)
        np.testing.assert_array_equal(a, b)

    def test_integer_bounds(self, mini_vgg_levels):
        x = make_input(mini_vgg_levels[0].in_shape, integer=True)
        assert x.dtype == np.float64 and np.array_equal(x, np.round(x))
        assert x.min() >= -INPUT_PEAK and x.max() <= INPUT_PEAK


class TestMakeNetworkWeights:
    def test_covers_conv_and_fc(self, alexnet_params):
        assert "conv1" in alexnet_params and "fc8" in alexnet_params

    def test_fc_shape(self, alexnet_params):
        w, b = alexnet_params["fc8"]
        assert w.shape == (1000, 4096)
        assert b.shape == (1000,)

    def test_grouped_conv_shape(self, alexnet_params):
        assert alexnet_params["conv2"][0].shape == (256, 48, 5, 5)

    def test_integer_mode(self):
        params = make_network_weights(toynet(), integer=True)
        w, _ = params["layer1"]
        assert np.all(w == np.round(w))

    def test_executors_use_the_generator(self, mini_vgg_levels):
        net = toynet()
        graph = mobilenetv2(33)
        for built, drawn in (
                (NetworkExecutor(net, seed=4, integer=True).params,
                 make_network_weights(net, seed=4, integer=True)),
                (ReferenceExecutor(mini_vgg_levels, seed=4).params,
                 make_network_weights(mini_vgg_levels, seed=4)),
                (GraphExecutor(graph, seed=4).params,
                 make_graph_weights(graph, seed=4, integer=True))):
            assert built.keys() == drawn.keys()
            for name in built:
                for a, b in zip(built[name], drawn[name]):
                    assert a.dtype == b.dtype and np.array_equal(a, b)


def _vgg16_features_at(size):
    return Network(f"vgg16-features@{size}", TensorShape(3, size, size),
                   vgg16().feature_extractor().specs)


class TestIntegerContract:
    """Exact and input-sensitive: the two properties that make integer
    mode's bit-identity evidence."""

    @pytest.mark.parametrize("family", ["levels", "network", "graph"])
    def test_integer_mode_is_the_single_tap_contract(self, family,
                                                     mini_vgg_levels,
                                                     alexnet_params):
        """Float32 storage; each filter (or FC row) holds exactly one
        nonzero weight, +1; every bias is an integer in [-2, 2]."""
        params = {"levels": lambda: make_network_weights(
                      mini_vgg_levels, integer=True),
                  "network": lambda: alexnet_params,
                  "graph": lambda: make_graph_weights(mobilenetv2(33),
                                                      integer=True)}[family]()
        assert params
        for w, b in params.values():
            assert w.dtype == b.dtype == np.float32
            rows = w.reshape(len(w), -1)
            assert (np.count_nonzero(rows, axis=1) == 1).all()
            assert (rows.sum(axis=1) == 1.0).all()
            assert np.array_equal(b, np.round(b)) and np.abs(b).max() <= 2

    def test_vgg16_fused_at_tip_1_matches_the_reference(self):
        """All 18 levels of VGG-16's features at 64x64 in one fused group
        at tip 1. Dense [-2, 2] filters reached 2^73 here and differed in
        319 of 2,048 outputs."""
        levels = extract_levels(_vgg16_features_at(64))
        reference = ReferenceExecutor(levels, integer=True)
        fused = FusedExecutor(levels, integer=True, tip_h=1, tip_w=1)
        xs = [make_input(levels[0].in_shape, seed=s, integer=True)
              for s in range(4)]
        refs = [reference.run(x) for x in xs]
        assert len({ref.tobytes() for ref in refs}) == len(xs)
        for x, ref in zip(xs, refs):
            assert np.array_equal(fused.run(x), ref)
        shifted = reference.run(np.roll(xs[0], 1, axis=-1))
        assert not np.array_equal(shifted, refs[0])

    @pytest.mark.parametrize("make_net", [toynet, nin_cifar, alexnet],
                             ids=["toynet", "nin", "alexnet"])
    def test_linear_outputs_follow_the_input(self, make_net):
        net = make_net()
        executor = NetworkExecutor(net, integer=True)
        xs = [make_input(net.input_shape, seed=s, integer=True)
              for s in range(4)]
        outs = [executor.run(x) for x in xs]
        assert len({out.tobytes() for out in outs}) == len(xs)
        shifted = executor.run(np.roll(xs[0], 1, axis=-1))
        assert not np.array_equal(shifted, outs[0])


class TestParamsIO:
    def test_roundtrip(self, mini_vgg_levels, tmp_path):
        from repro.sim.weights import load_params, save_params

        original = make_network_weights(mini_vgg_levels, seed=3)
        path = tmp_path / "weights.npz"
        save_params(path, original)
        loaded = load_params(path, levels=mini_vgg_levels)
        assert set(loaded) == set(original)
        for name in original:
            np.testing.assert_array_equal(original[name][0], loaded[name][0])
            np.testing.assert_array_equal(original[name][1], loaded[name][1])

    def test_loaded_weights_drive_executors(self, mini_vgg_levels, tmp_path):
        from repro.sim import FusedExecutor, ReferenceExecutor
        from repro.sim.weights import load_params, save_params

        params = make_network_weights(mini_vgg_levels, integer=True)
        path = tmp_path / "weights.npz"
        save_params(path, params)
        loaded = load_params(path, levels=mini_vgg_levels)
        x = make_input(mini_vgg_levels[0].in_shape, integer=True)
        expected = ReferenceExecutor(mini_vgg_levels, params=loaded).run(x)
        got = FusedExecutor(mini_vgg_levels, params=loaded, integer=True).run(x)
        np.testing.assert_array_equal(expected, got)

    def test_shape_validation(self, mini_vgg_levels, mini_alex_levels, tmp_path):
        from repro.sim.weights import load_params, save_params

        params = make_network_weights(mini_alex_levels)
        path = tmp_path / "wrong.npz"
        save_params(path, params)
        with pytest.raises(ValueError):
            load_params(path, levels=mini_vgg_levels)

    def test_missing_bias_rejected(self, tmp_path):
        from repro.sim.weights import load_params

        path = tmp_path / "nobias.npz"
        np.savez(path, **{"c.weight": np.zeros((1, 1, 3, 3))})
        with pytest.raises(ValueError):
            load_params(path)

    def test_dtype_conversion(self, mini_vgg_levels, tmp_path):
        from repro.sim.weights import load_params, save_params

        params = make_network_weights(mini_vgg_levels)
        path = tmp_path / "w.npz"
        save_params(path, params)
        loaded = load_params(path, dtype=np.float64)
        assert loaded["c11"][0].dtype == np.float64
