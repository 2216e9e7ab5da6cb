"""Batch-vs-loop equivalence of the batched inference path (exact, not allclose).

The cross-camera batched scorer is only admissible because
:mod:`repro.nn.batched` produces *exactly* the bits the per-sample ``N=1``
forward produces — BLAS is free to pick different kernels by matrix size, so
this property is enforced by construction (per-sample-chunked GEMM) and
pinned here with ``np.array_equal`` over a 24-seed randomized sweep across
every layer family the base DNN and microclassifiers use.  The same holds
for a stack of *different* models with one architecture (one
microclassifier per camera), each sample scored with its own weights.
"""

import numpy as np
import pytest

from repro.core.architectures import build_microclassifier, predict_proba_stacked
from repro.core.microclassifier import MicroClassifierConfig
from repro.features.base_dnn import build_mobilenet_like
from repro.features.extractor import FeatureMapCrop
from repro.nn.batched import (
    batched_conv2d_forward,
    batched_dense_forward,
    batched_depthwise_forward,
    batched_forward,
    batched_forward_with_taps,
    batched_layer_forward,
    model_signature,
)
from repro.nn.layers import (
    Conv2D,
    Dense,
    DepthwiseConv2D,
    GlobalAveragePool,
    GlobalMaxPool,
    MaxPool2D,
    SeparableConv2D,
)

SEEDS = range(24)


def random_input(rng, max_batch=9):
    n = int(rng.integers(2, max_batch + 1))
    h = int(rng.integers(6, 13))
    w = int(rng.integers(6, 13))
    c = int(rng.integers(1, 5))
    return rng.standard_normal((n, h, w, c))


def per_sample_forward(layer, x):
    """The reference: one N=1 forward per sample, concatenated."""
    return np.concatenate(
        [layer.forward(x[i : i + 1], training=False) for i in range(x.shape[0])], axis=0
    )


def random_layers(rng, channels):
    """One instance of every layer family, with randomized hyperparameters."""
    kernel = int(rng.choice([1, 3]))
    stride = int(rng.choice([1, 2]))
    padding = str(rng.choice(["same", "valid"]))
    filters = int(rng.integers(1, 7))
    return [
        Conv2D(filters, kernel, stride=stride, padding=padding),
        Conv2D(filters, 1, stride=1, padding="same"),  # the pointwise fast path
        DepthwiseConv2D(3, stride=stride, padding=padding),
        SeparableConv2D(filters, 3, stride=stride, padding="same"),
        MaxPool2D(2),
        GlobalMaxPool(),
        GlobalAveragePool(),
        Dense(int(rng.integers(1, 5))),
    ]


class TestLayerSweep:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_layer_family_is_batch_exact(self, seed):
        rng = np.random.default_rng(seed)
        x = random_input(rng)
        for layer in random_layers(rng, x.shape[3]):
            layer.build(x.shape[1:], rng)
            batched = batched_layer_forward(layer, x)
            looped = per_sample_forward(layer, x)
            assert batched.shape == looped.shape, layer.name
            assert np.array_equal(batched, looped), (
                f"{layer.name} batched forward is not bit-identical to the "
                f"per-sample loop at seed {seed}"
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv_and_dense_direct_entrypoints(self, seed):
        rng = np.random.default_rng(1000 + seed)
        x = random_input(rng, max_batch=5)
        conv = Conv2D(int(rng.integers(1, 5)), 3, stride=1, padding="same")
        conv.build(x.shape[1:], rng)
        assert np.array_equal(batched_conv2d_forward(conv, x), per_sample_forward(conv, x))
        dense = Dense(3)
        dense.build(x.shape[1:], rng)
        assert np.array_equal(batched_dense_forward(dense, x), per_sample_forward(dense, x))


class TestPerSampleLayers:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_one_layer_per_sample_matches_each_layers_own_forward(self, seed):
        rng = np.random.default_rng(2000 + seed)
        x = random_input(rng)
        n = x.shape[0]
        kernel = int(rng.choice([1, 3]))
        stride = int(rng.choice([1, 2]))
        padding = str(rng.choice(["same", "valid"]))
        filters = int(rng.integers(1, 7))
        factories = [
            lambda: Conv2D(filters, kernel, stride=stride, padding=padding),
            lambda: Conv2D(filters, 1, stride=1, padding="same"),
            lambda: DepthwiseConv2D(3, stride=stride, padding=padding),
            lambda: SeparableConv2D(filters, 3, stride=stride, padding="same"),
            lambda: Dense(3),
        ]
        for factory in factories:
            layers = [factory() for _ in range(n)]
            for layer in layers:
                layer.build(x.shape[1:], rng)
            batched = batched_layer_forward(layers, x)
            looped = np.concatenate(
                [layer.forward(x[i : i + 1], training=False) for i, layer in enumerate(layers)]
            )
            assert np.array_equal(batched, looped), type(layers[0]).__name__

    def test_wrong_layer_count_raises(self):
        layers = [Dense(2), Dense(2)]
        for layer in layers:
            layer.build((4,), np.random.default_rng(0))
        with pytest.raises(ValueError, match="one per sample"):
            batched_dense_forward(layers, np.zeros((3, 4)))

    def test_unbuilt_per_sample_depthwise_raises(self):
        built, unbuilt = DepthwiseConv2D(3), DepthwiseConv2D(3)
        built.build((6, 6, 2), np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="before build"):
            batched_depthwise_forward([built, unbuilt], np.zeros((2, 6, 6, 2)))


def make_mcs(architecture, count, input_shape, seed):
    """``count`` MCs of one architecture, each with its own random weights."""
    return [
        build_microclassifier(
            architecture,
            MicroClassifierConfig(name=f"mc{i}", input_layer="conv2_2/sep"),
            input_shape,
            rng=np.random.default_rng(seed * 100 + i),
        )
        for i in range(count)
    ]


def assert_stacked_matches_n1(mcs, feature_maps):
    """Stacked probabilities == each MC's own N=1 ``predict_proba_batch``."""
    stacked = predict_proba_stacked(mcs, np.stack(feature_maps))
    for i, (mc, feature_map) in enumerate(zip(mcs, feature_maps)):
        reference = mc.predict_proba_batch(np.stack([feature_map]))
        assert np.array_equal(stacked[i : i + 1], reference), (mc.name, i)


class TestStackedMicroclassifiers:
    @pytest.mark.parametrize("architecture", ["localized", "full_frame"])
    @pytest.mark.parametrize("count", range(1, 10))
    def test_stacked_forward_is_bit_identical_per_mc(self, architecture, count):
        rng = np.random.default_rng(count)
        shape = (6, 8, int(rng.integers(2, 6)))
        mcs = make_mcs(architecture, count, shape, seed=count)
        feature_maps = [rng.standard_normal(shape) * 3 for _ in range(count)]
        assert_stacked_matches_n1(mcs, feature_maps)

    @pytest.mark.parametrize("architecture", ["localized", "full_frame"])
    @pytest.mark.parametrize("count", [1, 4, 9])
    def test_cropped_inputs(self, architecture, count):
        """Feature maps cropped out of larger maps (strided views) stack exactly."""
        rng = np.random.default_rng(40 + count)
        crop = FeatureMapCrop(x0=6, y0=3, x1=27, y1=20)
        full = rng.standard_normal((count, 12, 16, 4))
        y0, y1, x0, x1 = crop.to_feature_coords((24, 32), (12, 16))
        feature_maps = [full[i, y0:y1, x0:x1, :] for i in range(count)]
        mcs = make_mcs(architecture, count, feature_maps[0].shape, seed=7)
        assert_stacked_matches_n1(mcs, feature_maps)

    @pytest.mark.parametrize("architecture", ["localized", "full_frame"])
    def test_weights_swapped_after_construction_are_honoured(self, architecture):
        rng = np.random.default_rng(5)
        shape = (6, 8, 3)
        mcs = make_mcs(architecture, 5, shape, seed=1)
        donors = make_mcs(architecture, 5, shape, seed=2)
        feature_maps = [rng.standard_normal(shape) for _ in range(5)]
        before = predict_proba_stacked(mcs, np.stack(feature_maps))
        for mc, donor in zip(mcs[::2], donors[::2]):
            state = {
                name.replace(donor.name, mc.name, 1): value
                for name, value in donor.model.state_dict().items()
            }
            mc.model.load_state_dict(state)
        after = predict_proba_stacked(mcs, np.stack(feature_maps))
        assert_stacked_matches_n1(mcs, feature_maps)
        assert not np.array_equal(before[::2], after[::2])
        assert np.array_equal(before[1::2], after[1::2])

    def test_one_mc_repeated_in_the_stack(self):
        """A trained MC shared by several cameras appears once per frame."""
        [mc] = make_mcs("localized", 1, (6, 8, 3), seed=3)
        rng = np.random.default_rng(3)
        assert_stacked_matches_n1([mc] * 4, [rng.standard_normal((6, 8, 3)) for _ in range(4)])

    def test_signature_ignores_weights_but_not_architecture(self):
        a, b = make_mcs("localized", 2, (6, 8, 3), seed=4)
        [wide] = make_mcs("localized", 1, (6, 8, 5), seed=4)
        [frame_level] = make_mcs("full_frame", 1, (6, 8, 3), seed=4)
        assert a.stack_signature == b.stack_signature == model_signature(a.model)
        assert a.stack_signature != wide.stack_signature
        assert a.stack_signature != frame_level.stack_signature
        with pytest.raises(ValueError, match="cannot be stacked"):
            predict_proba_stacked([a, wide], np.zeros((2, 6, 8, 3)))


class TestModelEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_base_dnn_taps_are_batch_exact(self, seed):
        rng = np.random.default_rng(seed)
        model = build_mobilenet_like((32, 32, 3), alpha=0.125, rng=rng)
        taps = ["conv2_2/sep", "conv3_2/sep"]
        x = rng.random((6, 32, 32, 3))
        batched = batched_forward_with_taps(model, x, taps)
        for i in range(x.shape[0]):
            _, reference = model.forward_with_taps(x[i : i + 1], taps)
            for name in taps:
                assert np.array_equal(batched[name][i], reference[name][0]), name

    def test_full_forward_matches_per_sample(self):
        rng = np.random.default_rng(7)
        model = build_mobilenet_like((16, 16, 3), alpha=0.25, rng=rng)
        x = rng.random((4, 16, 16, 3))
        batched = batched_forward(model, x)
        looped = np.concatenate([model.forward(x[i : i + 1]) for i in range(4)], axis=0)
        assert np.array_equal(batched, looped)

    def test_stop_at_last_tap_skips_nothing_observable(self):
        rng = np.random.default_rng(11)
        model = build_mobilenet_like((16, 16, 3), alpha=0.25, rng=rng)
        x = rng.random((3, 16, 16, 3))
        early = batched_forward_with_taps(model, x, ["conv2_2/sep"])
        full = batched_forward_with_taps(model, x, ["conv2_2/sep"], stop_at_last_tap=False)
        assert np.array_equal(early["conv2_2/sep"], full["conv2_2/sep"])


class TestErrors:
    def test_unbuilt_conv_raises(self):
        with pytest.raises(RuntimeError, match="before build"):
            batched_conv2d_forward(Conv2D(2, 3), np.zeros((2, 8, 8, 3)))

    def test_unbuilt_dense_raises(self):
        with pytest.raises(RuntimeError, match="before build"):
            batched_dense_forward(Dense(2), np.zeros((2, 8)))

    def test_empty_taps_raises(self):
        model = build_mobilenet_like((16, 16, 3), alpha=0.25)
        with pytest.raises(ValueError, match="at least one tap"):
            batched_forward_with_taps(model, np.zeros((1, 16, 16, 3)), [])

    def test_unknown_tap_raises(self):
        model = build_mobilenet_like((16, 16, 3), alpha=0.25)
        with pytest.raises(KeyError, match="nope"):
            batched_forward_with_taps(model, np.zeros((1, 16, 16, 3)), ["nope"])
