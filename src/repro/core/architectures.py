"""The three microclassifier architectures from Figure 2 of the paper.

* :class:`FullFrameObjectDetectorMC` (Figure 2a) — a sliding-window-style
  detector: a stack of 1x1 convolutions applied at every feature-map
  location, aggregated with a max over the grid of logits ("looking for
  >= 1 objects"), then a sigmoid.
* :class:`LocalizedBinaryClassifierMC` (Figure 2b) — two separable
  convolutions and a fully-connected layer over a spatially cropped feature
  map; suited to prominent objects within a localized region.
* :class:`WindowedLocalizedBinaryClassifierMC` (Figure 2c) — extends the
  localized classifier with temporal context: a shared 1x1 convolution
  reduces each frame's feature map, a window of ``W`` reduced maps is
  depthwise-concatenated, and a small CNN predicts whether the centre frame
  is interesting.  The 1x1 reductions are computed once per frame and
  buffered, so the marginal per-frame cost stays low.

The first two share :class:`SequentialMC` (one network, then a sigmoid),
whose instances :func:`predict_proba_stacked` scores across cameras in one
stacked forward.

The exact channel widths of the figure correspond to full-scale MobileNet
feature maps; the constructors accept the actual (possibly width-scaled)
input shape and keep the figure's filter counts by default.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.core.microclassifier import MicroClassifier, MicroClassifierConfig
from repro.nn.layers import (
    Conv2D,
    Dense,
    Flatten,
    GlobalMaxPool,
    Parameter,
    ReLU,
    ReLU6,
    SeparableConv2D,
)
from repro.nn.batched import batched_forward, model_signature
from repro.nn.losses import SigmoidBinaryCrossEntropy
from repro.nn.model import Sequential

__all__ = [
    "SequentialMC",
    "predict_proba_stacked",
    "FullFrameObjectDetectorMC",
    "LocalizedBinaryClassifierMC",
    "WindowedLocalizedBinaryClassifierMC",
    "build_microclassifier",
]

_SIGMOID = SigmoidBinaryCrossEntropy._sigmoid


class SequentialMC(MicroClassifier):
    """A microclassifier whose probability is ``sigmoid(model(x))``.

    The shared base of the two single-network architectures (Figures 2a and
    2b).  Their forward is one :class:`~repro.nn.model.Sequential`, so MCs
    with equal :attr:`stack_signature` — one per camera, same architecture,
    different weights — can be scored together by
    :func:`predict_proba_stacked`.
    """

    def __init__(self, config: MicroClassifierConfig) -> None:
        super().__init__(config)
        self.model: Sequential | None = None
        self.stack_signature: tuple | None = None

    def _build_model(
        self, layers: list, input_shape: tuple[int, int, int], rng: np.random.Generator
    ) -> None:
        self.model = Sequential(layers, input_shape=input_shape, rng=rng, name=self.name)
        self.stack_signature = model_signature(self.model)
        self.input_shape = tuple(input_shape)
        self.built = True

    def forward_logits(self, feature_maps: np.ndarray, training: bool) -> np.ndarray:
        self._require_built()
        return self.model.forward(feature_maps, training=training)

    def predict_proba_batch(self, feature_maps: np.ndarray) -> np.ndarray:
        logits = self.forward_logits(np.asarray(feature_maps, dtype=np.float64), training=False)
        return _SIGMOID(logits[:, 0])

    def backward(self, grad_logits: np.ndarray) -> None:
        self._require_built()
        self.model.backward(grad_logits)

    def parameters(self) -> list[Parameter]:
        return self.model.parameters() if self.model is not None else []

    def multiply_adds(self, input_shape: tuple[int, int, int] | None = None) -> int:
        self._require_built()
        return self.model.multiply_adds(input_shape)


def predict_proba_stacked(mcs: Sequence[SequentialMC], feature_maps: np.ndarray) -> np.ndarray:
    """Probability of ``mcs[i]`` for ``feature_maps[i]``, in one stacked forward.

    Every MC must share one :attr:`~SequentialMC.stack_signature`.  Each
    MC's weights are read at call time (no stacked copy is built), and
    entry ``i`` is bit-identical to
    ``mcs[i].predict_proba_batch(feature_maps[i:i+1])[0]``
    (see :mod:`repro.nn.batched`).
    """
    signature = mcs[0].stack_signature
    for mc in mcs:
        mc._require_built()
        if mc.stack_signature != signature:
            raise ValueError(
                f"MicroClassifier {mc.name!r} cannot be stacked with {mcs[0].name!r}: "
                "their layer signatures differ"
            )
    logits = batched_forward([mc.model for mc in mcs], np.asarray(feature_maps, dtype=np.float64))
    return _SIGMOID(logits[:, 0])


class FullFrameObjectDetectorMC(SequentialMC):
    """Figure 2a: 1x1-convolution template matcher + max over logits.

    The figure applies a ReLU after the final single-filter convolution; we
    keep that layer linear so the frame logit can take both signs, which the
    sigmoid needs for calibrated training.  This does not change the
    architecture's cost.
    """

    def __init__(
        self,
        config: MicroClassifierConfig,
        hidden_filters: int = 32,
        num_hidden_layers: int = 2,
    ) -> None:
        super().__init__(config)
        if hidden_filters <= 0 or num_hidden_layers < 1:
            raise ValueError("hidden_filters and num_hidden_layers must be positive")
        self.hidden_filters = int(hidden_filters)
        self.num_hidden_layers = int(num_hidden_layers)

    def build(self, input_shape: tuple[int, int, int], rng: np.random.Generator) -> None:
        layers = []
        for i in range(self.num_hidden_layers):
            layers.append(Conv2D(self.hidden_filters, 1, name=f"{self.name}/conv1x1_{i}"))
            layers.append(ReLU(name=f"{self.name}/relu_{i}"))
        layers.append(Conv2D(1, 1, name=f"{self.name}/logit_conv"))
        layers.append(GlobalMaxPool(name=f"{self.name}/max"))
        self._build_model(layers, input_shape, rng)


class LocalizedBinaryClassifierMC(SequentialMC):
    """Figure 2b: two separable convolutions + a 200-unit FC head."""

    def __init__(
        self,
        config: MicroClassifierConfig,
        first_depth: int = 16,
        second_depth: int = 32,
        fc_units: int = 200,
    ) -> None:
        super().__init__(config)
        if min(first_depth, second_depth, fc_units) <= 0:
            raise ValueError("layer sizes must be positive")
        self.first_depth = int(first_depth)
        self.second_depth = int(second_depth)
        self.fc_units = int(fc_units)

    def build(self, input_shape: tuple[int, int, int], rng: np.random.Generator) -> None:
        layers = [
            SeparableConv2D(self.first_depth, 3, stride=1, name=f"{self.name}/sepconv1"),
            ReLU(name=f"{self.name}/relu1"),
            SeparableConv2D(self.second_depth, 3, stride=2, name=f"{self.name}/sepconv2"),
            ReLU(name=f"{self.name}/relu2"),
            Flatten(name=f"{self.name}/flatten"),
            Dense(self.fc_units, name=f"{self.name}/fc1"),
            ReLU6(name=f"{self.name}/relu6"),
            Dense(1, name=f"{self.name}/fc2"),
        ]
        self._build_model(layers, input_shape, rng)


class WindowedLocalizedBinaryClassifierMC(MicroClassifier):
    """Figure 2c: temporal-window classifier with buffered 1x1 reductions.

    Per frame, a shared 1x1 convolution reduces the feature map to
    ``reduce_filters`` channels; the reductions for a symmetric window of
    ``window`` frames centred on frame *F* are concatenated depthwise and a
    small CNN + FC head classifies *F*.  The per-frame reductions are
    buffered and reused across overlapping windows (the paper's
    optimization), so the marginal per-frame cost is one reduction plus one
    head evaluation.
    """

    def __init__(
        self,
        config: MicroClassifierConfig,
        window: int = 5,
        reduce_filters: int = 32,
        conv_filters: int = 32,
        fc_units: int = 200,
    ) -> None:
        super().__init__(config)
        if window < 1 or window % 2 == 0:
            raise ValueError("window must be a positive odd integer")
        if min(reduce_filters, conv_filters, fc_units) <= 0:
            raise ValueError("layer sizes must be positive")
        self.window = int(window)
        self.reduce_filters = int(reduce_filters)
        self.conv_filters = int(conv_filters)
        self.fc_units = int(fc_units)
        self.reduce: Conv2D | None = None
        self.reduce_relu: ReLU | None = None
        self.head: Sequential | None = None
        # Streaming buffer of reduced maps keyed by frame index.
        self._reduction_buffer: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._buffer_capacity = 4 * self.window

    def build(self, input_shape: tuple[int, int, int], rng: np.random.Generator) -> None:
        h, w, c = input_shape
        self.reduce = Conv2D(self.reduce_filters, 1, name=f"{self.name}/reduce1x1")
        self.reduce.build((h, w, c), rng)
        self.reduce_relu = ReLU(name=f"{self.name}/reduce_relu")
        head_input = (h, w, self.reduce_filters * self.window)
        self.head = Sequential(
            [
                Conv2D(self.conv_filters, 3, stride=1, name=f"{self.name}/conv1"),
                ReLU(name=f"{self.name}/relu1"),
                Conv2D(self.conv_filters, 3, stride=2, name=f"{self.name}/conv2"),
                ReLU(name=f"{self.name}/relu2"),
                Flatten(name=f"{self.name}/flatten"),
                Dense(self.fc_units, name=f"{self.name}/fc1"),
                ReLU(name=f"{self.name}/fc_relu"),
                Dense(1, name=f"{self.name}/fc2"),
            ],
            input_shape=head_input,
            rng=rng,
            name=f"{self.name}/head",
        )
        self.input_shape = tuple(input_shape)
        self.built = True

    # -- reductions and windows ---------------------------------------------
    def reduce_map(self, feature_map: np.ndarray, training: bool = False) -> np.ndarray:
        """Apply the shared 1x1 reduction to one frame's feature map ``(H, W, C)``."""
        self._require_built()
        out = self.reduce.forward(np.asarray(feature_map, dtype=np.float64)[None, ...], training)
        return self.reduce_relu.forward(out, training)[0]

    def buffer_reduction(self, frame_index: int, feature_map: np.ndarray) -> np.ndarray:
        """Compute (or reuse) the buffered reduction for ``frame_index``."""
        cached = self._reduction_buffer.get(frame_index)
        if cached is not None:
            return cached
        reduced = self.reduce_map(feature_map)
        self._reduction_buffer[frame_index] = reduced
        while len(self._reduction_buffer) > self._buffer_capacity:
            self._reduction_buffer.popitem(last=False)
        return reduced

    def _window_tensor(self, reduced_maps: list[np.ndarray]) -> np.ndarray:
        """Depthwise-concatenate a window of reduced maps into ``(1, H, W, W*R)``."""
        if len(reduced_maps) != self.window:
            raise ValueError(
                f"Expected {self.window} reduced maps, got {len(reduced_maps)}"
            )
        return np.concatenate(reduced_maps, axis=-1)[None, ...]

    def predict_window(self, reduced_maps: list[np.ndarray]) -> float:
        """Probability that the window's centre frame is relevant."""
        logits = self.head.forward(self._window_tensor(reduced_maps), training=False)
        return float(_SIGMOID(logits[0, 0]))

    def predict_proba_stream(self, feature_maps: np.ndarray) -> np.ndarray:
        """Probabilities for every frame of a *consecutive* sequence.

        ``feature_maps`` is ``(N, H, W, C)`` in stream order.  Edge frames use
        a clamped (edge-replicated) window, mirroring a real-time deployment
        where the first/last frames lack full context.
        """
        self._require_built()
        feature_maps = np.asarray(feature_maps, dtype=np.float64)
        n = feature_maps.shape[0]
        # One batched reduction for all frames (the buffered computation).
        reduced = self.reduce_relu.forward(self.reduce.forward(feature_maps, False), False)
        half = self.window // 2
        probs = np.empty(n)
        for i in range(n):
            idx = np.clip(np.arange(i - half, i + half + 1), 0, n - 1)
            window = [reduced[j] for j in idx]
            probs[i] = self.predict_window(window)
        return probs

    # -- MicroClassifier interface -------------------------------------------
    def predict_proba_batch(self, feature_maps: np.ndarray) -> np.ndarray:
        """Treat each batch entry as an independent frame with a static window.

        Without temporal context (e.g. when frames are shuffled for
        training), the window is the same frame repeated ``W`` times; the
        temporal path is exercised via :meth:`predict_proba_stream`.
        """
        self._require_built()
        feature_maps = np.asarray(feature_maps, dtype=np.float64)
        logits = self.forward_logits(feature_maps, training=False)
        return _SIGMOID(logits[:, 0])

    def forward_logits(self, feature_maps: np.ndarray, training: bool) -> np.ndarray:
        self._require_built()
        feature_maps = np.asarray(feature_maps, dtype=np.float64)
        reduced = self.reduce_relu.forward(self.reduce.forward(feature_maps, training), training)
        window_input = np.tile(reduced, (1, 1, 1, self.window))
        return self.head.forward(window_input, training=training)

    def backward(self, grad_logits: np.ndarray) -> None:
        self._require_built()
        grad_window = self.head.backward(grad_logits)
        # The same-frame window replicates the reduction W times; gradients sum.
        n, h, w, _ = grad_window.shape
        grad_reduced = grad_window.reshape(n, h, w, self.window, self.reduce_filters).sum(axis=3)
        grad_reduced = self.reduce_relu.backward(grad_reduced)
        self.reduce.backward(grad_reduced)

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        if self.reduce is not None:
            params.extend(self.reduce.parameters())
        if self.head is not None:
            params.extend(self.head.parameters())
        return params

    def multiply_adds(self, input_shape: tuple[int, int, int] | None = None) -> int:
        """Marginal per-frame multiply-adds: one 1x1 reduction + one head pass."""
        self._require_built()
        shape = tuple(input_shape) if input_shape is not None else self.input_shape
        reduce_cost = self.reduce.multiply_adds(shape)
        head_cost = self.head.multiply_adds()
        return int(reduce_cost + head_cost)

    def reset_buffer(self) -> None:
        """Drop all buffered per-frame reductions."""
        self._reduction_buffer.clear()


_ARCHITECTURES = {
    "full_frame": FullFrameObjectDetectorMC,
    "localized": LocalizedBinaryClassifierMC,
    "windowed": WindowedLocalizedBinaryClassifierMC,
}


def build_microclassifier(
    architecture: str,
    config: MicroClassifierConfig,
    input_shape: tuple[int, int, int],
    rng: np.random.Generator | None = None,
    **kwargs,
) -> MicroClassifier:
    """Construct and build a microclassifier by architecture name.

    Parameters
    ----------
    architecture:
        ``"full_frame"``, ``"localized"``, or ``"windowed"``.
    config:
        Deployment configuration.
    input_shape:
        Shape of the (cropped) feature map the MC will consume.
    kwargs:
        Architecture-specific options (e.g. ``window=5``).
    """
    key = architecture.lower()
    if key not in _ARCHITECTURES:
        raise ValueError(
            f"Unknown architecture {architecture!r}; expected one of {sorted(_ARCHITECTURES)}"
        )
    mc = _ARCHITECTURES[key](config, **kwargs)
    mc.build(tuple(input_shape), rng or np.random.default_rng(0))
    return mc
