"""Bit-exact batched inference over :mod:`repro.nn` layers.

The fleet's cross-camera batching (:mod:`repro.core.batched`) stacks many
cameras' frames into one ``(N, H, W, C)`` tensor and runs the shared base
DNN once.  That is only admissible if the batched forward produces *exactly*
the bits the per-camera ``N=1`` forward would have produced — probabilities
feed thresholds, thresholds feed events, events feed upload accounting, and
a one-ULP drift anywhere breaks the golden control trace.

A naive "stack and GEMM" does not satisfy that: BLAS chooses different
kernels and blocking (and thread partitions) by matrix size, so
``(N*P, K) @ (K, F)`` can differ in the last bits from the per-sample
``(P, K) @ (K, F)`` calls.  This module therefore batches *everything except
the GEMM row extents*:

* one ``im2col`` lowering over the whole stacked batch (one strided copy
  instead of N), whose rows are positionally identical to the per-sample
  lowerings;
* the convolution GEMM computed in **per-sample row blocks** — each block is
  the same ``(P, K) @ (K, F)`` problem, on the same contiguous row layout,
  the per-sample path hands BLAS, so each sample's output bits are identical
  by construction;
* bias add, activations, depthwise ``einsum``, pooling, and reshapes fully
  batched (all per-sample-independent, order-stable element operations).

Every weighted kernel also takes **one layer per sample** instead of one
shared layer, so the same code path scores a stack of *different* models
that share an architecture (one microclassifier per camera, see
:func:`model_signature`): the lowering, bias add and activations still run
once over the stack, while each sample's GEMM block — and, with per-sample
layers, its depthwise ``einsum`` block — reads that sample's own weights at
call time.  No stacked weight copy is ever built, so weights swapped in
after construction are honoured and memory stays flat in the number of
models.

:func:`batched_forward_with_taps` additionally stops at the deepest tapped
layer: the base DNN's untapped tail (half the network when tapping
``conv2_2/sep``) contributes nothing to any subscriber and is skipped.

Training is deliberately *not* routed through this module — the training
paths keep their historical single-GEMM batches (changing them would perturb
every trained weight downstream).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.nn.im2col import im2col
from repro.nn.layers import Conv2D, Dense, DepthwiseConv2D, Layer, SeparableConv2D
from repro.nn.model import Sequential

__all__ = [
    "batched_conv2d_forward",
    "batched_depthwise_forward",
    "batched_dense_forward",
    "batched_layer_forward",
    "batched_forward",
    "batched_forward_with_taps",
    "model_signature",
]

# A layer shared by every sample of the batch, or one layer per sample.
Layers = Layer | Sequence[Layer]

# Hyper-parameters that change what a layer computes beyond its weights.
_HYPERPARAMETERS = ("kernel_size", "stride", "padding", "pool_size", "filters", "units", "use_bias")


def _as_layers(layer: Layers, samples: int) -> tuple[Layer, ...]:
    """``layer`` as one shared layer or exactly one built layer per sample."""
    layers = (layer,) if isinstance(layer, Layer) else tuple(layer)
    if len(layers) not in (1, samples):
        raise ValueError(
            f"Expected one shared layer or one per sample ({samples}), got {len(layers)}"
        )
    for each in layers:
        if not each.built:
            raise RuntimeError(f"Layer {each.name} used before build()")
    return layers


def _chunked_gemm(rows: np.ndarray, weights: Sequence[np.ndarray], samples: int) -> np.ndarray:
    """``rows @ weights`` computed in ``samples`` equal contiguous row blocks.

    ``weights`` holds one matrix shared by every block or one matrix per
    block.  Each block sees the exact GEMM problem (shape, contiguous
    layout) the per-sample forward pass would submit, so each sample's rows
    of the result are bit-identical to an ``N=1`` call regardless of how
    BLAS specializes by size.
    """
    if len(weights) == 1:
        weights = list(weights) * samples
    per_sample = rows.shape[0] // samples
    out = np.empty((rows.shape[0], weights[0].shape[1]), dtype=np.result_type(rows, weights[0]))
    for i, w in enumerate(weights):
        start = i * per_sample
        np.matmul(rows[start : start + per_sample], w, out=out[start : start + per_sample])
    return out


def _add_bias(out: np.ndarray, layers: tuple[Layer, ...]) -> np.ndarray:
    """Add each sample's bias to its slice of the stacked output, in place.

    An elementwise add, so a sample's values do not depend on the stack.
    """
    if layers[0].use_bias:
        if len(layers) == 1:
            out += layers[0].bias.value
        else:
            biases = np.stack([layer.bias.value for layer in layers])
            out += biases.reshape((len(layers),) + (1,) * (out.ndim - 2) + biases.shape[1:])
    return out


def batched_conv2d_forward(layer: Conv2D | Sequence[Conv2D], x: np.ndarray) -> np.ndarray:
    """Inference forward of :class:`Conv2D` over a stacked batch.

    ``layer`` is one layer shared by the batch or one layer per sample; the
    result is bit-identical per sample to ``layer_i.forward(x[i:i+1])``.
    Pointwise (1x1, stride-1) convolutions skip the im2col lowering
    entirely: their column matrix is just the channel-flattened input, so
    the window copy is pure overhead.
    """
    n = x.shape[0]
    layers = _as_layers(layer, n)
    first = layers[0]
    kh, kw = first.kernel_size
    if (kh, kw) == (1, 1) and first.stride == (1, 1):
        out_h, out_w = x.shape[1], x.shape[2]
        cols = np.ascontiguousarray(x.reshape(n * out_h * out_w, x.shape[3]))
    else:
        cols, (out_h, out_w), _ = im2col(x, first.kernel_size, first.stride, first.padding)
    k = kh * kw * x.shape[3]
    out = _chunked_gemm(cols, [each.kernel.value.reshape(k, first.filters) for each in layers], n)
    return _add_bias(out.reshape(n, out_h, out_w, first.filters), layers)


def batched_depthwise_forward(
    layer: DepthwiseConv2D | Sequence[DepthwiseConv2D], x: np.ndarray
) -> np.ndarray:
    """Inference forward of :class:`DepthwiseConv2D` over a stacked batch.

    A shared layer runs its own ``forward`` once over the batch (the
    depthwise ``einsum`` is per-window, so batching it is exact).  With one
    layer per sample, the lowering runs once over the stack and each
    sample's ``einsum`` runs on the row block an ``N=1`` forward would
    build, with that sample's kernel.
    """
    n = x.shape[0]
    layers = _as_layers(layer, n)
    first = layers[0]
    if len(layers) == 1:
        return first.forward(x, training=False)
    kh, kw = first.kernel_size
    c = x.shape[3]
    cols, (out_h, out_w), _ = im2col(x, first.kernel_size, first.stride, first.padding)
    windows = cols.reshape(n, out_h * out_w, kh * kw, c)
    out = np.empty((n, out_h * out_w, c), dtype=np.result_type(cols, first.kernel.value))
    for i, each in enumerate(layers):
        np.einsum("nkc,kc->nc", windows[i], each.kernel.value.reshape(kh * kw, c), out=out[i])
    return _add_bias(out.reshape(n, out_h, out_w, c), layers)


def batched_dense_forward(layer: Dense | Sequence[Dense], x: np.ndarray) -> np.ndarray:
    """Inference forward of :class:`Dense` over a stacked batch.

    ``layer`` is one layer shared by the batch or one layer per sample.
    Each sample flattens to a single GEMM row, so the per-sample block here
    is a one-row matmul — identical to what ``predict_proba`` submits.
    """
    layers = _as_layers(layer, x.shape[0])
    flat = np.ascontiguousarray(x.reshape(x.shape[0], -1))
    out = _chunked_gemm(flat, [each.kernel.value for each in layers], x.shape[0])
    return _add_bias(out, layers)


def batched_layer_forward(layer: Layers, x: np.ndarray) -> np.ndarray:
    """Batch-exact inference forward of one layer, shared or one per sample.

    Conv/separable/dense layers route through the chunked-GEMM paths and
    depthwise layers through :func:`batched_depthwise_forward`; every other
    layer's ``forward`` is already per-sample-stable over a batch
    (elementwise activations, per-window pooling, reshapes) and carries no
    weights, so the first layer runs over the whole stack in inference mode.
    """
    layers = _as_layers(layer, x.shape[0])
    first = layers[0]
    if isinstance(first, SeparableConv2D):
        return batched_conv2d_forward(
            [each.pointwise for each in layers],
            batched_depthwise_forward([each.depthwise for each in layers], x),
        )
    if isinstance(first, DepthwiseConv2D):
        return batched_depthwise_forward(layers, x)
    if isinstance(first, Conv2D):
        return batched_conv2d_forward(layers, x)
    if isinstance(first, Dense):
        return batched_dense_forward(layers, x)
    return first.forward(x, training=False)


def model_signature(model: Sequential) -> tuple:
    """Everything but the weight values that fixes what ``model`` computes.

    Models with equal signatures can be stacked in one
    :func:`batched_forward`: layer types, hyper-parameters and parameter
    shapes, in order.
    """
    return tuple(
        (
            type(layer),
            tuple(getattr(layer, name, None) for name in _HYPERPARAMETERS),
            tuple(p.value.shape for p in layer.parameters()),
        )
        for layer in model.layers
    )


def batched_forward(model: Sequential | Sequence[Sequential], x: np.ndarray) -> np.ndarray:
    """Batch-exact inference pass through a whole :class:`Sequential`.

    ``model`` is one model shared by the batch or one model per sample; per
    sample models must share a :func:`model_signature` (the caller groups
    by it), and sample ``i``'s output is bit-identical to
    ``model_i.forward(x[i:i+1])``.
    """
    models = (model,) if isinstance(model, Sequential) else tuple(model)
    for each in models:
        each._require_built()
    out = x
    for layers in zip(*(each.layers for each in models)):
        out = batched_layer_forward(layers, out)
    return out


def batched_forward_with_taps(
    model: Sequential,
    x: np.ndarray,
    taps: Sequence[str],
    stop_at_last_tap: bool = True,
) -> Mapping[str, np.ndarray]:
    """Batch-exact forward collecting named-layer activations.

    The counterpart of :meth:`Sequential.forward_with_taps` for the batched
    inference path.  With ``stop_at_last_tap`` (the default) execution ends
    at the deepest tapped layer — layers past the last subscriber cannot
    change any tapped activation, so the untapped tail is skipped.

    Returns the activations dict only; callers of the batched path never
    consume the head output.
    """
    model._require_built()
    wanted = set(taps)
    if not wanted:
        raise ValueError("batched_forward_with_taps requires at least one tap")
    names = [layer.name for layer in model.layers]
    unknown = wanted - set(names)
    if unknown:
        raise KeyError(f"Unknown tap layer(s) {sorted(unknown)} in model {model.name!r}")
    last = max(i for i, name in enumerate(names) if name in wanted)
    layers = model.layers[: last + 1] if stop_at_last_tap else model.layers
    activations: dict[str, np.ndarray] = {}
    out = x
    for layer in layers:
        out = batched_layer_forward(layer, out)
        if layer.name in wanted:
            activations[layer.name] = out
    return activations
