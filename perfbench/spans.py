"""Wall-clock spans around each layer's entry points, from outside the program.

:class:`SpanRecorder` patches the public functions and methods of every layer
(``video``, ``features``, ``nn``, ``core``, ``fleet``, ``control``, ``edge``,
``events``, ``obs``) with wrappers that record one span per call — name,
start, end and the span that was open when it began — into flat in-memory
lists.  Nothing inside ``src/`` is edited; :meth:`SpanRecorder.uninstall`
puts every original back.  Self time of a span is its duration minus the
durations of its direct children, so nested layers never count twice.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import numpy as np

from repro.control.hierarchy import HierarchicalControlPlane
from repro.control.loop import ControlLoop
from repro.core import architectures
from repro.core.batched import BatchedScorer
from repro.core.microclassifier import MicroClassifier
from repro.core.streaming import StreamingPipeline
from repro.edge.uplink import WorkConservingUplink
from repro.events.broker import SimulatedBroker
from repro.events.ingest import DatacenterIngest
from repro.events.outbox import NodeOutbox
from repro.events.plane import EventDeliveryPlane
from repro.features.extractor import FeatureExtractor
from repro.fleet import runtime as runtime_module
from repro.fleet import sharding as sharding_module
from repro.fleet.runtime import FleetRuntime
from repro.nn import batched as nn_batched
from repro.nn import im2col as nn_im2col
from repro.nn import layers as nn_layers
from repro.obs.timeline import MetricsTimeline
from repro.video.synthetic import SurveillanceSceneGenerator

MB = 1e6

# (metric, unit, source): "incl"/"self"/"calls" read the named span,
# "tally" a quantity the wrappers add up, "count" the iteration outcome's
# deterministic per-layer counts.
LAYER_METRICS: tuple[tuple[str, str, tuple[str, str]], ...] = (
    ("video.render_s", "s", ("incl", "video.render")),
    ("video.frames_rendered", "count", ("tally", "video.frames")),
    ("core.build_s", "s", ("incl", "core.build")),
    ("fleet.start_s", "s", ("self", "fleet.start")),
    ("nn.pad_s", "s", ("incl", "nn.pad")),
    ("nn.pad_calls", "count", ("calls", "nn.pad")),
    ("nn.pad_mb", "MB", ("tally", "nn.pad_mb")),
    ("nn.im2col_s", "s", ("self", "nn.im2col")),
    ("nn.im2col_mb", "MB", ("tally", "nn.im2col_mb")),
    ("nn.conv_s", "s", ("self", "nn.conv")),
    ("nn.depthwise_s", "s", ("self", "nn.depthwise")),
    ("nn.dense_s", "s", ("self", "nn.dense")),
    ("nn.pool_s", "s", ("self", "nn.pool")),
    ("nn.act_s", "s", ("self", "nn.act")),
    ("core.prefetch_s", "s", ("incl", "core.prefetch")),
    ("core.batches", "count", ("count", "core.batches")),
    ("core.batch_frames_mean", "frames", ("count", "core.batch_frames_mean")),
    ("features.extract_calls", "count", ("calls", "features.extract")),
    ("core.push_s", "s", ("self", "core.push")),
    ("core.mc_forward_s", "s", ("incl", "core.mc_forward")),
    ("core.mc_calls", "count", ("calls", "core.mc_forward")),
    ("core.mc_batch_mean", "frames", ("tally", "core.mc_frames")),
    ("core.finish_s", "s", ("incl", "core.finish")),
    ("fleet.dispatch_s", "s", ("self", "fleet.dispatch")),
    ("fleet.finalize_s", "s", ("incl", "fleet.finalize")),
    ("fleet.frames_offered", "count", ("count", "fleet.frames_offered")),
    ("fleet.frames_scored", "count", ("count", "fleet.frames_scored")),
    ("fleet.frames_dropped", "count", ("count", "fleet.frames_dropped")),
    ("fleet.migrations", "count", ("count", "fleet.migrations")),
    ("fleet.queue_wait_p50_ms", "ms", ("count", "fleet.queue_wait_p50_ms")),
    ("control.tick_s", "s", ("incl", "control.tick")),
    ("control.ticks", "count", ("count", "control.ticks")),
    ("control.actions", "count", ("count", "control.actions")),
    ("control.hier_tick_s", "s", ("incl", "control.hier_tick")),
    ("control.payload_bytes_peak", "bytes", ("count", "control.payload_bytes_peak")),
    ("edge.drain_s", "s", ("incl", "edge.drain")),
    ("edge.transfers", "count", ("count", "edge.transfers")),
    ("edge.reclaimed_mbit", "Mbit", ("count", "edge.reclaimed_mbit")),
    ("events.publish_s", "s", ("incl", "events.publish")),
    ("events.plan_s", "s", ("incl", "events.plan")),
    ("events.offer_s", "s", ("incl", "events.offer")),
    ("events.requests_s", "s", ("incl", "events.requests")),
    ("events.ingest_s", "s", ("incl", "events.ingest")),
    ("events.finalize_s", "s", ("self", "events.finalize")),
    ("events.attempts", "count", ("count", "events.attempts")),
    ("events.retries", "count", ("count", "events.retries")),
    ("events.duplicates", "count", ("count", "events.duplicates")),
    ("events.useful_attempt_ratio", "ratio", ("count", "events.useful_attempt_ratio")),
    ("events.consumer_lag_max_ms", "ms", ("count", "events.consumer_lag_max_ms")),
    ("obs.scrape_s", "s", ("incl", "obs.scrape")),
    ("obs.scrapes", "count", ("calls", "obs.scrape")),
)


def _frames(_args, result) -> float:
    return len(result)


def _padded_mb(args, result) -> float:
    return 0.0 if result is args[0] else result.nbytes / MB


def _cols_mb(_args, result) -> float:
    return result[0].nbytes / MB


def _mc_frames(args, _result) -> float:
    return args[1].shape[0]


class SpanRecorder:
    """Records layer spans while installed; derives per-layer metrics."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack: list[int] = [-1]
        self.tallies: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------
    def reset(self) -> None:
        """Forget recorded spans and tallies (in place: wrappers hold the lists)."""
        for column in (self.span_name, self.parent, self.start, self.end):
            column.clear()
        self.tallies.clear()

    def wrap(self, name: str, fn, tally: tuple[str, object] | None = None):
        """``fn`` recording one span named ``name`` per call."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, tallies, clock = self._stack, self.tallies, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            span_name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if tally is not None:
                key, measure = tally
                tallies[key] = tallies.get(key, 0.0) + measure(args, result)
            return result

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch(self, owner, attr: str, name: str, tally=None) -> None:
        self._replace(owner, attr, self.wrap(name, getattr(owner, attr), tally))

    # -- installation ----------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's entry points (undo with :meth:`uninstall`)."""
        if self._patches:
            raise RuntimeError("SpanRecorder is already installed")
        p = self._patch
        p(SurveillanceSceneGenerator, "render_stream", "video.render", ("video.frames", _frames))
        original_factory = runtime_module.default_pipeline_factory

        @functools.wraps(original_factory)
        def traced_factory(*args, **kwargs):
            return self.wrap("core.build", original_factory(*args, **kwargs))

        self._replace(runtime_module, "default_pipeline_factory", traced_factory)
        self._replace(sharding_module, "default_pipeline_factory", traced_factory)

        p(FleetRuntime, "start", "fleet.start")
        p(FleetRuntime, "advance_until", "fleet.dispatch")
        p(FleetRuntime, "finalize", "fleet.finalize")
        p(BatchedScorer, "prefetch", "core.prefetch")
        p(StreamingPipeline, "push", "core.push")
        p(StreamingPipeline, "finish", "core.finish")
        for cls in vars(architectures).values():
            if (
                isinstance(cls, type)
                and issubclass(cls, MicroClassifier)
                and "predict_proba_batch" in cls.__dict__
            ):
                p(cls, "predict_proba_batch", "core.mc_forward", ("core.mc_frames", _mc_frames))
        p(FeatureExtractor, "extract_pixels", "features.extract")

        p(nn_im2col, "pad_same", "nn.pad", ("nn.pad_mb", _padded_mb))
        traced_im2col = self.wrap("nn.im2col", nn_im2col.im2col, ("nn.im2col_mb", _cols_mb))
        self._replace(nn_layers, "im2col", traced_im2col)
        self._replace(nn_batched, "im2col", traced_im2col)
        p(nn_layers.Conv2D, "forward", "nn.conv")
        p(nn_batched, "batched_conv2d_forward", "nn.conv")
        p(nn_layers.DepthwiseConv2D, "forward", "nn.depthwise")
        p(nn_layers.Dense, "forward", "nn.dense")
        p(nn_batched, "batched_dense_forward", "nn.dense")
        for cls in (nn_layers.MaxPool2D, nn_layers.GlobalMaxPool, nn_layers.GlobalAveragePool):
            p(cls, "forward", "nn.pool")
        for cls in (nn_layers.ReLU, nn_layers.ReLU6, nn_layers.Sigmoid, nn_layers.Softmax):
            p(cls, "forward", "nn.act")

        p(ControlLoop, "tick", "control.tick")
        p(HierarchicalControlPlane, "tick", "control.hier_tick")
        p(WorkConservingUplink, "drain", "edge.drain")

        original_attach = EventDeliveryPlane.attach

        @functools.wraps(original_attach)
        def traced_attach(plane, node_id, runtime):
            original_attach(plane, node_id, runtime)
            runtime.event_sink = self.wrap("events.publish", runtime.event_sink)

        self._replace(EventDeliveryPlane, "attach", traced_attach)
        p(SimulatedBroker, "plan", "events.plan")
        p(NodeOutbox, "offer", "events.offer")
        p(EventDeliveryPlane, "transfer_requests", "events.requests")
        p(DatacenterIngest, "ingest", "events.ingest")
        p(EventDeliveryPlane, "finalize", "events.finalize")
        p(MetricsTimeline, "scrape", "obs.scrape")

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- derivation ------------------------------------------------------------
    def span_times(self) -> dict[str, tuple[float, float, int]]:
        """``{span name: (inclusive seconds, self seconds, calls)}``."""
        if not self.start:
            return {}
        names = np.asarray(self.span_name)
        parent = np.asarray(self.parent)
        duration = np.asarray(self.end) - np.asarray(self.start)
        children = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        width = len(self.names)
        inclusive = np.bincount(names, weights=duration, minlength=width)
        own = np.bincount(names, weights=duration - children, minlength=width)
        calls = np.bincount(names, minlength=width)
        return {
            name: (float(inclusive[i]), float(own[i]), int(calls[i]))
            for i, name in enumerate(self.names)
        }

    def layer_metrics(self, counts: dict[str, float]) -> dict[str, float]:
        """Every per-layer metric for the iteration just recorded."""
        times = self.span_times()
        values: dict[str, float] = {}
        for metric, _unit, (source, key) in LAYER_METRICS:
            inclusive, own, calls = times.get(key, (0.0, 0.0, 0))
            if source == "incl":
                values[metric] = inclusive
            elif source == "self":
                values[metric] = own
            elif source == "calls":
                values[metric] = float(calls)
            elif source == "tally":
                values[metric] = self.tallies.get(key, 0.0)
            else:
                values[metric] = float(counts.get(key, 0.0))
        mc_calls = values["core.mc_calls"]
        values["core.mc_batch_mean"] = values["core.mc_batch_mean"] / mc_calls if mc_calls else 0.0
        return values

    def dump(self, path: Path) -> None:
        """Write the recorded spans as columnar JSON (times in seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min(self.start, default=0.0)
        path.write_text(
            json.dumps(
                {
                    "names": self.names,
                    "name": self.span_name,
                    "parent": self.parent,
                    "start": [round(t - origin, 9) for t in self.start],
                    "end": [round(t - origin, 9) for t in self.end],
                }
            )
        )
