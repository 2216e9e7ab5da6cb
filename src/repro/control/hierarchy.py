"""Hierarchical control plane: node-local loops plus a cluster coordinator.

The flat :class:`~repro.control.loop.ControlLoop` shows every controller
every node's full runtime each tick and merges every node's full telemetry
registry into the cluster report — O(cameras x metrics) of cluster-side
work per interval.  That tops out around tens of cameras; the paper's
premise (edge nodes do the heavy lifting locally, the datacenter sees only
what must travel) applies to the *control plane* too.

This module splits control into two levels, both of them
:class:`~repro.control.loop.ControlLoop`\\ s that differ from the flat loop
only in the view they build and how they stamp what they log:

* :class:`NodeControlPlane` — one per edge node.  Local policies (adaptive
  shedding, threshold drift, value shedding — anything emitting node-scope
  actions) observe only that node's runtime and actuate it directly.  After
  acting, the plane distills the node into one :class:`NodeAggregate`: a
  **fixed-size** summary — counts, rates, an offered-utilization estimate,
  and a mergeable :class:`QuantileSketch` of the interval's queue waits —
  whose serialized size is independent of how many cameras the node hosts.
* :class:`ClusterCoordinator` — hosts the flat
  :class:`~repro.control.uplink.UplinkShareController` and
  :class:`~repro.control.migration.MigrationController` over
  :class:`AggregateView`\\ s, so they read per-node matched counts and
  offered utilizations from aggregates only.  Victim selection stays on the
  source node: the migration policy names a ``(source, destination)`` pair
  and the source's plane scores its own cameras
  (:func:`~repro.control.migration.pick_victim`), so per-camera detail
  never crosses the node boundary.

:class:`HierarchicalControlPlane` wires the two levels to a sharded
cluster runtime: per-interval cluster coordination exchanges exactly one
aggregate per node upstream and one uplink guarantee per node downstream —
O(nodes), asserted in ``benchmarks/bench_hierarchy.py`` via
:attr:`HierarchicalControlPlane.payload_bytes`.  Decision provenance is
stamped at both levels (``level="node"`` / ``level="cluster"``) into one
globally ordered record stream, and the metrics timeline is scraped at
both levels (per-node sources plus a fixed-size ``"cluster"`` rollup).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.control.loop import ClusterActuator, ControlLoop, NodeActuator
from repro.control.migration import (
    MigrationConfig,
    MigrationController,
    offered_utilization,
    pick_victim,
)
from repro.control.policies import (
    ClusterView,
    ControlAction,
    Controller,
    MigrateCamera,
    NodeView,
)
from repro.control.provenance import CandidateScore
from repro.control.shedding import AdaptiveSheddingController
from repro.control.uplink import UplinkShareConfig, UplinkShareController
from repro.control.value import ThresholdDriftController
from repro.fleet.runtime import FleetRuntime
from repro.fleet.telemetry import TelemetryRegistry
from repro.obs.timeline import MetricsTimeline

__all__ = [
    "QuantileSketch",
    "NodeAggregate",
    "AggregateView",
    "NodeControlPlane",
    "ClusterCoordinator",
    "HierarchicalControlPlane",
    "default_local_controllers",
]

# Counter families every NodeAggregate carries.  Fixed list = fixed payload.
_AGGREGATE_COUNTERS = (
    ("frames_generated", "frames.generated"),
    ("frames_scored", "frames.scored"),
    ("frames_rejected", "frames.rejected"),
    ("frames_matched", "frames.matched"),
    ("events_closed", "events.closed"),
    ("estimated_upload_bits", "uplink.estimated_bits"),
    # Delivery-plane summary: fixed scalar counters, never per-event lines,
    # so the per-tick payload stays O(1) per node with the plane attached.
    ("events_published", "events.published"),
    ("events_dropped", "events.dropped"),
)
_AGGREGATE_FIELDS = {metric: name for name, metric in _AGGREGATE_COUNTERS}


@dataclass(frozen=True)
class QuantileSketch:
    """Fixed-size mergeable quantile summary over ``(value, weight)`` centroids.

    Values compress into at most ``max_centroids`` weight-balanced centroids
    (sorted by value), so the sketch's size — and its serialized payload —
    is bounded no matter how many observations fed it.  Merging concatenates
    and re-compresses; quantiles are weighted nearest-rank over centroids.
    Everything is deterministic: same inputs, same centroids.
    """

    centroids: tuple[tuple[float, float], ...] = ()
    max_centroids: int = 32

    @staticmethod
    def _compress(
        centroids: Sequence[tuple[float, float]], max_centroids: int
    ) -> tuple[tuple[float, float], ...]:
        if len(centroids) <= max_centroids:
            return tuple(centroids)
        total = sum(w for _, w in centroids)
        per_bucket = total / max_centroids
        out: list[tuple[float, float]] = []
        acc_value = 0.0
        acc_weight = 0.0
        for value, weight in centroids:
            acc_value += value * weight
            acc_weight += weight
            if acc_weight >= per_bucket and len(out) < max_centroids - 1:
                out.append((acc_value / acc_weight, acc_weight))
                acc_value = 0.0
                acc_weight = 0.0
        if acc_weight > 0.0:
            out.append((acc_value / acc_weight, acc_weight))
        return tuple(out)

    @classmethod
    def from_values(
        cls, values: Sequence[float], max_centroids: int = 32
    ) -> "QuantileSketch":
        """Build a sketch from raw observations."""
        if max_centroids < 1:
            raise ValueError("max_centroids must be at least 1")
        singles = tuple((float(v), 1.0) for v in sorted(float(v) for v in values))
        return cls(cls._compress(singles, max_centroids), max_centroids)

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """The sketch of the combined distributions (size stays bounded)."""
        combined = sorted(self.centroids + other.centroids)
        return QuantileSketch(
            self._compress(combined, self.max_centroids), self.max_centroids
        )

    @property
    def count(self) -> float:
        """Total observation weight behind this sketch."""
        return sum(w for _, w in self.centroids)

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (weighted nearest-rank; q in [0, 100])."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        if not self.centroids:
            return 0.0
        total = self.count
        rank = max(1.0, math.ceil(q / 100.0 * total))
        cumulative = 0.0
        for value, weight in self.centroids:
            cumulative += weight
            if cumulative >= rank:
                return value
        return self.centroids[-1][0]

    def to_payload(self) -> list[list[float]]:
        """JSON-ready ``[[value, weight], ...]`` — at most ``max_centroids`` pairs."""
        return [[round(v, 9), round(w, 6)] for v, w in self.centroids]


@dataclass(frozen=True)
class NodeAggregate:
    """One node's fixed-size per-interval summary — all the cluster ever sees.

    Counts and rates are cumulative counter values; ``offered_utilization``
    and the queue-wait sketch describe the last control interval.  The
    serialized payload (:meth:`to_payload`) is bounded by a constant: the
    sketch holds at most ``max_centroids`` centroids and ``resolutions`` is
    bounded by the fleet's resolution palette, never by camera count.
    """

    node_id: str
    now: float
    num_cameras: int
    num_workers: int
    frames_generated: float
    frames_scored: float
    frames_rejected: float
    frames_dropped: float
    frames_matched: float
    events_closed: float
    estimated_upload_bits: float
    offered_utilization: float
    window_wait_count: int
    window_wait_sketch: QuantileSketch
    resolutions: tuple[tuple[int, int], ...]
    events_published: float = 0.0
    events_dropped: float = 0.0

    @property
    def window_wait_p99(self) -> float:
        """p99 queue wait over the summarized interval (from the sketch)."""
        return self.window_wait_sketch.percentile(99)

    def to_payload(self) -> dict:
        """The JSON-ready upstream message (what crosses the node boundary)."""
        return {
            "node_id": self.node_id,
            "t": round(self.now, 9),
            "cameras": self.num_cameras,
            "workers": self.num_workers,
            "generated": self.frames_generated,
            "scored": self.frames_scored,
            "rejected": self.frames_rejected,
            "dropped": self.frames_dropped,
            "matched": self.frames_matched,
            "events": self.events_closed,
            "events_published": self.events_published,
            "events_dropped": self.events_dropped,
            "upload_bits": self.estimated_upload_bits,
            "offered_utilization": round(self.offered_utilization, 9),
            "wait_count": self.window_wait_count,
            "wait_sketch": self.window_wait_sketch.to_payload(),
            "resolutions": [list(r) for r in self.resolutions],
        }

    def payload_bytes(self) -> int:
        """Serialized size of the upstream message in bytes."""
        return len(
            json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":")).encode()
        )


def default_local_controllers(node_id: str) -> list[Controller]:
    """The local policy set a node runs when none is injected.

    Adaptive shedding (windowed queue-wait p99 against that node's own
    telemetry) plus threshold drift (a no-op on nodes without the accuracy
    plane).  Uplink re-weighting and migration are cluster-scope and live in
    the coordinator.
    """
    return [AdaptiveSheddingController(), ThresholdDriftController()]


class NodeControlPlane(ControlLoop):
    """One node's local control loop plus its aggregate distiller.

    Ticks run the node's controllers against a single-node
    :class:`~repro.control.policies.ClusterView` (the only cluster-scope
    input is the node's own uplink guarantee, handed down by the
    coordinator — an O(1) downstream message) and apply their actions
    through a :class:`~repro.control.loop.NodeActuator`.  The tick then
    distills the node into a :class:`NodeAggregate` for the coordinator.
    """

    _level = "node"

    def __init__(
        self,
        node_id: str,
        runtime: FleetRuntime,
        controllers: Sequence[Controller] | None = None,
        interval_seconds: float = 0.25,
        decision_log: list[str] | None = None,
        decision_records: list[dict] | None = None,
    ) -> None:
        super().__init__(
            controllers if controllers is not None else default_local_controllers(node_id),
            interval_seconds,
        )
        self.node_id = node_id
        self._scope = self._node_id = node_id
        self.runtime = runtime
        self.actuator = NodeActuator(runtime, node_id)
        # Shared with the hierarchy when driven by one (global ordering);
        # standalone planes keep their own.
        if decision_log is not None:
            self.decision_log = decision_log
        if decision_records is not None:
            self.decision_records = decision_records
        self._wait_index = 0
        self._last_generated: dict[str, int] = {}

    # -- the local loop --------------------------------------------------------
    def tick(
        self, now: float, horizon: float, uplink_guarantee: float | None = None
    ) -> NodeAggregate:
        """Run local policies once, then summarize the node for the cluster."""
        view = ClusterView(
            now=now,
            interval=self.interval_seconds,
            tick_index=self.ticks,
            nodes=(NodeView(self.node_id, self.runtime),),
            horizon=horizon,
            uplink_weights=None,
            uplink_guarantees=(
                {self.node_id: uplink_guarantee} if uplink_guarantee is not None else None
            ),
        )
        self._step(view, self.actuator)
        return self.aggregate(now)

    def aggregate(self, now: float) -> NodeAggregate:
        """Distill the node's current state into its fixed-size summary."""
        counters = self.runtime.telemetry.counters()
        fields = {name: counters.get(metric, 0.0) for name, metric in _AGGREGATE_COUNTERS}
        dropped = counters.get("frames.dropped_oldest", 0.0) + counters.get(
            "frames.dropped_newest", 0.0
        )
        hist = self.runtime.telemetry.histogram("latency.queue_wait_seconds")
        window = hist.values[max(0, self._wait_index - hist.discarded) :]
        self._wait_index = hist.count
        live = self.runtime.camera_live_stats()
        return NodeAggregate(
            node_id=self.node_id,
            now=now,
            num_cameras=len(live),
            num_workers=self.runtime.workers.num_workers,
            frames_dropped=dropped,
            # Estimated here so only the scalar, never per-camera counters,
            # travels to the coordinator.
            offered_utilization=offered_utilization(
                live,
                self.runtime.workers.num_workers,
                self.interval_seconds,
                self._last_generated,
            ),
            window_wait_count=len(window),
            window_wait_sketch=QuantileSketch.from_values(window),
            resolutions=tuple(sorted({stats.resolution for stats in live.values()})),
            **fields,
        )

    def nominate_victim(
        self,
        destination: NodeAggregate,
        source_utilization: float,
        destination_utilization: float,
        remaining_seconds: float,
        config: MigrationConfig,
        camera_cooldowns: Mapping[str, int],
    ) -> tuple[MigrateCamera | None, tuple[CandidateScore, ...]]:
        """Pick this node's best camera to hand to ``destination``.

        The coordinator decided *that* a move should happen (from
        aggregates); choosing *which* camera needs per-camera stats, so it
        happens here, node-locally, with the flat policy's scorer.
        """
        return pick_victim(
            NodeView(self.node_id, self.runtime),
            destination.node_id,
            set(destination.resolutions),
            source_utilization,
            destination_utilization,
            remaining_seconds,
            config,
            camera_cooldowns,
        )


@dataclass(frozen=True)
class AggregateView:
    """The coordinator's window onto one node: its aggregate, nothing per camera.

    Stands in for :class:`~repro.control.policies.NodeView` in the cluster
    view the coordinator's controllers see.  Counters are the aggregate's
    fixed set, read by metric name; a per-camera question (which camera to
    migrate) goes to the node's own ``plane``.
    """

    aggregate: NodeAggregate
    plane: NodeControlPlane

    @property
    def node_id(self) -> str:
        """The summarized node's id."""
        return self.aggregate.node_id

    def counter_value(self, name: str) -> float:
        """One aggregated node counter (``KeyError`` for any other metric)."""
        return getattr(self.aggregate, _AGGREGATE_FIELDS[name])


class _ClusterUplink(UplinkShareController):
    """The flat uplink policy, fed aggregate matched-frame counts."""

    name = "cluster_uplink"


class _ClusterMigration(MigrationController):
    """The flat migration policy over aggregate utilizations.

    The source node's plane nominates the camera, so the policy's gates and
    cooldowns run here while per-camera stats stay on the node.
    """

    name = "cluster_migration"

    def _offered_utilization(self, node: AggregateView, interval: float) -> float:
        return node.aggregate.offered_utilization

    def _pick_move(
        self,
        view: ClusterView,
        source_id: str,
        destination_id: str,
        utilizations: dict[str, float],
    ) -> tuple[MigrateCamera | None, tuple[CandidateScore, ...]]:
        return view.node(source_id).plane.nominate_victim(
            view.node(destination_id).aggregate,
            utilizations[source_id],
            utilizations[destination_id],
            view.remaining_seconds,
            self.config,
            self._camera_cooldowns,
        )


class ClusterCoordinator:
    """Cluster-scope policies over per-node aggregates — never full registries.

    Hosts the flat policies, re-read from :class:`AggregateView`\\ s:

    * **uplink re-weighting** — an
      :class:`~repro.control.uplink.UplinkShareController` (logged as
      ``cluster_uplink``) over each node's aggregate matched-frame count;
    * **migration** — a :class:`~repro.control.migration.MigrationController`
      (logged as ``cluster_migration``) gating on aggregate offered
      utilizations.  It names the ``(source, destination)`` pair; the
      source's plane picks the camera.
    """

    def __init__(
        self,
        uplink_config: UplinkShareConfig | None = None,
        migration_config: MigrationConfig | None = None,
    ) -> None:
        self.uplink_config = uplink_config or UplinkShareConfig()
        self.migration_config = migration_config or MigrationConfig()
        self._uplink = _ClusterUplink(self.uplink_config)
        self._migration = _ClusterMigration(self.migration_config)

    @property
    def controllers(self) -> tuple[Controller, Controller]:
        """The hosted policies, in tick order: uplink, then migration."""
        return (self._uplink, self._migration)

    @property
    def migrations(self) -> list[tuple[float, str, str, str]]:
        """Every handoff so far as ``(time, camera, source, destination)``."""
        return self._migration.migrations


class HierarchicalControlPlane(ControlLoop):
    """Two-level control over a sharded cluster: local loops + coordinator.

    Built to be driven by :meth:`repro.fleet.sharding.ShardedFleetRuntime.run`'s
    lockstep driver: :meth:`bind` creates one :class:`NodeControlPlane` per
    node, then each :meth:`tick` runs every local loop, ships one
    :class:`NodeAggregate` per node to the :class:`ClusterCoordinator`'s
    controllers, applies their actions, and maintains a fixed-size cluster
    telemetry rollup (gauges derived from aggregates — never a full registry
    merge).  :attr:`payload_bytes` records each tick's total coordination
    payload, the quantity the scale benchmark pins as O(nodes).
    """

    _scope = "cluster"
    _level = "cluster"

    def __init__(
        self,
        controllers_factory: Callable[[str], Sequence[Controller]] | None = None,
        interval_seconds: float = 0.25,
        coordinator: ClusterCoordinator | None = None,
        telemetry: TelemetryRegistry | None = None,
        timeline: MetricsTimeline | None = None,
    ) -> None:
        self.coordinator = coordinator or ClusterCoordinator()
        super().__init__(self.coordinator.controllers, interval_seconds, telemetry, timeline)
        self.controllers_factory = controllers_factory or default_local_controllers
        self.planes: dict[str, NodeControlPlane] = {}
        self.payload_bytes: list[int] = []
        self.last_aggregates: dict[str, NodeAggregate] = {}

    # -- wiring ----------------------------------------------------------------
    def bind(self, cluster) -> None:
        """Create one local plane per cluster node (idempotent per cluster)."""
        self.planes = {
            node_id: NodeControlPlane(
                node_id,
                runtime,
                controllers=self.controllers_factory(node_id),
                interval_seconds=self.interval_seconds,
                decision_log=self.decision_log,
                decision_records=self.decision_records,
            )
            for node_id, runtime in sorted(cluster.nodes.items())
        }

    # -- one control interval --------------------------------------------------
    def tick(self, now: float, cluster) -> list[ControlAction]:
        """Local loops, aggregate exchange, cluster decisions — one interval."""
        if not self.planes:
            self.bind(cluster)
        horizon = max(
            (runtime.horizon for runtime in cluster.nodes.values()), default=0.0
        )
        guarantees = cluster.uplink_guarantees()
        # Level 1: every node runs its local loop, then sends one aggregate up.
        aggregates = {
            node_id: plane.tick(now, horizon, guarantees.get(node_id))
            for node_id, plane in sorted(self.planes.items())
        }
        self.last_aggregates = aggregates
        payload = sum(agg.payload_bytes() for agg in aggregates.values())
        self.payload_bytes.append(payload)
        # Level 2: the coordinator's policies see aggregates only.
        view = ClusterView(
            now=now,
            interval=self.interval_seconds,
            tick_index=self.ticks,
            nodes=tuple(
                AggregateView(aggregate, self.planes[node_id])
                for node_id, aggregate in aggregates.items()
            ),
            horizon=horizon,
            uplink_weights=cluster.current_uplink_weights(),
            uplink_guarantees=guarantees,
        )
        applied = self._step(view, ClusterActuator(cluster))
        self._update_rollup(now, aggregates, payload)
        self._scrape(
            now, {node_id: plane.runtime for node_id, plane in sorted(self.planes.items())}
        )
        return applied

    # -- cluster rollup (O(nodes) per tick, fixed metric set) ------------------
    def _update_rollup(
        self, now: float, aggregates: Mapping[str, NodeAggregate], payload: int
    ) -> None:
        sums = {
            name: sum(getattr(agg, name) for agg in aggregates.values())
            for name, _metric in _AGGREGATE_COUNTERS
        }
        gauges = self.telemetry.gauge
        gauges("cluster.nodes").set(len(aggregates))
        gauges("cluster.cameras").set(sum(a.num_cameras for a in aggregates.values()))
        gauges("cluster.frames.generated").set(sums["frames_generated"])
        gauges("cluster.frames.scored").set(sums["frames_scored"])
        gauges("cluster.frames.rejected").set(sums["frames_rejected"])
        gauges("cluster.frames.dropped").set(
            sum(a.frames_dropped for a in aggregates.values())
        )
        gauges("cluster.frames.matched").set(sums["frames_matched"])
        gauges("cluster.events.closed").set(sums["events_closed"])
        gauges("cluster.events.published").set(sums["events_published"])
        gauges("cluster.events.dropped").set(sums["events_dropped"])
        gauges("cluster.uplink.estimated_bits").set(sums["estimated_upload_bits"])
        merged = QuantileSketch()
        for node_id in sorted(aggregates):
            merged = merged.merge(aggregates[node_id].window_wait_sketch)
        gauges("cluster.queue_wait.window_p99").set(merged.percentile(99))
        utilizations = [a.offered_utilization for a in aggregates.values()]
        gauges("cluster.offered_utilization.max").set(max(utilizations, default=0.0))
        gauges("cluster.offered_utilization.mean").set(
            sum(utilizations) / len(utilizations) if utilizations else 0.0
        )
        gauges("cluster.coordination.payload_bytes").set(payload)
        gauges("cluster.migrations.performed").set(len(self.coordinator.migrations))

    def counter_value(self, name: str) -> float:
        """One control counter summed across the coordinator and all planes."""
        total = super().counter_value(name)
        for node_id in sorted(self.planes):
            total += self.planes[node_id].counter_value(name)
        return total
