"""Multi-node fleet sharding: a cluster of edge nodes behind one uplink.

The single-node :class:`~repro.fleet.runtime.FleetRuntime` answers "what does
*one* constrained box do with 32 cameras"; this module answers the next
question the edge-video-analytics literature asks — how a *cluster* of such
boxes shares a camera fleet and a common datacenter uplink.

:class:`ShardedFleetRuntime` partitions the fleet with a
:class:`~repro.fleet.placement.PlacementPolicy`, gives every node its own
full runtime (bounded queues, admission control, worker pool, telemetry) and
a share of one datacenter link, then runs each node on the same
deterministic simulated clock.  Two uplink regimes are supported:

* ``static`` — each node owns a fixed slice of a
  :class:`~repro.edge.uplink.SharedUplink`.  Nodes never interact, so
  running them sequentially in node order is exact.
* ``work_conserving`` — nodes defer their uploads and the cluster replays
  them, globally time-ordered across nodes, through a
  :class:`~repro.edge.uplink.WorkConservingUplink` (weighted GPS): idle
  per-node capacity flows to backlogged nodes, and the bits moved above a
  node's static guarantee are reported as reclaimed.

With a :class:`~repro.control.loop.ControlLoop` attached, all nodes advance
in lockstep between control ticks and the loop's controllers actuate the
cluster live — adaptive shedding, uplink re-weighting, camera migration —
with every decision logged and counted in the cluster report.  At kilocamera
scale the flat loop's cluster-side cost — every controller walking every
camera, plus an end-of-run merge of every node's full registry — grows as
O(cameras x metrics); attaching a
:class:`~repro.control.hierarchy.HierarchicalControlPlane` instead keeps
local policies on their nodes and bounds per-interval cluster work (and the
end-of-run cluster telemetry) at O(nodes).
:class:`ShardedFleetReport` aggregates the per-node
:class:`~repro.fleet.runtime.FleetReport`\\ s into cluster-level metrics:
cluster drop rate, shared-uplink utilization, per-camera fairness across the
whole fleet, load imbalance, and the control plane's interventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.control.hierarchy import HierarchicalControlPlane
from repro.control.loop import ClusterActuator, ControlLoop, check_interval, run_lockstep
from repro.edge.uplink import (
    SharedTransferRequest,
    SharedUplink,
    WorkConservingUplink,
)
from repro.fleet.accuracy import FleetAccuracy
from repro.fleet.camera import CameraSpec
from repro.fleet.placement import (
    PlacementPolicy,
    estimate_camera_cost,
    make_placement_policy,
)
from repro.fleet.runtime import (
    FleetConfig,
    FleetReport,
    FleetRuntime,
    PipelineFactory,
    default_pipeline_factory,
)
from repro.fleet.telemetry import TelemetryRegistry, jain_fairness
from repro.obs.alerts import AlertLog, evaluate_alerts
from repro.obs.slo import SLOReport
from repro.obs.timeline import MetricsTimeline
from repro.obs.trace import Tracer

if TYPE_CHECKING:
    from repro.events.plane import DeliveryReport, EventDeliveryPlane

__all__ = [
    "ShardingConfig",
    "NodeReport",
    "ShardedFleetReport",
    "ShardedFleetRuntime",
]

UPLINK_ALLOCATIONS = ("equal", "by_cameras", "by_cost")
UPLINK_SHARING_MODES = ("static", "work_conserving")


@dataclass(frozen=True)
class ShardingConfig:
    """Cluster-level knobs of the sharded fleet runtime."""

    num_nodes: int = 2
    placement: str = "round_robin"
    total_uplink_bps: float = 2_000_000.0
    uplink_allocation: str = "equal"
    uplink_sharing: str = "static"
    node_config: FleetConfig = field(default_factory=FleetConfig)

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be at least 1")
        if self.total_uplink_bps <= 0:
            raise ValueError("total_uplink_bps must be positive")
        if self.uplink_allocation not in UPLINK_ALLOCATIONS:
            raise ValueError(
                f"Unknown uplink_allocation {self.uplink_allocation!r}; "
                f"expected one of {UPLINK_ALLOCATIONS}"
            )
        if self.uplink_sharing not in UPLINK_SHARING_MODES:
            raise ValueError(
                f"Unknown uplink_sharing {self.uplink_sharing!r}; "
                f"expected one of {UPLINK_SHARING_MODES}"
            )


@dataclass
class NodeReport:
    """One edge node's end-of-run accounting within the cluster."""

    node_id: str
    camera_ids: list[str]
    estimated_cost: float
    uplink_allocation_bps: float
    report: FleetReport
    reclaimed_uplink_bits: float = 0.0
    cameras_migrated_in: int = 0
    cameras_migrated_out: int = 0

    @property
    def num_cameras(self) -> int:
        """Cameras this node hosted at the end of the run."""
        return len(self.camera_ids)

    @property
    def queue_wait_p99(self) -> float:
        """99th-percentile queue wait on this node in seconds."""
        waits = self.report.telemetry.get("latency.queue_wait_seconds")
        if isinstance(waits, dict):
            return float(waits.get("p99", 0.0))
        return 0.0

    @property
    def resolutions(self) -> set[tuple[int, int]]:
        """Distinct camera resolutions resident on this node."""
        return {c.resolution for c in self.report.cameras.values()}


@dataclass
class ShardedFleetReport:
    """Aggregate outcome of one sharded cluster run."""

    nodes: list[NodeReport]
    placement_policy: str
    total_uplink_bps: float
    total_uplink_bits: float
    sim_duration: float
    uplink_sharing: str = "static"
    reclaimed_uplink_bits: float = 0.0
    migrations_performed: int = 0
    shedding_interventions: int = 0
    uplink_rebalances: int = 0
    threshold_drifts: int = 0
    control_ticks: int = 0
    control_log: list[str] = field(default_factory=list)
    # Decision provenance: the control plane's stamped DecisionRecord dicts —
    # one per controller decision context per tick, including explicit no-ops.
    decision_records: list[dict] = field(default_factory=list)
    # Hierarchical runs only: total coordination payload (bytes of serialized
    # per-node aggregates) exchanged at each control tick.  The scale
    # contract: every entry is O(nodes), independent of camera count.
    coordination_payload_bytes: list[int] = field(default_factory=list)
    telemetry: dict[str, object] = field(default_factory=dict)
    accuracy: FleetAccuracy | None = None
    slo: SLOReport | None = None
    alerts: AlertLog | None = None
    # Cluster-scope event delivery accounting (runs with an
    # EventDeliveryPlane attached only).  Fixed-size: counts and
    # percentiles, never per-event lines.
    delivery: "DeliveryReport | None" = None

    @property
    def num_nodes(self) -> int:
        """Edge nodes in the cluster."""
        return len(self.nodes)

    @property
    def num_cameras(self) -> int:
        """Cameras across the whole cluster (each counted where it ended up)."""
        return sum(n.num_cameras for n in self.nodes)

    @property
    def frames_generated(self) -> int:
        """Frames offered across all nodes."""
        return sum(n.report.frames_generated for n in self.nodes)

    @property
    def frames_scored(self) -> int:
        """Frames scored across all nodes."""
        return sum(n.report.frames_scored for n in self.nodes)

    @property
    def frames_dropped(self) -> int:
        """Frames lost to queue drops across all nodes."""
        return sum(n.report.frames_dropped for n in self.nodes)

    @property
    def frames_rejected(self) -> int:
        """Frames rejected by admission control across all nodes."""
        return sum(n.report.frames_rejected for n in self.nodes)

    @property
    def events_detected(self) -> int:
        """Events detected across all nodes."""
        return sum(n.report.events_detected for n in self.nodes)

    @property
    def drop_rate(self) -> float:
        """Cluster-wide fraction of generated frames shed."""
        generated = self.frames_generated
        if generated == 0:
            return 0.0
        return (self.frames_dropped + self.frames_rejected) / generated

    @property
    def uplink_utilization(self) -> float:
        """Fraction of the shared datacenter link consumed over the run.

        A zero-bandwidth link (or a report built outside ``ShardingConfig``
        validation) has no capacity to utilize; report 0.0 rather than
        dividing by zero.
        """
        if self.sim_duration <= 0 or self.total_uplink_bps <= 0:
            return 0.0
        return self.total_uplink_bits / (self.total_uplink_bps * self.sim_duration)

    @property
    def reclaimed_uplink_bytes(self) -> float:
        """Idle uplink capacity reclaimed by work conservation, in bytes."""
        return self.reclaimed_uplink_bits / 8.0

    @property
    def worst_node_queue_wait_p99(self) -> float:
        """Largest per-node queue-wait p99 in seconds (the placement's tail)."""
        return max((n.queue_wait_p99 for n in self.nodes), default=0.0)

    @property
    def fairness_index(self) -> float:
        """Jain's fairness index over per-camera scored fractions, cluster-wide.

        A camera that migrated contributes one share per hosting node (each
        stint's scored fraction of the frames offered there).
        """
        return jain_fairness(
            c.frames_scored / c.frames_generated
            for n in self.nodes
            for c in n.report.cameras.values()
            if c.frames_generated > 0
        )

    @property
    def load_imbalance(self) -> float:
        """Max-over-mean offered frame rate across nodes (1.0 = perfectly even)."""
        offered = [n.report.offered_fps for n in self.nodes]
        mean = sum(offered) / len(offered) if offered else 0.0
        if mean == 0.0:
            return 1.0
        return max(offered) / mean

    @property
    def resident_base_dnns(self) -> int:
        """Total ``(node, resolution)`` pairs — base-DNN instances the cluster holds."""
        return sum(len(n.resolutions) for n in self.nodes)

    def summary(self) -> str:
        """A multi-line human-readable cluster summary."""
        lines = [
            f"cluster: {self.num_nodes} nodes, {self.num_cameras} cameras, "
            f"placement={self.placement_policy}, uplink={self.uplink_sharing}",
            f"scored {self.frames_scored}/{self.frames_generated} frames "
            f"(drop rate {self.drop_rate:.1%}) | events {self.events_detected}",
            f"shared uplink {self.uplink_utilization:.1%} of "
            f"{self.total_uplink_bps / 1e6:.2f} Mbps | "
            f"fairness {self.fairness_index:.3f} (Jain)",
            f"worst node queue-wait p99 {self.worst_node_queue_wait_p99 * 1e3:.0f} ms | "
            f"load imbalance {self.load_imbalance:.2f}x | "
            f"resident base DNNs {self.resident_base_dnns}",
        ]
        if self.accuracy is not None:
            lines.append(self.accuracy.summary())
        if self.slo is not None:
            lines.append(self.slo.summary())
        if self.alerts is not None:
            lines.append(self.alerts.summary())
        if self.delivery is not None:
            lines.append(self.delivery.summary())
        if self.uplink_sharing == "work_conserving":
            lines.append(
                f"work-conserving uplink reclaimed {self.reclaimed_uplink_bytes / 1024:.1f} KiB "
                f"of idle capacity"
            )
        if self.control_ticks:
            lines.append(
                f"control plane: {self.control_ticks} ticks, "
                f"{self.migrations_performed} migrations, "
                f"{self.shedding_interventions} shedding interventions, "
                f"{self.uplink_rebalances} uplink rebalances, "
                f"{self.threshold_drifts} threshold drifts"
            )
        if self.coordination_payload_bytes:
            lines.append(
                f"hierarchical coordination: peak "
                f"{max(self.coordination_payload_bytes)} B of aggregates per tick "
                f"across {self.num_nodes} nodes"
            )
        for node in self.nodes:
            report = node.report
            migrated = ""
            if node.cameras_migrated_in or node.cameras_migrated_out:
                migrated = (
                    f", migrated +{node.cameras_migrated_in}/-{node.cameras_migrated_out}"
                )
            lines.append(
                f"  {node.node_id}: {node.num_cameras} cams{migrated}, "
                f"scored {report.frames_scored}/{report.frames_generated} "
                f"({report.drop_rate:.1%} shed), "
                f"wait p99 {node.queue_wait_p99 * 1e3:.0f} ms, "
                f"uplink {node.uplink_allocation_bps / 1e3:.0f} kbps"
            )
        return "\n".join(lines)


class ShardedFleetRuntime:
    """Runs a camera fleet across several edge nodes behind one uplink."""

    def __init__(
        self,
        cameras: Sequence[CameraSpec],
        config: ShardingConfig | None = None,
        pipeline_factory: PipelineFactory | None = None,
        placement: PlacementPolicy | None = None,
        control_loop: ControlLoop | None = None,
        tracer: Tracer | None = None,
        timeline: MetricsTimeline | None = None,
        scrape_interval: float = 0.25,
        alert_rules: Sequence = (),
        hierarchy: HierarchicalControlPlane | None = None,
        event_plane: "EventDeliveryPlane | None" = None,
    ) -> None:
        self.scrape_interval = check_interval(scrape_interval, "scrape_interval")
        if alert_rules and timeline is None:
            raise ValueError("alert_rules need a timeline to evaluate over")
        if control_loop is not None and hierarchy is not None:
            raise ValueError(
                "attach either a flat control loop or a hierarchical control "
                "plane, not both"
            )
        self.config = config or ShardingConfig()
        self.tracer = tracer
        self.timeline = timeline
        self.alert_rules = list(alert_rules)
        ids = [spec.camera_id for spec in cameras]
        duplicates = {i for i in ids if ids.count(i) > 1}
        if duplicates:
            raise ValueError(f"Duplicate camera ids: {sorted(duplicates)}")
        self.policy = (
            placement if placement is not None else make_placement_policy(self.config.placement)
        )
        self.control_loop = control_loop
        self.hierarchy = hierarchy
        self.shards = self.policy.place(cameras, self.config.num_nodes)
        self.node_ids = [f"node{i}" for i in range(self.config.num_nodes)]
        # Cost the shards with the same estimate the policy balanced them by,
        # so by_cost uplink slices and NodeReport.estimated_cost describe the
        # load the placement actually considered.
        cost_fn = getattr(self.policy, "cost_fn", None) or estimate_camera_cost
        self._shard_costs = [sum(cost_fn(spec) for spec in shard) for shard in self.shards]
        self._work_conserving = self.config.uplink_sharing == "work_conserving"
        weights = self._allocation_weights()
        if self._work_conserving:
            self.shared_uplink = WorkConservingUplink(self.config.total_uplink_bps, weights)
            self._current_weights = dict(self.shared_uplink.weights)
        else:
            self.shared_uplink = SharedUplink(self.config.total_uplink_bps, weights)
            self._current_weights = None
        self._hosted: dict[str, list[str]] = {}
        self._migrations: list[tuple[str, str, str]] = []
        self._migrated_in: dict[str, int] = {node_id: 0 for node_id in self.node_ids}
        self._migrated_out: dict[str, int] = {node_id: 0 for node_id in self.node_ids}
        self.nodes: dict[str, FleetRuntime] = {}
        for node_id, shard in zip(self.node_ids, self.shards):
            self._hosted[node_id] = [spec.camera_id for spec in shard]
            self.nodes[node_id] = FleetRuntime(
                shard,
                # Each node is its own box: without an injected factory every
                # node builds (and shares internally) its own base DNNs.
                pipeline_factory=pipeline_factory or default_pipeline_factory(),
                config=self.config.node_config,
                telemetry=TelemetryRegistry(),
                uplink=(
                    None if self._work_conserving else self.shared_uplink.links[node_id]
                ),
                defer_uploads=self._work_conserving,
                tracer=(self.tracer.node(node_id) if self.tracer is not None else None),
            )
        self.event_plane = event_plane
        if event_plane is not None:
            # Installs the plane as every node's publish hook: records the
            # runtime closes (cooldown permitting) land in the node's
            # outbox, ready to ride the shared uplink with the frames.
            for node_id in self.node_ids:
                event_plane.attach(node_id, self.nodes[node_id])

    def _allocation_weights(self) -> dict[str, float]:
        mode = self.config.uplink_allocation
        if mode == "equal":
            weights = [1.0] * len(self.shards)
        elif mode == "by_cameras":
            weights = [float(len(shard)) for shard in self.shards]
        else:  # by_cost
            weights = list(self._shard_costs)
        return dict(zip(self.node_ids, weights))

    # -- control-plane surface -----------------------------------------------
    def current_uplink_weights(self) -> dict[str, float] | None:
        """Latest GPS weights (None when the link is statically sliced)."""
        return dict(self._current_weights) if self._current_weights is not None else None

    def uplink_guarantees(self) -> dict[str, float]:
        """Per-node guaranteed uplink bps (static slice, or the GPS guarantee).

        The observation surface of uplink-aware control: a node whose live
        estimated upload bits outrun ``guarantee * now`` is building backlog
        the end-of-run replay will have to drain.
        """
        if self._work_conserving:
            return {n: self.shared_uplink.guaranteed_bps(n) for n in self.node_ids}
        return {n: self.shared_uplink.links[n].capacity_bps for n in self.node_ids}

    def set_uplink_weights(self, now: float, weights: dict[str, float]) -> None:
        """Schedule new shared-uplink weights from ``now`` onward."""
        if not self._work_conserving:
            raise RuntimeError(
                "uplink weights can only be adjusted under work-conserving sharing"
            )
        self.shared_uplink.schedule_weights(now, weights)
        self._current_weights = dict(weights)

    def record_migration(self, camera_id: str, source: str, destination: str) -> None:
        """Track one applied camera handoff in the cluster's bookkeeping."""
        self._hosted[source].remove(camera_id)
        self._hosted[destination].append(camera_id)
        self._migrations.append((camera_id, source, destination))
        self._migrated_out[source] += 1
        self._migrated_in[destination] += 1

    # -- orchestration -------------------------------------------------------
    def _run_lockstep(self, interval: float, on_tick) -> dict[str, FleetReport]:
        """Start every node, run :func:`~repro.control.loop.run_lockstep`, finalize."""
        for node_id in self.node_ids:
            self.nodes[node_id].start()
        run_lockstep(self.nodes, interval, on_tick)
        return {node_id: self.nodes[node_id].finalize() for node_id in self.node_ids}

    def run(self) -> ShardedFleetReport:
        """Execute every node to completion and assemble the cluster report.

        Without a control plane, nodes only interact through their uplink
        shares, so running them sequentially in node order reproduces the
        concurrent cluster exactly.  With a flat loop or a hierarchical
        plane attached, all nodes advance in lockstep between control ticks
        so controllers see — and act on — a consistent cluster state.
        """
        if self.control_loop is not None:
            if self.timeline is not None and self.control_loop.timeline is None:
                # The control loop already ticks at the cadence the timeline
                # wants; attach it so every tick scrapes all node registries.
                self.control_loop.timeline = self.timeline
            actuator = ClusterActuator(self)
            reports = self._run_lockstep(
                self.control_loop.interval_seconds,
                lambda now: self.control_loop.tick(now, self.nodes, actuator),
            )
        elif self.hierarchy is not None:
            if self.timeline is not None and self.hierarchy.timeline is None:
                # The hierarchy scrapes both levels (per-node sources plus
                # the fixed-size cluster rollup) at its own tick cadence.
                self.hierarchy.timeline = self.timeline
            self.hierarchy.bind(self)
            reports = self._run_lockstep(
                self.hierarchy.interval_seconds,
                lambda now: self.hierarchy.tick(now, self),
            )
        elif self.timeline is not None:
            # No control plane, but a timeline wants interval-boundary
            # scrapes: lockstep stepping reproduces the sequential run
            # exactly, since nodes only interact through uplink shares.
            def scrape(now: float) -> None:
                for node_id in self.node_ids:
                    self.timeline.scrape(now, node_id, self.nodes[node_id].telemetry)

            reports = self._run_lockstep(self.scrape_interval, scrape)
        else:
            reports = {node_id: self.nodes[node_id].run() for node_id in self.node_ids}
        sim_duration = max((r.sim_duration for r in reports.values()), default=0.0)

        reclaimed_bits = 0.0
        node_reclaimed: dict[str, float] = {node_id: 0.0 for node_id in self.node_ids}
        event_end_times: dict[str, float] = {}
        if self._work_conserving:
            requests = [
                SharedTransferRequest(
                    node_id=node_id,
                    bits=bits,
                    available_at=available_at,
                    description=description,
                )
                for node_id in self.node_ids
                for available_at, description, bits in self.nodes[node_id].pending_uploads
            ]
            if self.event_plane is not None:
                # Event publish attempts join the same drain as the frame
                # uploads: drain() globally time-orders the merged list, so
                # event bytes genuinely contend with video for the link.
                requests.extend(self.event_plane.transfer_requests())
            if self.tracer is not None:
                # Route each completed shared transfer back to its node's
                # tracer so sampled frames get their upload spans even though
                # the cluster (not the node) replayed the transfer.
                self.shared_uplink.on_transfer = lambda tr: self.tracer.node(
                    tr.node_id
                ).complete_upload(tr.description, tr.start_time, tr.end_time)
            self.shared_uplink.drain(requests)
            reclaimed_bits = self.shared_uplink.reclaimed_bits
            if self.event_plane is not None:
                event_end_times = {
                    transfer.description: transfer.end_time
                    for transfer in self.shared_uplink.transfers
                    if transfer.description.startswith("evt/")
                }
            for node_id in self.node_ids:
                node_reclaimed[node_id] = self.shared_uplink.node_reclaimed_bits(node_id)
                report = reports[node_id]
                guaranteed = self.shared_uplink.guaranteed_bps(node_id)
                if sim_duration > 0:
                    report.uplink_utilization = self.shared_uplink.node_bits(node_id) / (
                        guaranteed * sim_duration
                    )
                report.uplink_backlog_seconds = self.shared_uplink.node_backlog_seconds(
                    node_id, sim_duration
                )
                # Keep the node's telemetry (and its snapshot in the report)
                # consistent with the patched uplink fields.
                telemetry = self.nodes[node_id].telemetry
                telemetry.gauge("uplink.utilization").set(report.uplink_utilization)
                telemetry.gauge("uplink.backlog_seconds").set(report.uplink_backlog_seconds)
                report.telemetry = telemetry.snapshot()

        if self.event_plane is not None:
            if not self._work_conserving:
                # Static slices: replay each admitted publish attempt
                # through its node's own link slice.  Frame uploads already
                # occupied the slice live during the run, so event bytes
                # queue behind the node's video FIFO — same capacity, no
                # free side channel.
                for request in self.event_plane.transfer_requests():
                    transfer = self.shared_uplink.links[request.node_id].upload(
                        request.bits, request.available_at, request.description
                    )
                    event_end_times[request.description] = transfer.end_time
            self.event_plane.finalize(event_end_times)
            for node_id in self.node_ids:
                report = reports[node_id]
                report.delivery = self.event_plane.node_reports[node_id]
                # finalize() stamped post-hoc delivery counters and the
                # latency histogram into each node's registry; refresh the
                # report's snapshot (and let the end-of-run scrape below
                # capture them) to match.
                report.telemetry = self.nodes[node_id].telemetry.snapshot()

        if self.timeline is not None:
            # One final end-of-run scrape per node: captures the uplink
            # gauges finalize() (or the work-conserving replay above) set
            # after the last interval boundary.
            for node_id in self.node_ids:
                self.timeline.scrape(sim_duration, node_id, self.nodes[node_id].telemetry)
            if self.hierarchy is not None:
                self.timeline.scrape(sim_duration, "cluster", self.hierarchy.telemetry)

        node_reports: list[NodeReport] = []
        for node_id, cost in zip(self.node_ids, self._shard_costs):
            if self._work_conserving:
                allocation_bps = self.shared_uplink.guaranteed_bps(node_id)
            else:
                allocation_bps = self.shared_uplink.links[node_id].capacity_bps
            node_reports.append(
                NodeReport(
                    node_id=node_id,
                    camera_ids=list(self._hosted[node_id]),
                    estimated_cost=cost,
                    uplink_allocation_bps=allocation_bps,
                    report=reports[node_id],
                    reclaimed_uplink_bits=node_reclaimed[node_id],
                    cameras_migrated_in=self._migrated_in[node_id],
                    cameras_migrated_out=self._migrated_out[node_id],
                )
            )

        cluster_telemetry = TelemetryRegistry()
        if self.hierarchy is None:
            for node_id in self.node_ids:
                cluster_telemetry.merge(self.nodes[node_id].telemetry, prefix=f"{node_id}.")
        # Hierarchical runs never merge per-node registries into the cluster
        # view: the cluster's telemetry is the coordinator's fixed-size
        # rollup (gauges derived from per-node aggregates), so assembling it
        # costs O(nodes), not O(cameras x metrics).
        plane = self.control_loop or self.hierarchy
        control: dict[str, object] = {}
        if plane is not None:
            cluster_telemetry.merge(plane.telemetry)
            control = dict(
                control_ticks=plane.ticks,
                control_log=list(plane.decision_log),
                decision_records=list(plane.decision_records),
                shedding_interventions=int(
                    plane.counter_value("control.shedding.interventions")
                ),
                uplink_rebalances=int(plane.counter_value("control.uplink.rebalances")),
                threshold_drifts=int(plane.counter_value("control.threshold.drifts")),
            )
        if self.hierarchy is not None:
            control["coordination_payload_bytes"] = list(self.hierarchy.payload_bytes)
        alerts = (
            evaluate_alerts(self.timeline, self.alert_rules)
            if self.timeline is not None and self.alert_rules
            else None
        )
        return ShardedFleetReport(
            nodes=node_reports,
            # A migrated camera's stints are ORed into one prediction
            # vector, so cluster accuracy scores each camera exactly once.
            accuracy=FleetAccuracy.merged(r.accuracy for r in reports.values()),
            # A migrated camera's SLO counters merge across its hosting
            # nodes; burn state is the pessimistic union.
            slo=SLOReport.merged([r.slo for r in reports.values()]),
            placement_policy=self.policy.name,
            total_uplink_bps=self.config.total_uplink_bps,
            total_uplink_bits=self.shared_uplink.total_bits,
            sim_duration=sim_duration,
            uplink_sharing=self.config.uplink_sharing,
            reclaimed_uplink_bits=reclaimed_bits,
            migrations_performed=len(self._migrations),
            **control,
            telemetry=cluster_telemetry.snapshot(),
            alerts=alerts,
            delivery=(
                self.event_plane.cluster_report if self.event_plane is not None else None
            ),
        )
