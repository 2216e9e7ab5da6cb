"""The benchmark's four workloads: seeded inputs, build, run, and checks.

Every workload splits one iteration into a *setup* half (build the runtime
and ``start()`` it: scene render, base-DNN and microclassifier construction,
heap seeding) and a *run* half (drive it to completion and assemble the
report).  ``check`` runs outside both timed halves: it verifies the
accounting invariants and returns the deterministic simulated metrics plus
an outputs digest, which must be identical on every iteration of one seed.

In simulated time the load is open-loop: cameras emit frames on their
frame-rate schedule whether or not the node keeps up.  In wall time each
iteration is a batch job of a fixed input size.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from repro.control import (
    AdaptiveSheddingController,
    ControlLoop,
    HierarchicalControlPlane,
    MigrationConfig,
    MigrationController,
    MigrationCostModel,
    SheddingConfig,
    UplinkShareController,
)
from repro.core.events import EventKey, EventRecord
from repro.edge.uplink import WorkConservingUplink
from repro.events import BrokerConfig, DeliveryConfig, EventDeliveryPlane, OutboxConfig
from repro.fleet import (
    CameraSpec,
    DropPolicy,
    FleetConfig,
    FleetRuntime,
    ShardedFleetRuntime,
    ShardingConfig,
    generate_fleet,
)
from repro.fleet.telemetry import Histogram, TelemetryRegistry
from repro.obs import MetricsTimeline
from repro.obs.trace import Tracer

SCENARIOS = (
    "urban_day",
    "busy_intersection",
    "quiet_residential",
    "night_watch",
    "highway_overpass",
    "retail_entrance",
)


@dataclass
class Outcome:
    """What one iteration produced, as checked after the timed region."""

    attempted: int  # frames offered (fleets) or records offered (events)
    completed: int  # frames scored or records driven to a terminal state
    failed: int  # operations whose accounting did not add up
    sim: dict[str, float]  # simulated end-to-end metrics (deterministic)
    counts: dict[str, float]  # deterministic per-layer counts
    digest: str
    errors: list[str] = field(default_factory=list)


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _pooled_wait_ms(runtimes, q: float) -> float:
    """Queue-wait percentile over every node's observations, in ms."""
    pooled = Histogram("latency.queue_wait_seconds")
    for runtime in runtimes:
        pooled.merge_from(runtime.telemetry.histogram("latency.queue_wait_seconds"))
    return pooled.percentile(q) * 1e3


def _frame_accounting(report, runtimes) -> tuple[int, list[str]]:
    """Frames neither scored nor shed, and what the check found wrong."""
    shed = report.frames_dropped + report.frames_rejected
    unaccounted = abs(report.frames_generated - report.frames_scored - shed)
    errors = []
    if unaccounted:
        errors.append(
            f"frames: scored {report.frames_scored} + shed {shed} "
            f"!= generated {report.frames_generated}"
        )
    if any(runtime.has_pending_events for runtime in runtimes):
        errors.append("frames: a node finished with events still pending")
    return unaccounted, errors


def _fleet_sim(report, runtimes, bits: float) -> dict[str, float]:
    return {
        "drop_rate": report.drop_rate,
        "uplink_bits_per_frame": bits / report.frames_generated,
        "queue_wait_p99_ms": _pooled_wait_ms(runtimes, 99.0),
    }


def _fleet_counts(report, runtimes) -> dict[str, float]:
    batches = sum(rt.batched.batches_run for rt in runtimes if rt.batched is not None)
    batched = sum(rt.batched.frames_batched for rt in runtimes if rt.batched is not None)
    return {
        "core.batches": batches,
        "core.batch_frames_mean": batched / batches if batches else 0.0,
        "fleet.frames_offered": report.frames_generated,
        "fleet.frames_scored": report.frames_scored,
        "fleet.frames_dropped": report.frames_dropped + report.frames_rejected,
        "fleet.queue_wait_p50_ms": _pooled_wait_ms(runtimes, 50.0),
    }


def _records_payload(runtimes) -> list:
    return [
        [str(record.key), record.mc_name, record.start, record.end, record.closed_at]
        for runtime in runtimes
        for record in runtime.event_records
    ]


# -- 1. shared_dnn_64 ----------------------------------------------------------


class SharedDnn64:
    """64 same-resolution cameras on one node: inference-bound batching."""

    name = "shared_dnn_64"
    unit = "frames"
    REFERENCE = "numeric"
    FRAMES_PER_CAMERA = 60
    CONFIG = FleetConfig(
        num_workers=8, queue_capacity=8, service_time_scale=0.02, batched_scoring=True
    )

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.cameras = [
            CameraSpec(
                camera_id=f"cam{i:02d}",
                width=48,
                height=32,
                frame_rate=10.0,
                num_frames=self.FRAMES_PER_CAMERA,
                scenario=SCENARIOS[i % len(SCENARIOS)],
                seed=int(rng.integers(2**31)),
            )
            for i in range(64)
        ]

    def setup(self, config: FleetConfig | None = None, cameras=None) -> FleetRuntime:
        runtime = FleetRuntime(cameras or self.cameras, config=config or self.CONFIG)
        runtime.start()
        return runtime

    @staticmethod
    def run(runtime: FleetRuntime):
        runtime.advance_until(math.inf)
        return runtime.finalize()

    @staticmethod
    def _payload(runtime: FleetRuntime, report) -> dict:
        return {
            "cameras": {cid: dataclasses.asdict(c) for cid, c in report.cameras.items()},
            "telemetry": report.telemetry,
            "bits": report.total_uploaded_bits,
            "records": _records_payload([runtime]),
        }

    def check(self, runtime: FleetRuntime, report) -> Outcome:
        unaccounted, errors = _frame_accounting(report, [runtime])
        return Outcome(
            attempted=report.frames_generated,
            completed=report.frames_scored,
            failed=unaccounted,
            sim=_fleet_sim(report, [runtime], report.total_uploaded_bits),
            counts=_fleet_counts(report, [runtime]),
            digest=_digest(self._payload(runtime, report)),
            errors=errors,
        )

    def equivalence_errors(self, frames: int = 12) -> list[str]:
        """Batched scoring must report exactly what per-camera scoring does.

        Runs this seed's cameras, trimmed to ``frames`` frames each, through
        both scoring paths (outside any timed region).
        """
        cameras = [dataclasses.replace(spec, num_frames=frames) for spec in self.cameras]
        payloads = []
        for batched in (True, False):
            config = dataclasses.replace(self.CONFIG, batched_scoring=batched)
            runtime = self.setup(config, cameras)
            payloads.append(self._payload(runtime, self.run(runtime)))
        if payloads[0] != payloads[1]:
            return ["shared_dnn_64: batched report differs from the per-camera path"]
        return []


# -- 2. hotspot_4node ----------------------------------------------------------


class Hotspot4Node:
    """64 cameras / 4 nodes whose hot half moves mid-run, under flat control.

    The shape of ``benchmarks/bench_control.py``'s adaptive run: sixteen hot
    24 fps cameras at half duty (eight live early, eight late) over 48
    steady low-rate cameras, load-aware placement, the flat control loop
    (shedding, uplink share, migration), the work-conserving uplink, a
    sampled frame tracer and a metrics timeline.  Only scene seeds come
    from the benchmark seed; ids, rates and timing are fixed so every seed
    places and sheds alike.
    """

    name = "hotspot_4node"
    unit = "frames"
    REFERENCE = "numeric"
    HALF_SECONDS = 1.5
    DURATION_SECONDS = 3.0
    NODE_CONFIG = FleetConfig(
        num_workers=2,
        queue_capacity=8,
        drop_policy=DropPolicy.DROP_OLDEST,
        service_time_scale=40.0,
        resolution_scaled_service=True,
    )
    SHARDING = ShardingConfig(
        num_nodes=4,
        placement="load_aware",
        total_uplink_bps=400_000.0,
        uplink_allocation="equal",
        uplink_sharing="work_conserving",
        node_config=NODE_CONFIG,
    )

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        cameras = []
        for i in range(16):
            late = i % 4 >= 2
            cameras.append(
                CameraSpec(
                    camera_id=f"hot{i:02d}",
                    width=64,
                    height=48,
                    frame_rate=24.0,
                    num_frames=int(24.0 * self.HALF_SECONDS),
                    scenario="busy_intersection",
                    seed=int(rng.integers(2**31)),
                    start_time=self.HALF_SECONDS if late else 0.0,
                )
            )
        steady = ("quiet_residential", "urban_day", "retail_entrance", "night_watch")
        for i in range(48):
            rate = 4.0 if i % 2 == 0 else 2.0
            cameras.append(
                CameraSpec(
                    camera_id=f"cam{i:03d}",
                    width=80,
                    height=48,
                    frame_rate=rate,
                    num_frames=int(rate * self.DURATION_SECONDS),
                    scenario=steady[i % 4],
                    seed=int(rng.integers(2**31)),
                )
            )
        self.cameras = cameras

    @staticmethod
    def _control_loop() -> ControlLoop:
        return ControlLoop(
            [
                AdaptiveSheddingController(
                    SheddingConfig(
                        high_watermark_seconds=0.6,
                        low_watermark_seconds=0.2,
                        cameras_per_step=1,
                        quota_ladder=(2,),
                    )
                ),
                UplinkShareController(),
                MigrationController(
                    MigrationConfig(
                        imbalance_threshold=1.10,
                        sustain_ticks=1,
                        cooldown_ticks=1,
                        camera_cooldown_ticks=12,
                        payback_factor=1.2,
                        cost_model=MigrationCostModel(
                            blackout_seconds=0.10, cold_start_seconds=0.15
                        ),
                    )
                ),
            ],
            interval_seconds=0.25,
        )

    def setup(self) -> ShardedFleetRuntime:
        return ShardedFleetRuntime(
            self.cameras,
            config=self.SHARDING,
            control_loop=self._control_loop(),
            tracer=Tracer(sample_every=64),
            timeline=MetricsTimeline(),
        )

    @staticmethod
    def run(cluster: ShardedFleetRuntime):
        return cluster.run()

    def check(self, cluster: ShardedFleetRuntime, report) -> Outcome:
        return _check_cluster(cluster, report)


def _check_cluster(cluster: ShardedFleetRuntime, report) -> Outcome:
    runtimes = list(cluster.nodes.values())
    unaccounted, errors = _frame_accounting(report, runtimes)
    control = cluster.control_loop or cluster.hierarchy
    counts = _fleet_counts(report, runtimes)
    counts.update(
        {
            "fleet.migrations": report.migrations_performed,
            "control.ticks": report.control_ticks,
            "control.actions": len(report.control_log),
            "control.payload_bytes_peak": max(report.coordination_payload_bytes, default=0),
            "edge.transfers": len(cluster.shared_uplink.transfers),
            "edge.reclaimed_mbit": report.reclaimed_uplink_bits / 1e6,
            "obs.scrapes": len(cluster.timeline) if cluster.timeline is not None else 0,
        }
    )
    payload = {
        "nodes": [
            {
                "cameras": {
                    cid: dataclasses.asdict(c) for cid, c in node.report.cameras.items()
                },
                "telemetry": node.report.telemetry,
                "hosted": node.camera_ids,
            }
            for node in report.nodes
        ],
        "bits": report.total_uplink_bits,
        "reclaimed": report.reclaimed_uplink_bits,
        "telemetry": report.telemetry,
        "control_log": report.control_log,
        "decisions": report.decision_records,
        "payload_bytes": report.coordination_payload_bytes,
        "records": _records_payload(runtimes),
        "ticks": control.ticks if control is not None else 0,
    }
    if cluster.tracer is not None:
        payload["traces"] = cluster.tracer.chrome_trace_json()
    if cluster.timeline is not None:
        payload["timeline"] = cluster.timeline.to_jsonl()
    return Outcome(
        attempted=report.frames_generated,
        completed=report.frames_scored,
        failed=unaccounted,
        sim=_fleet_sim(report, runtimes, report.total_uplink_bits),
        counts=counts,
        digest=_digest(payload),
        errors=errors,
    )


# -- 3. kilocam_16node ---------------------------------------------------------


class Kilocam16Node:
    """1024 districted cameras on 16 nodes under the hierarchical plane.

    The scaling run of ``benchmarks/bench_hierarchy.py``: 2-4 fps, one
    second of video per camera, a light per-frame cost so nothing sheds.
    Per-camera fixed costs (render, microclassifier construction, flush)
    dominate, and batches hold about one frame.
    """

    name = "kilocam_16node"
    unit = "frames"
    REFERENCE = "numeric"
    SHARDING = ShardingConfig(
        num_nodes=16,
        placement="district_aware",
        total_uplink_bps=2_000_000.0,
        uplink_allocation="equal",
        uplink_sharing="work_conserving",
        node_config=FleetConfig(
            num_workers=4,
            queue_capacity=8,
            drop_policy=DropPolicy.DROP_OLDEST,
            service_time_scale=0.001,
        ),
    )

    def __init__(self, seed: int) -> None:
        # The fleet's shape (ids, resolutions, rates, districts) is fixed so
        # that every seed offers the same frames; the seed picks the scenes.
        fleet = generate_fleet(
            1024,
            seed=11,
            duration_seconds=1.0,
            resolutions=((32, 32), (48, 32)),
            frame_rates=(2.0, 4.0),
            districts=16,
        )
        rng = np.random.default_rng(seed)
        self.cameras = [
            dataclasses.replace(spec, seed=int(rng.integers(2**31))) for spec in fleet
        ]

    def setup(self) -> ShardedFleetRuntime:
        return ShardedFleetRuntime(
            self.cameras, config=self.SHARDING, hierarchy=HierarchicalControlPlane()
        )

    @staticmethod
    def run(cluster: ShardedFleetRuntime):
        return cluster.run()

    def check(self, cluster: ShardedFleetRuntime, report) -> Outcome:
        return _check_cluster(cluster, report)


# -- 4. event_burst ------------------------------------------------------------


class _StubNode:
    """The two attributes of a fleet node the delivery plane touches."""

    def __init__(self) -> None:
        self.telemetry = TelemetryRegistry()
        self.event_sink = None


@dataclass
class EventBurstState:
    plane: EventDeliveryPlane
    uplink: WorkConservingUplink
    nodes: dict[str, _StubNode]
    records: dict[str, list[EventRecord]]


class EventBurst:
    """64 cameras' event records through a real delivery plane, no inference.

    Four stub nodes (16 cameras each) publish through their ``event_sink``
    into an :class:`EventDeliveryPlane` with 6% payload loss, 2% ack loss
    and a consumer running at about 0.8 utilization; every attempt is
    drained through one :class:`WorkConservingUplink`, then
    ``plane.finalize`` resolves each record.  Close times are a seeded
    Poisson process per camera.  Building the stub nodes materializes their
    ``EventRecord`` objects, so that is set-up work.
    """

    name = "event_burst"
    unit = "records"
    REFERENCE = "interpreter"
    NODES = 4
    CAMERAS_PER_NODE = 16
    RECORDS_PER_CAMERA = 400
    MEAN_CLOSE_INTERVAL = 0.08  # seconds between one camera's event closes
    DELIVERY = DeliveryConfig(
        # The broker seed of benchmarks/bench_events.py.  With any seed of two
        # or more digits a retry of a lost attempt is never lost; with a
        # one-digit seed it is lost 96% of the time (CRC32 draws of one key's
        # attempts are affinely related).  Neither is the 6% the config says.
        broker=BrokerConfig(loss_rate=0.06, ack_loss_rate=0.02, seed=29),
        outbox=OutboxConfig(
            max_queue=8192,
            max_retries=4,
            backoff_base_seconds=0.05,
            backoff_cap_seconds=0.8,
        ),
        # 64 cameras / 0.08 s = 800 closes/s against a 1000/s consumer.
        consumer_rate_eps=1000.0,
        record_bytes=256,
    )
    UPLINK_BPS = 8_000_000.0

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.inputs: dict[str, list[tuple]] = {}
        count = self.RECORDS_PER_CAMERA
        for n in range(self.NODES):
            rows = []
            for c in range(self.CAMERAS_PER_NODE):
                camera_id = f"cam{n * self.CAMERAS_PER_NODE + c:03d}"
                closes = np.cumsum(rng.exponential(self.MEAN_CLOSE_INTERVAL, count))
                lengths = rng.integers(2, 20, count)
                ends = np.cumsum(lengths + rng.integers(1, 10, count))
                scores = rng.uniform(0.6, 1.0, count)
                for j in range(count):
                    rows.append(
                        (
                            float(closes[j]),
                            camera_id,
                            j + 1,
                            int(ends[j] - lengths[j]),
                            int(ends[j]),
                            float(scores[j]),
                        )
                    )
            # Each node's outbox takes its records in close order.
            rows.sort(key=lambda row: (row[0], row[1]))
            self.inputs[f"node{n}"] = rows

    def setup(self) -> EventBurstState:
        records = {
            node_id: [
                EventRecord(
                    key=EventKey(camera_id, 0, event_id),
                    mc_name=f"{camera_id}/primary",
                    start=start,
                    end=end,
                    source_start=start,
                    source_end=end,
                    peak_score=score,
                    closed_at=closed_at,
                )
                for closed_at, camera_id, event_id, start, end, score in rows
            ]
            for node_id, rows in self.inputs.items()
        }
        plane = EventDeliveryPlane(self.DELIVERY)
        nodes = {node_id: _StubNode() for node_id in records}
        for node_id, node in nodes.items():
            plane.attach(node_id, node)
        uplink = WorkConservingUplink(self.UPLINK_BPS, {node_id: 1.0 for node_id in nodes})
        return EventBurstState(plane=plane, uplink=uplink, nodes=nodes, records=records)

    @staticmethod
    def run(state: EventBurstState):
        for node_id, node in state.nodes.items():
            sink = node.event_sink
            for record in state.records[node_id]:
                sink(record)
        transfers = state.uplink.drain(state.plane.transfer_requests())
        return state.plane.finalize({t.description: t.end_time for t in transfers})

    def check(self, state: EventBurstState, report) -> Outcome:
        plane = state.plane
        offered = sum(len(records) for records in state.records.values())
        lines = plane.log_records
        terminal = {"acked", "delivered_unacked", "dead_letter", "dropped_overflow"}
        keys = [line["key"] for line in lines]
        errors = []
        bad_state = sum(1 for line in lines if line["state"] not in terminal)
        missing = offered - len(set(keys))
        repeated = len(keys) - len(set(keys))
        if bad_state or missing or repeated:
            errors.append(
                f"events: {missing} records without a terminal state, "
                f"{repeated} with more than one, {bad_state} in an unknown state"
            )
        if plane.ingest.unique_ingests != report.delivered:
            errors.append(
                f"events: unique ingests {plane.ingest.unique_ingests} "
                f"!= delivered {report.delivered}"
            )
        delivered_keys = [line["key"] for line in lines if line["delivered_at"] is not None]
        if len(delivered_keys) != len(set(delivered_keys)):
            errors.append("events: a record was ingested twice")
        attempts = sum(1 for t in state.uplink.transfers if t.description.startswith("evt/"))
        undelivered = report.dead_letter + report.dropped_overflow
        counts = {
            "edge.transfers": len(state.uplink.transfers),
            "edge.reclaimed_mbit": state.uplink.reclaimed_bits / 1e6,
            "events.attempts": attempts,
            "events.retries": report.retried,
            "events.duplicates": report.duped,
            "events.useful_attempt_ratio": report.delivered / attempts if attempts else 0.0,
            "events.consumer_lag_max_ms": report.max_consumer_lag * 1e3,
        }
        return Outcome(
            attempted=offered,
            completed=len({line["key"] for line in lines if line["state"] in terminal}),
            failed=missing + repeated + bad_state,
            sim={
                "delivery_p50_ms": report.latency_p50 * 1e3,
                "delivery_p99_ms": report.latency_p99 * 1e3,
                "undelivered_ratio": undelivered / offered,
                "uplink_bits_per_record": state.uplink.total_bits / offered,
            },
            counts=counts,
            digest=_digest(
                {
                    "report": report.to_dict(),
                    "log": hashlib.sha256(plane.delivery_log_jsonl().encode()).hexdigest(),
                    "bits": state.uplink.total_bits,
                    "reclaimed": state.uplink.reclaimed_bits,
                }
            ),
            errors=errors,
        )


WORKLOADS = {
    cls.name: cls for cls in (SharedDnn64, Hotspot4Node, Kilocam16Node, EventBurst)
}
