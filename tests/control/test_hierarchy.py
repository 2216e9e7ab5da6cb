"""Hierarchical control plane: sketches, aggregates, coordinator, two levels."""

import dataclasses
import hashlib
import json

import pytest

from repro.control.hierarchy import (
    AggregateView,
    ClusterCoordinator,
    HierarchicalControlPlane,
    NodeAggregate,
    NodeControlPlane,
    QuantileSketch,
    default_local_controllers,
)
from repro.control.migration import MigrationConfig, MigrationController, MigrationCostModel
from repro.control.policies import ClusterView, MigrateCamera
from repro.control.uplink import UplinkShareConfig, UplinkShareController
from repro.fleet.camera import CameraSpec, generate_fleet
from repro.fleet.queues import DropPolicy
from repro.fleet.runtime import FleetConfig
from repro.fleet.sharding import ShardedFleetRuntime, ShardingConfig
from repro.obs.timeline import MetricsTimeline

FAST_NODE = FleetConfig(num_workers=2, queue_capacity=4, service_time_scale=0.05)


def small_fleet(num_cameras=8):
    return generate_fleet(
        num_cameras,
        seed=5,
        duration_seconds=1.5,
        resolutions=((48, 32), (64, 48)),
        frame_rates=(4.0, 10.0),
    )


def run_hierarchical(num_cameras=8, num_nodes=2, hierarchy=None, **config_kwargs):
    config_kwargs.setdefault("uplink_sharing", "work_conserving")
    config = ShardingConfig(
        num_nodes=num_nodes, node_config=FAST_NODE, **config_kwargs
    )
    hierarchy = hierarchy or HierarchicalControlPlane()
    runtime = ShardedFleetRuntime(
        small_fleet(num_cameras), config=config, hierarchy=hierarchy
    )
    return runtime.run(), hierarchy


class TestQuantileSketch:
    def test_exact_below_centroid_budget(self):
        values = [0.5, 0.1, 0.9, 0.3, 0.7]
        sketch = QuantileSketch.from_values(values)
        assert sketch.count == len(values)
        assert sketch.percentile(0) == 0.1
        assert sketch.percentile(50) == 0.5
        assert sketch.percentile(100) == 0.9

    def test_size_bounded_above_budget(self):
        sketch = QuantileSketch.from_values([i / 1000.0 for i in range(1000)])
        assert len(sketch.centroids) <= sketch.max_centroids
        assert sketch.count == pytest.approx(1000)
        # A weight-balanced compression keeps tail quantiles close.
        assert sketch.percentile(99) == pytest.approx(0.99, abs=0.05)
        assert sketch.percentile(50) == pytest.approx(0.5, abs=0.05)

    def test_merge_matches_combined_distribution(self):
        left = QuantileSketch.from_values([float(i) for i in range(100)])
        right = QuantileSketch.from_values([float(i) for i in range(100, 200)])
        merged = left.merge(right)
        assert len(merged.centroids) <= merged.max_centroids
        assert merged.count == pytest.approx(200)
        exact = QuantileSketch.from_values([float(i) for i in range(200)])
        assert merged.percentile(50) == pytest.approx(exact.percentile(50), rel=0.1)

    def test_empty_and_validation(self):
        empty = QuantileSketch()
        assert empty.percentile(99) == 0.0
        assert empty.count == 0
        with pytest.raises(ValueError):
            empty.percentile(101)
        with pytest.raises(ValueError):
            QuantileSketch.from_values([1.0], max_centroids=0)

    def test_deterministic(self):
        values = [((i * 37) % 101) / 10.0 for i in range(500)]
        assert QuantileSketch.from_values(values) == QuantileSketch.from_values(values)


class TestNodeAggregate:
    def _aggregate(self, num_cameras=100, wait_values=2000):
        return NodeAggregate(
            node_id="node0",
            now=1.0,
            num_cameras=num_cameras,
            num_workers=4,
            frames_generated=5000.0,
            frames_scored=4800.0,
            frames_rejected=100.0,
            frames_dropped=100.0,
            frames_matched=900.0,
            events_closed=40.0,
            estimated_upload_bits=2.5e6,
            offered_utilization=0.8,
            window_wait_count=wait_values,
            window_wait_sketch=QuantileSketch.from_values(
                [i / wait_values for i in range(wait_values)]
            ),
            resolutions=((48, 32), (64, 48)),
        )

    def test_payload_is_json_serializable(self):
        payload = self._aggregate().to_payload()
        json.dumps(payload)  # must not raise
        assert payload["node_id"] == "node0"
        assert payload["cameras"] == 100

    def test_payload_size_independent_of_cameras_and_observations(self):
        small = self._aggregate(num_cameras=4, wait_values=64)
        huge = self._aggregate(num_cameras=4096, wait_values=200_000)
        # The sketch saturates at max_centroids, so the two payloads differ
        # only by digit counts — the same O(1) size class.
        assert huge.payload_bytes() < small.payload_bytes() * 1.5

    def test_window_p99_from_sketch(self):
        aggregate = self._aggregate(wait_values=1000)
        assert aggregate.window_wait_p99 == pytest.approx(0.99, abs=0.05)


class TestNodeControlPlane:
    def test_tick_produces_aggregate_and_accounts(self):
        fleet = small_fleet(4)
        from repro.fleet.runtime import FleetRuntime

        runtime = FleetRuntime(fleet, config=FAST_NODE)
        plane = NodeControlPlane("node0", runtime)
        runtime.start()
        runtime.advance_until(0.25)
        aggregate = plane.tick(0.25, horizon=2.0)
        assert aggregate.node_id == "node0"
        assert aggregate.num_cameras == 4
        assert aggregate.frames_generated > 0
        assert plane.counter_value("control.ticks") == 1
        assert plane.counter_value("control.decisions.total") >= len(plane.controllers)

    def test_duplicate_controller_names_rejected(self):
        from repro.control.shedding import AdaptiveSheddingController
        from repro.fleet.runtime import FleetRuntime

        runtime = FleetRuntime(small_fleet(2), config=FAST_NODE)
        with pytest.raises(ValueError, match="Duplicate"):
            NodeControlPlane(
                "node0",
                runtime,
                controllers=[AdaptiveSheddingController(), AdaptiveSheddingController()],
            )

    @pytest.mark.parametrize("interval", [float("nan"), float("inf"), 0.0])
    def test_rejects_bad_interval(self, interval):
        from repro.fleet.runtime import FleetRuntime

        runtime = FleetRuntime(small_fleet(2), config=FAST_NODE)
        with pytest.raises(ValueError, match="interval_seconds"):
            NodeControlPlane("node0", runtime, interval_seconds=interval)

    def test_default_controllers_are_node_scope(self):
        controllers = default_local_controllers("node0")
        assert len(controllers) >= 1
        names = {c.name for c in controllers}
        assert "adaptive_shedding" in names or len(names) >= 1


class TestClusterCoordinator:
    def _aggregate(self, node_id, matched, utilization=0.5):
        return NodeAggregate(
            node_id=node_id,
            now=1.0,
            num_cameras=4,
            num_workers=2,
            frames_generated=100.0,
            frames_scored=90.0,
            frames_rejected=0.0,
            frames_dropped=10.0,
            frames_matched=matched,
            events_closed=2.0,
            estimated_upload_bits=1e5,
            offered_utilization=utilization,
            window_wait_count=10,
            window_wait_sketch=QuantileSketch.from_values([0.01] * 10),
            resolutions=((48, 32),),
        )

    def _view(self, aggregates, uplink_weights=None, planes=None):
        """The cluster view the coordinator's policies see: aggregates only."""
        planes = planes or {}
        return ClusterView(
            now=1.0,
            interval=0.25,
            tick_index=0,
            nodes=tuple(
                AggregateView(aggregates[node_id], planes.get(node_id))
                for node_id in sorted(aggregates)
            ),
            horizon=2.0,
            uplink_weights=uplink_weights,
        )

    def test_hosts_the_flat_policies_under_cluster_names(self):
        uplink, migration = ClusterCoordinator().controllers
        assert isinstance(uplink, UplinkShareController)
        assert isinstance(migration, MigrationController)
        assert (uplink.name, migration.name) == ("cluster_uplink", "cluster_migration")

    def test_uplink_skews_toward_demand(self):
        coordinator = ClusterCoordinator(
            uplink_config=UplinkShareConfig(smoothing=1.0, rebalance_threshold=0.05)
        )
        uplink, _ = coordinator.controllers
        aggregates = {
            "node0": self._aggregate("node0", matched=90.0),
            "node1": self._aggregate("node1", matched=10.0),
        }
        actions = uplink.decide(self._view(aggregates, {"node0": 1.0, "node1": 1.0}))
        assert len(actions) == 1
        weights = dict(actions[0].weights)
        assert weights["node0"] > weights["node1"]
        assert all(w > 0 for w in weights.values())

    def test_uplink_holds_inside_threshold(self):
        coordinator = ClusterCoordinator(
            uplink_config=UplinkShareConfig(smoothing=1.0, rebalance_threshold=0.5)
        )
        uplink, _ = coordinator.controllers
        aggregates = {
            "node0": self._aggregate("node0", matched=55.0),
            "node1": self._aggregate("node1", matched=45.0),
        }
        actions = uplink.decide(self._view(aggregates, {"node0": 1.0, "node1": 1.0}))
        assert actions == []
        records = uplink.drain_decision_records()
        assert any(r.kind == "hold" for r in records)

    def test_uplink_none_when_statically_sliced(self):
        uplink, _ = ClusterCoordinator().controllers
        aggregates = {"node0": self._aggregate("node0", matched=10.0)}
        assert uplink.decide(self._view(aggregates, None)) == []

    def test_aggregate_view_exposes_only_aggregated_counters(self):
        view = AggregateView(self._aggregate("node0", matched=7.0), plane=None)
        assert view.node_id == "node0"
        assert view.counter_value("frames.matched") == 7.0
        with pytest.raises(KeyError):
            view.counter_value("latency.queue_wait_seconds")

    def test_migration_gates_on_sustained_imbalance(self):
        coordinator = ClusterCoordinator(
            migration_config=MigrationConfig(sustain_ticks=2)
        )
        _, migration = coordinator.controllers
        hot = {
            "node0": self._aggregate("node0", matched=0.0, utilization=2.0),
            "node1": self._aggregate("node1", matched=0.0, utilization=0.1),
        }
        asked = []

        class SourcePlane:
            def nominate_victim(self, destination, source_util, dest_util, *_):
                asked.append((destination.node_id, source_util, dest_util))
                return (
                    MigrateCamera("cam0", "node0", destination.node_id, 0.25),
                    (),
                )

        view = self._view(hot, planes={"node0": SourcePlane()})
        assert migration.decide(view) == []  # not yet sustained
        assert asked == []
        actions = migration.decide(view)
        # Only the source node was asked, with aggregate utilizations.
        assert asked == [("node1", 2.0, 0.1)]
        assert [(a.source, a.destination) for a in actions] == [("node0", "node1")]
        assert coordinator.migrations == [(1.0, "cam0", "node0", "node1")]

    def test_migration_holds_when_balanced(self):
        coordinator = ClusterCoordinator()
        _, migration = coordinator.controllers
        balanced = {
            "node0": self._aggregate("node0", matched=0.0, utilization=0.5),
            "node1": self._aggregate("node1", matched=0.0, utilization=0.5),
        }
        for _ in range(4):
            assert migration.decide(self._view(balanced)) == []
        records = migration.drain_decision_records()
        assert all(r.is_noop for r in records)


class TestHierarchicalControlPlane:
    def test_end_to_end_cluster_run(self):
        report, hierarchy = run_hierarchical()
        assert report.control_ticks == hierarchy.ticks > 0
        assert report.frames_scored > 0
        # Every tick exchanged one bounded aggregate per node.
        assert len(report.coordination_payload_bytes) == hierarchy.ticks
        assert all(p > 0 for p in report.coordination_payload_bytes)
        # The cluster telemetry is the fixed-size rollup, not a registry merge.
        assert "cluster.frames.generated" in report.telemetry
        assert not any(key.startswith("node0.") for key in report.telemetry)

    def test_rollup_matches_node_truth(self):
        report, hierarchy = run_hierarchical()
        generated = sum(n.report.frames_generated for n in report.nodes)
        rollup = report.telemetry["cluster.frames.generated"]
        assert rollup["value"] == pytest.approx(generated)

    def test_decision_records_stamped_at_both_levels(self):
        report, _ = run_hierarchical()
        levels = {record["level"] for record in report.decision_records}
        assert levels == {"node", "cluster"}
        seqs = [record["seq"] for record in report.decision_records]
        assert seqs == list(range(len(seqs)))  # one globally ordered stream

    def test_deterministic_reruns_bit_identical(self):
        first, h1 = run_hierarchical()
        second, h2 = run_hierarchical()
        assert first.control_log == second.control_log
        assert first.decision_records == second.decision_records
        assert first.telemetry == second.telemetry
        assert h1.payload_bytes == h2.payload_bytes

    def test_rejects_flat_loop_and_hierarchy_together(self):
        from repro.control.loop import ControlLoop
        from repro.control.shedding import AdaptiveSheddingController

        with pytest.raises(ValueError, match="not both"):
            ShardedFleetRuntime(
                small_fleet(4),
                config=ShardingConfig(num_nodes=2, node_config=FAST_NODE),
                control_loop=ControlLoop([AdaptiveSheddingController()]),
                hierarchy=HierarchicalControlPlane(),
            )

    def test_timeline_scraped_at_both_levels(self):
        from repro.obs.timeline import MetricsTimeline

        timeline = MetricsTimeline()
        config = ShardingConfig(
            num_nodes=2, node_config=FAST_NODE, uplink_sharing="work_conserving"
        )
        runtime = ShardedFleetRuntime(
            small_fleet(6),
            config=config,
            hierarchy=HierarchicalControlPlane(),
            timeline=timeline,
        )
        runtime.run()
        sources = {sample.source for sample in timeline.samples}
        assert "cluster" in sources
        assert "node0" in sources and "node1" in sources

    def test_validation(self):
        with pytest.raises(ValueError):
            HierarchicalControlPlane(interval_seconds=0.0)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_rejects_non_finite_interval(self, interval):
        # NaN used to get as far as the first tick and fail inside the
        # offered-utilization estimate.
        with pytest.raises(ValueError, match="interval_seconds"):
            HierarchicalControlPlane(interval_seconds=interval)


def pinned_hierarchical_run():
    """The golden-trace imbalance under the hierarchy: every policy acts.

    Round-robin deals every 24 fps camera to node0, so the coordinator
    migrates one off, node-local shedding tightens quotas on both nodes,
    and the work-conserving uplink is re-weighted toward node0's demand.
    """
    cameras = [
        CameraSpec(
            camera_id=f"cam{i:03d}",
            width=48,
            height=32,
            frame_rate=24.0 if i % 2 == 0 else 2.0,
            num_frames=48 if i % 2 == 0 else 4,
            scenario="urban_day",
            seed=i,
        )
        for i in range(8)
    ]
    config = ShardingConfig(
        num_nodes=2,
        uplink_sharing="work_conserving",
        node_config=FleetConfig(
            num_workers=1,
            queue_capacity=4,
            drop_policy=DropPolicy.DROP_OLDEST,
            service_time_scale=0.12,
        ),
    )
    coordinator = ClusterCoordinator(
        migration_config=MigrationConfig(
            imbalance_threshold=1.1,
            sustain_ticks=2,
            cooldown_ticks=2,
            cost_model=MigrationCostModel(blackout_seconds=0.2, cold_start_seconds=0.2),
        )
    )
    timeline = MetricsTimeline()
    report = ShardedFleetRuntime(
        cameras,
        config=config,
        hierarchy=HierarchicalControlPlane(coordinator=coordinator),
        timeline=timeline,
    ).run()
    return report, timeline


# SHA-256 of the pinned run's control log, decision records, cluster
# telemetry, coordination payloads, timeline and node reports.  Any change to
# what the hierarchy decides, when, or how it stamps it moves this digest.
HIERARCHY_DIGEST = "475254be8aef833f267d71f9371ae93b167a50ac0efaf00843ccd8facb215e6f"


class TestHierarchyBytePin:
    def test_every_cluster_policy_acts(self):
        report, _ = pinned_hierarchical_run()
        assert any("cluster/cluster_uplink: set_uplink_weights" in line for line in report.control_log)
        assert report.migrations_performed >= 1
        assert report.uplink_rebalances >= 1
        assert report.shedding_interventions >= 1

    def test_outputs_match_pinned_digest(self):
        report, timeline = pinned_hierarchical_run()
        payload = {
            "control_log": report.control_log,
            "decision_records": report.decision_records,
            "telemetry": report.telemetry,
            "payload_bytes": report.coordination_payload_bytes,
            "timeline": timeline.to_jsonl(),
            "nodes": [
                {
                    "node_id": node.node_id,
                    "hosted": node.camera_ids,
                    "migrated": [node.cameras_migrated_in, node.cameras_migrated_out],
                    "reclaimed_bits": node.reclaimed_uplink_bits,
                    "uplink_bps": node.uplink_allocation_bps,
                    "cameras": {
                        cid: dataclasses.asdict(c) for cid, c in node.report.cameras.items()
                    },
                    "telemetry": node.report.telemetry,
                }
                for node in report.nodes
            ],
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == HIERARCHY_DIGEST
