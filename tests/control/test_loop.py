"""ControlLoop driving real runtimes: ticks, actuators, accounting."""

import pytest

from repro.control import (
    ControlLoop,
    Controller,
    MigrateCamera,
    NodeActuator,
    SetCameraQuota,
    SetDropPolicy,
)
from repro.fleet import CameraSpec, DropPolicy, FleetConfig, FleetRuntime

FAST = FleetConfig(num_workers=2, queue_capacity=4, service_time_scale=0.05)


def small_cameras(n=2, frame_rate=8.0, duration=1.0):
    return [
        CameraSpec(
            camera_id=f"cam{i:03d}",
            width=48,
            height=32,
            frame_rate=frame_rate,
            num_frames=int(frame_rate * duration),
            scenario="urban_day",
            seed=i,
        )
        for i in range(n)
    ]


class RecordingController(Controller):
    name = "recorder"

    def __init__(self, actions_per_tick=None):
        self.views = []
        self.actions_per_tick = actions_per_tick or {}

    def decide(self, view):
        self.views.append(view)
        return self.actions_per_tick.get(view.tick_index, [])


class TestLoopDriving:
    def test_ticks_cover_the_run_and_views_are_consistent(self):
        controller = RecordingController()
        loop = ControlLoop([controller], interval_seconds=0.25)
        runtime = FleetRuntime(small_cameras(duration=1.0), config=FAST)
        loop.run_node(runtime)
        report = runtime.finalize()
        assert report.frames_scored > 0
        assert loop.ticks == len(controller.views)
        assert loop.ticks >= 4  # 1 second of feed at 0.25s intervals
        times = [view.now for view in controller.views]
        assert times == sorted(times)
        assert all(view.interval == 0.25 for view in controller.views)
        # Every view exposes the node and its live stats.
        assert controller.views[0].node("node0").live_stats()

    def test_actions_are_applied_logged_and_counted(self):
        actions = {
            1: [
                SetCameraQuota(node_id="node0", camera_id="cam000", quota=1),
                SetDropPolicy(node_id="node0", camera_id="cam000", policy=DropPolicy.DROP_NEWEST),
            ]
        }
        controller = RecordingController(actions)
        loop = ControlLoop([controller], interval_seconds=0.25)
        runtime = FleetRuntime(small_cameras(), config=FAST)
        loop.run_node(runtime)
        assert runtime.admission is not None
        assert runtime.admission.quota_for("cam000") == 1
        assert any("set_camera_quota" in line for line in loop.decision_log)
        assert loop.counter_value("control.actions.total") == 2.0
        assert loop.counter_value("control.actions.recorder") == 2.0
        assert loop.counter_value("control.shedding.interventions") == 1.0

    def test_duplicate_controller_names_rejected(self):
        with pytest.raises(ValueError, match="Duplicate controller names"):
            ControlLoop([RecordingController(), RecordingController()])

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="interval_seconds"):
            ControlLoop([], interval_seconds=0.0)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf"), -0.25])
    def test_interval_must_be_finite(self, interval):
        # A NaN interval used to pass the positivity check and then hang
        # the lockstep loop of any run it was attached to.
        with pytest.raises(ValueError, match="interval_seconds"):
            ControlLoop([], interval_seconds=interval)

    def test_run_lockstep_rejects_nan_interval(self):
        from repro.control.loop import run_lockstep

        runtime = FleetRuntime(small_cameras(), config=FAST)
        runtime.start()
        with pytest.raises(ValueError, match="interval_seconds"):
            run_lockstep({"node0": runtime}, float("nan"), lambda now: None)


class TestClusterActuatorThreshold:
    def test_threshold_action_reaches_the_named_node(self):
        from repro.control import ClusterActuator, SetCameraThreshold
        from repro.fleet import ShardedFleetRuntime, ShardingConfig

        cluster = ShardedFleetRuntime(
            small_cameras(4),
            config=ShardingConfig(num_nodes=2, node_config=FAST),
        )
        for node in cluster.nodes.values():
            node.start()
        actuator = ClusterActuator(cluster)
        camera_id = cluster.nodes["node1"].hosted_cameras()[0]
        actuator.apply(
            SetCameraThreshold(node_id="node1", camera_id=camera_id, threshold=0.85),
            now=0.25,
        )
        assert cluster.nodes["node1"].camera_live_stats()[camera_id].threshold == 0.85
        assert actuator.uplink_guarantees == cluster.uplink_guarantees()
        for node in cluster.nodes.values():
            node.advance_until(float("inf"))
            node.finalize()


class TestNodeActuator:
    def test_rejects_cluster_only_actions(self):
        runtime = FleetRuntime(small_cameras(), config=FAST)
        actuator = NodeActuator(runtime)
        with pytest.raises(TypeError, match="cluster actuator"):
            actuator.apply(
                MigrateCamera(
                    camera_id="cam000", source="node0", destination="node1",
                    blackout_seconds=0.1,
                ),
                now=0.5,
            )

    def test_exposes_no_uplink_weights(self):
        runtime = FleetRuntime(small_cameras(), config=FAST)
        assert NodeActuator(runtime).uplink_weights is None
