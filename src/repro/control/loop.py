"""The control loop: lockstep node stepping, action application, accounting.

:class:`ControlLoop` drives any number of :class:`~repro.fleet.runtime.FleetRuntime`
nodes on one simulated clock: every ``interval_seconds`` it advances each
node to the tick time, hands the assembled
:class:`~repro.control.policies.ClusterView` to each controller in order,
and applies the returned actions through an *actuator*.  Determinism is the
core contract — ticks happen at fixed simulated times, controllers see
identical views on identical runs, and every applied action lands in
:attr:`ControlLoop.decision_log` plus the control telemetry registry, so two
runs can be compared decision-for-decision.

The loop's decide/apply/account/provenance step is the only one in the
package: the hierarchy's node planes and cluster level
(:mod:`repro.control.hierarchy`) are ``ControlLoop`` subclasses that build
their own views and differ only in how they stamp what they log.
:func:`run_lockstep` is the one lockstep stepping loop, shared with
:class:`~repro.fleet.sharding.ShardedFleetRuntime`.

Two actuators ship here:

* :class:`ClusterActuator` — binds the loop to a
  :class:`~repro.fleet.sharding.ShardedFleetRuntime` (duck-typed: anything
  with ``nodes``, ``record_migration`` and optionally ``set_uplink_weights``),
  supporting shedding, uplink re-weighting, and camera migration;
* :class:`NodeActuator` — binds it to one standalone ``FleetRuntime``
  (shedding only; migration and uplink actions are rejected).
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

from repro.control.policies import (
    ClusterView,
    ControlAction,
    Controller,
    MigrateCamera,
    NodeView,
    SetCameraQuota,
    SetCameraThreshold,
    SetDropPolicy,
    SetUplinkWeights,
)
from repro.control.provenance import DecisionRecord
from repro.fleet.runtime import FleetRuntime
from repro.fleet.telemetry import TelemetryRegistry
from repro.obs.timeline import MetricsTimeline

__all__ = [
    "ControlLoop",
    "ClusterActuator",
    "NodeActuator",
    "check_interval",
    "run_lockstep",
]


def check_interval(seconds: float, name: str = "interval_seconds") -> float:
    """``seconds`` as a float, or ``ValueError`` unless it is finite and positive.

    A NaN interval passes a plain ``<= 0`` check and then never advances
    the lockstep clock past the feeds' end, so the run never returns.
    """
    if not (math.isfinite(seconds) and seconds > 0):
        raise ValueError(f"{name} must be positive and finite, got {seconds!r}")
    return float(seconds)


def run_lockstep(
    nodes: Mapping[str, FleetRuntime],
    interval_seconds: float,
    on_tick: Callable[[float], object],
) -> None:
    """Advance every started node in lockstep, calling ``on_tick`` at each boundary.

    The one stepping loop behind every synchronized run path (flat control
    loop, hierarchical plane, timeline-only scraping): all nodes advance to
    each tick time before ``on_tick`` observes, so it always sees a
    consistent cluster snapshot.  The run ends when no node has pending
    events (migrations can add events, so the check re-runs every tick).
    """
    interval_seconds = check_interval(interval_seconds)
    tick_time = interval_seconds
    while any(runtime.has_pending_events for runtime in nodes.values()):
        for runtime in nodes.values():
            runtime.advance_until(tick_time)
        on_tick(tick_time)
        tick_time += interval_seconds


class ClusterActuator:
    """Applies control actions to a sharded cluster runtime."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster

    @property
    def uplink_weights(self) -> dict[str, float] | None:
        """Current shared-uplink weights (None when statically sliced)."""
        getter = getattr(self.cluster, "current_uplink_weights", None)
        return getter() if callable(getter) else None

    @property
    def uplink_guarantees(self) -> dict[str, float] | None:
        """Per-node guaranteed uplink bps (None when the cluster has none)."""
        getter = getattr(self.cluster, "uplink_guarantees", None)
        return getter() if callable(getter) else None

    def apply(self, action: ControlAction, now: float) -> None:
        """Execute one action against the cluster at simulated time ``now``."""
        nodes: Mapping[str, FleetRuntime] = self.cluster.nodes
        if isinstance(action, SetDropPolicy):
            nodes[action.node_id].set_drop_policy(action.camera_id, action.policy)
        elif isinstance(action, SetCameraQuota):
            nodes[action.node_id].set_camera_quota(action.camera_id, action.quota)
        elif isinstance(action, SetCameraThreshold):
            nodes[action.node_id].set_camera_threshold(action.camera_id, action.threshold)
        elif isinstance(action, MigrateCamera):
            handoff = nodes[action.source].detach_camera(action.camera_id, now)
            nodes[action.destination].attach_camera(
                handoff, now, resume_time=now + action.blackout_seconds
            )
            self.cluster.record_migration(action.camera_id, action.source, action.destination)
        elif isinstance(action, SetUplinkWeights):
            self.cluster.set_uplink_weights(now, action.as_mapping())
        else:
            raise TypeError(f"Unsupported control action {type(action).__name__}")


class NodeActuator:
    """Applies control actions to one standalone node (shedding only)."""

    def __init__(self, runtime: FleetRuntime, node_id: str = "node0") -> None:
        self.runtime = runtime
        self.node_id = node_id

    @property
    def uplink_weights(self) -> None:
        """A single node has no shared uplink to re-weight."""
        return None

    @property
    def uplink_guarantees(self) -> dict[str, float]:
        """The node owns its whole uplink; the guarantee is its capacity."""
        return {self.node_id: self.runtime.uplink.capacity_bps}

    def apply(self, action: ControlAction, now: float) -> None:
        """Execute one action against the node at simulated time ``now``."""
        if isinstance(action, SetDropPolicy):
            self.runtime.set_drop_policy(action.camera_id, action.policy)
        elif isinstance(action, SetCameraQuota):
            self.runtime.set_camera_quota(action.camera_id, action.quota)
        elif isinstance(action, SetCameraThreshold):
            self.runtime.set_camera_threshold(action.camera_id, action.threshold)
        else:
            raise TypeError(
                f"{type(action).__name__} needs a cluster actuator, not a single node"
            )


class ControlLoop:
    """Ticks controllers at a fixed simulated interval and applies actions."""

    # How the loop stamps what it logs.  The flat loop writes bare controller
    # names and scrapes its own counters as "control"; the hierarchy's planes
    # set a scope ("node0", "cluster") that prefixes log lines and names the
    # scrape source, a provenance ``level`` and, node planes only, a node id.
    _scope: str | None = None
    _level: str | None = None
    _node_id: str | None = None

    def __init__(
        self,
        controllers: Sequence[Controller],
        interval_seconds: float = 0.25,
        telemetry: TelemetryRegistry | None = None,
        timeline: MetricsTimeline | None = None,
    ) -> None:
        self.interval_seconds = check_interval(interval_seconds)
        names = [c.name for c in controllers]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(f"Duplicate controller names: {sorted(duplicates)}")
        self.controllers = list(controllers)
        self.telemetry = telemetry or TelemetryRegistry()
        # Optional metrics timeline: when set, every tick scrapes each node's
        # registry (plus the loop's own control counters under "control"), so
        # the time-series exporters see exactly the control-interval cadence.
        self.timeline = timeline
        self.decision_log: list[str] = []
        # Decision provenance: one JSON-ready dict per DecisionRecord, stamped
        # with tick index, simulated time, its own sequence number, and the
        # decision_log indices of the actions it produced.
        self.decision_records: list[dict] = []
        self.ticks = 0

    # -- driving -------------------------------------------------------------
    def run_node(self, runtime: FleetRuntime, node_id: str = "node0") -> None:
        """Drive one standalone node under this loop (shedding policies)."""
        runtime.start()
        nodes = {node_id: runtime}
        actuator = NodeActuator(runtime, node_id)
        run_lockstep(
            nodes, self.interval_seconds, lambda now: self.tick(now, nodes, actuator)
        )

    def tick(self, now: float, nodes: Mapping[str, FleetRuntime], actuator) -> list[ControlAction]:
        """Observe, decide, and actuate once; returns the applied actions."""
        view = ClusterView(
            now=now,
            interval=self.interval_seconds,
            tick_index=self.ticks,
            nodes=tuple(NodeView(node_id, runtime) for node_id, runtime in nodes.items()),
            horizon=max((runtime.horizon for runtime in nodes.values()), default=0.0),
            uplink_weights=actuator.uplink_weights,
            uplink_guarantees=getattr(actuator, "uplink_guarantees", None),
        )
        applied = self._step(view, actuator)
        self._scrape(now, nodes)
        return applied

    def _step(self, view: ClusterView, actuator) -> list[ControlAction]:
        """Run every controller once against ``view``, applying and logging its actions."""
        self.ticks += 1
        self.telemetry.counter("control.ticks").inc()
        applied: list[ControlAction] = []
        for controller in self.controllers:
            action_start = len(self.decision_log)
            actions = controller.decide(view)
            for action in actions:
                actuator.apply(action, view.now)
                self._account(controller, action, view.now)
                applied.append(action)
            self._collect_provenance(controller, actions, action_start, view.now)
        return applied

    def _scrape(self, now: float, nodes: Mapping[str, FleetRuntime]) -> None:
        if self.timeline is None:
            return
        for node_id, runtime in nodes.items():
            self.timeline.scrape(now, node_id, runtime.telemetry)
        self.timeline.scrape(now, self._scope or "control", self.telemetry)

    # -- decision provenance ---------------------------------------------------
    def _collect_provenance(
        self,
        controller: Controller,
        actions: Sequence[ControlAction],
        action_start: int,
        now: float,
    ) -> None:
        """Drain the controller's staged records and stamp them into the log.

        Records are linked to the global action sequence (decision_log
        indices) positionally: each record consumes as many sequence numbers
        as it claims actions, in staged order.  A controller that stages
        nothing still traces — the loop synthesizes one minimal record per
        applied action, so third-party controllers show up in provenance
        with at least *what* they did.
        """
        drain = getattr(controller, "drain_decision_records", None)
        records = drain() if callable(drain) else []
        claimed = sum(len(record.actions) for record in records)
        if claimed != len(actions):
            # The controller's account of its actions disagrees with what it
            # returned; trust the returned actions and synthesize.
            records = [
                DecisionRecord(
                    controller=controller.name,
                    kind="action",
                    node_id=self._node_id,
                    actions=(action.describe(),),
                )
                for action in actions
            ]
        cursor = action_start
        for record in records:
            entry = record.to_dict()
            if self._node_id is not None:
                entry["node_id"] = self._node_id
            if self._level is not None:
                entry["level"] = self._level
            entry["tick"] = self.ticks - 1
            entry["t"] = now
            entry["seq"] = len(self.decision_records)
            entry["action_seqs"] = list(range(cursor, cursor + len(record.actions)))
            cursor += len(record.actions)
            self.decision_records.append(entry)
            self.telemetry.counter("control.decisions.total").inc()
            if record.is_noop:
                self.telemetry.counter("control.decisions.noop").inc()

    # -- accounting ----------------------------------------------------------
    def _account(self, controller: Controller, action: ControlAction, now: float) -> None:
        scope = f"{self._scope}/" if self._scope else ""
        self.decision_log.append(f"t={now:.3f} {scope}{controller.name}: {action.describe()}")
        self.telemetry.counter("control.actions.total").inc()
        self.telemetry.counter(f"control.actions.{controller.name}").inc()
        if isinstance(action, SetCameraQuota) and action.quota is not None:
            self.telemetry.counter("control.shedding.interventions").inc()
        elif isinstance(action, SetCameraThreshold):
            self.telemetry.counter("control.threshold.drifts").inc()
        elif isinstance(action, MigrateCamera):
            self.telemetry.counter("control.migration.performed").inc()
        elif isinstance(action, SetUplinkWeights):
            self.telemetry.counter("control.uplink.rebalances").inc()

    def counter_value(self, name: str) -> float:
        """Current value of one control counter (0.0 when absent)."""
        return self.telemetry.counters().get(name, 0.0)
