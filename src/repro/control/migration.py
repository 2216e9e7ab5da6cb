"""Camera migration: re-balance placement mid-run when load shifts.

Placement policies decide once, from *estimated* costs; real fleets drift —
cameras come online mid-run, scenes heat up, estimates err.  This controller
watches each node's **offered utilization** (arriving work per interval,
measured in worker-seconds of per-camera service time) and, when the
cluster stays imbalanced long enough, hands one camera from the hottest
node to the coolest via the runtime's detach/attach surface.

Migration is never free, so the decision is gated by an explicit
:class:`MigrationCostModel`: a handoff silences the camera for
``blackout_seconds`` (plus ``cold_start_seconds`` when the destination has
no base DNN resident for that camera's resolution — the FilterForward
computation-sharing premise cuts both ways), and the controller only moves
when the estimated shed reduction over the remaining horizon exceeds the
blackout loss by ``payback_factor``.

Flapping is prevented three ways: the imbalance must *sustain* for
``sustain_ticks`` consecutive ticks, every move starts a ``cooldown_ticks``
quiet period, and a camera that just moved cannot move again for
``camera_cooldown_ticks``.

The two node-local halves of the policy — the :func:`offered_utilization`
estimate and :func:`pick_victim`'s camera scoring — are plain functions, so
the hierarchical plane runs them on the node itself and only scalars cross
the node boundary (:mod:`repro.control.hierarchy`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.control.policies import (
    ClusterView,
    ControlAction,
    Controller,
    MigrateCamera,
    NodeView,
)
from repro.control.provenance import CandidateScore, DecisionRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.fleet.runtime import CameraLiveStats

__all__ = [
    "MigrationCostModel",
    "MigrationConfig",
    "MigrationController",
    "offered_utilization",
    "pick_victim",
]


@dataclass(frozen=True)
class MigrationCostModel:
    """What one camera handoff costs, in blackout seconds."""

    blackout_seconds: float = 0.25
    cold_start_seconds: float = 0.25

    def __post_init__(self) -> None:
        if not (self.blackout_seconds >= 0 and self.cold_start_seconds >= 0):
            raise ValueError("blackout and cold-start seconds must be non-negative")

    def blackout_for(
        self, resolution: tuple[int, int], destination_resolutions: set[tuple[int, int]]
    ) -> float:
        """Total blackout for moving a camera of ``resolution``.

        A destination already running a base DNN at this resolution restarts
        the camera warm; otherwise the model build adds a cold start.
        """
        blackout = self.blackout_seconds
        if resolution not in destination_resolutions:
            blackout += self.cold_start_seconds
        return blackout

    def frames_lost(self, frame_rate: float, blackout: float) -> float:
        """Expected frames the blackout swallows."""
        return frame_rate * blackout


@dataclass(frozen=True)
class MigrationConfig:
    """Tuning knobs of the migration policy."""

    imbalance_threshold: float = 1.20  # hottest/mean offered utilization
    overload_threshold: float = 1.0  # hottest node must actually be over capacity
    headroom_threshold: float = 0.85  # coolest node must sit below this
    sustain_ticks: int = 2
    cooldown_ticks: int = 4
    camera_cooldown_ticks: int = 8
    payback_factor: float = 2.0
    cost_model: MigrationCostModel = field(default_factory=MigrationCostModel)

    def __post_init__(self) -> None:
        # Every comparison against NaN is false, so a NaN gate would
        # silently switch the policy off instead of failing here.
        for name in (
            "imbalance_threshold",
            "overload_threshold",
            "headroom_threshold",
            "payback_factor",
        ):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must not be NaN")
        if self.imbalance_threshold <= 1.0:
            raise ValueError("imbalance_threshold must exceed 1.0")
        if self.sustain_ticks < 1 or self.cooldown_ticks < 0 or self.camera_cooldown_ticks < 0:
            raise ValueError("tick windows must be non-negative (sustain at least 1)")
        if self.payback_factor < 1.0:
            raise ValueError("payback_factor must be at least 1.0")


def offered_utilization(
    live_stats: Mapping[str, "CameraLiveStats"],
    num_workers: int,
    interval: float,
    last_generated: dict[str, int],
) -> float:
    """Arriving work over the last interval, per worker-second of one node.

    ``last_generated`` holds the caller's per-camera ``generated`` counters
    from the previous call and is advanced in place.
    """
    work_seconds = 0.0
    for camera_id, stats in live_stats.items():
        previous = last_generated.get(camera_id, 0)
        delta = max(0, stats.generated - previous)
        last_generated[camera_id] = stats.generated
        # Attach-time blackout losses land in `generated` as one lump;
        # cap the window at what the camera can physically offer so
        # phantom frames cannot mark a just-relieved node as hot.
        delta = min(delta, int(stats.frame_rate * interval) + 1)
        work_seconds += delta * stats.service_seconds
    return work_seconds / (num_workers * interval)


def pick_victim(
    source: NodeView,
    destination_id: str,
    destination_resolutions: set[tuple[int, int]],
    source_utilization: float,
    destination_utilization: float,
    remaining_seconds: float,
    config: MigrationConfig,
    camera_cooldowns: Mapping[str, int],
) -> tuple[MigrateCamera | None, tuple[CandidateScore, ...]]:
    """Score the source node's cameras for one move and pick the best.

    Every cooldown-free camera is a scored candidate; the score is the
    pair-leveling residual (lower = better move).  A camera is viable when
    its utilization fits the pair's gap and the frames its departure saves
    pay back its blackout by ``config.payback_factor``.
    """
    gap = source_utilization - destination_utilization
    if gap <= 0:
        return None, ()
    best: tuple[float, str] | None = None
    best_blackout = 0.0
    scored: dict[str, tuple[float, tuple[tuple[str, float], ...], bool]] = {}
    num_workers = source.num_workers
    for camera_id, stats in sorted(source.live_stats().items()):
        if camera_id in camera_cooldowns:
            continue
        camera_util = stats.frame_rate * stats.service_seconds / num_workers
        blackout = config.cost_model.blackout_for(stats.resolution, destination_resolutions)
        lost = config.cost_model.frames_lost(stats.frame_rate, blackout)
        # Frames the hotspot sheds that this camera's departure would save:
        # the source's excess arrival work, expressed in frames of this
        # camera, over the remaining horizon — capped by what the camera
        # itself will offer.
        excess_util = max(0.0, source_utilization - 1.0)
        saved_fps = min(
            stats.frame_rate, excess_util * num_workers / max(stats.service_seconds, 1e-12)
        )
        saved = saved_fps * remaining_seconds
        residual = abs(gap - 2.0 * camera_util)
        detail = (
            ("camera_utilization", camera_util),
            ("blackout_seconds", blackout),
            ("frames_lost", lost),
            ("frames_saved", saved),
        )
        viable = 0 < camera_util <= gap and saved >= lost * config.payback_factor
        scored[camera_id] = (residual, detail, viable)
        if not viable:
            continue
        # Prefer the camera whose move best levels the pair.
        if best is None or (residual, camera_id) < best:
            best = (residual, camera_id)
            best_blackout = blackout
    candidates = tuple(
        CandidateScore(
            candidate_id=camera_id,
            score=residual,
            chosen=best is not None and camera_id == best[1],
            detail=detail,
        )
        for camera_id, (residual, detail, _viable) in sorted(scored.items())
    )
    if best is None:
        return None, candidates
    return (
        MigrateCamera(
            camera_id=best[1],
            source=source.node_id,
            destination=destination_id,
            blackout_seconds=best_blackout,
        ),
        candidates,
    )


class MigrationController(Controller):
    """Moves cameras off sustained hotspots, with cost gating and hysteresis."""

    name = "camera_migration"

    def __init__(self, config: MigrationConfig | None = None) -> None:
        self.config = config or MigrationConfig()
        self._last_generated: dict[str, dict[str, int]] = {}
        self._sustained = 0
        self._cooldown = 0
        self._camera_cooldowns: dict[str, int] = {}
        self.migrations: list[tuple[float, str, str, str]] = []

    # -- observation ---------------------------------------------------------
    def _offered_utilization(self, node: NodeView, interval: float) -> float:
        """Arriving work over the last interval, per worker-second."""
        return offered_utilization(
            node.live_stats(),
            node.num_workers,
            interval,
            self._last_generated.setdefault(node.node_id, {}),
        )

    def _gates(self, extra: dict | None = None) -> dict:
        gates = {
            "imbalance_threshold": self.config.imbalance_threshold,
            "overload_threshold": self.config.overload_threshold,
            "headroom_threshold": self.config.headroom_threshold,
            "sustain_ticks": self.config.sustain_ticks,
            "cooldown_ticks": self.config.cooldown_ticks,
            "payback_factor": self.config.payback_factor,
        }
        if extra:
            gates.update(extra)
        return gates

    def _hold(self, reason: str, inputs: dict, gates_extra: dict | None = None) -> list:
        self.record_decision(
            DecisionRecord(
                controller=self.name,
                kind="hold",
                inputs=inputs,
                gates=self._gates(gates_extra),
                reason=reason,
            )
        )
        return []

    def decide(self, view: ClusterView) -> list[ControlAction]:
        """Migrate one camera when imbalance sustains and the move pays back."""
        utilizations = {
            node.node_id: self._offered_utilization(node, view.interval)
            for node in view.nodes
        }
        for camera_id in sorted(self._camera_cooldowns):
            self._camera_cooldowns[camera_id] -= 1
            if self._camera_cooldowns[camera_id] <= 0:
                del self._camera_cooldowns[camera_id]
        if self._cooldown > 0:
            self._cooldown -= 1
            self._sustained = 0
            return self._hold(
                "migration cooldown active",
                {"cooldown_remaining": float(self._cooldown)},
            )
        if len(utilizations) < 2:
            return self._hold(
                "fewer than two nodes, nowhere to move",
                {"nodes": float(len(utilizations))},
            )
        mean = sum(utilizations.values()) / len(utilizations)
        hottest = max(sorted(utilizations), key=lambda n: utilizations[n])
        coolest = min(sorted(utilizations), key=lambda n: utilizations[n])
        inputs = {
            "mean_utilization": mean,
            "hottest_utilization": utilizations[hottest],
            "coolest_utilization": utilizations[coolest],
            "sustained_ticks": float(self._sustained),
        }
        gates_extra = {"hottest": hottest, "coolest": coolest}
        imbalanced = (
            mean > 0
            and utilizations[hottest] / mean > self.config.imbalance_threshold
            and utilizations[hottest] > self.config.overload_threshold
            and utilizations[coolest] < self.config.headroom_threshold
        )
        if not imbalanced:
            self._sustained = 0
            return self._hold("cluster inside the imbalance gates", inputs, gates_extra)
        self._sustained += 1
        inputs["sustained_ticks"] = float(self._sustained)
        if self._sustained < self.config.sustain_ticks:
            return self._hold(
                "imbalance observed but not yet sustained", inputs, gates_extra
            )
        action, candidates = self._pick_move(view, hottest, coolest, utilizations)
        if action is None:
            self.record_decision(
                DecisionRecord(
                    controller=self.name,
                    kind="hold",
                    inputs=inputs,
                    gates=self._gates(gates_extra),
                    candidates=candidates,
                    reason="no candidate camera pays back its blackout",
                )
            )
            return []
        self._sustained = 0
        self._cooldown = self.config.cooldown_ticks
        self._camera_cooldowns[action.camera_id] = self.config.camera_cooldown_ticks
        self.migrations.append((view.now, action.camera_id, hottest, coolest))
        self.record_decision(
            DecisionRecord(
                controller=self.name,
                kind="migrate",
                inputs=inputs,
                gates=self._gates(gates_extra),
                candidates=candidates,
                actions=(action.describe(),),
            )
        )
        return [action]

    # -- the move ------------------------------------------------------------
    def _pick_move(
        self,
        view: ClusterView,
        source_id: str,
        destination_id: str,
        utilizations: dict[str, float],
    ) -> tuple[MigrateCamera | None, tuple[CandidateScore, ...]]:
        return pick_victim(
            view.node(source_id),
            destination_id,
            {stats.resolution for stats in view.node(destination_id).live_stats().values()},
            utilizations[source_id],
            utilizations[destination_id],
            view.remaining_seconds,
            self.config,
            self._camera_cooldowns,
        )
