"""The bandwidth-constrained uplink.

The paper's target deployments allocate "a few hundred kilobits per second,
or less" of uplink bandwidth per camera.  :class:`ConstrainedUplink` models
such a link: every upload is throttled to the link capacity, transfers are
serialized, and utilization over the stream duration is tracked so
experiments can check whether a filtering strategy stays within budget.

:class:`SharedUplink` extends the model to a *cluster*: several edge nodes
share one datacenter link, and each node receives a static allocation (a
slice of the total capacity) as its own :class:`ConstrainedUplink`.  Static
slicing keeps every node's simulation independent and deterministic while
the shared object accounts for aggregate utilization and backlog.

:class:`WorkConservingUplink` replaces the static slices with weighted
generalized processor sharing (GPS): every backlogged node drains at
``capacity * weight / sum(weights of backlogged nodes)``, so capacity a node
is not using flows to the nodes that need it.  Bits a node moves *above* its
static guarantee (``capacity * weight / sum(all weights)``) are tracked as
:attr:`~WorkConservingUplink.reclaimed_bits` — the quantity that would have
sat idle under static slicing.  The model is a deterministic fluid
simulation over a globally time-ordered list of transfer requests from all
nodes, which is exactly the cross-node event ordering static slicing let the
cluster avoid.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

__all__ = [
    "UplinkTransfer",
    "ConstrainedUplink",
    "SharedUplink",
    "SharedTransferRequest",
    "SharedTransfer",
    "WorkConservingUplink",
]


@dataclass(frozen=True)
class UplinkTransfer:
    """One completed upload through the constrained link."""

    description: str
    bits: float
    start_time: float
    end_time: float

    @property
    def duration(self) -> float:
        """Transfer duration in seconds (throttled by the link capacity)."""
        return self.end_time - self.start_time


@dataclass
class ConstrainedUplink:
    """A serial uplink with a fixed capacity in bits per second.

    ``keep_transfers=False`` drops the per-transfer history while keeping
    every aggregate (total bits, busy-until, utilization, backlog) exact —
    for callers replaying millions of transfers (e.g. the event-delivery
    benchmark) where the history would dominate memory.
    """

    capacity_bps: float
    transfers: list[UplinkTransfer] = field(default_factory=list)
    keep_transfers: bool = True
    _busy_until: float = 0.0
    _total_bits: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_bps <= 0:
            raise ValueError("capacity_bps must be positive")

    def upload(self, bits: float, available_at: float = 0.0, description: str = "upload") -> UplinkTransfer:
        """Send ``bits`` as soon as the link is free at or after ``available_at``.

        Returns the completed transfer record; the link is then busy until
        the transfer's end time.
        """
        if bits < 0:
            raise ValueError("bits must be non-negative")
        start = max(float(available_at), self._busy_until)
        duration = bits / self.capacity_bps
        transfer = UplinkTransfer(
            description=description, bits=float(bits), start_time=start, end_time=start + duration
        )
        if self.keep_transfers:
            self.transfers.append(transfer)
        self._busy_until = transfer.end_time
        self._total_bits += transfer.bits
        return transfer

    @property
    def total_bits(self) -> float:
        """Total bits sent over the link."""
        return self._total_bits

    @property
    def busy_until(self) -> float:
        """Time at which the link becomes idle."""
        return self._busy_until

    def utilization(self, duration: float) -> float:
        """Fraction of the link capacity consumed over ``duration`` seconds.

        An empty window (``duration <= 0`` — e.g. a zero-length run being
        finalized) used nothing of the link, so it reports 0.0 rather than
        raising and crashing report finalization.
        """
        if duration <= 0:
            return 0.0
        return self.total_bits / (self.capacity_bps * duration)

    def backlog_seconds(self, now: float) -> float:
        """How far behind real time the link currently is."""
        return max(0.0, self._busy_until - float(now))

    def reset(self) -> None:
        """Forget all past transfers."""
        self.transfers.clear()
        self._busy_until = 0.0
        self._total_bits = 0.0


class SharedUplink:
    """One datacenter link statically sliced among several edge nodes.

    Each node calls :meth:`allocate` (or the constructor does, via
    ``weights``) and receives a private :class:`ConstrainedUplink` whose
    capacity is its share of the total.  Allocations may not oversubscribe
    the link.  Aggregate accounting (:attr:`total_bits`,
    :meth:`utilization`, :meth:`backlog_seconds`) sums over every slice.
    """

    def __init__(
        self,
        capacity_bps: float,
        weights: Mapping[str, float] | Sequence[str] | None = None,
    ) -> None:
        if capacity_bps <= 0:
            raise ValueError("capacity_bps must be positive")
        self.capacity_bps = float(capacity_bps)
        self._links: dict[str, ConstrainedUplink] = {}
        self._allocated_bps = 0.0
        if weights is not None:
            if not isinstance(weights, Mapping):
                weights = {name: 1.0 for name in weights}
            total = sum(weights.values())
            if total <= 0:
                raise ValueError("allocation weights must sum to a positive value")
            for name, weight in weights.items():
                self.allocate(name, self.capacity_bps * weight / total)

    def allocate(self, name: str, bps: float) -> ConstrainedUplink:
        """Carve ``bps`` of the link off for node ``name``."""
        if name in self._links:
            raise ValueError(f"Node {name!r} already holds an uplink allocation")
        if bps <= 0:
            raise ValueError("allocation must be positive")
        if self._allocated_bps + bps > self.capacity_bps * (1 + 1e-9):
            raise ValueError(
                f"Allocating {bps:g} bps for {name!r} oversubscribes the link "
                f"({self._allocated_bps:g} of {self.capacity_bps:g} bps already allocated)"
            )
        link = ConstrainedUplink(bps)
        self._links[name] = link
        self._allocated_bps += bps
        return link

    @property
    def links(self) -> dict[str, ConstrainedUplink]:
        """Per-node allocations by name (insertion order preserved)."""
        return dict(self._links)

    @property
    def allocated_bps(self) -> float:
        """Capacity handed out so far."""
        return self._allocated_bps

    @property
    def total_bits(self) -> float:
        """Bits sent across all allocations."""
        return sum(link.total_bits for link in self._links.values())

    def utilization(self, duration: float) -> float:
        """Fraction of the *whole* link consumed over ``duration`` seconds.

        0.0 for an empty window, matching :meth:`ConstrainedUplink.utilization`.
        """
        if duration <= 0:
            return 0.0
        return self.total_bits / (self.capacity_bps * duration)

    def backlog_seconds(self, now: float) -> float:
        """Worst per-node backlog: how far the most-behind slice lags ``now``."""
        if not self._links:
            return 0.0
        return max(link.backlog_seconds(now) for link in self._links.values())


@dataclass(frozen=True)
class SharedTransferRequest:
    """One node's request to move ``bits`` through the shared link."""

    node_id: str
    bits: float
    available_at: float
    description: str = "upload"

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise ValueError("bits must be non-negative")
        if self.available_at < 0:
            raise ValueError("available_at must be non-negative")


# drain()'s global request order; ``bits`` makes it total.
_REQUEST_ORDER = attrgetter("available_at", "node_id", "description", "bits")


@dataclass(frozen=True)
class SharedTransfer:
    """One completed transfer through the work-conserving shared link."""

    node_id: str
    description: str
    bits: float
    available_at: float
    start_time: float
    end_time: float

    @property
    def duration(self) -> float:
        """Wall time from first to last bit on the wire."""
        return self.end_time - self.start_time


class WorkConservingUplink:
    """One datacenter link shared by weighted generalized processor sharing.

    Every node holds a *weight*; at any instant the backlogged nodes split
    the link capacity in proportion to their weights, so a node whose
    neighbours are idle drains at up to the full link rate.  Each node's
    static guarantee is ``capacity * weight / sum(all weights)`` — what a
    :class:`SharedUplink` slice would have given it — and every bit moved
    above that rate counts toward :attr:`reclaimed_bits`.

    The simulation is *post-hoc*: callers collect every node's transfer
    requests (globally time-ordered across the cluster), optionally schedule
    weight updates via :meth:`schedule_weights` (the control plane's uplink
    actuator), and call :meth:`drain` once.  The fluid GPS replay is exact
    and deterministic: sorted inputs, no randomness, no wall-clock reads.
    """

    _EPS_BITS = 1e-9

    def __init__(self, capacity_bps: float, weights: Mapping[str, float]) -> None:
        if capacity_bps <= 0:
            raise ValueError("capacity_bps must be positive")
        if not weights:
            raise ValueError("WorkConservingUplink needs at least one node weight")
        for node_id, weight in weights.items():
            if weight <= 0:
                raise ValueError(f"weight for node {node_id!r} must be positive")
        self.capacity_bps = float(capacity_bps)
        self._weights = {node_id: float(w) for node_id, w in weights.items()}
        self._weight_changes: list[tuple[float, int, dict[str, float]]] = []
        self._change_sequence = 0
        self.transfers: list[SharedTransfer] = []
        self.reclaimed_bits = 0.0
        self._node_bits = {node_id: 0.0 for node_id in self._weights}
        self._node_reclaimed = {node_id: 0.0 for node_id in self._weights}
        self._node_busy_until = {node_id: 0.0 for node_id in self._weights}
        self._drained = False
        # Optional callback invoked with each SharedTransfer the moment the
        # fluid replay completes it (in completion order).  The sharded
        # runtime's frame tracer uses it to stamp upload spans onto sampled
        # frames without re-walking the transfer list.
        self.on_transfer = None

    # -- configuration -------------------------------------------------------
    @property
    def node_ids(self) -> list[str]:
        """Participating nodes (insertion order preserved)."""
        return list(self._weights)

    @property
    def weights(self) -> dict[str, float]:
        """Initial per-node weights."""
        return dict(self._weights)

    def guaranteed_bps(self, node_id: str) -> float:
        """A node's static-slice guarantee under the *initial* weights."""
        return self.capacity_bps * self._weights[node_id] / sum(self._weights.values())

    def schedule_weights(self, at_time: float, weights: Mapping[str, float]) -> None:
        """Install new GPS weights from ``at_time`` onward (applied in replay).

        The node set must not change; weights must be positive.  Multiple
        updates at the same instant apply in scheduling order (last wins).
        """
        if self._drained:
            raise RuntimeError("cannot schedule weights after drain()")
        if at_time < 0:
            raise ValueError("at_time must be non-negative")
        if set(weights) != set(self._weights):
            raise ValueError(
                f"weight update must cover exactly {sorted(self._weights)}, "
                f"got {sorted(weights)}"
            )
        for node_id, weight in weights.items():
            if weight <= 0:
                raise ValueError(f"weight for node {node_id!r} must be positive")
        self._weight_changes.append(
            (float(at_time), self._change_sequence, {n: float(w) for n, w in weights.items()})
        )
        self._change_sequence += 1

    # -- the fluid replay ----------------------------------------------------
    def drain(self, requests: Iterable[SharedTransferRequest]) -> list[SharedTransfer]:
        """Replay every request through the shared link; returns the transfers.

        Requests are served FIFO per node and GPS-shared across nodes.  May
        only be called once.

        Same-instant ties resolve in node-id order: transfers that finish
        together complete in that order, and the reclaim tally sums over the
        backlogged nodes in that order.  A pass that advances the clock to a
        completion finishes the exhausted transfers in the same pass unless a
        request arrives at that instant (its node could sort first).
        """
        if self._drained:
            raise RuntimeError("drain() may only be called once")
        self._drained = True
        reqs = sorted(requests, key=_REQUEST_ORDER)
        for req in reqs:
            if req.node_id not in self._weights:
                raise ValueError(f"Unknown node {req.node_id!r} in transfer request")
        changes = sorted(self._weight_changes, key=lambda c: (c[0], c[1]))
        capacity = self.capacity_bps
        eps = self._EPS_BITS
        order = sorted(self._weights)
        # The reclaim baseline is what *static slicing under the configured
        # allocation* would have guaranteed — the initial weights.  Scheduled
        # re-weighting changes the GPS rates, not the comparison point.
        initial_total = sum(self._weights.values())
        guaranteed = {n: capacity * self._weights[n] / initial_total for n in order}
        weights = self._weights
        queues: dict[str, deque[SharedTransferRequest]] = {n: deque() for n in order}
        # Bits left of each backlogged node's head transfer, and when it
        # started; a node is a key exactly while its queue is non-empty.
        remaining: dict[str, float] = {}
        started: dict[str, float] = {}
        node_bits = self._node_bits
        busy_until = self._node_busy_until
        node_reclaimed = self._node_reclaimed
        reclaimed = self.reclaimed_bits
        on_transfer = self.on_transfer
        results: list[SharedTransfer] = []

        def finish(node_id: str, now: float) -> None:
            """Complete ``node_id``'s head transfer at ``now``; start the next."""
            queue = queues[node_id]
            head = queue.popleft()
            transfer = SharedTransfer(
                node_id, head.description, head.bits, head.available_at, started[node_id], now
            )
            results.append(transfer)
            if on_transfer is not None:
                on_transfer(transfer)
            node_bits[node_id] += head.bits
            busy_until[node_id] = now
            if queue:
                remaining[node_id] = queue[0].bits
                started[node_id] = now
            else:
                del remaining[node_id]

        num_reqs = len(reqs)
        num_changes = len(changes)
        i = 0  # next request to enqueue
        ci = 0  # next weight change to apply
        t_arrival = reqs[0].available_at if reqs else math.inf
        t_change = changes[0][0] if changes else math.inf
        t = 0.0
        while True:
            if not remaining:
                if i == num_reqs:
                    break
                if t < t_arrival:
                    t = t_arrival  # idle link: jump to the next request
            while t_arrival <= t:
                req = reqs[i]
                queue = queues[req.node_id]
                queue.append(req)
                if len(queue) == 1:  # the node was idle: its transfer starts now
                    remaining[req.node_id] = req.bits
                    started[req.node_id] = t
                i += 1
                t_arrival = reqs[i].available_at if i < num_reqs else math.inf
            while t_change <= t:
                weights = changes[ci][2]
                ci += 1
                t_change = changes[ci][0] if ci < num_changes else math.inf
            # The backlogged nodes, in node order.
            if len(remaining) == 1:
                active = list(remaining)
            else:
                active = [n for n in order if n in remaining]
            # Complete every exhausted transfer, in node order; a completion
            # can start a zero-bit head, which the next pass completes.
            done = False
            for n in active:
                if remaining[n] <= eps:
                    finish(n, t)
                    done = True
            if done:
                continue
            active_weight = sum(map(weights.__getitem__, active))
            # The next event: min(t_arrival, t_change, each completion).
            t_next = t_change if t_change < t_arrival else t_arrival
            for n in active:
                t_complete = t + remaining[n] * active_weight / (capacity * weights[n])
                if t_complete < t_next:
                    t_next = t_complete
            if t_next <= t:
                # Floating-point liveness guard: the shortest residual
                # drains in less than one ulp of the clock (t + dt == t),
                # so time cannot advance.  Finish every residual whose
                # completion rounds to "now" and re-run the sweep.
                for n in active:
                    if t + remaining[n] * active_weight / (capacity * weights[n]) <= t:
                        remaining[n] = 0.0
                continue
            dt = t_next - t  # > 0, so every rate above its share reclaims
            for n in active:
                rate = capacity * weights[n] / active_weight
                drained = min(remaining[n], rate * dt)
                remaining[n] -= drained
                share = guaranteed[n]
                if rate > share:
                    excess = min(drained, (rate - share) * dt)
                    node_reclaimed[n] += excess
                    reclaimed += excess
            t = t_next
            if t_arrival > t:
                # Nothing arrives at this instant, so the next pass would
                # start by completing these: do it now.
                for n in active:
                    if remaining[n] <= eps:
                        finish(n, t)
        self.reclaimed_bits = reclaimed
        self.transfers = results
        return results

    # -- accounting ----------------------------------------------------------
    @property
    def total_bits(self) -> float:
        """Bits moved across all nodes."""
        return sum(self._node_bits.values())

    def node_bits(self, node_id: str) -> float:
        """Bits node ``node_id`` moved through the link."""
        return self._node_bits[node_id]

    def node_reclaimed_bits(self, node_id: str) -> float:
        """Bits ``node_id`` moved above its static guarantee."""
        return self._node_reclaimed[node_id]

    def node_transfers(self, node_id: str) -> list[SharedTransfer]:
        """Completed transfers of one node, in completion order."""
        return [tr for tr in self.transfers if tr.node_id == node_id]

    def utilization(self, duration: float) -> float:
        """Fraction of the whole link consumed over ``duration`` seconds.

        0.0 for an empty window, matching :meth:`ConstrainedUplink.utilization`.
        """
        if duration <= 0:
            return 0.0
        return self.total_bits / (self.capacity_bps * duration)

    def backlog_seconds(self, now: float) -> float:
        """How far the most-behind node's last bit lags ``now``."""
        if not self._node_busy_until:
            return 0.0
        return max(0.0, max(self._node_busy_until.values()) - float(now))

    def node_backlog_seconds(self, node_id: str, now: float) -> float:
        """How far one node's last bit lags ``now``."""
        return max(0.0, self._node_busy_until[node_id] - float(now))
