"""Property test: ``WorkConservingUplink.drain`` against a reference replay.

``reference_drain`` is the straightforward fluid GPS replay the optimized
drain replaced (one loop iteration per arrival, drain step and completion,
every node order re-sorted each iteration).  The optimized drain must agree
with it bit for bit: the same transfers in the same order, the same reclaim
tally and the same per-node accounting.
"""

from __future__ import annotations

import math
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge.uplink import SharedTransfer, SharedTransferRequest, WorkConservingUplink

EPS_BITS = 1e-9


def reference_drain(capacity_bps, initial_weights, weight_changes, requests):
    """The reference fluid replay; returns ``(transfers, accounting)``."""
    reqs = sorted(requests, key=lambda r: (r.available_at, r.node_id, r.description, r.bits))
    changes = sorted(weight_changes, key=lambda c: (c[0], c[1]))
    queues = {node_id: deque() for node_id in initial_weights}
    remaining: dict[str, float] = {}
    started: dict[str, float] = {}
    weights = dict(initial_weights)
    initial_total = sum(initial_weights.values())
    capacity = capacity_bps
    node_bits = {n: 0.0 for n in initial_weights}
    node_reclaimed = {n: 0.0 for n in initial_weights}
    busy_until = {n: 0.0 for n in initial_weights}
    reclaimed_bits = 0.0
    results = []
    i = 0
    ci = 0
    t = 0.0
    while True:
        while i < len(reqs) and reqs[i].available_at <= t:
            queues[reqs[i].node_id].append(reqs[i])
            i += 1
        while ci < len(changes) and changes[ci][0] <= t:
            weights = dict(changes[ci][2])
            ci += 1
        for node_id in sorted(queues):
            if queues[node_id] and node_id not in remaining:
                head = queues[node_id][0]
                remaining[node_id] = head.bits
                started[node_id] = max(t, head.available_at)
        completed = False
        for node_id in sorted(remaining):
            if remaining[node_id] <= EPS_BITS:
                head = queues[node_id].popleft()
                results.append(
                    SharedTransfer(
                        node_id=node_id,
                        description=head.description,
                        bits=head.bits,
                        available_at=head.available_at,
                        start_time=started[node_id],
                        end_time=t,
                    )
                )
                node_bits[node_id] += head.bits
                busy_until[node_id] = t
                del remaining[node_id]
                del started[node_id]
                completed = True
        if completed:
            continue
        active = sorted(remaining)
        if not active:
            if i < len(reqs):
                t = max(t, reqs[i].available_at)
                continue
            break
        active_weight = sum(weights[n] for n in active)
        t_arrival = reqs[i].available_at if i < len(reqs) else math.inf
        t_change = changes[ci][0] if ci < len(changes) else math.inf
        t_complete = min(
            t + remaining[n] * active_weight / (capacity * weights[n]) for n in active
        )
        t_next = min(t_arrival, t_change, t_complete)
        if t_next <= t:
            for n in active:
                if t + remaining[n] * active_weight / (capacity * weights[n]) <= t:
                    remaining[n] = 0.0
            continue
        dt = t_next - t
        for n in active:
            rate = capacity * weights[n] / active_weight
            drained = min(remaining[n], rate * dt)
            remaining[n] -= drained
            guaranteed = capacity * initial_weights[n] / initial_total
            if rate > guaranteed and dt > 0:
                excess = min(drained, (rate - guaranteed) * dt)
                node_reclaimed[n] += excess
                reclaimed_bits += excess
        t = t_next
    accounting = {
        "reclaimed_bits": reclaimed_bits,
        "node_bits": node_bits,
        "node_reclaimed": node_reclaimed,
        "busy_until": busy_until,
    }
    return results, accounting


def optimized_accounting(uplink, node_ids):
    return {
        "reclaimed_bits": uplink.reclaimed_bits,
        "node_bits": {n: uplink.node_bits(n) for n in node_ids},
        "node_reclaimed": {n: uplink.node_reclaimed_bits(n) for n in node_ids},
        "busy_until": {n: uplink._node_busy_until[n] for n in node_ids},
    }


def bitwise(value):
    """Floats compared by representation (``0.0`` and ``-0.0`` differ)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: bitwise(v) for k, v in value.items()}
    if isinstance(value, SharedTransfer):
        return tuple(bitwise(getattr(value, f)) for f in SharedTransfer.__dataclass_fields__)
    if isinstance(value, (list, tuple)):
        return [bitwise(v) for v in value]
    return value


# Few distinct times and sizes so that equal-time ties, simultaneous
# completions and zero-bit transfers are common, plus arbitrary floats for
# the rounding paths.
times = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.25, 2.0, 7.5]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
)
sizes = st.one_of(
    st.sampled_from([0.0, 0.0, 1e-10, 1.0, 2048.0, 40_000.0, 1e6]),
    st.floats(min_value=0.0, max_value=2e6, allow_nan=False, allow_infinity=False),
)
weights_strategy = st.one_of(
    st.sampled_from([1.0, 2.0, 3.0, 0.5]),
    st.floats(min_value=0.05, max_value=20.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def scenarios(draw):
    num_nodes = draw(st.integers(min_value=1, max_value=6))
    node_ids = draw(st.permutations([f"n{k}" for k in range(num_nodes)]))
    initial = {n: draw(weights_strategy) for n in node_ids}
    capacity = draw(st.sampled_from([1.0, 1000.0, 8e6, 3e5]))
    requests = []
    for j in range(draw(st.integers(min_value=0, max_value=40))):
        node = draw(st.sampled_from(node_ids))
        available = draw(times)
        if draw(st.booleans()) and requests:
            # Late availability: well after everything queued so far.
            available = max(r.available_at for r in requests) + draw(times) * 10.0
        requests.append(
            SharedTransferRequest(
                node_id=node,
                bits=draw(sizes),
                available_at=available,
                description=draw(st.sampled_from(["a", "b", f"x{j}"])),
            )
        )
    changes = [
        (draw(times), {n: draw(weights_strategy) for n in node_ids})
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    return capacity, initial, changes, requests


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_drain_matches_reference_bit_for_bit(scenario):
    capacity, initial, changes, requests = scenario
    uplink = WorkConservingUplink(capacity, initial)
    for at_time, weights in changes:
        uplink.schedule_weights(at_time, weights)
    seen = []
    uplink.on_transfer = seen.append
    transfers = uplink.drain(list(requests))

    expected, accounting = reference_drain(
        capacity,
        initial,
        [(at, seq, w) for seq, (at, w) in enumerate(changes)],
        requests,
    )
    assert bitwise(transfers) == bitwise(expected)
    assert bitwise(uplink.transfers) == bitwise(expected)
    assert seen == transfers
    assert bitwise(optimized_accounting(uplink, list(initial))) == bitwise(accounting)


def test_uncontended_and_shared_transfers():
    """A fixed scenario with lone transfers, GPS sharing and zero-bit heads."""
    requests = [
        SharedTransferRequest("b", 1000.0, 0.0, "b0"),
        SharedTransferRequest("a", 0.0, 0.0, "a-zero"),
        SharedTransferRequest("a", 500.0, 0.0, "a0"),
        SharedTransferRequest("a", 500.0, 0.25, "a1"),
        SharedTransferRequest("b", 0.0, 3.0, "b-late-zero"),
        SharedTransferRequest("c", 250.0, 3.0, "c0"),
    ]
    uplink = WorkConservingUplink(1000.0, {"a": 1.0, "b": 3.0, "c": 1.0})
    uplink.schedule_weights(0.5, {"a": 2.0, "b": 1.0, "c": 1.0})
    transfers = uplink.drain(requests)
    expected, accounting = reference_drain(
        1000.0,
        {"a": 1.0, "b": 3.0, "c": 1.0},
        [(0.5, 0, {"a": 2.0, "b": 1.0, "c": 1.0})],
        requests,
    )
    assert bitwise(transfers) == bitwise(expected)
    assert bitwise(optimized_accounting(uplink, ["a", "b", "c"])) == bitwise(accounting)
    assert [t.description for t in transfers[:2]] == ["a-zero", "a0"]
    assert uplink.reclaimed_bits > 0


def test_completion_tied_with_an_arrival_keeps_node_order():
    """A zero-bit arrival at the instant a lone transfer finishes sorts first.

    ``b``'s 500 bits finish at exactly t=0.5, when ``a`` (ahead of ``b`` in
    node order) receives a zero-bit request: both complete at 0.5, ``a``
    first, so the drain must not finish ``b`` before taking arrivals.
    """
    requests = [
        SharedTransferRequest("b", 500.0, 0.0, "b0"),
        SharedTransferRequest("a", 0.0, 0.5, "a-zero"),
        SharedTransferRequest("a", 100.0, 0.5, "a1"),
    ]
    uplink = WorkConservingUplink(1000.0, {"a": 1.0, "b": 1.0})
    transfers = uplink.drain(requests)
    expected, _ = reference_drain(1000.0, {"a": 1.0, "b": 1.0}, [], requests)
    assert bitwise(transfers) == bitwise(expected)
    assert [(t.description, t.end_time) for t in transfers[:2]] == [("a-zero", 0.5), ("b0", 0.5)]
