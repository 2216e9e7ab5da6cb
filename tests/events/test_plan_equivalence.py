"""Property tests: publish plans built once equal their per-attempt definitions.

``NodeOutbox.offer`` reads send times from precomputed prefix offsets and
``SimulatedBroker.plan`` continues one CRC32 of the key per attempt; both
must agree bit for bit with the definitions they replace —
``OutboxConfig.send_time`` and one ``outcome()`` call per attempt.
"""

from __future__ import annotations

import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import BrokerConfig, OutboxConfig
from repro.events.broker import AttemptOutcome, SimulatedBroker
from repro.events.outbox import NodeOutbox


@st.composite
def outbox_configs(draw):
    base = draw(st.floats(min_value=1e-4, max_value=3.0, allow_nan=False))
    cap = base * draw(st.floats(min_value=1.0, max_value=100.0, allow_nan=False))
    return OutboxConfig(
        max_queue=10_000,
        max_retries=draw(st.integers(min_value=0, max_value=12)),
        backoff_base_seconds=base,
        backoff_cap_seconds=cap,
    )


close_times = st.floats(min_value=-1.0, max_value=1e5, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(outbox_configs(), st.lists(close_times, min_size=1, max_size=20), st.data())
def test_outbox_send_times_equal_the_defined_schedule(config, closes, data):
    outbox = NodeOutbox("node0", config)
    for closed_at in sorted(closes):
        attempts = data.draw(st.integers(min_value=1, max_value=config.max_attempts))
        entry = outbox.offer("k", closed_at, 2048.0, attempts)
        assert entry is not None
        expected = [config.send_time(closed_at, a) for a in range(attempts)]
        assert [t.hex() for t in entry.send_times] == [t.hex() for t in expected]


keys = st.one_of(
    st.from_regex(r"cam[0-9]{3}/e[0-9]/[0-9]{1,5}", fullmatch=True),
    st.text(min_size=0, max_size=12),
)


@settings(max_examples=150, deadline=None)
@given(
    keys,
    st.floats(min_value=0.0, max_value=0.6, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.35, allow_nan=False),
    st.integers(min_value=1, max_value=12),
)
def test_plan_is_the_outcome_prefix_for_seeds_0_to_30(key, loss, ack_loss, max_attempts):
    for seed in range(31):
        broker = SimulatedBroker(BrokerConfig(loss_rate=loss, ack_loss_rate=ack_loss, seed=seed))
        expected = []
        for attempt in range(max_attempts):
            expected.append(broker.outcome(key, attempt))
            if expected[-1] is AttemptOutcome.DELIVERED:
                break
        assert broker.plan(key, max_attempts) == expected


def test_crc32_of_a_token_continues_the_crc32_of_its_key():
    for key in ("", "cam001/e0/17", "évènement/ü"):
        for suffix in ("#0#29", "#7#0", "#12#12345"):
            whole = zlib.crc32(f"{key}{suffix}".encode())
            assert zlib.crc32(suffix.encode(), zlib.crc32(key.encode())) == whole
