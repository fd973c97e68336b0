from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from edgegate import codec
from edgegate.codec import CloudRecord
from edgegate.core import DeviceId, Timestamp
from edgegate.sim import SimClock
from edgegate.sync import (
    Ack,
    InvalidAttemptError,
    Nack,
    OutboxConfig,
    OutboxQueue,
    OverflowPolicy,
    QueueFullError,
    RetryPolicy,
    SendTimeout,
    SyncClient,
    SyncError,
    backoff_delay,
)

from helpers import drain


def record(seq: int, device: str = "AC_001") -> CloudRecord:
    return CloudRecord(DeviceId(device), Timestamp(1_705_300_000), "status", {}, seq)


class TestBackoff:
    def test_first_attempt(self):
        assert backoff_delay(1, RetryPolicy()) == 1.0

    def test_doubles_until_cap(self):
        assert backoff_delay(6, RetryPolicy()) == 32.0
        assert backoff_delay(7, RetryPolicy()) == 60.0

    def test_first_ten_attempts(self):
        policy = RetryPolicy(t_base_s=1.0, t_max_s=60.0)
        assert [backoff_delay(n, policy) for n in range(1, 11)] == [
            1, 2, 4, 8, 16, 32, 60, 60, 60, 60,
        ]

    def test_huge_attempt_numbers_saturate(self):
        assert backoff_delay(5000, RetryPolicy()) == 60.0

    def test_attempt_below_one_rejected(self):
        with pytest.raises(InvalidAttemptError):
            backoff_delay(0, RetryPolicy())

    def test_cap_below_base_rejected(self):
        # The other bounds are field metadata, checked by the scenario reader.
        with pytest.raises(SyncError):
            RetryPolicy(t_base_s=2.0, t_max_s=1.0)


class TestOutboxQueue:
    def test_enqueue_and_depth(self):
        q = OutboxQueue()
        q.enqueue(record(0), 0.0)
        assert q.depth() == 1

    def test_fifo_order(self):
        q = OutboxQueue()
        for i in range(5):
            q.enqueue(record(i), 0.0)
        assert [q.pop_head().record.seq for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_reject_new_at_capacity(self):
        q = OutboxQueue(OutboxConfig(capacity=2, overflow=OverflowPolicy.REJECT_NEW))
        q.enqueue(record(0), 0.0)
        q.enqueue(record(1), 0.0)
        with pytest.raises(QueueFullError):
            q.enqueue(record(2), 0.0)
        assert q.depth() == 2 and q.dropped == 1

    def test_drop_oldest_at_capacity(self):
        q = OutboxQueue(OutboxConfig(capacity=2, overflow=OverflowPolicy.DROP_OLDEST))
        q.enqueue(record(0), 0.0)
        q.enqueue(record(1), 0.0)
        evicted = q.enqueue(record(2), 0.0)
        assert evicted is not None and evicted.record.seq == 0
        assert [e.record.seq for e in (q.pop_head(), q.pop_head())] == [1, 2]

    def test_drop_oldest_spares_protected_entry(self):
        q = OutboxQueue(OutboxConfig(capacity=2, overflow=OverflowPolicy.DROP_OLDEST))
        q.enqueue(record(0), 0.0)
        q.enqueue(record(1), 0.0)
        head = q.head()
        evicted = q.enqueue(record(2), 0.0, protected=head)
        assert evicted.record.seq == 1
        assert q.head() is head


class ScriptedTransport:
    """Outcomes are served from a script; by default everything acks with
    consecutive row indices at zero latency."""

    def __init__(self, clock, script=None, latency_s: float = 0.0):
        self.clock = clock
        self.script = list(script or [])
        self.latency_s = latency_s
        self.rows = 0
        self.sent_payloads: list[bytes] = []

    def send(self, payload, on_result):
        self.sent_payloads.append(payload)
        if self.script:
            outcome = self.script.pop(0)
        else:
            outcome = Ack(self.rows)
        if isinstance(outcome, Ack):
            self.rows += 1
        if self.latency_s > 0:
            self.clock.schedule(self.latency_s, lambda: on_result(outcome))
        else:
            on_result(outcome)


def delivered(events):
    return [(d["key"], d["row_index"]) for k, d in events if k == "delivered"]


def make_client(script=None, latency_s: float = 0.0, **policy_kwargs):
    clock = SimClock(Timestamp(1_705_300_000))
    transport = ScriptedTransport(clock, script, latency_s)
    events = []
    client = SyncClient(
        clock=clock,
        transport=transport,
        policy=RetryPolicy(**policy_kwargs),
        on_event=lambda kind, data: events.append((kind, data)),
    )
    return client, clock, transport, events


class TestSyncClient:
    def test_drains_in_enqueue_order(self):
        client, clock, transport, events = make_client()
        for i in range(3):
            client.enqueue(record(i))
        drain(client, clock)
        assert delivered(events) == [("AC_001:0", 0), ("AC_001:1", 1), ("AC_001:2", 2)]
        assert client.queue_depth() == 0

    def test_retry_delays_follow_backoff(self):
        client, clock, transport, events = make_client(script=[Nack(), Nack(), Ack(0)])
        client.enqueue(record(0))
        drain(client, clock)
        # two immediate failures, then success after sleeping 1s and 2s
        assert clock.now() == pytest.approx(3.0)
        assert len(delivered(events)) == 1
        attempts = [d["attempt"] for k, d in events if k == "send_attempt"]
        assert attempts == [1, 2, 3]

    def test_head_of_line_blocking(self):
        client, clock, transport, events = make_client(
            script=[Nack(), Ack(0), Ack(1)]
        )
        client.enqueue(record(0))
        client.enqueue(record(1))
        drain(client, clock)
        # the second record was never sent before the first was acknowledged
        sent_seqs = [d["key"] for k, d in events if k == "send_attempt"]
        assert sent_seqs == ["AC_001:0", "AC_001:0", "AC_001:1"]

    def test_retries_resend_the_bytes_encoded_at_enqueue(self, monkeypatch):
        encoded = []
        real_encode = codec.encode
        monkeypatch.setattr(codec, "encode", lambda r: encoded.append(r) or real_encode(r))
        client, clock, transport, events = make_client(script=[Nack(), SendTimeout(), Ack(0)])
        client.enqueue(record(0))
        drain(client, clock)
        assert encoded == [record(0)]
        assert transport.sent_payloads == [codec.encode(record(0))] * 3

    def test_timeout_counts_as_failure(self):
        client, clock, transport, events = make_client(script=[SendTimeout(), Ack(0)])
        client.enqueue(record(0))
        drain(client, clock)
        reasons = [d["reason"] for k, d in events if k == "send_failed"]
        assert reasons == ["timeout"]
        assert len(delivered(events)) == 1

    def test_dead_letter_after_budget(self):
        client, clock, transport, events = make_client(
            script=[Nack(), Nack(), Nack()], max_attempts=3
        )
        client.enqueue(record(0))
        drain(client, clock)
        assert delivered(events) == []
        assert len(client.dead_letters) == 1
        assert client.queue_depth() == 0  # parked, not queued, never silent

    def test_attempt_counter_is_per_record(self):
        client, clock, transport, events = make_client(script=[Nack(), Ack(0), Ack(1)])
        client.enqueue(record(0))
        client.enqueue(record(1))
        drain(client, clock)
        by_key: dict[str, list[int]] = {}
        for kind, data in events:
            if kind == "send_attempt":
                by_key.setdefault(data["key"], []).append(data["attempt"])
        assert by_key == {"AC_001:0": [1, 2], "AC_001:1": [1]}

    def test_duplicate_ack_is_ignored(self):
        clock = SimClock(Timestamp(1_705_300_000))

        class DoubleAckTransport:
            def send(self, payload, on_result):
                on_result(Ack(0))
                on_result(Ack(0))  # retransmission race echo

        events = []
        client = SyncClient(
            clock=clock,
            transport=DoubleAckTransport(),
            on_event=lambda kind, data: events.append((kind, data)),
        )
        client.enqueue(record(0))
        client.enqueue(record(1))
        drain(client, clock)
        assert delivered(events) == [("AC_001:0", 0), ("AC_001:1", 0)]

    def test_outcome_of_an_earlier_attempt_is_ignored(self):
        clock = SimClock(Timestamp(1_705_300_000))

        class HeldTransport:
            def __init__(self):
                self.callbacks = []

            def send(self, payload, on_result):
                self.callbacks.append(on_result)

        transport = HeldTransport()
        events = []
        client = SyncClient(
            clock=clock,
            transport=transport,
            on_event=lambda kind, data: events.append((kind, data)),
        )
        client.enqueue(record(0))
        first = transport.callbacks[0]
        first(SendTimeout())
        clock.run_until(clock.now() + 1.0)  # the backoff; attempt 2 goes out
        assert len(transport.callbacks) == 2
        first(Ack(7))  # attempt 1's late ack, during attempt 2
        first(Nack("late"))
        assert delivered(events) == [] and client.queue_depth() == 1
        assert [d["attempt"] for k, d in events if k == "send_failed"] == [1]
        transport.callbacks[1](Ack(3))
        assert delivered(events) == [("AC_001:0", 3)]
        assert client.queue_depth() == 0

    def test_overflow_rejection_reports_loss(self):
        clock = SimClock(Timestamp(1_705_300_000))

        class NeverTransport:
            def send(self, payload, on_result):
                pass  # no outcome ever arrives

        events = []
        queue = OutboxQueue(OutboxConfig(capacity=2))
        client = SyncClient(
            clock=clock,
            transport=NeverTransport(),
            queue=queue,
            on_event=lambda kind, data: events.append((kind, data)),
        )
        assert client.enqueue(record(0))
        assert client.enqueue(record(1))
        assert not client.enqueue(record(2))
        drops = [d for k, d in events if k == "outbox_dropped"]
        assert drops == [{"key": "AC_001:2", "mode": "rejected"}]
        assert queue.dropped == 1

    def test_depth_tracks_acks(self):
        client, clock, transport, events = make_client(latency_s=0.5)
        for i in range(5):
            client.enqueue(record(i))
        assert client.queue_depth() == 5
        clock.run_until(clock.now() + 1.1)  # two round trips at 0.5s each
        assert client.queue_depth() == 3
        drain(client, clock)
        assert client.queue_depth() == 0


class TestEventLedger:
    """What becomes of each record, read from the client's events alone."""

    @settings(max_examples=200, deadline=None)
    @given(
        script=st.lists(
            st.sampled_from([Ack(0), Nack("refused"), Nack("refused"), SendTimeout()]),
            max_size=40,
        ),
        steps=st.lists(st.sampled_from([None, None, 0.3, 2.0, 10.0]), min_size=4, max_size=40),
        max_attempts=st.one_of(st.none(), st.integers(1, 4)),
        capacity=st.integers(1, 5),
        overflow=st.sampled_from(list(OverflowPolicy)),
        latency_s=st.sampled_from([0.0, 0.5]),
        drain_last=st.booleans(),
    )
    def test_every_offered_record_ends_once(
        self, script, steps, max_attempts, capacity, overflow, latency_s, drain_last
    ):
        # A step of None offers the next record; a number advances the clock.
        clock = SimClock(Timestamp(1_705_300_000))
        events = []
        client = SyncClient(
            clock=clock,
            transport=ScriptedTransport(clock, script, latency_s),
            policy=RetryPolicy(max_attempts=max_attempts),
            queue=OutboxQueue(OutboxConfig(capacity, overflow)),
            on_event=lambda kind, data: events.append((kind, data)),
        )
        offered = []
        for step in steps:
            if step is None:
                offered.append(record(len(offered)))
                client.enqueue(offered[-1])
            else:
                clock.run_until(clock.now() + step)
        if drain_last:
            drain(client, clock)

        enqueued = [d["key"] for k, d in events if k == "outbox_enqueued"]
        ends: dict[str, list[str]] = {}
        for kind, data in events:
            if kind in ("delivered", "dead_letter", "outbox_dropped"):
                end = "rejected" if data.get("mode") == "rejected" else kind
                ends.setdefault(data["key"], []).append(end)
        still_queued = [key for key in enqueued if key not in ends]
        for rec in offered:
            key = codec.idempotency_key(rec)
            assert len(ends.get(key, [])) + still_queued.count(key) == 1, key
            assert (key in enqueued) == (ends.get(key) != ["rejected"]), key
        assert len(enqueued) == len(set(enqueued))
        assert len(still_queued) == client.queue_depth()
        if drain_last:
            assert still_queued == []

        delivered_keys = [d["key"] for k, d in events if k == "delivered"]
        assert delivered_keys == [key for key in enqueued if key in set(delivered_keys)]
