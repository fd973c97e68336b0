from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

from edgegate import codec
from edgegate.codec import CloudRecord
from edgegate.core import DeviceId, Timestamp, discard
from edgegate.sim import SimClock
from edgegate.sync import (
    InvalidAttemptError,
    Nack,
    OutboxConfig,
    OutboxQueue,
    OverflowPolicy,
    QueueFullError,
    RetryPolicy,
    SchedulerPort,
    SendOutcome,
    SyncClient,
    SyncError,
    TransportPort,
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
        q.enqueue(record(0))
        assert q.depth() == 1

    def test_fifo_order(self):
        q = OutboxQueue()
        for i in range(5):
            q.enqueue(record(i))
        assert [q.pop_head().record.seq for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_reject_new_at_capacity(self):
        q = OutboxQueue(OutboxConfig(capacity=2, overflow=OverflowPolicy.REJECT_NEW))
        q.enqueue(record(0))
        q.enqueue(record(1))
        with pytest.raises(QueueFullError):
            q.enqueue(record(2))
        assert q.depth() == 2

    def test_drop_oldest_evicts_behind_the_head(self):
        # The head is the record in flight: the oldest record behind it goes,
        # and a queue holding the head alone has nothing it may evict.
        q = OutboxQueue(OutboxConfig(capacity=3, overflow=OverflowPolicy.DROP_OLDEST))
        for i in range(3):
            q.enqueue(record(i))
        head = q.head()
        evicted = q.enqueue(record(3))
        assert evicted is not None and evicted.record.seq == 1
        assert q.head() is head
        assert [q.pop_head().record.seq for _ in range(3)] == [0, 2, 3]
        q = OutboxQueue(OutboxConfig(capacity=1, overflow=OverflowPolicy.DROP_OLDEST))
        q.enqueue(record(0))
        with pytest.raises(QueueFullError):
            q.enqueue(record(1))
        assert q.depth() == 1 and q.head().record.seq == 0


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
            outcome = self.rows
        if not isinstance(outcome, Nack):
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
        client, clock, transport, events = make_client(script=[Nack(), Nack(), 0])
        client.enqueue(record(0))
        drain(client, clock)
        # two immediate failures, then success after sleeping 1s and 2s
        assert clock.now() == pytest.approx(3.0)
        assert len(delivered(events)) == 1
        attempts = [d["attempt"] for k, d in events if k == "send_attempt"]
        assert attempts == [1, 2, 3]

    def test_head_of_line_blocking(self):
        client, clock, transport, events = make_client(
            script=[Nack(), 0, 1]
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
        client, clock, transport, events = make_client(script=[Nack(), Nack("timeout"), 0])
        client.enqueue(record(0))
        drain(client, clock)
        assert encoded == [record(0)]
        assert transport.sent_payloads == [codec.encode(record(0))] * 3

    def test_timeout_counts_as_failure(self):
        client, clock, transport, events = make_client(script=[Nack("timeout"), 0])
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
        client, clock, transport, events = make_client(script=[Nack(), 0, 1])
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
                on_result(0)
                on_result(0)  # retransmission race echo

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
        first(Nack("timeout"))
        clock.run_until(clock.now() + 1.0)  # the backoff; attempt 2 goes out
        assert len(transport.callbacks) == 2
        first(7)  # attempt 1's late ack, during attempt 2
        first(Nack("late"))
        assert delivered(events) == [] and client.queue_depth() == 1
        assert [d["attempt"] for k, d in events if k == "send_failed"] == [1]
        transport.callbacks[1](3)
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

    def test_depth_tracks_acks(self):
        client, clock, transport, events = make_client(latency_s=0.5)
        for i in range(5):
            client.enqueue(record(i))
        assert client.queue_depth() == 5
        clock.run_until(clock.now() + 1.1)  # two round trips at 0.5s each
        assert client.queue_depth() == 3
        drain(client, clock)
        assert client.queue_depth() == 0


# An uplink run: a transport script, and steps that each offer the next
# record (None) or advance the clock by so many seconds.
UPLINK_RUNS = dict(
    script=st.lists(
        st.sampled_from([0, Nack("refused"), Nack("refused"), Nack("timeout")]),
        max_size=40,
    ),
    steps=st.lists(st.sampled_from([None, None, 0.3, 2.0, 10.0]), min_size=4, max_size=40),
    max_attempts=st.one_of(st.none(), st.integers(1, 4)),
    capacity=st.integers(1, 5),
    overflow=st.sampled_from(list(OverflowPolicy)),
    latency_s=st.sampled_from([0.0, 0.5]),
    drain_last=st.booleans(),
)


def run_uplink(client_type, queue_type, script, steps, max_attempts, capacity, overflow,
               latency_s, drain_last):
    """Drive a fresh client of ``client_type`` through one uplink run on its
    own clock; returns the client, its events and the records offered."""
    clock = SimClock(Timestamp(1_705_300_000))
    events = []
    client = client_type(
        clock=clock,
        transport=ScriptedTransport(clock, script, latency_s),
        policy=RetryPolicy(max_attempts=max_attempts),
        queue=queue_type(OutboxConfig(capacity, overflow)),
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
    return client, events, offered


class TestEventLedger:
    """What becomes of each record, read from the client's events alone."""

    @settings(max_examples=200, deadline=None)
    @given(**UPLINK_RUNS)
    def test_every_offered_record_ends_once(
        self, script, steps, max_attempts, capacity, overflow, latency_s, drain_last
    ):
        client, events, offered = run_uplink(
            SyncClient, OutboxQueue, script, steps, max_attempts, capacity, overflow,
            latency_s, drain_last,
        )

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


# -- the uplink before the outbox head was the record in flight, as the reference
#
# The entry, queue and client as they were, word for word under Reference
# names: the client tracked its in-flight entry itself, the queue spared that
# entry by a scan, and the key was rebuilt on every send and outcome.


@dataclass
class ReferenceOutboxEntry:
    """A queued record with its wire bytes, encoded once when it is queued
    and resent unchanged on every retry."""

    record: CloudRecord
    enqueue_time: float
    attempts: int = 0
    payload: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.payload = codec.encode(self.record)


class ReferenceOutboxQueue:
    """Bounded FIFO of unsent records. Capacity is sized for a full day or
    more of peak event rate; overflow behavior is explicit and counted."""

    def __init__(self, config: OutboxConfig = OutboxConfig()) -> None:
        self.capacity = config.capacity
        self.overflow = config.overflow
        self._entries: deque[ReferenceOutboxEntry] = deque()
        self.dropped = 0

    def depth(self) -> int:
        return len(self._entries)

    def enqueue(
        self, record: CloudRecord, now: float, protected: ReferenceOutboxEntry | None = None
    ) -> ReferenceOutboxEntry | None:
        """Append; at capacity either reject this record or drop the oldest,
        counting the lost event either way.

        ``protected`` (the entry currently mid-send) is never evicted; when
        it is the only candidate the new record is rejected instead. Returns
        the evicted entry under drop-oldest, else None.
        """
        evicted: ReferenceOutboxEntry | None = None
        if len(self._entries) >= self.capacity:
            if self.overflow == OverflowPolicy.REJECT_NEW:
                self.dropped += 1
                raise QueueFullError(f"outbox full at capacity {self.capacity}")
            victim_index = None
            for i, entry in enumerate(self._entries):
                if entry is not protected:
                    victim_index = i
                    break
            if victim_index is None:
                self.dropped += 1
                raise QueueFullError("outbox full and head is mid-send")
            evicted = self._entries[victim_index]
            del self._entries[victim_index]
            self.dropped += 1
        self._entries.append(ReferenceOutboxEntry(record=record, enqueue_time=now))
        return evicted

    def head(self) -> ReferenceOutboxEntry | None:
        return self._entries[0] if self._entries else None

    def pop_head(self) -> ReferenceOutboxEntry:
        return self._entries.popleft()


class ReferenceSyncClient:
    """Single-device uplink: drains the outbox strictly in order as the
    clock runs.

    State machine per record: send -> (ack: pop, emit ``delivered``) |
    (failure: sleep backoff, resend). Only the outcome of the most recent
    send counts: one is stale unless ``entry is self._in_flight and attempt
    == entry.attempts``. The record in flight stays at the head of the
    queue until it is acknowledged or dead-lettered, so an empty queue
    means nothing is in flight. The sink's idempotency-key dedup keeps the
    table single-copy. What happens to each record is told through
    ``on_event`` only; the client keeps no log of its own beyond the parked
    ``dead_letters``.
    """

    def __init__(
        self,
        clock: SchedulerPort,
        transport: TransportPort,
        policy: RetryPolicy | None = None,
        queue: ReferenceOutboxQueue | None = None,
        on_event: Callable[[str, dict], None] = discard,
    ) -> None:
        self._clock = clock
        self._transport = transport
        self._policy = policy or RetryPolicy()
        self._queue = queue if queue is not None else ReferenceOutboxQueue()
        self._emit = on_event
        self._in_flight: ReferenceOutboxEntry | None = None  # sending or waiting out a backoff
        self.dead_letters: list[CloudRecord] = []  # parked for an operator to re-send

    def queue_depth(self) -> int:
        return self._queue.depth()

    def enqueue(self, record: CloudRecord) -> bool:
        """Queue a record for delivery. Returns False if the overflow policy
        rejected it (the loss is counted, never silent)."""
        now = self._clock.now()
        try:
            evicted = self._queue.enqueue(record, now, protected=self._in_flight)
        except QueueFullError:
            self._emit(
                "outbox_dropped",
                {"key": codec.idempotency_key(record), "mode": "rejected"},
            )
            return False
        if evicted is not None:
            self._emit(
                "outbox_dropped",
                {"key": codec.idempotency_key(evicted.record), "mode": "evicted"},
            )
        self._emit(
            "outbox_enqueued",
            {"key": codec.idempotency_key(record), "depth": self._queue.depth()},
        )
        self._maybe_send()
        return True

    def _maybe_send(self) -> None:
        if self._in_flight is not None:
            return
        entry = self._queue.head()
        if entry is None:
            return
        self._in_flight = entry
        self._send(entry)

    def _send(self, entry: ReferenceOutboxEntry) -> None:
        entry.attempts += 1
        attempt = entry.attempts
        key = codec.idempotency_key(entry.record)
        self._emit("send_attempt", {"key": key, "attempt": attempt})
        self._transport.send(
            entry.payload, lambda outcome: self._on_result(entry, attempt, outcome)
        )

    def _on_result(self, entry: ReferenceOutboxEntry, attempt: int, outcome: SendOutcome) -> None:
        if entry is not self._in_flight or attempt != entry.attempts:
            return  # stale ack/nack from an earlier send of this or another record
        key = codec.idempotency_key(entry.record)
        if not isinstance(outcome, Nack):
            assert self._queue.head() is entry
            self._queue.pop_head()
            self._emit(
                "delivered",
                {
                    "key": key,
                    "row_index": outcome,
                    "attempts": entry.attempts,
                    "depth": self._queue.depth(),
                },
            )
            self._in_flight = None
            self._maybe_send()
            return

        reason = outcome.reason
        self._emit("send_failed", {"key": key, "attempt": entry.attempts, "reason": reason})
        budget = self._policy.max_attempts
        if budget is not None and entry.attempts >= budget:
            assert self._queue.head() is entry
            self._queue.pop_head()
            self.dead_letters.append(entry.record)
            self._emit("dead_letter", {"key": key, "depth": self._queue.depth()})
            self._in_flight = None
            self._maybe_send()
            return
        delay = backoff_delay(entry.attempts, self._policy)
        self._clock.schedule(delay, lambda: self._send(entry))


class TestAgainstTheReferenceClient:
    """The client whose in-flight record is the outbox head gives the
    reference's events, in order, and its dead letters, for every run."""

    @settings(max_examples=200, deadline=None)
    @given(**UPLINK_RUNS)
    def test_same_events_and_dead_letters(
        self, script, steps, max_attempts, capacity, overflow, latency_s, drain_last
    ):
        run = (script, steps, max_attempts, capacity, overflow, latency_s, drain_last)
        client, events, _ = run_uplink(SyncClient, OutboxQueue, *run)
        reference, reference_events, _ = run_uplink(
            ReferenceSyncClient, ReferenceOutboxQueue, *run
        )
        assert events == reference_events
        assert client.dead_letters == reference.dead_letters
