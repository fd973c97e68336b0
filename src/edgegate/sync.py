"""Durable store-and-forward uplink: outbox queue, exponential-backoff retry,
and at-least-once in-order delivery.

The client sends the head-of-line record and nothing else until that record
is acknowledged, so sink row order always equals enqueue order. Failed sends
back off exponentially (1s, 2s, 4s, ... capped at 60s) with the attempt
counter kept per record. A record is only ever removed from the queue by an
acknowledgement, by dead-lettering after a finite retry budget is exhausted,
or by the queue's explicit overflow policy; there is no silent drop path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Protocol

from . import codec
from .codec import CloudRecord
from .core import Timestamp, bounded, discard


class SyncError(Exception):
    """Base for uplink errors."""


class InvalidAttemptError(SyncError, ValueError):
    """Retry attempt numbers start at 1."""


class QueueFullError(SyncError):
    """Outbox at capacity under the reject-new overflow policy."""


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff parameters; ``max_attempts=None`` retries forever."""

    t_base_s: float = bounded(1.0, gt=0.0)
    t_max_s: float = 60.0  # bounded below by t_base_s
    max_attempts: int | None = bounded(None, lo=1)

    def __post_init__(self) -> None:
        if self.t_max_s < self.t_base_s:
            raise SyncError(f"t_max_s must be >= t_base_s, got {self.t_max_s}")


def backoff_delay(attempt: int, policy: RetryPolicy) -> float:
    """Delay before retry number ``attempt``: min(t_max, t_base * 2**(n-1)).

    Attempt numbers grow without bound under unbounded retries (a day-long
    partition reaches the thousands), so the doubling saturates at the cap
    instead of overflowing.
    """
    if attempt < 1:
        raise InvalidAttemptError(f"attempt number must be >= 1, got {attempt}")
    exponent = attempt - 1
    if exponent >= 1024:
        return policy.t_max_s
    return min(policy.t_max_s, policy.t_base_s * 2.0 ** exponent)


# Send outcomes delivered by a transport to its completion callback.


@dataclass(frozen=True)
class Ack:
    row_index: int


@dataclass(frozen=True)
class Nack:
    reason: str = ""


@dataclass(frozen=True)
class SendTimeout:
    pass


SendOutcome = Ack | Nack | SendTimeout


class TransportPort(Protocol):
    """Request/response port to the sink: send bytes, get exactly one outcome."""

    def send(self, payload: bytes, on_result: Callable[[SendOutcome], None]) -> None: ...


class OverflowPolicy(str, Enum):
    REJECT_NEW = "reject_new"
    DROP_OLDEST = "drop_oldest"


@dataclass(frozen=True)
class OutboxConfig:
    capacity: int = bounded(100_000, lo=1)
    overflow: OverflowPolicy = OverflowPolicy.REJECT_NEW


@dataclass
class OutboxEntry:
    """A queued record with its wire bytes, encoded once when it is queued
    and resent unchanged on every retry."""

    record: CloudRecord
    enqueue_time: float
    attempts: int = 0
    payload: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.payload = codec.encode(self.record)


class OutboxQueue:
    """Bounded FIFO of unsent records. Capacity is sized for a full day or
    more of peak event rate; overflow behavior is explicit and counted."""

    def __init__(self, config: OutboxConfig = OutboxConfig()) -> None:
        self.capacity = config.capacity
        self.overflow = config.overflow
        self._entries: deque[OutboxEntry] = deque()
        self.dropped = 0

    def depth(self) -> int:
        return len(self._entries)

    def enqueue(
        self, record: CloudRecord, now: float, protected: OutboxEntry | None = None
    ) -> OutboxEntry | None:
        """Append; at capacity either reject this record or drop the oldest,
        counting the lost event either way.

        ``protected`` (the entry currently mid-send) is never evicted; when
        it is the only candidate the new record is rejected instead. Returns
        the evicted entry under drop-oldest, else None.
        """
        evicted: OutboxEntry | None = None
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
        self._entries.append(OutboxEntry(record=record, enqueue_time=now))
        return evicted

    def head(self) -> OutboxEntry | None:
        return self._entries[0] if self._entries else None

    def pop_head(self) -> OutboxEntry:
        return self._entries.popleft()


class SchedulerPort(Protocol):
    """Minimal scheduling surface the client needs (satisfied by SimClock)."""

    def now(self) -> float: ...
    def now_ts(self) -> Timestamp: ...
    def schedule(self, delay_s: float, fn: Callable[[], None]) -> None: ...


class SyncClient:
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
        queue: OutboxQueue | None = None,
        on_event: Callable[[str, dict], None] = discard,
    ) -> None:
        self._clock = clock
        self._transport = transport
        self._policy = policy or RetryPolicy()
        self._queue = queue if queue is not None else OutboxQueue()
        self._emit = on_event
        self._in_flight: OutboxEntry | None = None  # sending or waiting out a backoff
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

    def _send(self, entry: OutboxEntry) -> None:
        entry.attempts += 1
        attempt = entry.attempts
        key = codec.idempotency_key(entry.record)
        self._emit("send_attempt", {"key": key, "attempt": attempt})
        self._transport.send(
            entry.payload, lambda outcome: self._on_result(entry, attempt, outcome)
        )

    def _on_result(self, entry: OutboxEntry, attempt: int, outcome: SendOutcome) -> None:
        if entry is not self._in_flight or attempt != entry.attempts:
            return  # stale ack/nack from an earlier send of this or another record
        key = codec.idempotency_key(entry.record)
        if isinstance(outcome, Ack):
            assert self._queue.head() is entry
            self._queue.pop_head()
            self._emit(
                "delivered",
                {
                    "key": key,
                    "row_index": outcome.row_index,
                    "attempts": entry.attempts,
                    "depth": self._queue.depth(),
                },
            )
            self._in_flight = None
            self._maybe_send()
            return

        reason = outcome.reason if isinstance(outcome, Nack) else "timeout"
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
