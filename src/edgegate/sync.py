"""Durable store-and-forward uplink: outbox queue, exponential-backoff retry,
and at-least-once in-order delivery.

The client sends the head-of-line record and nothing else until that record
is acknowledged or dead-lettered, so sink row order always equals enqueue
order; the queue's head is the one record in flight. Failed sends
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


@dataclass(frozen=True)
class Nack:
    """A failed call to the sink: refused, unavailable or timed out."""

    reason: str = ""


# What a transport hands its completion callback: the sink's row index, or a Nack.
SendOutcome = int | Nack


class TransportPort(Protocol):
    """Request/response port to the sink: send bytes, get exactly one outcome,
    either the row index the sink stored the record at or a ``Nack`` whose
    reason is the ``send_failed`` reason."""

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
    """A queued record with its wire bytes and idempotency key, both made
    once when it is queued; the bytes are resent unchanged on every retry."""

    record: CloudRecord
    attempts: int = 0
    payload: bytes = field(init=False, repr=False)
    key: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.payload = codec.encode(self.record)
        self.key = codec.idempotency_key(self.record)


class OutboxQueue:
    """Bounded FIFO of unsent records. Capacity is sized for a full day or
    more of peak event rate; overflow behavior is explicit. The head is the
    record in flight, so it is never evicted."""

    def __init__(self, config: OutboxConfig = OutboxConfig()) -> None:
        self.capacity = config.capacity
        self.overflow = config.overflow
        self._entries: deque[OutboxEntry] = deque()

    def depth(self) -> int:
        return len(self._entries)

    def enqueue(self, record: CloudRecord) -> OutboxEntry | None:
        """Append; at capacity either reject this record or drop the oldest
        record behind the head. Returns the evicted entry under drop-oldest,
        else None; raises ``QueueFullError`` when nothing may be evicted."""
        evicted: OutboxEntry | None = None
        if len(self._entries) >= self.capacity:
            if self.overflow == OverflowPolicy.REJECT_NEW:
                raise QueueFullError(f"outbox full at capacity {self.capacity}")
            if len(self._entries) == 1:
                raise QueueFullError("outbox full and head is mid-send")
            evicted = self._entries[1]
            del self._entries[1]
        self._entries.append(OutboxEntry(record))
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

    State machine per record: send -> (row index: pop, emit ``delivered``) |
    (``Nack``: emit ``send_failed`` with its reason, sleep backoff, resend).
    The head of the queue is the record in flight, sending or waiting out a
    backoff, until it is acknowledged or dead-lettered; the client then
    sends the new head, and a record queued behind nothing is sent at once.
    Only the outcome of the most recent send counts: one is stale unless
    ``entry is self._queue.head() and attempt == entry.attempts``. The
    sink's idempotency-key dedup keeps the table single-copy. What happens
    to each record is told through ``on_event`` only; the client keeps no
    log of its own beyond the parked ``dead_letters``.
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
        self.dead_letters: list[CloudRecord] = []  # parked for an operator to re-send

    def queue_depth(self) -> int:
        return self._queue.depth()

    def enqueue(self, record: CloudRecord) -> bool:
        """Queue a record for delivery. Returns False if the overflow policy
        rejected it (the loss is an ``outbox_dropped`` event, never silent)."""
        key = codec.idempotency_key(record)
        try:
            evicted = self._queue.enqueue(record)
        except QueueFullError:
            self._emit("outbox_dropped", {"key": key, "mode": "rejected"})
            return False
        if evicted is not None:
            self._emit("outbox_dropped", {"key": evicted.key, "mode": "evicted"})
        depth = self._queue.depth()
        self._emit("outbox_enqueued", {"key": key, "depth": depth})
        if depth == 1:
            self._send(self._queue.head())
        return True

    def _send(self, entry: OutboxEntry) -> None:
        entry.attempts += 1
        attempt = entry.attempts
        self._emit("send_attempt", {"key": entry.key, "attempt": attempt})
        self._transport.send(
            entry.payload, lambda outcome: self._on_result(entry, attempt, outcome)
        )

    def _on_result(self, entry: OutboxEntry, attempt: int, outcome: SendOutcome) -> None:
        if entry is not self._queue.head() or attempt != entry.attempts:
            return  # stale ack/nack from an earlier send of this or another record
        if isinstance(outcome, Nack):
            self._emit(
                "send_failed", {"key": entry.key, "attempt": attempt, "reason": outcome.reason}
            )
            budget = self._policy.max_attempts
            if budget is None or attempt < budget:
                delay = backoff_delay(attempt, self._policy)
                self._clock.schedule(delay, lambda: self._send(entry))
                return
            self._queue.pop_head()
            self.dead_letters.append(entry.record)
            self._emit("dead_letter", {"key": entry.key, "depth": self._queue.depth()})
        else:
            self._queue.pop_head()
            self._emit(
                "delivered",
                {
                    "key": entry.key,
                    "row_index": outcome,
                    "attempts": attempt,
                    "depth": self._queue.depth(),
                },
            )
        head = self._queue.head()
        if head is not None:
            self._send(head)
