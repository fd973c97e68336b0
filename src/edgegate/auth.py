"""Multi-tier card authentication: format validation, local cache, cloud
query with a deadline, and a deny-by-default fallback, driving a servo gate.

The decision tiers run strictly in order: a malformed uid is dropped before
any gate or network activity; an unexpired cache entry decides locally with
zero cloud traffic; otherwise the cloud is queried with a deadline, and only
a timeout or an unavailable backend reaches the fallback policy. Cloud
replies carry the full access policy rather than a bare verdict so cached
entries can re-evaluate the time window locally at later presentations.

The engine is a single sequential state machine per device: one request at a
time, and a request arriving while the previous one still waits on the
cloud or the gate is still open is refused outright rather than queued.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Protocol

from .codec import CloudRecord
from .core import (
    AccessPolicy, DeviceId, Timestamp, Uid, bounded, discard, seconds_of_day, weekday_of
)
from .sync import Nack, SchedulerPort


class AuthError(Exception):
    """Base for authentication-engine errors."""


class MalformedUidError(AuthError, ValueError):
    """Raw uid is not 8 hex characters; dropped without side effects."""


class InvalidGateTransitionError(AuthError):
    """Gate state transitions only Closed->Open->Closed."""


class Outcome(Enum):
    GRANTED = "granted"
    DENIED = "denied"


class DecisionSource(Enum):
    CACHE = "cache"
    CLOUD = "cloud"
    FALLBACK = "fallback"


# What the buzzer plays on a denial.
BUZZER_PATTERN = "denied_triple_beep"


class FallbackMode(Enum):
    DENY = "deny"
    GRANT_IF_PREVIOUSLY_GRANTED = "grant_if_previously_granted"


@dataclass(frozen=True)
class AuthConfig:
    """Engine timing and gate geometry. Defaults follow the deployed setup:
    5s entry window, 5s cloud deadline, day-long cache TTL."""

    t_entry_s: float = bounded(5.0, gt=0.0)
    t_timeout_ms: float = bounded(5000.0, gt=0.0)
    cache_ttl_s: float = bounded(86400.0, gt=0.0)
    open_angle_deg: int = bounded(90, lo=0, hi=180)
    closed_angle_deg: int = bounded(0, lo=0, hi=180)
    fallback_mode: FallbackMode = FallbackMode.DENY
    cache_capacity: int = bounded(256, lo=1)


@dataclass(frozen=True)
class CacheEntry:
    uid: Uid
    policy: AccessPolicy
    inserted_at: Timestamp
    ttl_s: float

    def expired(self, now: Timestamp) -> bool:
        return now.to_epoch() > self.inserted_at.to_epoch() + self.ttl_s


def validate_uid_format(raw: str) -> Uid:
    """Canonicalize to an uppercase Uid; case-insensitive input accepted."""
    if not isinstance(raw, str):
        raise MalformedUidError(f"uid must be a string, got {type(raw).__name__}")
    candidate = raw.upper()
    if len(candidate) != 8 or any(c not in "0123456789ABCDEF" for c in candidate):
        raise MalformedUidError(f"uid must be 8 hex characters, got {raw!r}")
    return Uid(candidate)


def check_temporal(policy: AccessPolicy, t: Timestamp) -> Outcome:
    """Grant iff the time of day falls inside the policy window (both ends
    inclusive) and the UTC weekday is allowed. Pure function."""
    sod = seconds_of_day(t)
    if policy.window_start <= sod <= policy.window_end and weekday_of(t) in policy.allowed_days:
        return Outcome.GRANTED
    return Outcome.DENIED


class PolicyCache:
    """Bounded uid -> policy cache with TTL expiry.

    Expired entries behave as absent: a lookup evicts them, but they are
    retained on a stale side list so the grant-if-previously-granted
    fallback can replay the last known policy. Capacity eviction removes the
    least recently inserted entry first.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[Uid, CacheEntry] = OrderedDict()
        self._stale: OrderedDict[Uid, CacheEntry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, uid: Uid, now: Timestamp) -> CacheEntry | None:
        entry = self._entries.get(uid)
        if entry is None:
            return None
        if entry.expired(now):
            del self._entries[uid]
            self._stale[uid] = entry
            while len(self._stale) > self.capacity:
                self._stale.popitem(last=False)
            return None
        return entry

    def update(self, uid: Uid, policy: AccessPolicy, now: Timestamp, ttl_s: float) -> None:
        """Insert or refresh; TTL is measured from the latest insertion."""
        self._stale.pop(uid, None)
        if uid in self._entries:
            del self._entries[uid]
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[uid] = CacheEntry(uid=uid, policy=policy, inserted_at=now, ttl_s=ttl_s)

    def expired_entry(self, uid: Uid, now: Timestamp) -> CacheEntry | None:
        """Last known entry for ``uid`` if it has expired (still in place or
        already moved to the stale list); None when never cached or live."""
        entry = self._entries.get(uid)
        if entry is not None:
            return entry if entry.expired(now) else None
        return self._stale.get(uid)


def cache_lookup(cache: PolicyCache, uid: Uid, now: Timestamp) -> CacheEntry | None:
    return cache.lookup(uid, now)


def update_cache(
    cache: PolicyCache, uid: Uid, policy: AccessPolicy, now: Timestamp, ttl_s: float
) -> None:
    cache.update(uid, policy, now, ttl_s)


def fallback_decision(
    uid: Uid, cache: PolicyCache, now: Timestamp, config: AuthConfig
) -> Outcome:
    """Decision of last resort, used only on cloud timeout with a cache miss.

    Default mode denies everyone. The opt-in alternative grants when an
    expired cache entry exists for the uid and its policy still passes the
    temporal check at ``now``.
    """
    if config.fallback_mode is FallbackMode.GRANT_IF_PREVIOUSLY_GRANTED:
        entry = cache.expired_entry(uid, now)
        if entry is not None and check_temporal(entry.policy, now) is Outcome.GRANTED:
            return Outcome.GRANTED
    return Outcome.DENIED


class GateState(Enum):
    CLOSED = "closed"
    OPEN = "open"


class GateActuator:
    """Servo-driven gate model. At rest the angle matches the state: closed
    angle when Closed, open angle when Open."""

    def __init__(self, open_angle_deg: int = 90, closed_angle_deg: int = 0) -> None:
        self.open_angle_deg = open_angle_deg
        self.closed_angle_deg = closed_angle_deg
        self.state = GateState.CLOSED
        self.angle_deg = closed_angle_deg

    def _transition(self, expected: GateState, target: GateState) -> None:
        if self.state is not expected:
            raise InvalidGateTransitionError(
                f"cannot go {self.state.value} -> {target.value}"
            )
        self.state = target

    def open(self) -> None:
        self._transition(GateState.CLOSED, GateState.OPEN)
        self.angle_deg = self.open_angle_deg

    def close(self) -> None:
        self._transition(GateState.OPEN, GateState.CLOSED)
        self.angle_deg = self.closed_angle_deg


class CloudQueryPort(Protocol):
    """Asynchronous authorization lookup; the engine enforces its own deadline.
    The reply is the sink's answer, the uid's policy or None when the uid is
    unknown, or a ``Nack`` when the sink could not answer."""

    def query_policy(
        self, uid: Uid, on_reply: Callable[[AccessPolicy | None | Nack], None]
    ) -> None: ...


@dataclass
class _Request:
    """An accepted request, from acceptance until its decision."""

    uid: Uid
    started: float
    request_id: str | None


class AccessEngine:
    """Event-driven authentication engine for one device.

    Emits exactly one CloudRecord and one ``auth_decision`` event per
    well-formed, accepted request; a refused request (malformed input, busy
    engine) emits no record, only its ``rejected_input`` or ``gate_busy``
    event. The events are the engine's only log. Driving happens through the
    injected scheduler, so the engine consumes only simulated time.

    A cache miss races the cloud reply against the deadline. Each acts only
    while its request is still ``self._pending``, so the second does nothing.
    The pending query and the open gate are the engine's busy state.
    """

    def __init__(
        self,
        device_id: DeviceId,
        location: str,
        clock: SchedulerPort,
        cloud: CloudQueryPort,
        config: AuthConfig | None = None,
        record_out: Callable[[CloudRecord], None] = discard,
        event_out: Callable[[str, dict], None] = discard,
    ) -> None:
        self.device_id = device_id
        self.location = location
        self.config = config or AuthConfig()
        self.cache = PolicyCache(self.config.cache_capacity)
        self.gate = GateActuator(self.config.open_angle_deg, self.config.closed_angle_deg)
        self._clock = clock
        self._cloud = cloud
        self._record_out = record_out
        self._event_out = event_out
        self._seq = itertools.count()
        self._pending: _Request | None = None

    # -- request entry points ------------------------------------------------

    def handle_request(self, raw_uid: str, request_id: str | None = None) -> None:
        """Begin processing a card presentation at the current simulated time.

        The request ends in exactly one decision event, carrying
        ``request_id``: ``rejected_input`` or ``gate_busy`` at once for a
        refused request, else ``auth_decision`` once the decision resolves
        (same instant for a cache hit, later for the cloud path).
        """
        if self._pending is not None or self.gate.state is GateState.OPEN:
            self._event_out("gate_busy", {"request_id": request_id, "raw_uid": raw_uid})
            return
        try:
            uid = validate_uid_format(raw_uid)
        except MalformedUidError:
            self._event_out("rejected_input", {"request_id": request_id, "raw_uid": raw_uid})
            return

        request = _Request(uid, self._clock.now(), request_id)
        now_ts = self._clock.now_ts()
        entry = self.cache.lookup(uid, now_ts)
        if entry is not None:
            self._finish(request, check_temporal(entry.policy, now_ts), DecisionSource.CACHE)
            return

        self._pending = request
        self._clock.schedule(
            self.config.t_timeout_ms / 1000.0, lambda: self._on_cloud_deadline(request)
        )
        self._cloud.query_policy(uid, lambda reply: self._on_cloud_reply(request, reply))

    # -- decision plumbing ---------------------------------------------------

    def _on_cloud_reply(self, request: _Request, reply: AccessPolicy | None | Nack) -> None:
        if self._pending is not request:
            return  # the deadline already decided this request
        self._pending = None
        now_ts = self._clock.now_ts()
        if isinstance(reply, Nack):  # backend reachable but unavailable: as a timeout
            outcome = fallback_decision(request.uid, self.cache, now_ts, self.config)
            self._finish(request, outcome, DecisionSource.FALLBACK)
        elif reply is None:
            self._finish(request, Outcome.DENIED, DecisionSource.CLOUD)
        else:
            self.cache.update(request.uid, reply, now_ts, self.config.cache_ttl_s)
            self._finish(request, check_temporal(reply, now_ts), DecisionSource.CLOUD)

    def _on_cloud_deadline(self, request: _Request) -> None:
        if self._pending is not request:
            return  # the cloud already decided this request
        self._pending = None
        outcome = fallback_decision(request.uid, self.cache, self._clock.now_ts(), self.config)
        self._finish(request, outcome, DecisionSource.FALLBACK)

    def _finish(self, request: _Request, outcome: Outcome, source: DecisionSource) -> None:
        uid = request.uid
        at = self._clock.now_ts()
        latency_ms = (self._clock.now() - request.started) * 1000.0
        granted = outcome is Outcome.GRANTED
        self._record_out(self._record(uid, at, granted))
        if granted:
            self.gate.open()
            self._event_out("gate_open", {"angle_deg": self.gate.angle_deg})
            self._clock.schedule(self.config.t_entry_s, self._close_gate)
        else:
            self._event_out("buzzer", {"pattern": BUZZER_PATTERN})
        # After the actuator event, so the trace shows the gate reacting first.
        self._event_out(
            "auth_decision",
            {
                "request_id": request.request_id,
                "uid": uid.value,
                "outcome": outcome.value,
                "source": source.value,
                "latency_ms": latency_ms,
            },
        )

    def _close_gate(self) -> None:
        self.gate.close()
        self._event_out("gate_close", {"angle_deg": self.gate.angle_deg})

    def _record(self, uid: Uid, at: Timestamp, granted: bool) -> CloudRecord:
        return CloudRecord(
            device_id=self.device_id,
            timestamp=at,
            event_type="access_granted" if granted else "access_denied",
            data={
                "uid": uid.value,
                "gate_status": "open" if granted else "closed",
                "duration_ms": int(self.config.t_entry_s * 1000) if granted else 0,
                "location": self.location,
            },
            seq=next(self._seq),
        )
