"""Shared vocabulary types: timestamps, weekdays, card and device identity,
and per-card access policies; and ``bounded``, the config numbers' bounds.

All calendar math is UTC. Timestamps carry millisecond precision but
serialize at whole-second precision (ISO-8601 with Z suffix), matching the
wire format used by the cloud envelope. Every type here is an immutable
value, safe to share across threads; nothing in this module reads the wall
clock.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field
from datetime import date
from enum import IntEnum
from functools import lru_cache
from typing import Protocol, runtime_checkable

SECONDS_PER_DAY = 86400
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY

# The one wire shape, ``YYYY-MM-DDTHH:MM:SSZ``: ASCII digits, zero-padded.
_ISO_RE = re.compile(r"(\d{4}-\d\d-\d\d)T(\d\d):(\d\d):(\d\d)Z", re.ASCII)
_UID_RE = re.compile(r"[0-9A-F]{8}")
_DEVICE_ID_RE = re.compile(r"[A-Za-z]+_[0-9]+")


def bounded(default=MISSING, *, lo=None, hi=None, gt=None):
    """A config number that lies in ``[lo, hi]`` and above ``gt``: field
    metadata that the scenario reader checks, and construction does not."""
    return field(default=default, metadata={"bounds": (lo, hi, gt)})


class CoreError(ValueError):
    """Base for value-construction errors in this module."""


class PolicyError(CoreError):
    """Raised when an access policy violates its invariants."""


class Weekday(IntEnum):
    """UTC weekday, Monday-first to match ``datetime.weekday()``."""

    MONDAY = 0
    TUESDAY = 1
    WEDNESDAY = 2
    THURSDAY = 3
    FRIDAY = 4
    SATURDAY = 5
    SUNDAY = 6

    @classmethod
    def from_name(cls, name: str) -> "Weekday":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise CoreError(f"unknown weekday name: {name!r}") from None


ALL_DAYS: frozenset[Weekday] = frozenset(Weekday)


@dataclass(frozen=True, order=True)
class Timestamp:
    """Instant in UTC: integer seconds since the Unix epoch plus milliseconds.

    Ordering follows (seconds_utc, millis), which field order makes the
    generated comparisons correct.
    """

    seconds_utc: int
    millis: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.millis <= 999:
            raise CoreError(f"millis out of range [0, 999]: {self.millis}")

    @classmethod
    def from_iso8601(cls, text: str) -> "Timestamp":
        """Parse the whole-second wire shape, e.g. ``2024-01-15T14:30:45Z``.

        Only the exact 20-character form :meth:`iso8601` writes is accepted:
        no unpadded fields, other separators, lowercase letters or
        surrounding whitespace, and the date and time must exist.
        """
        match = _ISO_RE.fullmatch(text) if isinstance(text, str) else None
        if match is not None:
            day, hh, mm, ss = match.groups()
            hours, minutes, seconds = int(hh), int(mm), int(ss)
            if hours < 24 and minutes < 60 and seconds < 60:
                days = _days_of_date(day)
                if days is not None:
                    return cls(days * SECONDS_PER_DAY + hours * 3600 + minutes * 60 + seconds, 0)
        raise CoreError(f"bad ISO-8601 timestamp: {text!r}")

    def iso8601(self) -> str:
        """Whole-second ISO-8601 with Z suffix; millis are dropped."""
        days, rem = divmod(self.seconds_utc, SECONDS_PER_DAY)
        hours, rem = divmod(rem, 3600)
        minutes, seconds = divmod(rem, 60)
        return "%s%02d:%02d:%02dZ" % (_date_prefix(days), hours, minutes, seconds)

    @classmethod
    def from_epoch(cls, epoch_seconds: float) -> "Timestamp":
        total_ms = round(epoch_seconds * 1000)
        seconds, ms = divmod(total_ms, 1000)
        return cls(int(seconds), int(ms))

    def to_epoch(self) -> float:
        return self.seconds_utc + self.millis / 1000.0

    def add_seconds(self, delta: float) -> "Timestamp":
        return Timestamp.from_epoch(self.to_epoch() + delta)

    def diff_seconds(self, other: "Timestamp") -> float:
        """Signed ``self - other`` in seconds."""
        return (self.seconds_utc - other.seconds_utc) + (self.millis - other.millis) / 1000.0


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


# A run stamps and parses a handful of distinct days, so the calendar
# conversion runs once per day and every other stamp costs a cache hit.
@lru_cache(maxsize=1024)
def _days_of_date(text: str) -> int | None:
    """Days since the epoch of ``YYYY-MM-DD``, or None when no such date."""
    try:
        return date.fromisoformat(text).toordinal() - _EPOCH_ORDINAL
    except ValueError:
        return None


@lru_cache(maxsize=1024)
def _date_prefix(days: int) -> str:
    """``YYYY-MM-DDT`` of a day number, for years 1 through 9999."""
    try:
        return date.fromordinal(days + _EPOCH_ORDINAL).isoformat() + "T"
    except ValueError:
        raise CoreError(f"timestamp outside years 1-9999: day {days}") from None


def weekday_of(t: Timestamp) -> Weekday:
    """UTC weekday of ``t``. Pure; the epoch (1970-01-01) was a Thursday."""
    return Weekday((t.seconds_utc // SECONDS_PER_DAY + Weekday.THURSDAY) % 7)


def seconds_of_day(t: Timestamp) -> int:
    """Seconds elapsed since UTC midnight, in [0, 86400)."""
    return t.seconds_utc % SECONDS_PER_DAY


@dataclass(frozen=True, order=True)
class Uid:
    """4-byte card identifier, canonically 8 uppercase hex characters."""

    value: str

    def __post_init__(self) -> None:
        if not isinstance(self.value, str) or not _UID_RE.fullmatch(self.value):
            raise CoreError(f"uid must be 8 uppercase hex chars, got {self.value!r}")

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class DeviceId:
    """Stable device identity, shaped ``<role>_<number>`` (e.g. ``AC_001``)."""

    value: str

    def __post_init__(self) -> None:
        if not isinstance(self.value, str) or not self.value:
            raise CoreError("device id must be a non-empty string")
        if not _DEVICE_ID_RE.fullmatch(self.value):
            raise CoreError(f"device id must look like ROLE_NNN, got {self.value!r}")

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class AccessPolicy:
    """Per-card authorization: a daily time-of-day window plus allowed weekdays.

    The window is inclusive at both ends and must not wrap midnight; a
    facility needing an overnight window encodes two policies. An empty
    ``allowed_days`` set is legal and never grants.
    """

    uid: Uid
    window_start: int
    window_end: int
    allowed_days: frozenset[Weekday] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for name, v in (("window_start", self.window_start), ("window_end", self.window_end)):
            if not 0 <= v < SECONDS_PER_DAY:
                raise PolicyError(f"{name} out of range [0, 86400): {v}")
        if self.window_start > self.window_end:
            raise PolicyError(
                f"overnight window rejected: start {self.window_start} > end {self.window_end}"
            )
        object.__setattr__(self, "allowed_days", frozenset(self.allowed_days))

    def to_dict(self) -> dict:
        return {
            "uid": self.uid.value,
            "window_start": self.window_start,
            "window_end": self.window_end,
            "allowed_days": sorted(d.name.capitalize() for d in self.allowed_days),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "AccessPolicy":
        days = obj.get("allowed_days", [])
        return cls(
            uid=Uid(obj["uid"]),
            window_start=int(obj["window_start"]),
            window_end=int(obj["window_end"]),
            allowed_days=frozenset(Weekday.from_name(d) for d in days),
        )


@runtime_checkable
class ClockPort(Protocol):
    """Injectable time source. Production code never reads wall time directly."""

    def now(self) -> float:
        """Seconds since the clock's epoch; only differences are meaningful."""
        ...

    def now_ts(self) -> Timestamp:
        """Current absolute time as a millisecond-resolution timestamp."""
        ...


class SystemClock:
    """Wall-clock adapter, for the standalone sink server only."""

    def now(self) -> float:
        import time

        return time.time()

    def now_ts(self) -> Timestamp:
        return Timestamp.from_epoch(self.now())


def discard(*_args: object) -> None:
    """Default for a component's optional emitter (``record_out``,
    ``event_out``, ``on_event``): the component always emits, and nothing
    listens."""
