"""Scenario files: seeded, human-editable descriptions of devices, workload,
authorization seeds and fault schedules for the simulator.

The dataclasses here and the configs they take from ``auth``, ``safety`` and
``sync`` are the scenario schema: each YAML key is a field, with the field's
default. A number's bounds are declared on its field with ``core.bounded``,
and only this reader checks them. Invariants that span fields (intervals,
disjoint faults, unique ids) live in the types' own ``__post_init__`` and are
checked once a mapping's fields have parsed. One reader walks the fields and
reports, each with its field path, every unknown key at any level, every
missing required key, every value of the wrong type or out of bounds, and
every broken invariant, together rather than one at a time. An empty
document is a valid (if inert) scenario.

An ``authz[]`` item is read through ``_PolicyKeys`` before it becomes an
``AccessPolicy``, because its time-of-day and weekday syntax, and its
all-day, every-day default, differ from ``AccessPolicy``'s fields.
"""

import dataclasses
import functools
import math
import types
import typing
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Literal

import yaml

from .auth import AuthConfig
from .core import (
    ALL_DAYS,
    SECONDS_PER_DAY,
    AccessPolicy,
    DeviceId,
    Timestamp,
    Uid,
    Weekday,
    bounded,
)
from .safety import FlameParams, KalmanConfig
from .sink import DEFAULT_TOKEN
from .sync import OutboxConfig, RetryPolicy, SyncError


class ConfigError(ValueError):
    """Scenario failed validation; ``issues`` lists every field-level problem."""

    def __init__(self, issues: list[str]):
        self.issues = issues
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {i}" for i in issues))


@dataclass(frozen=True)
class ArrivalConfig:
    """Card-presentation process for access devices."""

    process: Literal["poisson", "uniform"] = "poisson"  # uniform: evenly spaced at 1/rate
    rate_per_s: float = bounded(0.0, lo=0.0)
    authorized_fraction: float = bounded(1.0, lo=0.0, hi=1.0)
    malformed_fraction: float = bounded(0.0, lo=0.0, hi=1.0)
    misread_false_accept: float = bounded(0.0, lo=0.0, hi=1.0)
    misread_false_reject: float = bounded(0.0, lo=0.0, hi=1.0)


@dataclass(frozen=True)
class FlameEpisode:
    start_s: float = bounded(lo=0.0)
    duration_s: float = bounded(lo=0.0)
    peak: float = bounded(1500.0, lo=0.0)


# Shortest flame sample period; shorter ones can give two samples one stamp.
MIN_FLAME_PERIOD_S = 0.002


@dataclass(frozen=True)
class FlameWorkload:
    sample_period_s: float = bounded(0.0, lo=0.0)  # 0 disables the channel
    baseline: float = bounded(300.0, lo=0.0)
    noise_stddev: float = bounded(8.0, lo=0.0)
    ambient_base: float = bounded(120.0, lo=0.0)
    ambient_noise_stddev: float = bounded(4.0, lo=0.0)
    episodes: tuple[FlameEpisode, ...] = ()

    def __post_init__(self) -> None:
        """Stamps have millisecond resolution and the flame filter needs a
        positive interval between two samples. A period of 2 ms or more keeps
        every two consecutive stamps apart, at any epoch up to year 9999."""
        if 0 < self.sample_period_s < MIN_FLAME_PERIOD_S:
            raise ConfigError(
                [
                    f"sample_period_s: {self.sample_period_s} below minimum "
                    f"{MIN_FLAME_PERIOD_S} (0 turns the channel off)"
                ]
            )


@dataclass(frozen=True)
class FlowAnomalySpec:
    at_s: float = bounded(lo=0.0)
    magnitude_lpm: float


@dataclass(frozen=True)
class FlowWorkload:
    sample_period_s: float = bounded(0.0, lo=0.0)  # 0 disables the channel
    baseline_lpm: float = bounded(10.0, lo=0.0)
    noise_stddev: float = bounded(0.4, lo=0.0)
    anomalies: tuple[FlowAnomalySpec, ...] = ()

    def __post_init__(self) -> None:
        """Each anomaly disturbs one sample, so no two may share a sample."""
        if self.sample_period_s <= 0:
            return
        first: dict[int, int] = {}
        issues = []
        for i, anomaly in enumerate(self.anomalies):
            j = first.setdefault(self.step_of(anomaly.at_s), i)
            if j != i:
                issues.append(
                    f"anomalies[{i}]: at_s {anomaly.at_s} falls on the same sample as "
                    f"anomalies[{j}] (at_s {self.anomalies[j].at_s})"
                )
        if issues:
            raise ConfigError(issues)

    def step_of(self, at_s: float) -> int:
        """Index ``k`` of the sample at ``k * sample_period_s`` nearest ``at_s``."""
        return round(at_s / self.sample_period_s)


@dataclass(frozen=True)
class PersonnelScanSpec:
    at_s: float = bounded(lo=0.0)
    uid: Uid


@dataclass(frozen=True)
class WorkloadConfig:
    access: ArrivalConfig = field(default_factory=ArrivalConfig)
    flame: FlameWorkload = field(default_factory=FlameWorkload)
    flow: FlowWorkload = field(default_factory=FlowWorkload)
    personnel_scans: tuple[PersonnelScanSpec, ...] = ()


@dataclass(frozen=True)
class DeviceConfig:
    device_id: DeviceId
    role: Literal["access", "safety"]
    location: str = "Main_Entrance"
    auth: AuthConfig = field(default_factory=AuthConfig)
    flame_params: FlameParams = field(default_factory=FlameParams)
    kalman: KalmanConfig = field(default_factory=KalmanConfig)
    status_period_s: float = bounded(0.0, lo=0.0)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    outbox: OutboxConfig = field(default_factory=OutboxConfig)
    send_timeout_s: float = bounded(5.0, lo=0.001)


@dataclass(frozen=True)
class NetworkConfig:
    latency_mean_s: float = bounded(1.2, lo=0.0)
    latency_stddev_s: float = bounded(0.3, lo=0.0)
    latency_floor_s: float = bounded(0.05, lo=0.0)
    drop_prob: float = bounded(0.0, lo=0.0, hi=1.0)
    ack_drop_prob: float = bounded(0.0, lo=0.0, hi=1.0)


@dataclass(frozen=True)
class Partition:
    """An interval ``[start_s, end_s)`` of simulated time."""

    start_s: float = bounded(lo=0.0)
    end_s: float = bounded(lo=0.0)

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ValueError("end_s must exceed start_s")


@dataclass(frozen=True)
class DropWindow(Partition):
    prob: float = bounded(1.0, lo=0.0, hi=1.0)


@dataclass(frozen=True)
class FaultsConfig:
    partitions: tuple[Partition, ...] = ()
    sink_outages: tuple[Partition, ...] = ()
    drop_windows: tuple[DropWindow, ...] = ()

    def __post_init__(self) -> None:
        """Sorts partitions and sink outages by start; each must be disjoint."""
        issues = []
        for name in ("partitions", "sink_outages"):
            spans = tuple(sorted(getattr(self, name), key=lambda p: p.start_s))
            object.__setattr__(self, name, spans)
            issues += [
                f"{name}: intervals overlap near t={b.start_s}"
                for a, b in zip(spans, spans[1:])
                if b.start_s < a.end_s
            ]
        if issues:
            raise ConfigError(issues)


@dataclass(frozen=True)
class SinkConfig:
    mode: Literal["inprocess", "socket"] = "inprocess"
    token: str = DEFAULT_TOKEN


@dataclass(frozen=True)
class Scenario:
    seed: int = 0
    start_time: Timestamp = Timestamp.from_iso8601("2024-01-15T00:00:00Z")
    duration_s: float = bounded(3600.0, lo=0.0)
    devices: tuple[DeviceConfig, ...] = ()
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    authz: tuple[AccessPolicy, ...] = ()
    network: NetworkConfig = field(default_factory=NetworkConfig)
    faults: FaultsConfig = field(default_factory=FaultsConfig)
    sink: SinkConfig = field(default_factory=SinkConfig)

    def __post_init__(self) -> None:
        """Device ids and policy uids are each unique."""
        issues = []
        for section, key, ids in (
            ("devices", "device_id", [d.device_id for d in self.devices]),
            ("authz", "uid", [p.uid for p in self.authz]),
        ):
            seen = set()
            for i, ident in enumerate(ids):
                if ident in seen:
                    issues.append(f"{section}[{i}].{key}: duplicate {ident.value}")
                seen.add(ident)
        if issues:
            raise ConfigError(issues)


# ---------------------------------------------------------------------------
# The reader. A reader turns a YAML value into a value of its type, or raises
# an error for a problem with the value itself or a ConfigError for every
# problem inside it. An issue's path is relative to the value that raised it;
# ": ..." is about the value itself.

_INVALID = (ValueError, SyncError)


def _nest(path: str, exc: Exception) -> list[str]:
    """The problems in ``exc``, raised by the value at ``path``, as issues."""
    issues = exc.issues if isinstance(exc, ConfigError) else [f": {exc}"]
    return [path + ("" if i[0] in ":[" else ".") + i for i in issues]


def _typed(kinds, noun: str, convert) -> Callable:
    def read(value):
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError(f"expected {noun}, got {value!r}")
        return convert(value)

    return read


def _choice(choices: tuple, make=lambda v: v) -> Callable:
    def read(value):
        if value not in choices:
            raise ValueError(f"must be {' or '.join(map(repr, choices))}, got {value!r}")
        return make(value)

    return read


def _read_items(item: Callable, value) -> tuple:
    if value is None:
        return ()
    if not isinstance(value, list):
        raise ValueError("expected a list")
    items, issues = [], []
    for i, v in enumerate(value):
        try:
            items.append(item(v))
        except _INVALID as exc:
            issues += _nest(f"[{i}]", exc)
    if issues:
        raise ConfigError(issues)
    return tuple(items)


@functools.cache
def _schema(cls: type) -> dict[str, tuple]:
    """Reader, whether required, and (lo, hi, gt) bounds of each key of ``cls``."""
    fields = dataclasses.fields(cls)
    hints = {f.name: f.type for f in fields}
    if any(isinstance(tp, str) for tp in hints.values()):
        # Postponed annotations (auth, safety and sync use them) cost a
        # compile per field to resolve, so this module does not postpone its
        # own: scenario loading is part of every run's set-up time.
        hints = typing.get_type_hints(cls)
    return {
        f.name: (
            _reader(hints[f.name]),
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
            f.metadata.get("bounds", (None, None, None)),
        )
        for f in fields
    }


def _read_fields(cls: type, obj):
    """Build ``cls`` from a YAML mapping; a null mapping takes every default."""
    if obj is None:
        obj = {}
    if not isinstance(obj, dict):
        raise ValueError("expected a mapping")
    schema = _schema(cls)
    issues = [f": unknown key {key!r}" for key in obj if key not in schema]
    kwargs = {}
    for name, (read, required, (lo, hi, gt)) in schema.items():
        if name not in obj:
            if required:
                issues.append(f"{name}: required")
            continue
        try:
            value = read(obj[name])
            if value is not None:
                if lo is not None and value < lo:
                    raise ValueError(f"{value} below minimum {lo}")
                if hi is not None and value > hi:
                    raise ValueError(f"{value} above maximum {hi}")
                if gt is not None and value <= gt:
                    raise ValueError(f"{value} must be above {gt}")
        except _INVALID as exc:
            issues += _nest(name, exc)
        else:
            kwargs[name] = value
    if issues:
        raise ConfigError(issues)
    return cls(**kwargs)


@functools.cache
def _reader(tp) -> Callable:
    """The reader of YAML values of the annotated type ``tp``."""
    if tp in _LEAF_READERS:
        return _LEAF_READERS[tp]
    if dataclasses.is_dataclass(tp):
        return functools.partial(_read_fields, tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:  # tuple[X, ...]
        return functools.partial(_read_items, _reader(args[0]))
    if origin is Literal:
        return _choice(args)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return _choice(tuple(m.value for m in tp), tp)
    if origin in (typing.Union, types.UnionType):  # X | None
        (inner,) = (_reader(a) for a in args if a is not type(None))
        return lambda value: None if value is None else inner(value)
    raise TypeError(f"no scenario reader for {tp!r}")


# ---------------------------------------------------------------------------
# Authorization policies: an ``authz[]`` item gives a time of day as seconds
# or HH:MM:SS, and days by name or as ``all``, which is also the default.

_TimeOfDay = typing.NewType("_TimeOfDay", int)
_Weekdays = typing.NewType("_Weekdays", frozenset)


@dataclass(frozen=True)
class _PolicyKeys:
    uid: Uid
    window_start: _TimeOfDay = bounded(0, lo=0, hi=SECONDS_PER_DAY - 1)
    window_end: _TimeOfDay = bounded(SECONDS_PER_DAY - 1, lo=0, hi=SECONDS_PER_DAY - 1)
    allowed_days: _Weekdays = ALL_DAYS


def _time_of_day(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        parts = value.split(":")
        if len(parts) == 3 and all(p.isdigit() for p in parts):
            h, m, s = (int(p) for p in parts)
            if h < 24 and m < 60 and s < 60:
                return h * 3600 + m * 60 + s
        raise ValueError(f"bad time of day {value!r}")
    raise ValueError(f"expected seconds-of-day or HH:MM:SS, got {value!r}")


def _weekdays(value) -> frozenset[Weekday]:
    if value in (None, "all"):
        return ALL_DAYS
    if not isinstance(value, list):
        raise ValueError("expected a list of weekday names or 'all'")
    return frozenset(Weekday.from_name(str(name)) for name in value)


def _finite(value: int | float) -> float:
    try:
        number = float(value)
    except OverflowError:  # an int past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


_LEAF_READERS: dict[object, Callable] = {
    float: _typed((int, float), "a number", _finite),
    int: _typed(int, "an integer", int),
    str: _typed(str, "a string", str),
    Timestamp: lambda value: Timestamp.from_iso8601(str(value)),
    DeviceId: lambda value: DeviceId(str(value)),
    Uid: lambda value: Uid(str(value).upper()),
    _TimeOfDay: _time_of_day,
    _Weekdays: _weekdays,
    AccessPolicy: lambda value: AccessPolicy(**vars(_read_fields(_PolicyKeys, value))),
}


def parse_scenario(doc: dict | None) -> Scenario:
    """Build a Scenario from a parsed YAML document, or raise ConfigError
    describing every invalid field."""
    try:
        return _read_fields(Scenario, doc)
    except ConfigError as exc:
        issues = exc.issues
    except _INVALID as exc:
        issues = [f": {exc}"]
    raise ConfigError([f"top level{i}" if i.startswith(":") else i for i in issues])


# libyaml's parser, about ten times faster on a many-device scenario; the
# pure-Python one serves only PyYAML builds without libyaml.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario YAML file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError([f"not valid YAML: {exc}"]) from None
    return parse_scenario(doc)
