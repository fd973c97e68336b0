"""Safety-subsystem analytics: adaptive flame thresholding, rolling-window
flow anomaly detection, scalar Kalman smoothing, and safety event assembly.

The flame cutoff is a linear blend of a base level, the intensity slope and
the ambient-light reading; flame is declared when intensity meets or exceeds
it. Flow anomalies follow the classic 3-sigma control rule over the trailing
30 samples, with no flagging during warm-up. The Kalman filter is the scalar
constant-state (random walk) form, the minimal model for noise reduction.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

from .codec import CloudRecord, DataValue
from .core import DeviceId, Timestamp, Uid, bounded, discard

WINDOW_SIZE = 30
SIGMA_MULTIPLE = 3.0

# Variance of the Kalman estimate seeded from the first measurement.
_INITIAL_VARIANCE = 1.0

# Exact incremental stats would slowly drift over very long streams; a
# periodic exact rebuild bounds the error well below the 1e-9 contract.
_REBUILD_EVERY = 1024


class SafetyError(ValueError):
    """Base for safety-analytics errors."""


class NonPositiveIntervalError(SafetyError):
    """Consecutive samples must be strictly increasing in time."""


class NegativeFlowError(SafetyError):
    """Flow rates are physical quantities and cannot be negative."""


class MissingFieldError(SafetyError):
    """A safety event kind requires context this call did not supply."""


@dataclass(frozen=True)
class FlameSample:
    """One flame-sensor reading: IR intensity and ambient light, ADC counts."""

    intensity: float
    ambient: float
    at: Timestamp

    def __post_init__(self) -> None:
        if self.intensity < 0:
            raise SafetyError(f"intensity must be >= 0, got {self.intensity}")
        if self.ambient < 0:
            raise SafetyError(f"ambient must be >= 0, got {self.ambient}")


@dataclass(frozen=True)
class FlameParams:
    """Weights of the adaptive flame cutoff. Defaults are the deployed values."""

    t_base: float = bounded(800.0, gt=0.0)
    alpha: float = bounded(0.7, lo=0.0)
    beta: float = bounded(0.2, lo=0.0)
    gamma: float = bounded(0.1, lo=0.0)

    def cutoff(self, slope: float, ambient: float) -> float:
        """``alpha*t_base + beta*slope + gamma*ambient``."""
        return self.alpha * self.t_base + self.beta * slope + self.gamma * ambient


def flame_threshold(prev: FlameSample, curr: FlameSample, params: FlameParams) -> float:
    """Adaptive cutoff: alpha*t_base + beta*(dI/dt) + gamma*ambient.

    The slope is a backward difference over the two samples, in counts per
    second; a falling intensity can pull the cutoff below the base term.
    """
    dt = curr.at.diff_seconds(prev.at)
    if dt <= 0:
        raise NonPositiveIntervalError(f"non-positive sample interval: {dt}s")
    return params.cutoff((curr.intensity - prev.intensity) / dt, curr.ambient)


def detect_flame(curr: FlameSample, threshold: float) -> bool:
    """Flame is declared when intensity reaches the cutoff (inclusive)."""
    if not math.isfinite(threshold):
        raise SafetyError(f"threshold must be finite, got {threshold}")
    return curr.intensity >= threshold


class RollingWindow:
    """FIFO of the last 30 flow rates with streaming mean and population stddev.

    Statistics are maintained incrementally (windowed Welford updates) and
    agree with a from-scratch recomputation over the stored samples to within
    1e-9 relative at every push.
    """

    __slots__ = ("_samples", "_mean", "_m2", "_pushes", "size")

    def __init__(self, size: int = WINDOW_SIZE) -> None:
        if size < 1:
            raise SafetyError(f"window size must be >= 1, got {size}")
        self.size = size
        self._samples: deque[float] = deque()
        self._mean = 0.0
        self._m2 = 0.0
        self._pushes = 0

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> tuple[float, ...]:
        return tuple(self._samples)

    @property
    def is_warm(self) -> bool:
        return len(self._samples) >= self.size

    @property
    def mean(self) -> float:
        if not self._samples:
            raise SafetyError("statistics undefined on an empty window")
        return self._mean

    @property
    def stddev(self) -> float:
        if not self._samples:
            raise SafetyError("statistics undefined on an empty window")
        return math.sqrt(max(self._m2, 0.0) / len(self._samples))

    def push(self, flow: float) -> None:
        if flow < 0:
            raise NegativeFlowError(f"flow must be >= 0, got {flow}")
        if len(self._samples) == self.size:
            oldest = self._samples.popleft()
            self._remove(oldest)
        self._samples.append(flow)
        n = len(self._samples)
        delta = flow - self._mean
        self._mean += delta / n
        self._m2 += delta * (flow - self._mean)
        self._pushes += 1
        # With no spread left, a rounding residue in the mean (say, from a
        # subnormal that has left the window) alone decides flow_anomaly, so
        # recompute exactly.
        if self._m2 <= 0.0 or self._pushes % _REBUILD_EVERY == 0:
            self._rebuild()

    def _remove(self, value: float) -> None:
        # The deque has already been popped, so len() is the remaining count.
        remaining = len(self._samples)
        if remaining == 0:
            self._mean = 0.0
            self._m2 = 0.0
            return
        old_mean = self._mean
        self._mean = ((remaining + 1) * old_mean - value) / remaining
        self._m2 -= (value - old_mean) * (value - self._mean)

    def _rebuild(self) -> None:
        n = len(self._samples)
        if n == 0:
            self._mean = 0.0
            self._m2 = 0.0
            return
        mean = math.fsum(self._samples) / n
        self._mean = mean
        self._m2 = math.fsum((x - mean) ** 2 for x in self._samples)


def window_push(window: RollingWindow, flow: float) -> RollingWindow:
    """Append ``flow``, evicting the oldest sample when the window is full."""
    window.push(flow)
    return window


def flow_anomaly(window: RollingWindow, f_current: float) -> bool:
    """3-sigma control rule against the trailing window; pure w.r.t. the window.

    Returns False during warm-up (fewer than 30 stored samples): flagging
    against an undefined spread would be arbitrary.
    """
    if not window.is_warm:
        return False
    return abs(f_current - window.mean) > SIGMA_MULTIPLE * window.stddev


@dataclass(frozen=True)
class KalmanState:
    """Scalar constant-state filter: value estimate plus its variance."""

    estimate: float
    variance: float
    q: float = 0.01
    r: float = 1.0

    def __post_init__(self) -> None:
        if self.variance <= 0:
            raise SafetyError(f"variance must be > 0, got {self.variance}")
        if self.q < 0:
            raise SafetyError(f"process noise q must be >= 0, got {self.q}")
        if self.r <= 0:
            raise SafetyError(f"measurement noise r must be > 0, got {self.r}")


def kalman_update(state: KalmanState, z: float) -> tuple[KalmanState, float]:
    """One predict/update step; returns the new state and the filtered value."""
    variance_pred = state.variance + state.q
    gain = variance_pred / (variance_pred + state.r)
    estimate = state.estimate + gain * (z - state.estimate)
    variance = (1.0 - gain) * variance_pred
    new_state = KalmanState(estimate=estimate, variance=variance, q=state.q, r=state.r)
    return new_state, estimate


def steady_state_variance(q: float, r: float) -> float:
    """Fixed point of the post-update variance recursion, closed form.

    The predicted (pre-update) variance converges to this value plus ``q``.
    """
    return (-q + math.sqrt(q * q + 4.0 * q * r)) / 2.0


@dataclass(frozen=True)
class KalmanConfig:
    """Flame intensity smoothing filter: process and measurement noise variance."""

    q: float = bounded(0.01, lo=0.0)
    r: float = bounded(1.0, gt=0.0)


class KalmanFilter:
    """Stateful form of :func:`kalman_update`, on plain floats: the same
    arithmetic and variance check without a :class:`KalmanState` per update."""

    def __init__(self, config: KalmanConfig = KalmanConfig()) -> None:
        self._q = config.q
        self._r = config.r
        self._estimate = 0.0
        self._variance: float | None = None  # None until the first measurement

    @property
    def state(self) -> KalmanState | None:
        if self._variance is None:
            return None
        return KalmanState(estimate=self._estimate, variance=self._variance, q=self._q, r=self._r)

    def update(self, z: float) -> float:
        variance = self._variance
        if variance is None:  # seed the estimate from the first measurement
            self._estimate, self._variance = z, _INITIAL_VARIANCE
            return z
        variance_pred = variance + self._q
        gain = variance_pred / (variance_pred + self._r)
        estimate = self._estimate + gain * (z - self._estimate)
        variance = (1.0 - gain) * variance_pred
        if variance <= 0:
            raise SafetyError(f"variance must be > 0, got {variance}")
        self._estimate, self._variance = estimate, variance
        return estimate


class SafetyMonitor:
    """Per-device safety pipeline: smooths the flame channel, tracks the flow
    window, and emits cloud records for detections.

    Flame records fire on the rising edge only (a burning episode is one
    event, not one per sample). A recent personnel scan attaches the card
    identity to anomaly records, giving emergency responders context about
    who is inside the zone. Records and events are the monitor's only log.

    Each sensor channel is a pure step (``flame_step``, ``flow_step``) that
    advances only that channel's state and reports a hit, and a report
    (``report_flame``, ``report_flow``) that emits the hit's record and event.
    The step needs no timestamp object and no clock, so a simulation can run
    a channel ahead of its clock and schedule only the hits.
    """

    def __init__(
        self,
        device_id: DeviceId,
        location: str,
        params: FlameParams = FlameParams(),
        kalman: KalmanConfig = KalmanConfig(),
        personnel_context_s: float = 60.0,
        record_out: Callable[[CloudRecord], None] = discard,
        event_out: Callable[[str, dict], None] = discard,
    ) -> None:
        self.device_id = device_id
        self.location = location
        self.params = params
        # Flame channel: the filter, the previous filtered intensity (None
        # before the first reading) with its stamp in whole seconds and
        # millis, and the rising-edge state.
        self._filter = KalmanFilter(kalman)
        self._prev_intensity: float | None = None
        self._prev_seconds = 0
        self._prev_millis = 0
        self._burning = False
        self._window = RollingWindow()
        self._personnel_context_s = personnel_context_s
        self._last_scan: tuple[Uid, Timestamp] | None = None
        self._record_out = record_out
        self._event_out = event_out
        self._seq = itertools.count()

    def _emit(self, kind: str, context: dict, at: Timestamp) -> None:
        self._record_out(
            emit_safety_event(kind, context, at, self.device_id, next(self._seq), self.location)
        )

    def _context_uid(self, at: Timestamp) -> Uid | None:
        if self._last_scan is None:
            return None
        uid, scanned_at = self._last_scan
        if at.diff_seconds(scanned_at) <= self._personnel_context_s:
            return uid
        return None

    def flame_step(
        self, intensity: float, ambient: float, seconds: int, millis: int
    ) -> tuple[float, float] | None:
        """Advance the flame channel by one raw reading stamped ``seconds``
        and ``millis`` (the fields of its :class:`Timestamp`).

        Returns ``(filtered intensity, threshold)`` on a rising edge, else
        None. The arithmetic is that of :func:`flame_threshold` and
        :func:`detect_flame`, on plain floats.
        """
        filtered = self._filter.update(intensity)
        if ambient < 0:
            raise SafetyError(f"ambient must be >= 0, got {ambient}")
        value = 0.0 if filtered < 0.0 else filtered  # max(filtered, 0.0)
        prev = self._prev_intensity
        if prev is None:
            hit = None
        else:
            # Timestamp.diff_seconds, on the fields.
            dt = (seconds - self._prev_seconds) + (millis - self._prev_millis) / 1000.0
            if dt <= 0:
                raise NonPositiveIntervalError(f"non-positive sample interval: {dt}s")
            threshold = self.params.cutoff((value - prev) / dt, ambient)
            if not math.isfinite(threshold):
                raise SafetyError(f"threshold must be finite, got {threshold}")
            burning = value >= threshold
            hit = (value, threshold) if burning and not self._burning else None
            self._burning = burning
        self._prev_intensity = value
        self._prev_seconds = seconds
        self._prev_millis = millis
        return hit

    def report_flame(self, intensity: float, threshold: float, at: Timestamp) -> None:
        """Emit the record and event of a flame hit from :meth:`flame_step`."""
        self._emit(
            "flame_detected", {"intensity": intensity, "uid": self._context_uid(at)}, at
        )
        self._event_out(
            "flame_detected", {"intensity": round(intensity, 3), "threshold": round(threshold, 3)}
        )

    def on_flame_sample(self, intensity: float, ambient: float, at: Timestamp) -> bool:
        """Feed one raw flame reading; returns the current burning state."""
        hit = self.flame_step(intensity, ambient, at.seconds_utc, at.millis)
        if hit is not None:
            self.report_flame(*hit, at)
        return self._burning

    def flow_step(self, flow: float) -> bool:
        """Advance the flow channel by one reading: judge it against the
        trailing window, then push it. True when it is anomalous."""
        anomalous = flow_anomaly(self._window, flow)
        self._window.push(flow)
        return anomalous

    def report_flow(self, flow: float, at: Timestamp) -> None:
        """Emit the record and event of an anomalous flow reading."""
        self._emit("flow_anomaly", {"flow": flow, "uid": self._context_uid(at)}, at)
        self._event_out("flow_anomaly", {"flow": round(flow, 4)})

    def on_flow_sample(self, flow: float, at: Timestamp) -> bool:
        """Feed one flow reading; anomaly is judged against the trailing
        window before the sample joins it."""
        anomalous = self.flow_step(flow)
        if anomalous:
            self.report_flow(flow, at)
        return anomalous

    def on_personnel_scan(self, uid: Uid, at: Timestamp) -> None:
        self._last_scan = (uid, at)
        self._emit("personnel_scan", {"uid": uid}, at)
        self._event_out("personnel_scan", {"uid": uid.value})

    def heartbeat(self, at: Timestamp) -> None:
        self._emit("status", {}, at)


_SAFETY_KINDS = ("flame_detected", "flow_anomaly", "status", "personnel_scan")
_REQUIRED_CONTEXT = {
    "flame_detected": ("intensity",),
    "flow_anomaly": ("flow",),
    "status": (),
    "personnel_scan": ("uid",),
}


def format_flow(flow: float) -> str:
    """Flow rates travel as decimal strings; data values are scalars only."""
    return repr(round(float(flow), 4))


def emit_safety_event(
    kind: str,
    context: dict,
    at: Timestamp,
    device_id: DeviceId,
    seq: int,
    location: str | None = None,
) -> CloudRecord:
    """Assemble a safety CloudRecord, attaching personnel identity when given.

    ``context`` may carry ``uid`` (a :class:`Uid`), ``flow`` (L/min) and
    ``intensity`` (counts); each kind requires its own subset and rejects a
    call that omits it.
    """
    if kind not in _SAFETY_KINDS:
        raise SafetyError(f"unknown safety event kind: {kind!r}")
    for required in _REQUIRED_CONTEXT[kind]:
        if context.get(required) is None:
            raise MissingFieldError(f"{kind} event requires {required!r}")

    data: dict[str, DataValue] = {}
    uid = context.get("uid")
    if uid is not None:
        data["uid"] = uid.value if isinstance(uid, Uid) else str(uid)
    if context.get("intensity") is not None:
        data["intensity"] = int(round(context["intensity"]))
    if context.get("flow") is not None:
        data["flow"] = format_flow(context["flow"])
    if location is not None:
        data["location"] = location
    return CloudRecord(
        device_id=device_id, timestamp=at, event_type=kind, data=data, seq=seq
    )
