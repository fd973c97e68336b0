"""Metric aggregation over event traces: authentication quality (accuracy,
false acceptance, false rejection), decision response times, uplink delivery
health, and per-episode detection quality.

Denominator conventions: false acceptance is measured over unauthorized
attempts and false rejection over authorized attempts. Response time is
engine decision latency, from the card-read event to the decision event; the
workload's configured reader delay is not part of it. Metrics with a zero
denominator are reported as absent (None / ``n/a``), never as 0 or NaN.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Iterable

from .trace import EventTrace, GroundTruth, TraceError, read_jsonl

_SERIES_MAX_POINTS = 512


class MetricsError(ValueError):
    """Base for metric-computation failures."""


class MismatchedTruthError(MetricsError):
    """Trace and ground truth do not come from the same run."""


@dataclass
class MetricsReport:
    """Deterministic aggregation of one run; JSON is the canonical form."""

    schema_version: int = 1
    auth_accuracy: float | None = None
    far: float | None = None
    frr: float | None = None
    response_mean_ms: float | None = None
    response_p95_ms: float | None = None
    logging_success: float | None = None
    latency_mean_s: float | None = None
    latency_p95_s: float | None = None
    counts: dict[str, int] = field(default_factory=dict)
    detection: dict[str, float | int | None] = field(default_factory=dict)
    queue_depth_series: list[list[float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> bytes:
        return (json.dumps(self.to_dict(), indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def _p95(values: list[float]) -> float | None:
    """Nearest-rank 95th percentile (deterministic, no interpolation)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, -(-95 * len(ordered) // 100))  # ceil(0.95 n)
    return ordered[rank - 1]


_DEPTH_KINDS = frozenset(("outbox_enqueued", "delivered", "dead_letter"))
_NONE_YET = object()


class MetricsFold:
    """The scorer as a fold: ``feed(t, kind, data)`` once per event, in trace
    order, then ``finish()`` for the report. A run feeds it as it emits and a
    replay as it reads, so neither keeps its events.

    What it holds grows with the records and samples the report needs, kept
    as flat lists of numbers and keys; the queue-depth series keeps a running
    total of the per-device depths.
    """

    def __init__(self, truth: GroundTruth) -> None:
        self._truth = truth
        self._labels = truth.request_labels
        self._unknown_decision = self._unknown_read = _NONE_YET
        self._granted = self._denied = 0
        self._false_grants = self._false_denials = 0
        self._authorized_attempts = self._unauthorized_attempts = 0
        self._response_ms: list[float] = []
        self._enqueue_times: dict[str, float] = {}
        self._delivery_times: list[float] = []
        self._delivery_keys: list[str] = []
        self._drops = self._rejected_drops = self._dead_lettered = self._still_queued = 0
        self._rejected_input = self._gate_busy = 0
        self._flame_times: list[float] = []
        self._flow_times: list[float] = []
        self._series: list[float] = []  # t, depth, t, depth, ...
        self._depth_by_device: dict[str, int] = {}
        self._total_depth = 0

    def feed(self, t: float, kind: str, data: dict) -> None:
        if kind in _DEPTH_KINDS:
            device = data["device"]
            depth = data["depth"]
            depths = self._depth_by_device
            self._total_depth += depth - depths.get(device, 0)
            depths[device] = depth
            self._series += (t, float(self._total_depth))
            if kind == "outbox_enqueued":
                self._enqueue_times.setdefault(data["key"], t)
            elif kind == "delivered":
                self._delivery_times.append(t)
                self._delivery_keys.append(data["key"])
            else:
                self._dead_lettered += 1
        elif kind == "auth_decision":
            rid = data.get("request_id")
            if rid not in self._labels:
                if self._unknown_decision is _NONE_YET:
                    self._unknown_decision = rid
                return
            label = self._labels[rid]
            outcome = data["outcome"]
            self._response_ms.append(float(data["latency_ms"]))
            if outcome == "granted":
                self._granted += 1
            else:
                self._denied += 1
            if label == "authorized":
                self._authorized_attempts += 1
                if outcome == "denied":
                    self._false_denials += 1
            elif label == "unauthorized":
                self._unauthorized_attempts += 1
                if outcome == "granted":
                    self._false_grants += 1
        elif kind == "card_read":
            rid = data.get("request_id")
            if rid not in self._labels and self._unknown_read is _NONE_YET:
                self._unknown_read = rid
        elif kind == "outbox_dropped":
            self._drops += 1
            if data.get("mode") == "rejected":
                self._rejected_drops += 1
        elif kind == "queue_final":
            self._still_queued += data["depth"]
        elif kind == "rejected_input":
            self._rejected_input += 1
        elif kind == "gate_busy":
            self._gate_busy += 1
        elif kind == "flame_detected":
            self._flame_times.append(t)
        elif kind == "flow_anomaly":
            self._flow_times.append(t)

    def finish(self) -> MetricsReport:
        if self._unknown_decision is not _NONE_YET:
            raise MismatchedTruthError(f"decision for unknown request {self._unknown_decision!r}")
        if self._unknown_read is not _NONE_YET:
            raise MismatchedTruthError(f"card read for unknown request {self._unknown_read!r}")

        false_grants, false_denials = self._false_grants, self._false_denials
        authorized, unauthorized = self._authorized_attempts, self._unauthorized_attempts
        valid_attempts = authorized + unauthorized
        accuracy = (
            1.0 - (false_grants + false_denials) / valid_attempts if valid_attempts else None
        )
        far = false_grants / unauthorized if unauthorized else None
        frr = false_denials / authorized if authorized else None

        enqueue_times = self._enqueue_times
        delivery_latency = [
            t - enqueue_times[key]
            for t, key in zip(self._delivery_times, self._delivery_keys)
            if key in enqueue_times
        ]
        enqueued = len(enqueue_times) + self._rejected_drops  # records offered to the outbox
        delivered = len(self._delivery_keys)
        logging_success = delivered / enqueued if enqueued else None

        counts = {
            "granted": self._granted,
            "denied": self._denied,
            "rejected_input": self._rejected_input,
            "gate_busy": self._gate_busy,
            "enqueued": enqueued,
            "delivered": delivered,
            "dead_lettered": self._dead_lettered,
            "dropped": self._drops,
            "still_queued": self._still_queued,
        }

        flat = self._series
        stride = max(1, -(-len(flat) // (2 * _SERIES_MAX_POINTS)))  # ceil(points / max)
        series = [[flat[i], flat[i + 1]] for i in range(0, len(flat), 2 * stride)]

        return MetricsReport(
            auth_accuracy=accuracy,
            far=far,
            frr=frr,
            response_mean_ms=_mean(self._response_ms),
            response_p95_ms=_p95(self._response_ms),
            logging_success=logging_success,
            latency_mean_s=_mean(delivery_latency),
            latency_p95_s=_p95(delivery_latency),
            counts=counts,
            detection=_detection_metrics(self._flame_times, self._flow_times, self._truth),
            queue_depth_series=series,
        )


def compute_metrics(trace: EventTrace, truth: GroundTruth) -> MetricsReport:
    """Score a kept trace against its ground truth. Pure function of its inputs."""
    fold = MetricsFold(truth)
    for event in trace.events:
        fold.feed(event.t, event.kind, event.data)
    return fold.finish()


def replay(lines: Iterable[bytes]) -> MetricsReport:
    """Score a saved trace, read line by line, against the truth in its meta
    line; ``lines`` is a binary file or anything that yields its lines.

    A bad line raises ``TraceError`` and a scoring failure its own error, as
    when the trace is loaded whole with ``EventTrace.from_jsonl`` and then
    scored: after a scoring failure the rest of the file is still read, so a
    bad line further down wins.
    """
    meta, events = read_jsonl(lines)
    try:
        fold = MetricsFold(GroundTruth.from_dict(meta.get("truth", {})))
        for t, _, kind, data in events:
            fold.feed(t, kind, data)
        return fold.finish()
    except TraceError:
        raise
    except Exception:
        for _ in events:
            pass
        raise


def _detection_metrics(
    flame_times: list[float], flow_times: list[float], truth: GroundTruth
) -> dict:
    """Flame detections scored per episode, flow alarms per injected anomaly
    (matched within 1e-6 s), each by one sweep over time-ordered lists."""
    flame = sorted(flame_times)
    episodes = sorted(truth.flame_episodes)
    episodes_detected = 0
    j = 0
    for start, end in episodes:  # is there a detection in [start, end]?
        while j < len(flame) and flame[j] < start:
            j += 1
        if j < len(flame) and flame[j] <= end:
            episodes_detected += 1
    in_episode = 0
    i = 0
    reach = float("-inf")  # latest end among the episodes started so far
    for t in flame:  # does a started episode still cover t?
        while i < len(episodes) and episodes[i][0] <= t:
            reach = max(reach, episodes[i][1])
            i += 1
        if t <= reach:
            in_episode += 1

    truth_times = sorted(truth.flow_anomaly_times)
    flow = sorted(flow_times)
    matched_truth = _count_matched(truth_times, flow)
    matched_events = _count_matched(flow, truth_times)

    n_ep = len(truth.flame_episodes)
    n_flame = len(flame_times)
    n_truth = len(truth_times)
    n_flow = len(flow_times)
    return {
        "flame_episodes": n_ep,
        "flame_episodes_detected": episodes_detected,
        "flame_events": n_flame,
        "flame_recall": episodes_detected / n_ep if n_ep else None,
        "flame_precision": in_episode / n_flame if n_flame else None,
        "flow_anomalies_injected": n_truth,
        "flow_anomalies_detected": matched_truth,
        "flow_events": n_flow,
        "flow_recall": matched_truth / n_truth if n_truth else None,
        "flow_precision": matched_events / n_flow if n_flow else None,
    }


def _count_matched(times: list[float], others: list[float]) -> int:
    """How many of ``times`` lie within 1e-6 of some time in ``others``; both
    sorted. The computed ``abs(t - d)`` only grows as ``d`` moves away from
    ``t``, so the candidates for ``t`` start at the first ``d`` not too far
    below it, and that start only moves forward as ``t`` grows."""
    matched = 0
    j = 0
    for t in times:
        while j < len(others) and others[j] < t and abs(t - others[j]) > 1e-6:
            j += 1
        if j < len(others) and abs(t - others[j]) <= 1e-6:
            matched += 1
    return matched


# ---------------------------------------------------------------------------
# Rendering

def _fmt(value, suffix: str = "") -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.4f}{suffix}"
    return f"{value}{suffix}"


def render_report(report: MetricsReport) -> bytes:
    """Render as a text table."""
    lines = [
        "edgegate run report",
        "-------------------",
        f"auth accuracy     {_fmt(report.auth_accuracy)}",
        f"FAR               {_fmt(report.far)}",
        f"FRR               {_fmt(report.frr)}",
        f"response mean     {_fmt(report.response_mean_ms, ' ms')}",
        f"response p95      {_fmt(report.response_p95_ms, ' ms')}",
        f"logging success   {_fmt(report.logging_success)}",
        f"delivery mean     {_fmt(report.latency_mean_s, ' s')}",
        f"delivery p95      {_fmt(report.latency_p95_s, ' s')}",
        "counts:",
    ]
    for key in sorted(report.counts):
        lines.append(f"  {key:<16} {report.counts[key]}")
    lines.append("detection:")
    for key in sorted(report.detection):
        lines.append(f"  {key:<24} {_fmt(report.detection[key])}")
    return ("\n".join(lines) + "\n").encode("utf-8")
