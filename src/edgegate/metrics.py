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

import csv
import io
import json
from dataclasses import dataclass, field

from .trace import EventTrace, GroundTruth

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
        return {
            "schema_version": self.schema_version,
            "auth_accuracy": self.auth_accuracy,
            "far": self.far,
            "frr": self.frr,
            "response_mean_ms": self.response_mean_ms,
            "response_p95_ms": self.response_p95_ms,
            "logging_success": self.logging_success,
            "latency_mean_s": self.latency_mean_s,
            "latency_p95_s": self.latency_p95_s,
            "counts": dict(self.counts),
            "detection": dict(self.detection),
            "queue_depth_series": [list(p) for p in self.queue_depth_series],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "MetricsReport":
        return cls(
            schema_version=int(obj.get("schema_version", 1)),
            auth_accuracy=obj.get("auth_accuracy"),
            far=obj.get("far"),
            frr=obj.get("frr"),
            response_mean_ms=obj.get("response_mean_ms"),
            response_p95_ms=obj.get("response_p95_ms"),
            logging_success=obj.get("logging_success"),
            latency_mean_s=obj.get("latency_mean_s"),
            latency_p95_s=obj.get("latency_p95_s"),
            counts={str(k): int(v) for k, v in obj.get("counts", {}).items()},
            detection=dict(obj.get("detection", {})),
            queue_depth_series=[list(p) for p in obj.get("queue_depth_series", [])],
        )

    def to_json(self) -> bytes:
        return (json.dumps(self.to_dict(), indent=2, ensure_ascii=False) + "\n").encode("utf-8")

    @classmethod
    def from_json(cls, payload: bytes) -> "MetricsReport":
        return cls.from_dict(json.loads(payload.decode("utf-8")))


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


def compute_metrics(trace: EventTrace, truth: GroundTruth) -> MetricsReport:
    """Score a trace against its ground truth. Pure function of its inputs.

    One pass over the events gathers every count and sample; the queue-depth
    series keeps a running total of the per-device depths.
    """
    labels = truth.request_labels
    unknown_decision = unknown_read = _NONE_YET
    granted = denied = 0
    false_grants = false_denials = 0
    authorized_attempts = unauthorized_attempts = 0
    response_ms: list[float] = []
    enqueue_times: dict[str, float] = {}
    deliveries: list[tuple[float, str]] = []
    drops = rejected_drops = dead_lettered = still_queued = 0
    rejected_input = gate_busy = 0
    flame_times: list[float] = []
    flow_times: list[float] = []
    series: list[list[float]] = []
    depth_by_device: dict[str, int] = {}
    total_depth = 0

    for event in trace.events:
        kind = event.kind
        data = event.data
        if kind in _DEPTH_KINDS:
            device = data["device"]
            depth = data["depth"]
            total_depth += depth - depth_by_device.get(device, 0)
            depth_by_device[device] = depth
            series.append([event.t, float(total_depth)])
            if kind == "outbox_enqueued":
                enqueue_times.setdefault(data["key"], event.t)
            elif kind == "delivered":
                deliveries.append((event.t, data["key"]))
            else:
                dead_lettered += 1
        elif kind == "auth_decision":
            rid = data.get("request_id")
            if rid not in labels:
                if unknown_decision is _NONE_YET:
                    unknown_decision = rid
                continue
            label = labels[rid]
            outcome = data["outcome"]
            response_ms.append(float(data["latency_ms"]))
            if outcome == "granted":
                granted += 1
            else:
                denied += 1
            if label == "authorized":
                authorized_attempts += 1
                if outcome == "denied":
                    false_denials += 1
            elif label == "unauthorized":
                unauthorized_attempts += 1
                if outcome == "granted":
                    false_grants += 1
        elif kind == "card_read":
            rid = data.get("request_id")
            if rid not in labels and unknown_read is _NONE_YET:
                unknown_read = rid
        elif kind == "outbox_dropped":
            drops += 1
            if data.get("mode") == "rejected":
                rejected_drops += 1
        elif kind == "queue_final":
            still_queued += data["depth"]
        elif kind == "rejected_input":
            rejected_input += 1
        elif kind == "gate_busy":
            gate_busy += 1
        elif kind == "flame_detected":
            flame_times.append(event.t)
        elif kind == "flow_anomaly":
            flow_times.append(event.t)

    if unknown_decision is not _NONE_YET:
        raise MismatchedTruthError(f"decision for unknown request {unknown_decision!r}")
    if unknown_read is not _NONE_YET:
        raise MismatchedTruthError(f"card read for unknown request {unknown_read!r}")

    valid_attempts = authorized_attempts + unauthorized_attempts
    accuracy = (
        1.0 - (false_grants + false_denials) / valid_attempts if valid_attempts else None
    )
    far = false_grants / unauthorized_attempts if unauthorized_attempts else None
    frr = false_denials / authorized_attempts if authorized_attempts else None

    delivery_latency = [t - enqueue_times[key] for t, key in deliveries if key in enqueue_times]
    enqueued = len(enqueue_times) + rejected_drops  # records offered to the outbox
    delivered = len(deliveries)
    logging_success = delivered / enqueued if enqueued else None

    counts = {
        "granted": granted,
        "denied": denied,
        "rejected_input": rejected_input,
        "gate_busy": gate_busy,
        "enqueued": enqueued,
        "delivered": delivered,
        "dead_lettered": dead_lettered,
        "dropped": drops,
        "still_queued": still_queued,
    }

    if len(series) > _SERIES_MAX_POINTS:
        stride = -(-len(series) // _SERIES_MAX_POINTS)
        series = series[::stride]

    return MetricsReport(
        auth_accuracy=accuracy,
        far=far,
        frr=frr,
        response_mean_ms=_mean(response_ms),
        response_p95_ms=_p95(response_ms),
        logging_success=logging_success,
        latency_mean_s=_mean(delivery_latency),
        latency_p95_s=_p95(delivery_latency),
        counts=counts,
        detection=_detection_metrics(flame_times, flow_times, truth),
        queue_depth_series=series,
    )


def _detection_metrics(
    flame_times: list[float], flow_times: list[float], truth: GroundTruth
) -> dict:
    episodes_detected = 0
    in_episode = 0
    for start, end in truth.flame_episodes:
        if any(start <= t <= end for t in flame_times):
            episodes_detected += 1
    for t in flame_times:
        if any(start <= t <= end for start, end in truth.flame_episodes):
            in_episode += 1

    truth_times = truth.flow_anomaly_times
    matched_truth = sum(
        1 for t in truth_times if any(abs(t - d) <= 1e-6 for d in flow_times)
    )
    matched_events = sum(
        1 for d in flow_times if any(abs(t - d) <= 1e-6 for t in truth_times)
    )

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


# ---------------------------------------------------------------------------
# Rendering

_CSV_SCALARS = (
    "schema_version",
    "auth_accuracy",
    "far",
    "frr",
    "response_mean_ms",
    "response_p95_ms",
    "logging_success",
    "latency_mean_s",
    "latency_p95_s",
)


def render_report(report: MetricsReport, fmt: str = "json") -> bytes:
    """Render as canonical JSON, a flat CSV of scalar fields, or a text table."""
    if fmt == "json":
        return report.to_json()
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "text":
        return _render_text(report)
    raise MetricsError(f"unknown report format: {fmt!r}")


def _render_csv(report: MetricsReport) -> bytes:
    d = report.to_dict()
    header = list(_CSV_SCALARS)
    header += [f"counts.{k}" for k in sorted(d["counts"])]
    header += [f"detection.{k}" for k in sorted(d["detection"])]
    row = [_csv_value(d[k]) for k in _CSV_SCALARS]
    row += [_csv_value(d["counts"][k]) for k in sorted(d["counts"])]
    row += [_csv_value(d["detection"][k]) for k in sorted(d["detection"])]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def _csv_value(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _fmt(value, suffix: str = "") -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.4f}{suffix}"
    return f"{value}{suffix}"


def _render_text(report: MetricsReport) -> bytes:
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
