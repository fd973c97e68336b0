"""Event traces and ground-truth labels.

A trace is the totally ordered record of everything a simulation did:
request arrivals, decisions, sends, acknowledgements, detections and
lifecycle markers. Event times are seconds relative to scenario start, and
ordering is (time, sequence number) with sequence assigned at append, so a
trace serializes to line-delimited JSON byte-identically run after run.

Ground truth travels in the trace's meta line: per-request labels assigned
by the workload generator plus the scheduled sensor episodes, which is what
lets a saved trace be re-scored without the scenario that produced it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .codec import compact_json


class TraceError(ValueError):
    """Trace bytes could not be parsed."""


@dataclass(frozen=True)
class TraceEvent:
    t: float
    seq: int
    kind: str
    data: dict


class EventTrace:
    """Append-only, replayable event log for one simulation run."""

    def __init__(self, meta: dict | None = None) -> None:
        self.meta: dict = meta or {}
        self.events: list[TraceEvent] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self.events)

    def append(self, kind: str, t: float, data: dict) -> TraceEvent:
        event = TraceEvent(t=t, seq=self._seq, kind=kind, data=data)
        self._seq += 1
        self.events.append(event)
        return event

    def by_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def to_jsonl(self) -> bytes:
        lines = [compact_json({"kind": "meta", **self.meta})]
        lines.extend(
            compact_json({"t": e.t, "seq": e.seq, "kind": e.kind, "data": e.data})
            for e in self.events
        )
        return ("\n".join(lines) + "\n").encode("utf-8")

    @classmethod
    def from_jsonl(cls, payload: bytes) -> "EventTrace":
        lines = payload.decode("utf-8").splitlines()
        if not lines:
            raise TraceError("empty trace")
        try:
            head = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise TraceError(f"bad meta line: {exc}") from None
        if not isinstance(head, dict) or head.get("kind") != "meta":
            raise TraceError("first trace line must be the meta record")
        meta = {k: v for k, v in head.items() if k != "kind"}
        trace = cls(meta=meta)
        for i, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"line {i}: {exc}") from None
            try:
                event = TraceEvent(
                    t=float(obj["t"]), seq=int(obj["seq"]), kind=str(obj["kind"]),
                    data=dict(obj.get("data", {})),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceError(f"line {i}: bad event: {exc}") from None
            trace.events.append(event)
        trace._seq = trace.events[-1].seq + 1 if trace.events else 0
        return trace


@dataclass
class GroundTruth:
    """Labels the workload generator assigned while producing the run."""

    request_labels: dict[str, str] = field(default_factory=dict)
    flame_episodes: list[tuple[float, float]] = field(default_factory=list)
    flow_anomaly_times: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "request_labels": dict(self.request_labels),
            "flame_episodes": [[s, e] for s, e in self.flame_episodes],
            "flow_anomaly_times": list(self.flow_anomaly_times),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "GroundTruth":
        return cls(
            request_labels=dict(obj.get("request_labels", {})),
            flame_episodes=[(float(s), float(e)) for s, e in obj.get("flame_episodes", [])],
            flow_anomaly_times=[float(t) for t in obj.get("flow_anomaly_times", [])],
        )

    @classmethod
    def from_trace(cls, trace: EventTrace) -> "GroundTruth":
        return cls.from_dict(trace.meta.get("truth", {}))
