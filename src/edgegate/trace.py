"""Event traces and ground-truth labels.

A trace is the totally ordered record of everything a simulation did:
request arrivals, decisions, sends, acknowledgements, detections and
lifecycle markers. Event times are seconds relative to scenario start, and
ordering is (time, sequence number) with sequence assigned at append, so a
trace serializes to line-delimited JSON byte-identically run after run.

Each event is encoded to its line once, when it is appended, and handed to
the trace's writer; a run holds no event objects. ``edgegate run`` streams
the lines into ``trace.jsonl``; a trace built without a writer keeps them in
memory, for tests and ``to_jsonl``. Reading goes the other way line by line
(``read_jsonl``), splitting at line feeds only: ``compact_json`` writes
U+2028, U+2029 and U+0085 raw inside strings, so they are not line breaks.

Ground truth travels in the trace's meta line: per-request labels assigned
by the workload generator plus the scheduled sensor episodes, which is what
lets a saved trace be re-scored without the scenario that produced it.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .codec import compact_json, parse_json


class TraceError(ValueError):
    """Trace bytes could not be parsed."""


@dataclass(frozen=True)
class TraceEvent:
    t: float
    seq: int
    kind: str
    data: dict


def _meta_line(meta: dict) -> str:
    return compact_json({"kind": "meta", **meta}) + "\n"


class EventTrace:
    """Append-only, replayable event log for one simulation run.

    ``writer`` takes one line at a time, line feed included. Given one, the
    trace writes its meta line at once, so ``meta`` must already be complete,
    and then each event's line as it is appended; it keeps nothing. Without
    one, the trace keeps its event lines, ``meta`` may change until
    ``to_jsonl``, and ``events`` decodes the lines back.
    """

    def __init__(
        self, meta: dict | None = None, writer: Callable[[str], object] | None = None
    ) -> None:
        self.meta: dict = meta or {}
        self._lines: list[str] | None = None
        self._decoded: list[TraceEvent] = []
        if writer is None:
            self._lines = []
            writer = self._lines.append
        else:
            writer(_meta_line(self.meta))
        self._write = writer
        self._seq = 0

    def append(self, kind: str, t: float, data: dict) -> int:
        """Encode the event and hand its line to the writer; returns its
        sequence number."""
        seq = self._seq
        self._seq = seq + 1
        self._write(compact_json({"t": t, "seq": seq, "kind": kind, "data": data}) + "\n")
        return seq

    @property
    def events(self) -> list[TraceEvent]:
        """The kept events, each line decoded on first use."""
        lines = self._kept()
        decoded = self._decoded
        decoded.extend(TraceEvent(**parse_json(line)) for line in lines[len(decoded):])
        return decoded

    def by_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def to_jsonl(self) -> bytes:
        return (_meta_line(self.meta) + "".join(self._kept())).encode("utf-8")

    def _kept(self) -> list[str]:
        if self._lines is None:
            raise TraceError("trace was streamed to its writer and kept no lines")
        return self._lines

    @classmethod
    def from_jsonl(cls, payload: bytes) -> "EventTrace":
        """Parse a whole trace, keeping each event's sequence number."""
        meta, events = read_jsonl(io.BytesIO(payload))
        trace = cls(meta=meta)
        for t, seq, kind, data in events:
            trace._seq = seq
            trace.append(kind, t, data)
        return trace


def read_jsonl(lines: Iterable[bytes]) -> tuple[dict, Iterator[tuple[float, int, str, dict]]]:
    """Parse a trace given as byte lines split at line feeds only, as
    iterating a binary file gives them.

    Returns the meta record, checked at once, and an iterator over the events
    as ``(t, seq, kind, data)`` that parses one line per step. Both raise
    ``TraceError`` naming the bad line; blank event lines are skipped.
    """
    numbered = enumerate(lines, start=1)
    first = next(numbered, None)
    if first is None:
        raise TraceError("empty trace")
    try:
        head = parse_json(_decode(*first))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise TraceError(f"bad meta line: {exc}") from None
    if not isinstance(head, dict) or head.get("kind") != "meta":
        raise TraceError("first trace line must be the meta record")
    return {k: v for k, v in head.items() if k != "kind"}, _read_events(numbered)


def _decode(i: int, raw: bytes) -> str:
    """One line as text, without its line break."""
    try:
        return raw.decode("utf-8").removesuffix("\n")
    except UnicodeDecodeError as exc:
        raise TraceError(f"line {i}: {exc}") from None


def _read_events(numbered: Iterator[tuple[int, bytes]]) -> Iterator[tuple[float, int, str, dict]]:
    """Each event's fields are read in the order ``t``, ``seq``, ``kind``,
    ``data``, so the first bad one names the line's error. A ``data`` the
    parser built as a dict is fresh and is handed on as it is."""
    for i, raw in numbered:
        line = _decode(i, raw)
        if not line or line.isspace():
            continue
        try:
            obj = parse_json(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise TraceError(f"line {i}: {exc}") from None
        try:
            t, seq, kind = float(obj["t"]), int(obj["seq"]), str(obj["kind"])
            data = obj.get("data", {})
            if type(data) is not dict:
                data = dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"line {i}: bad event: {exc}") from None
        yield t, seq, kind, data


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
