"""Correctness gate over one run's output files.

``check`` returns a list of problems; an empty list means the run kept the
delivery guarantees: no duplicate rows, per-device order, every delivered
key stored exactly once, every offered record accounted for, and a replay
that reproduces the report byte for byte.
"""

from __future__ import annotations

import collections
import hashlib
import json


def digests(files: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


def trace_events(trace: bytes) -> list[dict]:
    """Events of a trace.jsonl, without its meta line."""
    return [json.loads(line) for line in trace.splitlines()[1:] if line.strip()]


def check(trace: bytes, report: bytes, sink: bytes, replay: bytes) -> list[str]:
    problems: list[str] = []
    rows = json.loads(sink)["rows"]
    keys = collections.Counter()
    last_seq: dict[str, int] = {}
    for row in rows:
        record = row["record"]
        device, seq = record["device_id"], record["seq"]
        keys[f"{device}:{seq}"] += 1
        if device in last_seq and seq <= last_seq[device]:
            problems.append(f"{device}: seq {seq} after {last_seq[device]} in row order")
        last_seq[device] = seq
    problems += [f"key {k} stored {n} times" for k, n in keys.items() if n > 1]

    for event in trace_events(trace):
        if event["kind"] == "delivered" and keys[event["data"]["key"]] != 1:
            problems.append(
                f"delivered key {event['data']['key']} stored {keys[event['data']['key']]} times"
            )

    counts = json.loads(report)["counts"]
    accounted = (
        counts["delivered"] + counts["dead_lettered"] + counts["dropped"] + counts["still_queued"]
    )
    if counts["enqueued"] != accounted:
        problems.append(
            f"enqueued {counts['enqueued']} != delivered + dead_lettered + dropped"
            f" + still_queued = {accounted}"
        )
    if replay != report:
        problems.append("replay output differs from report.json")
    return problems
