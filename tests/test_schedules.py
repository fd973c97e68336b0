"""Every schedule of a small one-device uplink, not a random sample.

A ``SimTransport`` run is a function of its ``rng`` draws: per send, one
``random()`` for the drop (taken because ``drop_prob`` is positive), then,
if the request survives, one ``gauss()`` for the latency and one
``random()`` for the ack drop. The clock breaks ties by insertion order. So
a scripted ``rng`` that offers a few values per draw, driven by a
depth-first search over choice prefixes, visits every path of the uplink
within the bound. Each schedule's first choice is the sink's: up
throughout, or down over [0, 1.5) s, refusing every append that reaches it
then.

The scope: records 0.4 s apart, a 1 s send timeout, backoff from 0.5 to
2 s, and ``max_attempts`` 2. A drop draw is 0.0 (taken under probability
0.5) or 0.99 (not taken); a latency is 0.2 s (inside the timeout), 1.3 s
(just past it) or 2.5 s (past the backoff too). A send then has 7 paths,
one of which is acknowledged in time, so with the sink up a record has
1 + 6 * 7 = 43 and ``n`` records have 43 ** n. With the sink down, a reply
that reaches the device in time is a refusal, and a record's paths depend
on when its sends land.

Tier-1 explores 2 records, 3,962 schedules. ``EDGEGATE_SCHEDULE_RECORDS=3``
widens the bound to 3 records, about 170,000 schedules.
"""

from __future__ import annotations

import os
from collections import Counter

from edgegate import codec
from edgegate.codec import CloudRecord
from edgegate.core import DeviceId, Timestamp
from edgegate.scenario import NetworkConfig
from edgegate.sim import NetworkModel, SimClock, SimTransport
from edgegate.sink import DEFAULT_TOKEN, CloudSink, SheetTable
from edgegate.sync import RetryPolicy, SyncClient

RECORDS = int(os.environ.get("EDGEGATE_SCHEDULE_RECORDS", "2"))
EXPECTED_SCHEDULES = {2: 3_962, 3: 170_366}

DEVICE = DeviceId("AC_001")
T0 = Timestamp.from_iso8601("2024-01-15T14:30:45Z")
DRAWS = (0.0, 0.99)
LATENCIES_S = (0.2, 1.3, 2.5)
OUTAGES = (None, (0.0, 1.5))  # sink up throughout, or down over [start, end)
RECORD_GAP_S = 0.4
NETWORK = NetworkConfig(drop_prob=0.5, ack_drop_prob=0.5)
POLICY = RetryPolicy(t_base_s=0.5, t_max_s=2.0, max_attempts=2)
TIMEOUT_S = 1.0


class ScriptedRng:
    """Stands in for ``random.Random``. Each draw takes the prefix's next
    choice, or the first option once the prefix is used up, and records the
    choice with its number of options."""

    def __init__(self, prefix: list[int]) -> None:
        self._prefix = prefix
        self.taken: list[tuple[int, int]] = []

    def choose(self, options: tuple):
        i = len(self.taken)
        choice = self._prefix[i] if i < len(self._prefix) else 0
        self.taken.append((choice, len(options)))
        return options[choice]

    def random(self) -> float:
        return self.choose(DRAWS)

    def gauss(self, mu: float, sigma: float) -> float:
        return self.choose(LATENCIES_S)


def run_schedule(rng: ScriptedRng, records: int) -> tuple[list[tuple[str, dict]], CloudSink]:
    """One uplink run to quiescence: its events and its sink."""
    clock = SimClock(T0)
    sink = CloudSink()
    outage = rng.choose(OUTAGES)
    if outage is not None:
        start_s, end_s = outage
        clock.schedule_at(start_s, lambda: setattr(sink, "available", False))
        clock.schedule_at(end_s, lambda: setattr(sink, "available", True))
    transport = SimTransport(
        clock, NetworkModel(NETWORK), sink, DEFAULT_TOKEN, rng, timeout_s=TIMEOUT_S
    )
    events: list[tuple[str, dict]] = []
    client = SyncClient(
        clock, transport, POLICY, on_event=lambda kind, data: events.append((kind, data))
    )
    for seq in range(records):
        clock.schedule_at(
            seq * RECORD_GAP_S,
            lambda seq=seq: client.enqueue(
                CloudRecord(DEVICE, clock.now_ts(), "status", {}, seq)
            ),
        )
    while clock.run_next():
        pass
    return events, sink


def violations(events: list[tuple[str, dict]], sink: CloudSink) -> list[str]:
    """The invariants a schedule breaks, each named by a short reason."""
    found = []
    rows = [codec.decode(payload) for _, _, payload in sink.table.stored()]
    keys = [codec.idempotency_key(record) for record in rows]
    seqs = [record.seq for record in rows if record.device_id == DEVICE]
    if seqs != sorted(seqs):
        found.append("order")
    if len(set(keys)) != len(keys):
        found.append("duplicate")
    for kind, data in events:
        if kind == "delivered" and (
            data["row_index"] >= len(keys) or keys[data["row_index"]] != data["key"]
        ):
            found.append(f"delivered {data['key']} not stored")
    enqueued = [data["key"] for kind, data in events if kind == "outbox_enqueued"]
    ends = Counter(data["key"] for kind, data in events if kind in ("delivered", "dead_letter"))
    for key in enqueued:
        if ends[key] != 1:
            found.append(f"{key} ended {ends[key]} times")
    return found


def explore(records: int) -> tuple[int, list[tuple[list[int], list[str]]]]:
    """Run every schedule depth-first; the schedule count and, for each
    schedule that breaks an invariant, its choices and what it broke."""
    count = 0
    broken = []
    prefix: list[int] = []
    while True:
        rng = ScriptedRng(prefix)
        events, sink = run_schedule(rng, records)
        count += 1
        found = violations(events, sink)
        if found:
            broken.append(([choice for choice, _ in rng.taken], found))
        taken = rng.taken
        while taken and taken[-1][0] == taken[-1][1] - 1:
            taken.pop()  # every option of this draw is explored
        if not taken:
            return count, broken
        prefix = [choice for choice, _ in taken[:-1]] + [taken[-1][0] + 1]


def test_every_schedule_keeps_order_and_ends_each_record_once():
    count, broken = explore(RECORDS)
    assert count == EXPECTED_SCHEDULES[RECORDS]
    assert broken == []


def test_the_explorer_finds_the_order_violations_of_a_fence_free_sink(monkeypatch):
    """Without the stale fence, a retry of an earlier record that a later
    record overtook lands after it; the explorer must see that."""

    def append_without_fence(self, device, seq, payload, received_at):
        key = f"{device}:{seq}"
        existing = self._seen.get(key)
        if existing is not None:
            return existing
        row_index = len(self._payloads)
        self._received_ms.append(received_at.seconds_utc * 1000 + received_at.millis)
        self._payloads.append(payload)
        self._seen[key] = row_index
        return row_index

    monkeypatch.setattr(SheetTable, "append", append_without_fence)
    count, broken = explore(2)
    assert count == EXPECTED_SCHEDULES[2]
    assert len(broken) == 360
    assert all(found == ["order"] for _, found in broken)
