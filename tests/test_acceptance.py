"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS line (run with ``pytest -s`` for the
transcript). Expected values come from independent oracles computed inside
the test, never from the code paths under test.
"""

from __future__ import annotations

import json
import math
import random
import time
from datetime import datetime, time as dtime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from edgegate import codec
from edgegate.auth import (
    AccessEngine,
    AuthConfig,
    Outcome,
    check_temporal,
)
from edgegate.codec import CloudRecord, decode, encode
from edgegate.core import (
    ALL_DAYS,
    AccessPolicy,
    DeviceId,
    Timestamp,
    Uid,
    Weekday,
)
from edgegate.metrics import compute_metrics
from edgegate.safety import (
    FlameParams,
    FlameSample,
    KalmanState,
    RollingWindow,
    flame_threshold,
    flow_anomaly,
    kalman_update,
)
from edgegate.scenario import (
    ArrivalConfig,
    DeviceConfig,
    NetworkConfig,
    Scenario,
    WorkloadConfig,
    load_scenario,
)
from edgegate.sim import NetworkModel, SimClock, SimCloudClient, SimTransport, Simulation, run
from edgegate.sink import CloudSink, StaleRecordError
from edgegate.sync import OutboxConfig, OutboxQueue, RetryPolicy, SyncClient, backoff_delay
from edgegate.trace import EventTrace, GroundTruth

from helpers import decide, drain, stored_rows

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
TOKEN = "edgegate-mock-token"


def _report(number: int, name: str, started: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:>2} {name}: PASS ({elapsed:.3f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def always_open(uid: str) -> AccessPolicy:
    return AccessPolicy(uid=Uid(uid), window_start=0, window_end=86399,
                        allowed_days=ALL_DAYS)


def test_01_backoff_exactness():
    started = time.perf_counter()
    policy = RetryPolicy(t_base_s=1.0, t_max_s=60.0)
    delays = [backoff_delay(n, policy) for n in range(1, 11)]
    assert delays == [1, 2, 4, 8, 16, 32, 60, 60, 60, 60]
    _report(1, "backoff exactness", started, 0.001)


def test_02_flame_threshold_constants_and_linearity():
    started = time.perf_counter()
    params = FlameParams(t_base=800.0, alpha=0.7, beta=0.2, gamma=0.1)
    t0 = Timestamp(1_705_300_000)
    base_intensity = 4000.0  # headroom so doubled negative slopes stay physical

    def cutoff(slope: float, ambient: float) -> float:
        prev = FlameSample(intensity=base_intensity, ambient=0.0, at=t0)
        curr = FlameSample(intensity=base_intensity + slope, ambient=ambient,
                           at=t0.add_seconds(1))
        return flame_threshold(prev, curr, params)

    assert cutoff(0.0, 0.0) == 560.0

    rng = random.Random(4242)
    for _ in range(2000):
        slope = rng.uniform(-1500.0, 1500.0)
        ambient = rng.uniform(0.0, 4000.0)
        combined = cutoff(slope, ambient)
        by_parts = (cutoff(slope, 0.0) - 560.0) + (cutoff(0.0, ambient) - 560.0) + 560.0
        assert combined == pytest.approx(by_parts, rel=1e-9)
        # scaling each contribution scales its term
        assert cutoff(2 * slope, 0.0) - 560.0 == pytest.approx(
            2 * (cutoff(slope, 0.0) - 560.0), rel=1e-9, abs=1e-12
        )
        assert cutoff(0.0, 2 * ambient) - 560.0 == pytest.approx(
            2 * (cutoff(0.0, ambient) - 560.0), rel=1e-9, abs=1e-12
        )
    _report(2, "flame threshold constants and linearity", started, 1.0)


def test_03_flow_anomaly_oracle_equivalence():
    started = time.perf_counter()
    n_windows = 100_000
    rng = np.random.default_rng(20240115)
    lengths = 30 + (np.arange(n_windows) % 8)
    values = rng.uniform(0.0, 50.0, size=int(lengths.sum()))
    probes = rng.uniform(0.0, 60.0, size=n_windows)

    disagreements = 0
    pos = 0
    for i in range(n_windows):
        length = int(lengths[i])
        chunk = values[pos : pos + length]
        pos += length
        if i % 997 == 0:
            chunk = np.full(length, chunk[0])  # constant window: sigma is zero
        window = RollingWindow()
        push = window.push
        for v in chunk:
            push(float(v))
        probe = float(probes[i])
        tail = chunk[-30:]
        expected = bool(abs(probe - tail.mean()) > 3.0 * tail.std())
        if flow_anomaly(window, probe) != expected:
            disagreements += 1
    assert disagreements == 0
    _report(3, f"flow anomaly oracle equivalence ({n_windows} windows)", started, 10.0)


def test_04_temporal_constraint_truth_table():
    started = time.perf_counter()
    base_day = datetime(2024, 1, 15, tzinfo=timezone.utc)  # a Monday
    window_start, window_end = dtime(9, 0, 0), dtime(17, 0, 0)
    probes = {
        "below": dtime(8, 59, 59),
        "at_start": dtime(9, 0, 0),
        "inside": dtime(12, 34, 56),
        "at_end": dtime(17, 0, 0),
        "above": dtime(17, 0, 1),
    }
    checked = 0
    for day_offset in range(7):
        day = base_day + timedelta(days=day_offset)
        for probe in probes.values():
            moment = day.replace(hour=probe.hour, minute=probe.minute,
                                 second=probe.second)
            t = Timestamp(int(moment.timestamp()))
            for day_allowed in (True, False):
                weekday = Weekday(moment.weekday())
                days = frozenset({weekday}) if day_allowed else ALL_DAYS - {weekday}
                policy = AccessPolicy(
                    uid=Uid("A1B2C3D4"),
                    window_start=9 * 3600,
                    window_end=17 * 3600,
                    allowed_days=days,
                )
                # independent oracle: datetime comparison, closed interval AND
                # weekday membership
                expected = (window_start <= moment.time() <= window_end) and day_allowed
                actual = check_temporal(policy, t) is Outcome.GRANTED
                assert actual == expected, (day_offset, probe, day_allowed)
                checked += 1
    assert checked == 70
    _report(4, "temporal constraint truth table (70 cases)", started, 1.0)


def test_05_codec_round_trip(listing_record):
    started = time.perf_counter()
    rng = random.Random(555)
    event_types = codec.EVENT_TYPES
    devices = [DeviceId("AC_001"), DeviceId("SM_002"), DeviceId("GW_003")]
    alphabet = "abcdefXYZ0189 _-/.€ñ台"
    for i in range(10_000):
        data = {}
        for k in range(rng.randrange(6)):
            roll = rng.random()
            key = f"f{k}"
            if roll < 0.35:
                data[key] = rng.randrange(-(10**9), 10**9)
            elif roll < 0.55:
                data[key] = rng.random() < 0.5
            else:
                data[key] = "".join(
                    rng.choice(alphabet) for _ in range(rng.randrange(16))
                )
        record = CloudRecord(
            device_id=devices[rng.randrange(3)],
            timestamp=Timestamp(rng.randrange(0, 4_000_000_000)),
            event_type=event_types[rng.randrange(len(event_types))],
            data=data,
            seq=rng.randrange(2**40),
        )
        assert decode(encode(record)) == record

    # the canonical wire example parses to exactly the stated field values
    pretty = (
        b'{\n  "device_id": "AC_001",\n  "timestamp": "2024-01-15T14:30:45Z",'
        b'\n  "event_type": "access_granted",\n  "data": {\n'
        b'    "uid": "A1B2C3D4",\n    "gate_status": "open",\n'
        b'    "duration_ms": 4800,\n    "location": "Main_Entrance"\n  }\n}'
    )
    parsed = decode(pretty)
    assert parsed.device_id.value == "AC_001"
    assert parsed.timestamp.iso8601() == "2024-01-15T14:30:45Z"
    assert parsed.event_type == "access_granted"
    assert parsed.data == {
        "uid": "A1B2C3D4",
        "gate_status": "open",
        "duration_ms": 4800,
        "location": "Main_Entrance",
    }
    assert parsed == decode(encode(listing_record))
    _report(5, "codec round trip (10k records + canonical example)", started, 5.0)


def test_06_outage_survival_24h():
    started = time.perf_counter()
    scenario = load_scenario(SCENARIOS / "outage_recovery.yaml")
    assert scenario.duration_s == 108_000  # 30 simulated hours
    assert scenario.faults.partitions[0].end_s - scenario.faults.partitions[0].start_s \
        == 86_400  # 24 of them dark
    sim = Simulation(scenario)
    trace, report = sim.run()

    counts = report.counts
    assert counts["enqueued"] > 1000
    assert counts["delivered"] == counts["enqueued"]  # zero loss
    assert counts["still_queued"] == 0
    assert counts["dead_lettered"] == 0
    assert counts["dropped"] == 0
    assert report.logging_success == 1.0

    # zero duplicate rows at the sink
    rows = stored_rows(sim.sink.table)
    keys = [f"{r.record.device_id.value}:{r.record.seq}" for r in rows]
    assert len(keys) == len(set(keys))

    # per-device sink order equals enqueue order
    enqueue_order: dict[str, list[str]] = {}
    for event in trace.by_kind("outbox_enqueued"):
        enqueue_order.setdefault(event.data["device"], []).append(event.data["key"])
    sink_order: dict[str, list[str]] = {}
    for row in rows:
        sink_order.setdefault(row.record.device_id.value, []).append(
            f"{row.record.device_id.value}:{row.record.seq}"
        )
    assert sink_order == enqueue_order

    # the backlog really did build up while the link was down
    partition_depths = [
        e.data["depth"]
        for e in trace.by_kind("outbox_enqueued")
        if 10_800 <= e.t < 97_200
    ]
    assert max(partition_depths) > 100
    _report(6, f"24h outage survival ({counts['enqueued']} records)", started, 60.0)


def test_07_delivery_rate_model():
    started = time.perf_counter()
    n = 10_000
    drop = 0.1
    attempts = 4
    clock = SimClock(Timestamp.from_iso8601("2024-01-15T00:00:00Z"))
    sink = CloudSink(TOKEN)
    model = NetworkModel(NetworkConfig(latency_mean_s=0.2, latency_stddev_s=0.05,
                                       latency_floor_s=0.01, drop_prob=drop))
    transport = SimTransport(clock, model, sink, TOKEN,
                             random.Random("delivery-rate"), timeout_s=1.0)
    delivered = []

    def on_event(kind, data):
        if kind == "delivered":
            delivered.append(data["key"])

    client = SyncClient(
        clock=clock,
        transport=transport,
        policy=RetryPolicy(t_base_s=1.0, t_max_s=60.0, max_attempts=attempts),
        queue=OutboxQueue(OutboxConfig(capacity=n + 1)),
        on_event=on_event,
    )
    device = DeviceId("AC_001")
    t0 = Timestamp.from_iso8601("2024-01-15T00:00:00Z")
    for seq in range(n):
        client.enqueue(CloudRecord(device, t0, "status", {}, seq))
    drain(client, clock)

    assert len(delivered) + len(client.dead_letters) == n
    success = len(delivered) / n
    p = 1.0 - drop**attempts  # per-record success probability
    band = 3.0 * math.sqrt(p * (1.0 - p) / n)
    assert abs(success - p) <= band, (success, p, band)
    _report(
        7,
        f"delivery-rate model (success {success:.4%} vs {p:.4%} +/- {band:.4%})",
        started,
        60.0,
    )


def test_08_latency_composition():
    started = time.perf_counter()
    n_pairs = 5_000
    clock = SimClock(Timestamp.from_iso8601("2024-01-15T00:00:00Z"))
    sink = CloudSink(TOKEN)
    uids = [f"{i:08X}" for i in range(n_pairs)]
    sink.seed_policies([always_open(u) for u in uids])
    model = NetworkModel(NetworkConfig(latency_mean_s=1.2, latency_stddev_s=0.3,
                                       latency_floor_s=0.05))
    engine = AccessEngine(
        device_id=DeviceId("AC_001"),
        location="Main_Entrance",
        clock=clock,
        cloud=SimCloudClient(clock, model, sink, TOKEN, random.Random("latency")),
        config=AuthConfig(t_timeout_ms=10_000.0, cache_capacity=4),
    )

    latencies_s = []
    hits = misses = 0
    for uid in uids:
        for _ in range(2):
            _, decision = decide(engine, clock, uid)
            assert decision["outcome"] == "granted"
            latencies_s.append(decision["latency_ms"] / 1000.0)
            if decision["source"] == "cache":
                hits += 1
            else:
                misses += 1
            clock.run_until(clock.now() + 12.0)  # clear the gate cycle

    assert hits == misses == n_pairs  # cache-hit ratio is exactly one half
    measured = sum(latencies_s) / len(latencies_s)

    # analytic mean of the floor-truncated normal round trip
    mu, sigma, floor = 1.2, 0.3, 0.05
    z = (floor - mu) / sigma
    phi = math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
    big_phi = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    e_rtt = floor * big_phi + mu * (1.0 - big_phi) + sigma * phi
    t_cache = 0.0  # cache decisions complete in the same simulated instant
    expected = 0.5 * t_cache + 0.5 * e_rtt
    assert abs(measured - expected) / expected <= 0.05, (measured, expected)
    _report(
        8,
        f"latency composition (measured {measured:.4f}s vs {expected:.4f}s)",
        started,
        120.0,
    )


def test_09_determinism_three_scenarios():
    started = time.perf_counter()
    names = ("access_basic.yaml", "safety_basic.yaml", "outage_recovery.yaml")
    for name in names:
        scenario = load_scenario(SCENARIOS / name)
        t1, r1 = run(scenario)
        t2, r2 = run(scenario)
        assert t1.to_jsonl() == t2.to_jsonl(), f"trace bytes differ for {name}"
        assert r1.to_json() == r2.to_json(), f"report bytes differ for {name}"
    _report(9, f"determinism across {len(names)} scenarios", started, 60.0)


def test_10_metrics_confusion_oracle():
    started = time.perf_counter()
    trace = EventTrace()
    labels = {}
    # 6 authorized (5 granted, 1 denied), 4 unauthorized (3 denied, 1 granted)
    plan = [("authorized", "granted")] * 5 + [("authorized", "denied")] \
        + [("unauthorized", "denied")] * 3 + [("unauthorized", "granted")]
    for i, (label, outcome) in enumerate(plan):
        rid = f"AC_001:r{i}"
        labels[rid] = label
        trace.append("auth_decision", float(i), {
            "device": "AC_001", "request_id": rid, "uid": "A1B2C3D4",
            "outcome": outcome, "source": "cloud", "latency_ms": 10.0,
        })
    report = compute_metrics(trace, GroundTruth(request_labels=labels))
    # hand-computed confusion matrix: 2 errors over 10, 1 FA over 4, 1 FR over 6
    assert report.auth_accuracy == 1.0 - 2.0 / 10.0
    assert report.far == 1.0 / 4.0
    assert report.frr == 1.0 / 6.0
    assert report.counts["granted"] == 6 and report.counts["denied"] == 4
    _report(10, "metrics confusion oracle", started, 1.0)


def test_11_kalman_steady_state():
    started = time.perf_counter()
    q, r = 0.01, 1.0
    state = KalmanState(estimate=0.0, variance=1.0, q=q, r=r)
    for _ in range(1000):
        state, _ = kalman_update(state, 3.7)

    # independent oracle: iterate the bare variance recursion to convergence
    v = 1.0
    for _ in range(200_000):
        vp = v + q
        v = vp * r / (vp + r)
    assert abs(state.variance - v) / v < 0.01

    # the same fixed point via the stated equation: the predicted variance
    # x = v + q is the positive root of x**2 = q * (x + r)
    x_root = (q + math.sqrt(q * q + 4.0 * q * r)) / 2.0
    assert x_root * x_root == pytest.approx(q * (x_root + r), rel=1e-12)
    assert abs((state.variance + q) - x_root) / x_root < 0.01
    _report(
        11,
        f"kalman steady state (variance {state.variance:.6f} -> {v:.6f})",
        started,
        1.0,
    )


def _scale_scenario(seed: int, false_accept: float, false_reject: float) -> Scenario:
    uids = [f"{i + 1:08X}" for i in range(5)]
    return Scenario(
        seed=seed,
        start_time=Timestamp.from_iso8601("2024-01-15T00:00:00Z"),
        duration_s=100_020.0,
        devices=(DeviceConfig(device_id=DeviceId("AC_001"), role="access"),),
        workload=WorkloadConfig(
            access=ArrivalConfig(
                process="uniform",
                rate_per_s=0.1,
                authorized_fraction=0.5,
                malformed_fraction=0.0,
                misread_false_accept=false_accept,
                misread_false_reject=false_reject,
            ),
        ),
        authz=tuple(always_open(u) for u in uids),
        network=NetworkConfig(latency_mean_s=1.2, latency_stddev_s=0.3),
    )


def test_12_auth_correctness_at_scale():
    started = time.perf_counter()

    # fault-free: the granted set IS the ground-truth authorized set
    trace, report = run(_scale_scenario(seed=31415, false_accept=0.0,
                                        false_reject=0.0))
    labels = GroundTruth.from_trace(trace).request_labels
    decisions = trace.by_kind("auth_decision")
    assert len(decisions) >= 9_990
    assert report.counts["gate_busy"] == 0
    for event in decisions:
        expected = labels[event.data["request_id"]] == "authorized"
        assert (event.data["outcome"] == "granted") == expected
    assert report.auth_accuracy == 1.0
    assert report.far == 0.0 and report.frr == 0.0
    n_clean = len(decisions)

    # configured misread rates reproduce FAR/FRR within 3-sigma binomial bands
    p_fa, p_fr = 0.04, 0.03
    trace2, report2 = run(_scale_scenario(seed=27182, false_accept=p_fa,
                                          false_reject=p_fr))
    labels2 = GroundTruth.from_trace(trace2).request_labels
    n_auth = sum(1 for v in labels2.values() if v == "authorized")
    n_unauth = sum(1 for v in labels2.values() if v == "unauthorized")
    band_fa = 3.0 * math.sqrt(p_fa * (1.0 - p_fa) / n_unauth)
    band_fr = 3.0 * math.sqrt(p_fr * (1.0 - p_fr) / n_auth)
    assert abs(report2.far - p_fa) <= band_fa, (report2.far, p_fa, band_fa)
    assert abs(report2.frr - p_fr) <= band_fr, (report2.frr, p_fr, band_fr)
    _report(
        12,
        (
            f"auth correctness at scale ({n_clean} clean decisions; "
            f"FAR {report2.far:.4f}~{p_fa}, FRR {report2.frr:.4f}~{p_fr})"
        ),
        started,
        120.0,
    )


def test_13_per_device_order_under_a_finite_retry_budget():
    """Every send times out after 0.5 s while its copy takes about 4 s to
    reach the sink, and each record gets one attempt: the device gives up
    on each record while its copy is still in transit and sends the next.
    A short gate cycle lets records follow each other about a second
    apart, so the copies race each other; whatever order they land in,
    each device's rows must be in ``seq`` order."""
    started = time.perf_counter()
    scenario = Scenario(
        seed=27,
        start_time=Timestamp.from_iso8601("2024-01-15T00:00:00Z"),
        duration_s=1800.0,
        devices=tuple(
            DeviceConfig(
                device_id=DeviceId(f"AC_00{i}"),
                role="access",
                auth=AuthConfig(t_entry_s=0.2),
                retry=RetryPolicy(max_attempts=1),
                send_timeout_s=0.5,
            )
            for i in (1, 2)
        ),
        workload=WorkloadConfig(access=ArrivalConfig(rate_per_s=1.0)),
        authz=(always_open("A1B2C3D4"),),
        network=NetworkConfig(latency_mean_s=4.0, latency_stddev_s=1.5),
    )
    sim = Simulation(scenario)
    stale = []
    append = sim.sink.table.append

    def spy(device, seq, payload, received_at):
        try:
            return append(device, seq, payload, received_at)
        except StaleRecordError:
            stale.append(f"{device}:{seq}")
            raise

    sim.sink.table.append = spy
    trace, report = sim.run()

    assert report.counts["dead_lettered"] > 100
    seqs: dict[str, list[int]] = {}
    for row in stored_rows(sim.sink.table):
        seqs.setdefault(row.record.device_id.value, []).append(row.record.seq)
    assert set(seqs) == {"AC_001", "AC_002"}
    for device, order in seqs.items():
        assert order == sorted(set(order)), f"{device} rows out of seq order"
    assert stale  # late copies did arrive behind their successors
    _report(13, f"per-device order, one attempt per record ({len(stale)} stale copies refused)",
            started, 30.0)
