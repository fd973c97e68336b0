from __future__ import annotations

import io
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from edgegate.core import DeviceId
from edgegate.metrics import (
    _SERIES_MAX_POINTS,
    MetricsReport,
    MismatchedTruthError,
    _mean,
    _p95,
    compute_metrics,
    render_report,
    replay,
)
from edgegate.scenario import (
    ArrivalConfig,
    DeviceConfig,
    Scenario,
    WorkloadConfig,
    load_scenario,
)
from edgegate.sim import run
from edgegate.trace import EventTrace, GroundTruth, TraceError

from conftest import always_open_policy


def hand_trace() -> tuple[EventTrace, GroundTruth]:
    """Ten decided requests with a known confusion matrix:
    authorized: 4 granted + 1 denied; unauthorized: 4 denied + 1 granted."""
    trace = EventTrace()
    labels = {}
    plan = [
        ("authorized", "granted"),
        ("authorized", "granted"),
        ("authorized", "granted"),
        ("authorized", "granted"),
        ("authorized", "denied"),  # false rejection
        ("unauthorized", "denied"),
        ("unauthorized", "denied"),
        ("unauthorized", "denied"),
        ("unauthorized", "denied"),
        ("unauthorized", "granted"),  # false acceptance
    ]
    for i, (label, outcome) in enumerate(plan):
        rid = f"AC_001:r{i}"
        labels[rid] = label
        t = float(i)
        trace.append("card_read", t, {"device": "AC_001", "request_id": rid,
                                      "raw_uid": "A1B2C3D4", "intended_uid": "A1B2C3D4"})
        trace.append(
            "auth_decision",
            t,
            {
                "device": "AC_001",
                "request_id": rid,
                "uid": "A1B2C3D4",
                "outcome": outcome,
                "source": "cache",
                "latency_ms": 100.0 * (i + 1),
            },
        )
    return trace, GroundTruth(request_labels=labels)


class TestConfusionMatrix:
    def test_hand_computed_rates(self):
        trace, truth = hand_trace()
        report = compute_metrics(trace, truth)
        assert report.auth_accuracy == 1.0 - 2.0 / 10.0
        assert report.far == 1.0 / 5.0
        assert report.frr == 1.0 / 5.0
        assert report.counts["granted"] == 5
        assert report.counts["denied"] == 5

    def test_response_statistics(self):
        trace, truth = hand_trace()
        report = compute_metrics(trace, truth)
        assert report.response_mean_ms == pytest.approx(550.0)
        assert report.response_p95_ms == 1000.0  # nearest rank of 10 samples

    def test_all_correct_means_perfect_rates(self):
        trace = EventTrace()
        labels = {}
        for i in range(100):
            rid = f"AC_001:r{i}"
            labels[rid] = "authorized"
            trace.append("auth_decision", float(i), {
                "device": "AC_001", "request_id": rid, "uid": "A1B2C3D4",
                "outcome": "granted", "source": "cache", "latency_ms": 0.0,
            })
        report = compute_metrics(trace, GroundTruth(request_labels=labels))
        assert report.auth_accuracy == 1.0
        assert report.frr == 0.0
        assert report.far is None  # no unauthorized attempts to divide by

    def test_far_definition_small_rate(self):
        trace = EventTrace()
        labels = {}
        for i in range(1000):
            rid = f"AC_001:r{i}"
            labels[rid] = "unauthorized"
            trace.append("auth_decision", float(i), {
                "device": "AC_001", "request_id": rid, "uid": "FFFFFFFF",
                "outcome": "granted" if i == 0 else "denied",
                "source": "cloud", "latency_ms": 1.0,
            })
        report = compute_metrics(trace, GroundTruth(request_labels=labels))
        assert report.far == 0.001

    def test_mismatched_truth_rejected(self):
        trace, truth = hand_trace()
        del truth.request_labels["AC_001:r0"]
        with pytest.raises(MismatchedTruthError):
            compute_metrics(trace, truth)

    def test_empty_run_all_absent(self):
        report = compute_metrics(EventTrace(), GroundTruth())
        assert report.auth_accuracy is None
        assert report.far is None and report.frr is None
        assert report.response_mean_ms is None
        assert report.logging_success is None
        assert report.counts["granted"] == 0


class TestRendering:
    def test_text_renders_absent_as_na(self):
        report = compute_metrics(EventTrace(), GroundTruth())
        text = render_report(report).decode()
        assert "auth accuracy     n/a" in text


class TestReplayConsistency:
    def test_replay_equals_original(self):
        scenario = Scenario(
            seed=21,
            duration_s=600.0,
            devices=(DeviceConfig(device_id=DeviceId("AC_001"), role="access"),),
            workload=WorkloadConfig(
                access=ArrivalConfig(process="poisson", rate_per_s=0.05,
                                     authorized_fraction=0.5,
                                     malformed_fraction=0.1),
            ),
            authz=(always_open_policy("A1B2C3D4"),),
        )
        trace, report = run(scenario)
        reparsed = EventTrace.from_jsonl(trace.to_jsonl())
        replayed = compute_metrics(reparsed, GroundTruth.from_trace(reparsed))
        assert replayed == report
        assert replayed.to_json() == report.to_json()


# ---------------------------------------------------------------------------
# Reference: the one-pass scorer must equal the multi-pass one it replaced.

def reference_compute_metrics(trace: EventTrace, truth: GroundTruth) -> MetricsReport:
    """The multi-pass scorer that the one-pass ``compute_metrics`` replaced,
    kept verbatim as the reference it must agree with."""
    labels = truth.request_labels
    decisions = trace.by_kind("auth_decision")
    for event in decisions:
        rid = event.data.get("request_id")
        if rid not in labels:
            raise MismatchedTruthError(f"decision for unknown request {rid!r}")
    for event in trace.by_kind("card_read"):
        rid = event.data.get("request_id")
        if rid not in labels:
            raise MismatchedTruthError(f"card read for unknown request {rid!r}")

    granted = denied = 0
    false_grants = false_denials = 0
    authorized_attempts = unauthorized_attempts = 0
    response_ms: list[float] = []
    for event in decisions:
        label = labels[event.data["request_id"]]
        outcome = event.data["outcome"]
        response_ms.append(float(event.data["latency_ms"]))
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

    valid_attempts = authorized_attempts + unauthorized_attempts
    accuracy = (
        1.0 - (false_grants + false_denials) / valid_attempts if valid_attempts else None
    )
    far = false_grants / unauthorized_attempts if unauthorized_attempts else None
    frr = false_denials / authorized_attempts if authorized_attempts else None

    enqueue_times: dict[str, float] = {}
    for event in trace.by_kind("outbox_enqueued"):
        enqueue_times.setdefault(event.data["key"], event.t)
    delivered_events = trace.by_kind("delivered")
    delivery_latency = [
        event.t - enqueue_times[event.data["key"]]
        for event in delivered_events
        if event.data["key"] in enqueue_times
    ]

    drops = trace.by_kind("outbox_dropped")
    rejected_drops = sum(1 for e in drops if e.data.get("mode") == "rejected")
    enqueued = len(enqueue_times) + rejected_drops  # records offered to the outbox
    delivered = len(delivered_events)
    dead_lettered = len(trace.by_kind("dead_letter"))
    still_queued = sum(e.data["depth"] for e in trace.by_kind("queue_final"))
    logging_success = delivered / enqueued if enqueued else None

    counts = {
        "granted": granted,
        "denied": denied,
        "rejected_input": len(trace.by_kind("rejected_input")),
        "gate_busy": len(trace.by_kind("gate_busy")),
        "enqueued": enqueued,
        "delivered": delivered,
        "dead_lettered": dead_lettered,
        "dropped": len(drops),
        "still_queued": still_queued,
    }

    series: list[list[float]] = []
    depth_by_device: dict[str, int] = {}
    for event in trace.events:
        if event.kind in ("outbox_enqueued", "delivered", "dead_letter"):
            depth_by_device[event.data["device"]] = event.data["depth"]
            series.append([event.t, float(sum(depth_by_device.values()))])
    if len(series) > _SERIES_MAX_POINTS:
        stride = -(-len(series) // _SERIES_MAX_POINTS)
        series = series[::stride]

    detection = _reference_detection_metrics(trace, truth)

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
        detection=detection,
        queue_depth_series=series,
    )


def _reference_detection_metrics(trace: EventTrace, truth: GroundTruth) -> dict:
    flame_events = trace.by_kind("flame_detected")
    flame_times = sorted(e.t for e in flame_events)
    episodes_detected = 0
    in_episode = 0
    for start, end in truth.flame_episodes:
        if any(start <= t <= end for t in flame_times):
            episodes_detected += 1
    for t in flame_times:
        if any(start <= t <= end for start, end in truth.flame_episodes):
            in_episode += 1

    flow_events = trace.by_kind("flow_anomaly")
    flow_times = sorted(e.t for e in flow_events)
    truth_times = sorted(truth.flow_anomaly_times)
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


SCENARIO_FILES = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.yaml"))
LABELS = ("authorized", "unauthorized", "malformed")
# Half of the events move a queue depth, so a long trace has more than
# _SERIES_MAX_POINTS depth points and the series stride applies.
KINDS = ("outbox_enqueued", "delivered", "dead_letter") * 3 + (
    "auth_decision", "card_read", "outbox_dropped", "queue_final", "flame_detected",
    "flow_anomaly", "rejected_input", "gate_busy", "send_attempt",
)


@st.composite
def scored_traces(draw) -> tuple[EventTrace, GroundTruth]:
    """Random traces over every kind the scorer reads, on several devices.
    Drawing a seed, not each choice, keeps shrinking fast."""
    n_events = draw(st.integers(0, 2000))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    devices = [f"AC_{i:03d}" for i in range(rnd.randint(1, 6))]
    trace = EventTrace()
    labels: dict[str, str] = {}
    keys: list[str] = []
    next_seq = dict.fromkeys(devices, 0)
    t = 0.0
    for i in range(n_events):
        t += rnd.choice((0.0, 0.25, 1.0, 7.5))
        kind = rnd.choice(KINDS)
        device = rnd.choice(devices)
        depth = rnd.randrange(0, 40)
        if kind in ("auth_decision", "card_read"):
            if labels and rnd.random() < 0.5:
                rid = rnd.choice(list(labels))  # the read and decision of one request
            else:
                rid = f"{device}:r{i}"
                labels[rid] = rnd.choice(LABELS)
            data = {"device": device, "request_id": rid}
            if kind == "auth_decision":
                data["outcome"] = rnd.choice(("granted", "denied"))
                data["latency_ms"] = rnd.choice((0, 12, rnd.uniform(0.0, 900.0)))
        elif kind == "outbox_enqueued":
            key = f"{device}:{next_seq[device]}"
            next_seq[device] += 1
            keys.append(key)
            data = {"device": device, "key": key, "depth": depth}
        elif kind in ("delivered", "dead_letter"):
            # now and then a key that was never enqueued
            key = rnd.choice(keys) if keys and rnd.random() < 0.9 else f"{device}:x{i}"
            data = {"device": device, "key": key, "depth": depth}
        elif kind == "outbox_dropped":
            data = {"device": device, "key": f"{device}:{i}",
                    "mode": rnd.choice(("rejected", "evicted"))}
        elif kind == "queue_final":
            data = {"device": device, "depth": depth}
        else:
            data = {"device": device}
        trace.append(kind, t, data)
    def times(kind: str) -> list[float]:
        # some event times, each with a chance of an unmatched time beside it
        picked = [e.t for e in trace.events if e.kind == kind and rnd.random() < 0.5]
        return picked + [rnd.uniform(0.0, t + 1.0) for _ in range(rnd.randrange(3))]

    truth = GroundTruth(
        request_labels=labels,
        flame_episodes=[(s - rnd.choice((0.0, 2.0)), s + rnd.choice((0.0, 5.0, 60.0)))
                        for s in times("flame_detected")],
        flow_anomaly_times=times("flow_anomaly"),
    )
    return trace, truth


def outcome_of(score, trace: EventTrace, truth: GroundTruth):
    try:
        return score(trace, truth).to_dict()
    except MismatchedTruthError as exc:
        return ("mismatch", str(exc))


class TestAgreesWithReference:
    @pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.stem)
    def test_bundled_scenarios(self, path):
        trace, _ = run(load_scenario(path))
        truth = GroundTruth.from_trace(trace)
        assert compute_metrics(trace, truth).to_dict() == (
            reference_compute_metrics(trace, truth).to_dict()
        )

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scored_traces())
    def test_random_traces(self, case):
        trace, truth = case
        assert outcome_of(compute_metrics, trace, truth) == (
            outcome_of(reference_compute_metrics, trace, truth)
        )

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scored_traces(), st.integers(0, 2**32))
    def test_same_mismatch_error(self, case, seed):
        """With labels missing, both name the same first unknown request:
        any decision before any card read."""
        trace, truth = case
        rnd = random.Random(seed)
        for rid in list(truth.request_labels):
            if rnd.random() < 0.3:
                del truth.request_labels[rid]
        assert outcome_of(compute_metrics, trace, truth) == (
            outcome_of(reference_compute_metrics, trace, truth)
        )

    def test_series_stride_applies(self):
        trace = EventTrace()
        for i in range(1300):
            trace.append("outbox_enqueued", float(i),
                         {"device": f"AC_00{i % 3}", "key": f"AC_00{i % 3}:{i}", "depth": i % 7})
        report = compute_metrics(trace, GroundTruth())
        assert len(report.queue_depth_series) == 434  # every 3rd of 1300
        assert report.to_dict() == reference_compute_metrics(trace, GroundTruth()).to_dict()

    def test_many_flow_alarms_and_flame_detections(self):
        """Sizes of a multi-day run: more than 10,000 flow alarms and 2,000
        flame detections, scored against overlapping, nested, unsorted and
        inverted episodes and against anomaly times on, near and just past
        the 1e-6 s match tolerance."""
        rnd = random.Random(5)
        trace = EventTrace()
        flow_times = [k * 2.0 for k in range(12_000)]
        flame_times = sorted(rnd.uniform(0.0, 24_000.0) for _ in range(2_000))
        events = [(t, "flow_anomaly") for t in flow_times]
        events += [(t, "flame_detected") for t in flame_times]
        for t, kind in sorted(events):
            trace.append(kind, t, {"device": "SM_001"})
        anomaly_times = [rnd.choice(flow_times) + rnd.choice((0.0, 5e-7, -5e-7, 1e-6, 2e-6, 1.0))
                         for _ in range(300)]
        episodes = [(s, s + rnd.choice((0.0, 1.0, 30.0, 600.0))) for s in
                    (rnd.uniform(0.0, 24_000.0) for _ in range(250))]
        episodes += [(100.0, 5_000.0), (200.0, 300.0), (900.0, 800.0)]
        rnd.shuffle(episodes)
        truth = GroundTruth(flame_episodes=episodes, flow_anomaly_times=anomaly_times)
        detection = compute_metrics(trace, truth).detection
        assert detection["flow_events"] == 12_000
        assert 0 < detection["flow_anomalies_detected"] < 300
        assert 0 < detection["flame_episodes_detected"] < len(episodes)
        assert detection == reference_compute_metrics(trace, truth).detection


def loaded_then_scored(payload: bytes):
    """What replay gave when it loaded the whole trace before scoring it."""
    try:
        trace = EventTrace.from_jsonl(payload)
    except TraceError as exc:
        return ("TraceError", str(exc))
    try:
        return compute_metrics(trace, GroundTruth.from_trace(trace)).to_dict()
    except Exception as exc:  # noqa: BLE001
        return (type(exc).__name__, str(exc))


def streamed(payload: bytes):
    try:
        return replay(io.BytesIO(payload)).to_dict()
    except Exception as exc:  # noqa: BLE001
        return (type(exc).__name__, str(exc))


DAMAGE = (b"\xff", b"\n", b"{", b"}", b'"', b",", b"\xe2\x80\xa8", b"[]\n", b"\n\n", b"x")


@st.composite
def damaged_payloads(draw) -> bytes:
    """A scored trace's bytes with a few random insertions, cuts and
    truncations."""
    trace, truth = draw(scored_traces())
    trace.meta["truth"] = truth.to_dict()
    payload = bytearray(trace.to_jsonl())
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("insert", "cut", "truncate")))
        at = draw(st.integers(0, len(payload)))
        if op == "insert":
            payload[at:at] = draw(st.sampled_from(DAMAGE))
        elif op == "cut":
            del payload[at:at + draw(st.integers(1, 60))]
        else:
            del payload[at:]
    return bytes(payload)


class TestStreamingReplay:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scored_traces())
    def test_replay_of_to_jsonl_equals_compute_metrics(self, case):
        trace, truth = case
        trace.meta["truth"] = truth.to_dict()
        assert streamed(trace.to_jsonl()) == outcome_of(compute_metrics, trace, truth)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(damaged_payloads())
    def test_damaged_payload_fails_as_when_loaded_whole(self, payload):
        assert streamed(payload) == loaded_then_scored(payload)

    @pytest.mark.parametrize(
        "payload",
        [b"", b"\n", b"not json\n", b"[1]\n", b'{"kind":"meta"}\n{"t":1}\n',
         b'{"kind":"meta","truth":[]}\n', b'{"kind":"meta"}\n\xff\n'],
    )
    def test_fixed_malformed_payloads(self, payload):
        assert streamed(payload) == loaded_then_scored(payload)
