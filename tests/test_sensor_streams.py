"""Sensor channels run ahead of the clock and only their hits are scheduled.

The reference below is the per-sample schedule the simulation used before:
every flame and flow sample is a heap event that feeds the monitor through
``on_flame_sample`` / ``on_flow_sample``. Its outputs must match the hit-only
streams byte for byte.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import io
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from edgegate.core import ALL_DAYS, AccessPolicy, DeviceId, Timestamp, Uid
from edgegate.scenario import (
    ArrivalConfig,
    DeviceConfig,
    FaultsConfig,
    FlameEpisode,
    FlameWorkload,
    FlowAnomalySpec,
    FlowWorkload,
    NetworkConfig,
    Partition,
    PersonnelScanSpec,
    Scenario,
    WorkloadConfig,
    load_scenario,
)
from edgegate.sim import SimClock, Simulation, _flame_value, _stamp, split_rng

from conftest import whole_run_settings
from helpers import stored_rows, streamed

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _periodic(period, duration, fire, first=0):
    k = first
    while (t := k * period) < duration:
        yield t, functools.partial(fire, k, t)
        k += 1


class ReferenceSimulation(Simulation):
    """The per-sample schedule: every sample is a heap event."""

    def _schedule_safety(self, dev) -> None:
        device = dev.device
        duration = self.scenario.duration_s
        monitor = dev.monitor
        now_ts = self.clock.now_ts
        flame = self.scenario.workload.flame
        if flame.sample_period_s > 0:
            flame_rng = split_rng(self.scenario.seed, f"flame/{device}")

            def read_flame(k: int, t: float) -> None:
                intensity, ambient = _flame_value(flame, t, flame_rng)
                monitor.on_flame_sample(intensity, ambient, now_ts())

            self.clock.add_source(_periodic(flame.sample_period_s, duration, read_flame))

        flow = self.scenario.workload.flow
        if flow.sample_period_s > 0:
            flow_rng = split_rng(self.scenario.seed, f"flow/{device}")
            anomaly_steps = {flow.step_of(a.at_s): a.magnitude_lpm for a in flow.anomalies}

            def read_flow(k: int, t: float) -> None:
                value = flow.baseline_lpm
                if flow.noise_stddev > 0:
                    value += flow_rng.gauss(0.0, flow.noise_stddev)
                value = max(0.0, value + anomaly_steps.get(k, 0.0))
                monitor.on_flow_sample(value, now_ts())

            self.clock.add_source(_periodic(flow.sample_period_s, duration, read_flow))

        scans = sorted(
            (s for s in self.scenario.workload.personnel_scans if s.at_s < duration),
            key=lambda s: s.at_s,
        )
        self.clock.add_source(
            (s.at_s, lambda uid=s.uid: monitor.on_personnel_scan(uid, now_ts()))
            for s in scans
        )
        if dev.cfg.status_period_s > 0:
            self.clock.add_source(
                _periodic(
                    dev.cfg.status_period_s,
                    duration,
                    lambda k, t: monitor.heartbeat(now_ts()),
                    first=1,
                )
            )


def outputs(simulation: Simulation) -> tuple[bytes, bytes, bytes]:
    """``trace.jsonl``, ``report.json`` and ``sink.json`` as ``edgegate run``
    writes them."""
    trace = io.StringIO()
    _, report = simulation.run(writer=trace.write)
    return (
        trace.getvalue().encode("utf-8"),
        report.to_json(),
        streamed(simulation.sink),
    )


UIDS = ("A1B2C3D4", "0BADCAFE")
AUTHZ = tuple(
    AccessPolicy(uid=Uid(u), window_start=0, window_end=86399, allowed_days=ALL_DAYS)
    for u in UIDS
)


@st.composite
def sensor_scenarios(draw) -> Scenario:
    """1-3 monitors and a gate controller, with sample periods whose stamps
    round to the millisecond (some land on half a millisecond), an end
    between samples, and scans and heartbeats on the instants where
    detections fall."""
    duration = draw(st.integers(40, 240)) + draw(st.sampled_from([0.0, 0.35, 0.5, 0.95]))
    flame_period = draw(st.sampled_from([0.3, 0.7, 1.0, 1.3, 0.3335, 0.7005]))
    flow_period = draw(st.sampled_from([0.3, 0.7, 2.0, 0.3335]))
    n_flow = int(duration / flow_period)
    episodes = tuple(
        FlameEpisode(
            start_s=k * flame_period,
            duration_s=draw(st.sampled_from([4.0, 15.0, 60.0])),
            peak=draw(st.sampled_from([900.0, 1500.0, 3000.0])),
        )
        for k in sorted(
            draw(st.sets(st.integers(5, int(duration / flame_period)), max_size=2))
        )
    )
    # Past the window's warm-up, so the anomalies are detected.
    anomaly_steps = sorted(draw(st.sets(st.integers(31, max(31, n_flow)), max_size=3)))
    anomalies = tuple(
        FlowAnomalySpec(
            at_s=k * flow_period, magnitude_lpm=draw(st.sampled_from([18.0, -9.5, 25.0]))
        )
        for k in anomaly_steps
    )
    # Scans at detection instants and just before them.
    instants = [a.at_s for a in anomalies] + [e.start_s for e in episodes]
    scan_times = [t - d for t in instants for d in draw(st.sets(st.sampled_from([0.0, 7.0])))]
    scan_times += draw(st.lists(st.floats(0.0, duration), max_size=2))
    scans = tuple(
        PersonnelScanSpec(at_s=max(t, 0.0), uid=Uid(draw(st.sampled_from(UIDS))))
        for t in scan_times
    )
    monitors = tuple(
        DeviceConfig(
            device_id=DeviceId(f"SM_{i + 1:03d}"),
            role="safety",
            location=f"Room_{i}",
            status_period_s=draw(st.sampled_from([0.0, 1.0, 3.0])) * flow_period,
        )
        for i in range(draw(st.integers(1, 3)))
    )
    gate = DeviceConfig(device_id=DeviceId("AC_001"), role="access")
    outages = draw(
        st.sampled_from([(), (Partition(duration * 0.4, duration * 0.6),)])
    )
    return Scenario(
        seed=draw(st.integers(0, 2**16)),
        start_time=Timestamp(1705320000, draw(st.sampled_from([0, 250, 999]))),
        duration_s=duration,
        devices=monitors + (gate,),
        workload=WorkloadConfig(
            access=ArrivalConfig(rate_per_s=0.1),
            flame=FlameWorkload(sample_period_s=flame_period, episodes=episodes),
            flow=FlowWorkload(sample_period_s=flow_period, anomalies=anomalies),
            personnel_scans=scans,
        ),
        authz=AUTHZ,
        network=NetworkConfig(ack_drop_prob=draw(st.sampled_from([0.0, 0.2]))),
        faults=FaultsConfig(sink_outages=outages),
    )


@whole_run_settings(tier1_examples=10)
@given(scenario=sensor_scenarios())
def test_hit_streams_write_what_the_per_sample_schedule_writes(scenario):
    assert outputs(Simulation(scenario)) == outputs(ReferenceSimulation(scenario))


@pytest.mark.parametrize("millis", [0, 250, 999])
@pytest.mark.parametrize("period", [0.3, 0.7, 0.3335, 0.7005])
def test_a_hit_is_stamped_as_the_clock_stamps_its_instant(millis, period):
    start = Timestamp(1705320000, millis)
    clock = SimClock(start)
    for k in range(3000):
        clock.run_until(k * period)
        assert Timestamp(*_stamp(start.to_epoch(), k * period)) == clock.now_ts()


class TestTieOrder:
    """Two monitors; at t = 60 s each has a flow anomaly, a personnel scan
    and a heartbeat on the same instant."""

    T = 60.0

    def scenario(self) -> Scenario:
        monitors = tuple(
            DeviceConfig(device_id=DeviceId(d), role="safety", status_period_s=20.0)
            for d in ("SM_001", "SM_002")
        )
        return Scenario(
            seed=5,
            duration_s=90.0,
            devices=monitors,
            workload=WorkloadConfig(
                flow=FlowWorkload(
                    sample_period_s=2.0,
                    anomalies=(FlowAnomalySpec(at_s=self.T, magnitude_lpm=18.0),),
                ),
                personnel_scans=(
                    PersonnelScanSpec(at_s=self.T - 10.0, uid=Uid(UIDS[0])),
                    PersonnelScanSpec(at_s=self.T, uid=Uid(UIDS[1])),
                ),
            ),
            authz=AUTHZ,
        )

    def test_same_instant_events_keep_their_order(self):
        trace, _ = Simulation(self.scenario()).run()
        at_t = [
            (e.kind, e.data["device"], e.data.get("key"))
            for e in trace.events
            if e.t == self.T and e.kind in ("outbox_enqueued", "flow_anomaly", "personnel_scan")
        ]
        # Per device: the anomaly's record (seq 3 after two heartbeats and a
        # scan), then the scan's, then the heartbeat's; SM_001 before SM_002.
        expected = []
        for device in ("SM_001", "SM_002"):
            expected += [
                ("outbox_enqueued", device, f"{device}:3"),
                ("flow_anomaly", device, None),
                ("outbox_enqueued", device, f"{device}:4"),
                ("personnel_scan", device, None),
                ("outbox_enqueued", device, f"{device}:5"),
            ]
        assert at_t == expected

    def test_anomaly_carries_only_an_earlier_scan(self):
        simulation = Simulation(self.scenario())
        simulation.run()
        rows = [r.record for r in stored_rows(simulation.sink.table)]
        anomalies = sorted(
            (r for r in rows if r.event_type == "flow_anomaly"), key=lambda r: r.device_id
        )
        assert [r.device_id.value for r in anomalies] == ["SM_001", "SM_002"]
        # The scan on the anomaly's own instant fires after it.
        assert [r.data["uid"] for r in anomalies] == [UIDS[0], UIDS[0]]


class TestHeapTraffic:
    def test_pushes_scale_with_detections_not_samples(self, monkeypatch):
        scenario = load_scenario(SCENARIOS / "safety_basic.yaml")
        samples = 1800 + 900  # 30 minutes of flame at 1 s and flow at 2 s
        pushes = 0
        heappush = heapq.heappush

        def counting(heap, item):
            nonlocal pushes
            pushes += 1
            heappush(heap, item)

        monkeypatch.setattr(heapq, "heappush", counting)
        _, report = Simulation(scenario).run()
        assert report.detection["flame_events"] == 1
        assert report.detection["flow_anomalies_detected"] == 2
        assert pushes < samples / 10

    def test_a_channel_without_hits_adds_no_heap_entry(self, monkeypatch):
        scenario = dataclasses.replace(
            load_scenario(SCENARIOS / "safety_basic.yaml"),
            workload=WorkloadConfig(
                flame=FlameWorkload(sample_period_s=1.0, noise_stddev=0.0),
                flow=FlowWorkload(sample_period_s=2.0, noise_stddev=0.0),
            ),
        )
        pending = []
        run_until = SimClock.run_until

        def recording(clock, t_end):
            pending.append(clock.pending())
            run_until(clock, t_end)

        monkeypatch.setattr(SimClock, "run_until", recording)
        _, report = Simulation(scenario).run()
        assert report.detection["flame_events"] == report.detection["flow_events"] == 0
        assert pending == [1]  # the heartbeat stream only
