from __future__ import annotations

import dataclasses
import math
import random
import threading
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from edgegate import cli, codec
from edgegate.auth import AccessEngine, Outcome, check_temporal
from edgegate.codec import CloudRecord, encode
from edgegate.core import DeviceId, Timestamp
from edgegate.scenario import (
    ArrivalConfig,
    DeviceConfig,
    DropWindow,
    FaultsConfig,
    FlowAnomalySpec,
    FlowWorkload,
    NetworkConfig,
    Partition,
    Scenario,
    SinkConfig,
    WorkloadConfig,
    load_scenario,
)
from edgegate.sim import (
    NetworkModel,
    SimClock,
    SimCloudClient,
    SimError,
    SimTransport,
    Simulation,
    run,
    split_rng,
)
from edgegate.safety import SafetyMonitor
from edgegate.sink import DEFAULT_TOKEN, CloudSink
from edgegate.sync import Nack, RetryPolicy, SyncClient
from edgegate.trace import EventTrace, GroundTruth, TraceError
from edgegate.wire import RemoteSink, SinkServer

from conftest import always_open_policy
from helpers import stored_rows

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestSimClock:
    def test_time_advances_to_event(self):
        clock = SimClock(0.0)
        fired = []
        clock.schedule(2.5, lambda: fired.append(clock.now()))
        clock.schedule(1.0, lambda: fired.append(clock.now()))
        assert clock.run_next() and clock.run_next()
        assert fired == [1.0, 2.5]

    def test_equal_times_fire_in_insertion_order(self):
        clock = SimClock(0.0)
        fired = []
        for tag in ("a", "b", "c"):
            clock.schedule(1.0, lambda t=tag: fired.append(t))
        clock.run_until(1.0)
        assert fired == ["a", "b", "c"]

    def test_run_until_lands_exactly(self):
        clock = SimClock(0.0)
        clock.run_until(3600.0)
        assert clock.now() == 3600.0

    def test_past_scheduling_rejected(self):
        clock = SimClock(0.0)
        clock.run_until(10.0)
        with pytest.raises(SimError):
            clock.schedule(-1.0, lambda: None)
        with pytest.raises(SimError):
            clock.schedule_at(5.0, lambda: None)

    def test_timestamp_tracks_epoch(self):
        start = Timestamp.from_iso8601("2024-01-15T00:00:00Z")
        clock = SimClock(start)
        clock.run_until(90.25)
        assert clock.now_ts() == start.add_seconds(90.25)

    @given(
        streams=st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.tuples(st.integers(0, 12), st.booleans()), max_size=8).map(sorted),
            ),
            max_size=6,
        )
    )
    def test_lazy_streams_fire_as_if_pushed_up_front(self, streams):
        """Each stream is registered lazily or, when its flag is set, pushed
        event by event; the reference pushes every event up front. Callbacks
        that spawn dynamic events at the same instant and 5 s later must
        interleave identically."""

        def fire_order(lazy: bool) -> list:
            clock = SimClock(0.0)
            fired = []

            def event(label, spawn):
                def fn():
                    fired.append((clock.now(), label))
                    if spawn:
                        clock.schedule(0.0, lambda: fired.append((clock.now(), label + ("now",))))
                        clock.schedule(5.0, lambda: fired.append((clock.now(), label + ("+5",))))

                return fn

            for i, (pushed, events) in enumerate(streams):
                stream = [(float(t), event((i, j), spawn)) for j, (t, spawn) in enumerate(events)]
                if lazy and not pushed:
                    clock.add_source(stream)
                else:
                    for t, fn in stream:
                        clock.schedule_at(t, fn)
            assert clock.pending() == sum(
                len(events) if pushed or not lazy else min(len(events), 1)
                for pushed, events in streams
            )
            clock.run_until(30.0)
            assert clock.pending() == 0
            return fired

        assert fire_order(lazy=True) == fire_order(lazy=False)

    def test_stream_time_in_the_past_rejected(self):
        clock = SimClock(0.0)
        clock.add_source([(2.0, lambda: None), (1.0, lambda: None)])
        with pytest.raises(SimError):
            clock.run_until(5.0)
        clock = SimClock(0.0)
        clock.run_until(10.0)
        with pytest.raises(SimError):
            clock.add_source(iter([(5.0, lambda: None)]))

    def test_timeout_after_an_ack_gives_no_second_outcome(self):
        clock = SimClock()
        model = NetworkModel(NetworkConfig(latency_stddev_s=0.0))
        transport = SimTransport(clock, model, CloudSink(), DEFAULT_TOKEN, random.Random(1))
        record = CloudRecord(DeviceId("AC_001"), clock.now_ts(), "status", {}, 0)
        outcomes = []
        transport.send(encode(record), outcomes.append)
        clock.run_until(2.0)  # latency 1.2 s
        assert outcomes == [0]  # row 0
        assert clock.pending() == 0  # nothing of a replied send stays scheduled
        clock.run_until(10.0)
        assert outcomes == [0]  # no timeout after it
        assert clock.pending() == 0

        events = []
        client = SyncClient(clock, transport, on_event=lambda kind, data: events.append(kind))
        client.enqueue(dataclasses.replace(record, seq=1))
        clock.run_until(20.0)
        assert events == ["outbox_enqueued", "send_attempt", "delivered"]

    def test_a_dropped_ack_loses_a_refusal_too(self):
        """Every reply crosses the ack leg: with every ack dropped, a send to
        a sink that is down times out, as a send to one that is up does."""
        clock = SimClock()
        model = NetworkModel(NetworkConfig(latency_stddev_s=0.0, ack_drop_prob=1.0))
        sink = CloudSink()
        sink.available = False
        transport = SimTransport(clock, model, sink, DEFAULT_TOKEN, random.Random(1))
        record = CloudRecord(DeviceId("AC_001"), clock.now_ts(), "status", {}, 0)
        outcomes = []
        transport.send(encode(record), lambda outcome: outcomes.append((clock.now(), outcome)))
        clock.run_until(10.0)
        assert outcomes == [(5.0, Nack("timeout"))]


class TestNetworkModel:
    def test_degenerate_distribution(self):
        model = NetworkModel(NetworkConfig(latency_mean_s=1.2, latency_stddev_s=0.0))
        rng = random.Random(1)
        assert all(model.sample_latency(rng) == 1.2 for _ in range(100))

    def test_floor_truncation(self):
        model = NetworkModel(NetworkConfig(latency_mean_s=0.05, latency_stddev_s=5.0,
                                           latency_floor_s=0.05))
        rng = random.Random(2)
        assert all(model.sample_latency(rng) >= 0.05 for _ in range(10_000))

    def test_large_sample_mean(self):
        model = NetworkModel()
        rng = random.Random(3)
        n = 100_000
        mean = sum(model.sample_latency(rng) for _ in range(n)) / n
        assert abs(mean - 1.2) / 1.2 < 0.01

    def test_partition_membership_half_open(self):
        model = NetworkModel(faults=FaultsConfig(partitions=(Partition(10.0, 20.0),)))
        assert not model.in_partition(9.999)
        assert model.in_partition(10.0)
        assert model.in_partition(19.999)
        assert not model.in_partition(20.0)

    def test_fault_edges_finer_than_a_microsecond_act_on_the_clock_grid(self):
        """The clock fires a fault's events at the edge rounded to 1 µs, and
        the fault holds from exactly that instant to the next."""
        model = NetworkModel(faults=FaultsConfig(
            partitions=(Partition(10.0000004, 20.0000004),),
            drop_windows=(DropWindow(30.0000004, 40.0, 1.0),),
        ))
        assert not model.in_partition(9.999999)
        assert model.in_partition(10.0)  # partition_start fires at t=10.0
        assert model.in_partition(19.999999)
        assert not model.in_partition(20.0)  # partition_end fires at t=20.0
        assert model.drop_probability(29.999999) == 0.0
        assert model.drop_probability(30.0) == 1.0

    def test_drop_schedule_overlays_base_probability(self):
        model = NetworkModel(
            NetworkConfig(drop_prob=0.1),
            FaultsConfig(drop_windows=(DropWindow(100.0, 200.0, 0.9),)),
        )
        assert model.drop_probability(50.0) == 0.1
        assert model.drop_probability(150.0) == 0.9
        assert model.drop_probability(200.0) == 0.1

    def test_transit_draws_only_what_it_needs(self):
        model = NetworkModel(faults=FaultsConfig(
            partitions=(Partition(10.0, 20.0),),
            drop_windows=(DropWindow(30.0, 40.0, 1.0),),
        ))
        rng, ref = random.Random(4), random.Random(4)
        assert model.transit(15.0, rng) is None  # partition: no draw
        assert model.transit(35.0, rng) is None  # drop: one draw
        ref.random()
        assert model.transit(50.0, rng) == model.sample_latency(ref)  # p=0: no drop draw
        assert rng.getstate() == ref.getstate()


class TestStoppedSocketSink:
    def test_connection_failure_is_a_nack_and_a_fallback(self):
        with SinkServer(CloudSink()) as server:
            address = server.address
        remote = RemoteSink(*address)
        clock = SimClock()
        model = NetworkModel(NetworkConfig(latency_stddev_s=0.0))
        events = []
        client = SyncClient(
            clock,
            SimTransport(clock, model, remote, DEFAULT_TOKEN, random.Random(1)),
            on_event=lambda kind, data: events.append((kind, data)),
        )
        engine = AccessEngine(
            DeviceId("AC_001"),
            "Main_Entrance",
            clock,
            SimCloudClient(clock, model, remote, DEFAULT_TOKEN, random.Random(2)),
            event_out=lambda kind, data: events.append((kind, data)),
        )
        try:
            client.enqueue(CloudRecord(DeviceId("AC_001"), clock.now_ts(), "status", {}, 0))
            engine.handle_request("A1B2C3D4")
            clock.run_until(30.0)
        finally:
            remote.close()
        attempts = [d["attempt"] for k, d in events if k == "send_attempt"]
        reasons = [d["reason"] for k, d in events if k == "send_failed"]
        assert attempts[:3] == [1, 2, 3]
        assert reasons and set(reasons) == {"unavailable"}
        assert client.queue_depth() == 1
        # the UNAVAILABLE reply decided, not the 5 s deadline
        [decision] = [d for k, d in events if k == "auth_decision"]
        assert decision["source"] == "fallback"
        assert decision["latency_ms"] == pytest.approx(1200.0)


class TestSinkFailureReasons:
    """Each way the sink refuses an append reaches the uplink as its own
    ``send_failed`` reason, the same through the in-process sink and
    through ``SinkServer.connect()``."""

    @pytest.mark.parametrize("mode", ["inprocess", "socket"])
    @pytest.mark.parametrize(
        "case, reason",
        [
            ("outage", "unavailable"),
            ("wrong_token", "unauthorized"),
            ("below_stored_seq", "stale"),
            ("lone_surrogate", "schema: data value for 'note' holds a lone surrogate"),
        ],
    )
    def test_reason_reaches_the_uplink(self, mode, case, reason, monkeypatch):
        clock = SimClock()
        model = NetworkModel(NetworkConfig(latency_stddev_s=0.0))
        sink = CloudSink()
        sink.seed_policies([always_open_policy("A1B2C3D4")])
        device = DeviceId("AC_001")
        record = CloudRecord(device, clock.now_ts(), "status", {}, 0)
        token = DEFAULT_TOKEN
        if case == "outage":
            sink.available = False
        elif case == "wrong_token":
            token = "not-the-token"
        elif case == "below_stored_seq":
            sink.append(DEFAULT_TOKEN, encode(dataclasses.replace(record, seq=5)), clock.now_ts())
            record = dataclasses.replace(record, seq=3)
        else:
            # A device encoder that escapes a lone surrogate into the data.
            encode_record = codec.encode
            monkeypatch.setattr(
                codec,
                "encode",
                lambda r: encode_record(r).replace(b'"data":{}', b'"data":{"note":"\\ud800"}'),
            )
        server = SinkServer(sink, clock=clock) if mode == "socket" else None
        port = server.connect() if server is not None else sink
        events = []
        client = SyncClient(
            clock,
            SimTransport(clock, model, port, token, random.Random(1)),
            RetryPolicy(max_attempts=1),
            on_event=lambda kind, data: events.append((kind, data)),
        )
        engine = AccessEngine(
            device,
            "Main_Entrance",
            clock,
            SimCloudClient(clock, model, port, token, random.Random(2)),
            event_out=lambda kind, data: events.append((kind, data)),
        )
        try:
            client.enqueue(record)
            engine.handle_request("A1B2C3D4")
            clock.run_until(30.0)
        finally:
            if server is not None:
                port.close()
                server.stop()
        assert [d["reason"] for k, d in events if k == "send_failed"] == [reason]
        assert client.dead_letters == [record]
        [decision] = [d for k, d in events if k == "auth_decision"]
        if case in ("outage", "wrong_token"):
            # the refused query's reply decided, not the 5 s deadline
            assert decision["source"] == "fallback"
        else:
            assert decision["source"] == "cloud"
        assert decision["latency_ms"] == pytest.approx(1200.0)


def scenario_base(**overrides) -> Scenario:
    defaults = dict(
        seed=11,
        duration_s=900.0,
        devices=(
            DeviceConfig(device_id=DeviceId("AC_001"), role="access"),
        ),
        workload=WorkloadConfig(
            access=ArrivalConfig(process="uniform", rate_per_s=0.1,
                                 authorized_fraction=0.6, malformed_fraction=0.05),
        ),
        authz=(always_open_policy("A1B2C3D4"), always_open_policy("11223344")),
        network=NetworkConfig(latency_mean_s=0.4, latency_stddev_s=0.1),
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestScenarioRuns:
    def test_zero_workload_has_only_lifecycle_events(self):
        scenario = Scenario(seed=1, duration_s=60.0)
        trace, report = run(scenario)
        assert [e.kind for e in trace.events] == ["sim_start", "sim_end"]
        assert report.counts["granted"] == 0
        assert report.auth_accuracy is None
        assert report.logging_success is None

    def test_same_seed_identical_bytes(self):
        scenario = scenario_base()
        t1, r1 = run(scenario)
        t2, r2 = run(scenario)
        assert t1.to_jsonl() == t2.to_jsonl()
        assert r1.to_json() == r2.to_json()

    def test_different_seed_differs(self):
        t1, _ = run(scenario_base(seed=1))
        t2, _ = run(scenario_base(seed=2))
        assert t1.to_jsonl() != t2.to_jsonl()

    def test_partition_queues_then_drains(self):
        scenario = scenario_base(
            duration_s=1200.0,
            faults=FaultsConfig(partitions=(Partition(100.0, 700.0),)),
        )
        trace, report = run(scenario)
        depths = {e.t: e.data["depth"] for e in trace.events
                  if e.kind == "outbox_enqueued"}
        assert max(d for t, d in depths.items() if t < 700.0) > 1  # backlog grew
        assert report.counts["still_queued"] == 0
        assert report.counts["delivered"] == report.counts["enqueued"]
        assert report.counts["dead_lettered"] == 0

    def test_fault_end_on_the_last_microsecond_is_reached(self):
        scenario = scenario_base(
            duration_s=900.0,
            faults=FaultsConfig(partitions=(Partition(100.0000004, 900.0000004),)),
        )
        trace, _ = run(scenario)
        assert [e.t for e in trace.by_kind("partition_start")] == [100.0]
        assert [e.t for e in trace.by_kind("partition_end")] == [900.0]

    def test_fault_events_fire_in_time_then_registration_order(self):
        # Partitions are listed out of order; the one still open at the end
        # of the run gets no end event. At t=100 the partition, registered
        # before the outage, fires first.
        scenario = Scenario(
            seed=1,
            duration_s=300.0,
            faults=FaultsConfig(
                partitions=(Partition(250.0, 400.0), Partition(100.0, 200.0)),
                sink_outages=(Partition(100.0, 150.0),),
            ),
        )
        trace, _ = run(scenario)
        assert [(e.kind, e.t) for e in trace.events] == [
            ("sim_start", 0.0),
            ("partition_start", 100.0),
            ("sink_outage_start", 100.0),
            ("sink_outage_end", 150.0),
            ("partition_end", 200.0),
            ("partition_start", 250.0),
            ("sim_end", 300.0),
        ]

    def test_sink_rows_match_delivery_order(self):
        scenario = scenario_base()
        sim = Simulation(scenario)
        trace, report = sim.run()
        rows = stored_rows(sim.sink.table)
        assert [r.row_index for r in rows] == list(range(len(rows)))
        seqs = [r.record.seq for r in rows]
        assert seqs == sorted(seqs)  # single device: delivery order is seq order

    def test_conservation_under_faults(self):
        scenario = scenario_base(
            duration_s=1800.0,
            devices=(
                DeviceConfig(
                    device_id=DeviceId("AC_001"),
                    role="access",
                    retry=RetryPolicy(max_attempts=2),
                ),
            ),
            network=NetworkConfig(latency_mean_s=0.4, latency_stddev_s=0.1,
                                  drop_prob=0.3),
        )
        trace, report = run(scenario)
        c = report.counts
        assert c["enqueued"] > 0 and c["dead_lettered"] > 0
        assert c["enqueued"] == (
            c["delivered"] + c["still_queued"] + c["dead_lettered"] + c["dropped"]
        )
        # the four fractions of the offered records partition the whole
        fractions = (
            report.logging_success
            + c["still_queued"] / c["enqueued"]
            + c["dead_lettered"] / c["enqueued"]
            + c["dropped"] / c["enqueued"]
        )
        assert fractions == pytest.approx(1.0)

    def test_ack_drop_retransmissions_do_not_duplicate_rows(self):
        scenario = scenario_base(
            duration_s=1800.0,
            network=NetworkConfig(latency_mean_s=0.4, latency_stddev_s=0.1,
                                  ack_drop_prob=0.3),
        )
        sim = Simulation(scenario)
        trace, report = sim.run()
        retries = [e for e in trace.events
                   if e.kind == "send_attempt" and e.data["attempt"] > 1]
        assert retries  # ack loss forced at least one retransmission
        keys = [f"{r.record.device_id.value}:{r.record.seq}"
                for r in stored_rows(sim.sink.table)]
        assert len(keys) == len(set(keys))
        assert report.counts["still_queued"] == 0
        assert report.counts["delivered"] == report.counts["enqueued"]

    def test_no_component_reads_wall_time(self, monkeypatch):
        import time as time_module

        def forbidden(*args, **kwargs):
            raise AssertionError("wall clock read during simulation")

        monkeypatch.setattr(time_module, "time", forbidden)
        monkeypatch.setattr(time_module, "monotonic", forbidden)
        monkeypatch.setattr(time_module, "perf_counter", forbidden)
        run(scenario_base())

    def test_decisions_replay_from_trace(self):
        """Every granted decision recorded in the trace must re-derive from
        the scenario's policies at the decision instant."""
        scenario = scenario_base()
        trace, _ = run(scenario)
        policies = {p.uid.value: p for p in scenario.authz}
        start = scenario.start_time
        decisions = trace.by_kind("auth_decision")
        assert decisions
        for event in decisions:
            if event.data["source"] in ("cache", "cloud") and (
                event.data["outcome"] == "granted"
            ):
                policy = policies[event.data["uid"]]
                at = start.add_seconds(event.t)
                assert check_temporal(policy, at) is Outcome.GRANTED

    def test_gate_open_durations_exact(self):
        scenario = scenario_base()
        trace, _ = run(scenario)
        opens = [e.t for e in trace.by_kind("gate_open")]
        closes = [e.t for e in trace.by_kind("gate_close")]
        assert opens and len(opens) == len(closes)
        assert all(c - o == 5.0 for o, c in zip(opens, closes))

    def test_socket_mode_preserves_invariants(self):
        scenario = scenario_base(
            duration_s=300.0, sink=SinkConfig(mode="socket")
        )
        sim = Simulation(scenario)
        trace, report = sim.run()
        assert report.counts["delivered"] == report.counts["enqueued"]
        keys = [f"{r.record.device_id.value}:{r.record.seq}"
                for r in stored_rows(sim.sink.table)]
        assert len(keys) == len(set(keys))
        seqs = [r.record.seq for r in stored_rows(sim.sink.table)]
        assert seqs == sorted(seqs)


FAULTY_SCENARIO = """\
seed: 3
duration_s: 1800
devices:
  - {device_id: AC_001, role: access}
  - {device_id: AC_002, role: access}
workload:
  access: {process: poisson, rate_per_s: 0.05, authorized_fraction: 0.7}
authz:
  - {uid: A1B2C3D4}
network: {ack_drop_prob: 0.2}
faults:
  sink_outages: [{start_s: 300, end_s: 700}]
  drop_windows: [{start_s: 900, end_s: 1100, prob: 0.5}]
"""


class TestSocketBinding:
    @pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.yaml")))
    def test_bundled_scenario_outputs_match_the_inprocess_run(
        self, name, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.delenv(cli.TOKEN_ENV, raising=False)
        text = (SCENARIOS / f"{name}.yaml").read_text(encoding="utf-8")
        socket_yaml = tmp_path / "socket.yaml"
        socket_yaml.write_text(text + "\nsink:\n  mode: socket\n", encoding="utf-8")
        for source, out in ((SCENARIOS / f"{name}.yaml", "inprocess"), (socket_yaml, "socket")):
            assert cli.main(["run", str(source), "--out", str(tmp_path / out)]) == 0
        for output in ("trace.jsonl", "report.json", "sink.json"):
            inprocess = (tmp_path / "inprocess" / output).read_bytes()
            assert (tmp_path / "socket" / output).read_bytes() == inprocess, output

    def test_outputs_match_under_a_sink_outage_a_drop_window_and_ack_loss(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.delenv(cli.TOKEN_ENV, raising=False)
        for mode in ("inprocess", "socket"):
            source = tmp_path / f"{mode}.yaml"
            source.write_text(f"{FAULTY_SCENARIO}sink:\n  mode: {mode}\n", encoding="utf-8")
            assert cli.main(["run", str(source), "--out", str(tmp_path / mode)]) == 0
        trace = (tmp_path / "socket" / "trace.jsonl").read_text(encoding="utf-8")
        assert '"reason":"unavailable"' in trace  # the sink refused over the wire
        for output in ("trace.jsonl", "report.json", "sink.json"):
            inprocess = (tmp_path / "inprocess" / output).read_bytes()
            assert (tmp_path / "socket" / output).read_bytes() == inprocess, output

    def test_socket_run_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"a socket-mode run started {thread!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        sim = Simulation(scenario_base(duration_s=300.0, sink=SinkConfig(mode="socket")))
        _, report = sim.run()
        assert report.counts["delivered"] == report.counts["enqueued"] > 0


class TestDropSchedule:
    def test_total_drop_window_behaves_like_a_partition(self):
        scenario = scenario_base(
            duration_s=1200.0,
            faults=FaultsConfig(drop_windows=(DropWindow(100.0, 700.0, 1.0),)),
        )
        trace, report = run(scenario)
        failures = [e for e in trace.by_kind("send_failed") if 100.0 <= e.t < 712.0]
        assert failures  # sends inside the window kept timing out
        assert report.counts["still_queued"] == 0
        assert report.counts["delivered"] == report.counts["enqueued"]


class TestFlowTruthAlignment:
    def test_injected_anomaly_times_match_detections(self):
        scenario = Scenario(
            seed=5,
            duration_s=120.0,
            devices=(DeviceConfig(device_id=DeviceId("SM_001"), role="safety"),),
            workload=WorkloadConfig(
                flow=FlowWorkload(
                    sample_period_s=1.0,
                    baseline_lpm=10.0,
                    noise_stddev=0.1,
                    anomalies=(FlowAnomalySpec(at_s=100.0, magnitude_lpm=25.0),),
                ),
            ),
        )
        trace, report = run(scenario)
        assert report.detection["flow_anomalies_injected"] == 1
        assert report.detection["flow_anomalies_detected"] == 1
        assert report.detection["flow_recall"] == 1.0


class TestRngStreams:
    def test_streams_are_independent_and_stable(self):
        a1 = [split_rng(7, "alpha").random() for _ in range(3)]
        a2 = [split_rng(7, "alpha").random() for _ in range(3)]
        b = [split_rng(7, "beta").random() for _ in range(3)]
        assert a1 == a2
        assert a1 != b


class TestTraceSerialization:
    def test_jsonl_round_trip(self):
        trace, _ = run(scenario_base(duration_s=120.0))
        parsed = EventTrace.from_jsonl(trace.to_jsonl())
        assert parsed.meta == trace.meta
        assert parsed.events == trace.events
        assert GroundTruth.from_trace(parsed).request_labels

    def test_streamed_run_writes_what_a_kept_run_keeps(self):
        scenario = scenario_base(duration_s=300.0)
        lines: list[str] = []
        streamed, streamed_report = Simulation(scenario).run(writer=lines.append)
        kept, kept_report = run(scenario)
        assert "".join(lines).encode("utf-8") == kept.to_jsonl()
        assert streamed_report == kept_report
        assert streamed.meta == kept.meta
        with pytest.raises(TraceError):
            streamed.to_jsonl()

    def test_events_totally_ordered(self):
        trace, _ = run(scenario_base())
        order = [(e.t, e.seq) for e in trace.events]
        assert order == sorted(order)


def pending_at_start(scenario: Scenario, monkeypatch) -> int:
    seen = []
    run_until = SimClock.run_until

    def recording(clock, t_end):
        seen.append(clock.pending())
        return run_until(clock, t_end)

    monkeypatch.setattr(SimClock, "run_until", recording)
    run(scenario)
    return seen[0]


class TestLazyWorkload:
    def test_heap_grows_with_streams_not_duration(self, monkeypatch):
        base = load_scenario(SCENARIOS / "safety_basic.yaml")
        short = pending_at_start(dataclasses.replace(base, duration_s=1800.0), monkeypatch)
        long = pending_at_start(dataclasses.replace(base, duration_s=3600.0), monkeypatch)
        assert short == long
        assert long <= 4  # flame, flow, scans, heartbeats of the one monitor

    def test_last_sample_before_an_uneven_end_is_taken(self, monkeypatch):
        base = load_scenario(SCENARIOS / "safety_basic.yaml")
        workload = dataclasses.replace(
            base.workload,
            flame=dataclasses.replace(base.workload.flame, sample_period_s=3.0),
            flow=dataclasses.replace(
                base.workload.flow,
                sample_period_s=3.0,
                anomalies=(FlowAnomalySpec(at_s=99.0, magnitude_lpm=18.0),),
            ),
        )
        scenario = dataclasses.replace(base, duration_s=100.0, workload=workload)
        calls = {"flame": 0, "flow": 0}
        flame_step, flow_step = SafetyMonitor.flame_step, SafetyMonitor.flow_step

        def count_flame(monitor, *args):
            calls["flame"] += 1
            return flame_step(monitor, *args)

        def count_flow(monitor, *args):
            calls["flow"] += 1
            return flow_step(monitor, *args)

        monkeypatch.setattr(SafetyMonitor, "flame_step", count_flame)
        monkeypatch.setattr(SafetyMonitor, "flow_step", count_flow)
        trace, report = run(scenario)
        assert calls == {"flame": math.ceil(100 / 3), "flow": math.ceil(100 / 3)}
        assert trace.meta["truth"]["flow_anomaly_times"] == [99.0]
        assert report.detection["flow_anomalies_detected"] == 1
        assert report.detection["flow_recall"] == 1.0


class TestGroundTruth:
    def test_episode_after_the_end_is_not_scored(self):
        base = load_scenario(SCENARIOS / "safety_basic.yaml")  # episode at 400 s
        _, report = run(dataclasses.replace(base, duration_s=200.0))
        assert report.detection["flame_episodes"] == 0
        assert report.detection["flame_recall"] is None
