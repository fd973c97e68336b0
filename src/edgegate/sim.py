"""Deterministic seeded discrete-event simulator.

One binary heap of (due time, insertion sequence) callbacks drives every
component; nothing reads wall time, so a day-long scenario replays in
wall-clock seconds and two runs of the same scenario produce byte-identical
traces. Workloads (card arrivals, sensor detections, personnel scans, status
heartbeats) enter the heap as lazy streams that keep only their next event
queued, so the heap grows with the number of devices, not with simulated
duration. A sensor channel steps through its samples outside the heap and
queues only the samples that cause a detection. Random streams are split per
component from the master seed, which keeps one component's draws stable
when another component is added.

The network model layers truncated-normal latency, Bernoulli request/ack
loss, scheduled partitions and drop windows over an otherwise reliable
in-process (or local-socket) sink.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TypeVar

from . import codec, metrics as metrics_mod
from .auth import AccessEngine, CloudQueryPort, check_temporal, Outcome
from .core import AccessPolicy, Timestamp, Uid
from .safety import SafetyMonitor
from .scenario import (
    ArrivalConfig,
    DeviceConfig,
    FaultsConfig,
    FlameWorkload,
    NetworkConfig,
    Scenario,
)
from .sink import CloudSink, StaleRecordError, UnauthorizedError, UnavailableError
from .sync import Nack, OutboxQueue, SendOutcome, SyncClient
from .trace import EventTrace, GroundTruth
from .wire import SinkServer, WireError

_T = TypeVar("_T")


class SimError(Exception):
    """Simulator assembly or execution failure."""


class _Source:
    """A lazily scheduled stream. ``fire``, its heap callback, fires the
    stream's current event and then asks the clock for the one after it."""

    __slots__ = ("fire", "clock", "events", "seq", "event")

    def __init__(self, clock: "SimClock", events: Iterator, seq: int) -> None:
        self.fire = self._fire
        self.clock = clock
        self.events = events
        self.seq = seq
        self.event: Callable[[], None] | None = None

    def _fire(self) -> None:
        self.event()
        self.clock._push_next(self)


class SimClock:
    """Virtual clock plus future-event list.

    Time only moves when an event fires, and simultaneous events fire in
    insertion order (a stream from ``add_source`` counts as inserted when it
    was registered), making execution a pure function of the schedule.
    Internally time is an integer count of microseconds since the clock's
    epoch, so fixed intervals (the 5s gate hold, backoff sleeps) are exact;
    ``now()`` reports seconds relative to the epoch, ``now_ts()`` the
    absolute timestamp.

    A scheduled callback cannot be withdrawn; each fires when due. A timer
    that may lose a race (a cloud deadline, a late cloud reply) does
    nothing if, when it fires, what it guards is no longer current.
    """

    def __init__(self, start: Timestamp | float = 0.0) -> None:
        self._epoch = start.to_epoch() if isinstance(start, Timestamp) else float(start)
        self._now_us = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._counter = itertools.count()

    def now(self) -> float:
        """Seconds since the clock epoch (exact multiples of 1e-6)."""
        return self._now_us / 1e6

    def now_ts(self) -> Timestamp:
        return Timestamp.from_epoch(self._epoch + self._now_us / 1e6)

    def schedule(self, delay_s: float, fn: Callable[[], None]) -> None:
        if delay_s < 0:
            raise SimError(f"cannot schedule into the past: delay {delay_s}")
        heapq.heappush(self._heap, (self._now_us + round(delay_s * 1e6), next(self._counter), fn))

    def schedule_at(self, t: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (self._due_us(t), next(self._counter), fn))

    def add_source(self, events: Iterable[tuple[float, Callable[[], None]]]) -> None:
        """Schedule a stream of ``(t, fn)`` events, in time order, lazily.

        Only the stream's next event sits in the heap; firing it pulls the
        one after. Every event of the stream shares the sequence number
        drawn here, so same-instant ties resolve as if each event had been
        pushed now: streams in registration order, all of them before
        anything scheduled later. A time earlier than the clock raises
        ``SimError`` when the stream reaches it.
        """
        self._push_next(_Source(self, iter(events), next(self._counter)))

    def _push_next(self, source: _Source) -> None:
        event = next(source.events, None)
        if event is not None:
            t, source.event = event
            heapq.heappush(self._heap, (self._due_us(t), source.seq, source.fire))

    def _due_us(self, t: float) -> int:
        due_us = round(t * 1e6)
        if due_us < self._now_us:
            raise SimError(f"cannot schedule into the past: {t} < {self.now()}")
        return due_us

    def pending(self) -> int:
        return len(self._heap)

    def run_next(self) -> bool:
        """Fire the next scheduled event; False when nothing remains."""
        if not self._heap:
            return False
        self._now_us, _, fn = heapq.heappop(self._heap)
        fn()
        return True

    def run_until(self, t_end: float) -> None:
        """Fire every event due at or before ``t_end``, then land on it."""
        end_us = round(t_end * 1e6)
        while self._heap and self._heap[0][0] <= end_us:
            self._now_us, _, fn = heapq.heappop(self._heap)
            fn()
        self._now_us = max(self._now_us, end_us)


class NetworkModel:
    """Connectivity model shared by authorization queries and uplink sends.

    It reads the scenario's network settings and fault schedule as they are;
    the scenario reader has already checked their bounds and intervals, and
    ``FaultsConfig`` keeps the partitions sorted and disjoint. Inside a drop
    window the larger of the window's and the base drop probability applies.
    Fault edges round to whole microseconds, as ``SimClock`` rounds the times
    of the fault events, so each fault acts from one event to the other.
    """

    def __init__(
        self, config: NetworkConfig = NetworkConfig(), faults: FaultsConfig = FaultsConfig()
    ) -> None:
        self.config = config
        self.faults = faults
        self._partitions_us = [
            (round(span.start_s * 1e6), round(span.end_s * 1e6)) for span in faults.partitions
        ]
        self._drop_windows_us = [
            (round(w.start_s * 1e6), round(w.end_s * 1e6), w.prob) for w in faults.drop_windows
        ]

    def sample_latency(self, rng: random.Random) -> float:
        """Normal draw truncated below at the floor (never negative or zero)."""
        cfg = self.config
        return max(cfg.latency_floor_s, rng.gauss(cfg.latency_mean_s, cfg.latency_stddev_s))

    def in_partition(self, t: float) -> bool:
        t_us = round(t * 1e6)
        for start_us, end_us in self._partitions_us:
            if start_us <= t_us < end_us:
                return True
            if t_us < start_us:
                break
        return False

    def drop_probability(self, t: float) -> float:
        p = self.config.drop_prob
        t_us = round(t * 1e6)
        for start_us, end_us, prob in self._drop_windows_us:
            if start_us <= t_us < end_us:
                p = max(p, prob)
        return p

    def transit(self, t: float, rng: random.Random) -> float | None:
        """Latency of a request sent at ``t``, or None when a partition or a
        drop loses it. The drop draw is taken only under a positive drop
        probability, so streams stay aligned with runs that never drop."""
        if self.in_partition(t):
            return None
        drop_p = self.drop_probability(t)
        if drop_p > 0 and rng.random() < drop_p:
            return None
        return self.sample_latency(rng)


def split_rng(seed: int, stream: str) -> random.Random:
    """Independent, reproducible stream derived from the master seed."""
    return random.Random(f"{seed}/{stream}")


def _answer(call: Callable[..., _T], *args) -> _T | Nack:
    """The sink's answer to ``call(*args)``, or the ``Nack`` whose reason
    names the failure: the one table from a sink failure to its reason."""
    try:
        return call(*args)
    except (UnavailableError, WireError):
        return Nack("unavailable")
    except UnauthorizedError:
        return Nack("unauthorized")
    except StaleRecordError:
        return Nack("stale")
    except codec.CodecError as exc:
        return Nack(f"schema: {exc}")


class _SinkLink:
    """A device's port to the sink over the simulated network."""

    def __init__(self, clock, model, sink_port, token, rng) -> None:
        self._clock = clock
        self._model = model
        self._sink = sink_port
        self._token = token
        self._rng = rng


class SimCloudClient(_SinkLink, CloudQueryPort):
    """Authorization lookups over the simulated network. No reply is ever
    scheduled during a partition or for a dropped request; the engine's own
    deadline converts that silence into the fallback path."""

    def query_policy(
        self, uid: Uid, on_reply: Callable[[AccessPolicy | None | Nack], None]
    ) -> None:
        rtt = self._model.transit(self._clock.now(), self._rng)
        if rtt is not None:
            self._clock.schedule(
                rtt, lambda: on_reply(_answer(self._sink.query_policy, self._token, uid))
            )


class SimTransport(_SinkLink):
    """Uplink sends over the simulated network with a client-side timeout.

    A send picks the one reporter of its outcome when it is sent. It is
    replied when its request survives, the sink's reply (a row index or a
    refusal) is not dropped on the way back, and the latency is within
    ``timeout_s``; the delivery then reports the sink's answer. Otherwise
    ``Nack("timeout")`` is reported at ``timeout_s``. A surviving request
    always reaches the sink, so a late or unacknowledged copy is still
    stored; the ensuing retransmission is what the sink's idempotency dedup
    absorbs.
    """

    def __init__(self, clock, model, sink_port, token, rng, timeout_s: float = 5.0) -> None:
        super().__init__(clock, model, sink_port, token, rng)
        self.timeout_s = timeout_s

    def send(self, payload: bytes, on_result: Callable[[SendOutcome], None]) -> None:
        clock = self._clock
        latency = self._model.transit(clock.now(), self._rng)
        ack_drop_prob = self._model.config.ack_drop_prob
        replied = (
            latency is not None
            and not (ack_drop_prob > 0 and self._rng.random() < ack_drop_prob)
            and round(latency * 1e6) < round(self.timeout_s * 1e6)
        )
        if not replied:  # scheduled first, so it wins a tie with the delivery
            clock.schedule(self.timeout_s, lambda: on_result(Nack("timeout")))
        if latency is None:
            return

        def deliver() -> None:
            answer = _answer(self._sink.append, self._token, payload, clock.now_ts())
            if replied:
                on_result(answer)

        clock.schedule(latency, deliver)


# ---------------------------------------------------------------------------
# Workload generation. Arrivals and their labels are drawn from the scenario
# seed before the clock starts, so the ground truth exists independently of
# anything the engines later decide. Each arrival list, sensor channel, scan
# list and heartbeat is then handed to the clock as one lazy stream, so the
# event heap holds one entry per stream, not one per sample; a sensor
# channel's stream yields only its detections.


@dataclass(frozen=True)
class _Arrival:
    at_s: float
    request_id: str
    raw_uid: str
    intended_uid: str | None
    label: str  # authorized | unauthorized | malformed


_MALFORMED_SHAPES = ("short", "long", "nonhex")


def _random_unknown_uid(rng: random.Random, known: set[str]) -> str:
    while True:
        candidate = f"{rng.randrange(16 ** 8):08X}"
        if candidate not in known:
            return candidate


def _malformed_uid(rng: random.Random) -> str:
    shape = _MALFORMED_SHAPES[rng.randrange(len(_MALFORMED_SHAPES))]
    if shape == "short":
        return f"{rng.randrange(16 ** 6):06X}"
    if shape == "long":
        return f"{rng.randrange(16 ** 10):010X}"
    return "".join(rng.choice("GHIJKLMNPQRSTUVWXYZ") for _ in range(8))


def generate_arrivals(
    device_id: str,
    cfg: ArrivalConfig,
    duration_s: float,
    start: Timestamp,
    authz: dict[Uid, AccessPolicy],
    rng: random.Random,
) -> list[_Arrival]:
    """Seeded card-presentation schedule with per-request ground truth.

    The label says what the *intended* card deserved at its arrival instant;
    misreads then corrupt what the reader actually hands the engine, which
    is how configured false-accept/false-reject rates enter the run.
    """
    arrivals: list[_Arrival] = []
    if cfg.rate_per_s <= 0 or duration_s <= 0:
        return arrivals
    authorized_uids = sorted(u.value for u in authz)
    known = set(authorized_uids)
    t = 0.0
    n = 0
    while True:
        if cfg.process == "poisson":
            t += rng.expovariate(cfg.rate_per_s)
        else:
            t += 1.0 / cfg.rate_per_s
        if t >= duration_s:
            break
        rid = f"{device_id}:r{n}"
        n += 1
        if rng.random() < cfg.malformed_fraction:
            arrivals.append(_Arrival(t, rid, _malformed_uid(rng), None, "malformed"))
            continue
        if authorized_uids and rng.random() < cfg.authorized_fraction:
            intended = authorized_uids[rng.randrange(len(authorized_uids))]
            policy = authz[Uid(intended)]
            at = start.add_seconds(t)
            label = (
                "authorized"
                if check_temporal(policy, at) is Outcome.GRANTED
                else "unauthorized"
            )
            raw = intended
            if cfg.misread_false_reject > 0 and rng.random() < cfg.misread_false_reject:
                raw = _random_unknown_uid(rng, known)
            arrivals.append(_Arrival(t, rid, raw, intended, label))
        else:
            intended = _random_unknown_uid(rng, known)
            raw = intended
            if (
                authorized_uids
                and cfg.misread_false_accept > 0
                and rng.random() < cfg.misread_false_accept
            ):
                raw = authorized_uids[rng.randrange(len(authorized_uids))]
            arrivals.append(_Arrival(t, rid, raw, intended, "unauthorized"))
    return arrivals


def _flame_value(cfg: FlameWorkload, t: float, rng: random.Random) -> tuple[float, float]:
    base = cfg.baseline
    for ep in cfg.episodes:
        if ep.start_s <= t < ep.start_s + ep.duration_s:
            base = ep.peak
            break
    intensity = max(0.0, base + rng.gauss(0.0, cfg.noise_stddev) if cfg.noise_stddev > 0 else base)
    ambient = max(
        0.0,
        cfg.ambient_base + rng.gauss(0.0, cfg.ambient_noise_stddev)
        if cfg.ambient_noise_stddev > 0
        else cfg.ambient_base,
    )
    return intensity, ambient


def _sample_times(period: float, duration: float, first: int = 0) -> Iterator[tuple[int, float]]:
    """``(k, t)`` for every ``t = k * period < duration`` from ``k = first``.
    The last step is kept when ``duration`` is not a multiple of ``period``."""
    k = first
    while (t := k * period) < duration:
        yield k, t
        k += 1


def _stamp(epoch: float, t: float) -> tuple[int, int]:
    """Whole seconds and millis of the stamp ``SimClock.now_ts`` gives at
    ``t``, for a clock whose epoch is ``epoch``: the clock lands on
    ``round(t * 1e6)`` microseconds, and ``Timestamp.from_epoch`` rounds to
    the millisecond."""
    return divmod(round((epoch + round(t * 1e6) / 1e6) * 1000), 1000)


# ---------------------------------------------------------------------------
# Simulation assembly


class _Device:
    """One device's outbox and uplink, feeding an access engine or a safety
    monitor according to its role. ``emit`` is the device's one event path:
    its components and the simulation's per-device events all go through it,
    so every one carries ``device``."""

    engine: AccessEngine
    monitor: SafetyMonitor

    def __init__(self, sim: "Simulation", cfg: DeviceConfig) -> None:
        self.cfg = cfg
        self.device = device = cfg.device_id.value
        self._sim_emit = sim.emit
        self.client = SyncClient(
            clock=sim.clock,
            transport=SimTransport(
                sim.clock,
                sim.network,
                sim.sink_port,
                sim.token,
                split_rng(sim.scenario.seed, f"net-sync/{device}"),
                timeout_s=cfg.send_timeout_s,
            ),
            policy=cfg.retry,
            queue=OutboxQueue(cfg.outbox),
            on_event=self.emit,
        )
        if cfg.role == "access":
            self.engine = AccessEngine(
                device_id=cfg.device_id,
                location=cfg.location,
                clock=sim.clock,
                cloud=SimCloudClient(
                    sim.clock,
                    sim.network,
                    sim.sink_port,
                    sim.token,
                    split_rng(sim.scenario.seed, f"net-auth/{device}"),
                ),
                config=cfg.auth,
                record_out=self.client.enqueue,
                event_out=self.emit,
            )
        else:
            self.monitor = SafetyMonitor(
                device_id=cfg.device_id,
                location=cfg.location,
                params=cfg.flame_params,
                kalman=cfg.kalman,
                record_out=self.client.enqueue,
                event_out=self.emit,
            )

    def emit(self, kind: str, data: dict) -> None:
        self._sim_emit(kind, {"device": self.device, **data})


class Simulation:
    """Binds devices, network, sink, workloads and fault schedules for one run."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        # The clock's epoch is the scenario start; times in trace events and
        # fault schedules are seconds relative to it.
        self.clock = SimClock(scenario.start_time)
        self.network = NetworkModel(scenario.network, scenario.faults)
        self.token = scenario.sink.token
        self.sink = CloudSink(self.token)
        self.sink.seed_policies(scenario.authz)
        self._server: SinkServer | None = None
        if scenario.sink.mode == "socket":
            # The unstarted server answers each call on the run's own thread,
            # so the run stays on one thread and reads the sink clock there.
            self._server = SinkServer(self.sink, clock=self.clock)
            self.sink_port = self._server.connect()
        else:
            self.sink_port = self.sink

        self.truth = GroundTruth()
        self._authz = {p.uid: p for p in scenario.authz}
        # Access devices first: scheduling order sets same-instant tie order.
        self.devices = [
            _Device(self, cfg)
            for cfg in sorted(scenario.devices, key=lambda c: c.role != "access")
        ]

    # -- trace plumbing ------------------------------------------------------

    def emit(self, kind: str, data: dict) -> None:
        t = self.clock.now()
        self.trace.append(kind, t, data)
        self.score.feed(t, kind, data)

    # -- schedule construction -------------------------------------------------

    def _schedule_access(self, dev: _Device) -> None:
        device = dev.device
        arrivals = generate_arrivals(
            device,
            self.scenario.workload.access,
            self.scenario.duration_s,
            self.scenario.start_time,
            self._authz,
            split_rng(self.scenario.seed, f"workload/{device}"),
        )
        for arrival in arrivals:
            self.truth.request_labels[arrival.request_id] = arrival.label
        self.clock.add_source(
            (arrival.at_s, functools.partial(self._on_arrival, dev, arrival))
            for arrival in arrivals
        )

    def _on_arrival(self, dev: _Device, arrival: _Arrival) -> None:
        dev.emit(
            "card_read",
            {
                "request_id": arrival.request_id,
                "raw_uid": arrival.raw_uid,
                "intended_uid": arrival.intended_uid,
            },
        )
        dev.engine.handle_request(arrival.raw_uid, request_id=arrival.request_id)

    def _schedule_safety(self, dev: _Device) -> None:
        """One stream each for flame hits, flow hits, personnel scans and
        status heartbeats; their registration order is their tie order.

        A sensor stream steps its channel through every sample as it looks
        for the next hit, ahead of the clock, and only a hit enters the heap.
        The step touches nothing but its own channel, while the report (the
        record's ``seq``, the personnel context) runs when the hit fires, so
        every event comes out as if each sample had been scheduled.
        """
        device = dev.device
        duration = self.scenario.duration_s
        monitor = dev.monitor
        now_ts = self.clock.now_ts
        epoch = self.scenario.start_time.to_epoch()  # the clock's epoch
        flame = self.scenario.workload.flame
        if flame.sample_period_s > 0:
            flame_rng = split_rng(self.scenario.seed, f"flame/{device}")

            def flame_hits() -> Iterator[tuple[float, Callable[[], None]]]:
                step, report = monitor.flame_step, monitor.report_flame
                for _, t in _sample_times(flame.sample_period_s, duration):
                    intensity, ambient = _flame_value(flame, t, flame_rng)
                    seconds, millis = _stamp(epoch, t)
                    hit = step(intensity, ambient, seconds, millis)
                    if hit is not None:
                        yield t, functools.partial(report, *hit, Timestamp(seconds, millis))

            self.clock.add_source(flame_hits())

        flow = self.scenario.workload.flow
        if flow.sample_period_s > 0:
            flow_rng = split_rng(self.scenario.seed, f"flow/{device}")
            anomaly_steps = {flow.step_of(a.at_s): a.magnitude_lpm for a in flow.anomalies}

            def flow_hits() -> Iterator[tuple[float, Callable[[], None]]]:
                step, report = monitor.flow_step, monitor.report_flow
                for k, t in _sample_times(flow.sample_period_s, duration):
                    value = flow.baseline_lpm
                    if flow.noise_stddev > 0:
                        value += flow_rng.gauss(0.0, flow.noise_stddev)
                    value = max(0.0, value + anomaly_steps.get(k, 0.0))
                    if step(value):
                        yield t, functools.partial(report, value, Timestamp(*_stamp(epoch, t)))

            self.clock.add_source(flow_hits())

        scans = sorted(
            (s for s in self.scenario.workload.personnel_scans if s.at_s < duration),
            key=lambda s: s.at_s,
        )
        self.clock.add_source(
            (s.at_s, lambda uid=s.uid: monitor.on_personnel_scan(uid, now_ts()))
            for s in scans
        )
        if dev.cfg.status_period_s > 0:

            def heartbeat() -> None:
                monitor.heartbeat(now_ts())

            self.clock.add_source(
                (t, heartbeat) for _, t in _sample_times(dev.cfg.status_period_s, duration, 1)
            )

    def _schedule_faults(self) -> None:
        """Every partition, then every sink outage, each at its start and, if
        the run reaches it on the clock's microsecond grid, its end; this
        order is their tie order."""
        faults, end_us = self.scenario.faults, round(self.scenario.duration_s * 1e6)
        for span in faults.partitions:
            self.clock.schedule_at(span.start_s, lambda: self.emit("partition_start", {}))
            if round(span.end_s * 1e6) <= end_us:
                self.clock.schedule_at(span.end_s, lambda: self.emit("partition_end", {}))
        for span in faults.sink_outages:
            self.clock.schedule_at(span.start_s, lambda: self._set_sink(False))
            if round(span.end_s * 1e6) <= end_us:
                self.clock.schedule_at(span.end_s, lambda: self._set_sink(True))

    def _set_sink(self, available: bool) -> None:
        self.sink.available = available
        self.emit("sink_outage_end" if available else "sink_outage_start", {})

    # -- execution -------------------------------------------------------------

    def run(
        self, writer: Callable[[str], object] | None = None
    ) -> tuple[EventTrace, "metrics_mod.MetricsReport"]:
        """Schedule and run the scenario, scoring each event as it is emitted.

        ``writer`` receives the trace line by line (see ``EventTrace``); the
        returned trace then keeps no lines. Without one it keeps them all.
        """
        try:
            for dev in self.devices:
                if dev.cfg.role == "access":
                    self._schedule_access(dev)
                else:
                    self._schedule_safety(dev)
            self._schedule_faults()
            # Sensor ground truth is schedule-derived and shared by every
            # safety device, so record it once.
            if any(dev.cfg.role == "safety" for dev in self.devices):
                flame = self.scenario.workload.flame
                if flame.sample_period_s > 0:
                    for ep in flame.episodes:
                        if ep.start_s < self.scenario.duration_s:
                            self.truth.flame_episodes.append(
                                (ep.start_s, ep.start_s + ep.duration_s)
                            )
                flow = self.scenario.workload.flow
                if flow.sample_period_s > 0:
                    for a in flow.anomalies:
                        t = flow.step_of(a.at_s) * flow.sample_period_s
                        if t < self.scenario.duration_s:
                            self.truth.flow_anomaly_times.append(t)
            # The ground truth is complete once scheduling is done, so the
            # meta line can go out before the first event.
            self.trace = EventTrace(
                meta={
                    "schema": 1,
                    "seed": self.scenario.seed,
                    "start_time": self.scenario.start_time.iso8601(),
                    "duration_s": self.scenario.duration_s,
                    "truth": self.truth.to_dict(),
                },
                writer=writer,
            )
            self.score = metrics_mod.MetricsFold(self.truth)
            self.emit("sim_start", {"seed": self.scenario.seed})
            self.clock.run_until(self.scenario.duration_s)
            for dev in self.devices:
                dev.emit(
                    "queue_final",
                    {
                        "depth": dev.client.queue_depth(),
                        "dead_letters": len(dev.client.dead_letters),
                    },
                )
            self.emit("sim_end", {})
            return self.trace, self.score.finish()
        finally:
            if self._server is not None:
                self.sink_port.close()
                self._server.stop()
                self._server = None


def run(scenario: Scenario) -> tuple[EventTrace, "metrics_mod.MetricsReport"]:
    """Execute a scenario deterministically; returns its kept trace and report."""
    return Simulation(scenario).run()
