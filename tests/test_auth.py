from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from edgegate.auth import (
    AccessEngine,
    AuthConfig,
    FallbackMode,
    GateActuator,
    GateState,
    InvalidGateTransitionError,
    MalformedUidError,
    Outcome,
    PolicyCache,
    cache_lookup,
    check_temporal,
    fallback_decision,
    update_cache,
    validate_uid_format,
)
from edgegate.core import (
    ALL_DAYS,
    SECONDS_PER_WEEK,
    AccessPolicy,
    DeviceId,
    Timestamp,
    Uid,
    Weekday,
)
from edgegate.sim import SimClock
from edgegate.sync import Nack

from helpers import decide

MONDAY_0900 = Timestamp.from_iso8601("2024-01-15T09:00:00Z")


def office_policy(uid: str = "A1B2C3D4") -> AccessPolicy:
    return AccessPolicy(
        uid=Uid(uid),
        window_start=9 * 3600,
        window_end=17 * 3600,
        allowed_days=frozenset(
            {Weekday.MONDAY, Weekday.TUESDAY, Weekday.WEDNESDAY, Weekday.THURSDAY,
             Weekday.FRIDAY}
        ),
    )


class TestValidateUid:
    def test_canonical_passes_through(self):
        assert validate_uid_format("A1B2C3D4") == Uid("A1B2C3D4")

    def test_lowercase_canonicalized(self):
        assert validate_uid_format("a1b2c3d4") == Uid("A1B2C3D4")

    def test_wrong_length_rejected(self):
        with pytest.raises(MalformedUidError):
            validate_uid_format("A1B2C3")

    def test_non_hex_rejected(self):
        with pytest.raises(MalformedUidError):
            validate_uid_format("A1B2C3DG")

    def test_non_string_rejected(self):
        with pytest.raises(MalformedUidError):
            validate_uid_format(12345678)  # type: ignore[arg-type]


class TestCheckTemporal:
    def test_inside_window_on_allowed_day(self):
        t = Timestamp.from_iso8601("2024-01-15T14:30:45Z")  # Monday
        assert check_temporal(office_policy(), t) is Outcome.GRANTED

    def test_weekday_outside_set(self):
        t = Timestamp.from_iso8601("2024-01-20T10:00:00Z")  # Saturday
        assert check_temporal(office_policy(), t) is Outcome.DENIED

    def test_window_boundaries_inclusive(self):
        assert check_temporal(office_policy(), MONDAY_0900) is Outcome.GRANTED
        t_end = Timestamp.from_iso8601("2024-01-15T17:00:00Z")
        assert check_temporal(office_policy(), t_end) is Outcome.GRANTED

    def test_just_outside_window(self):
        before = Timestamp.from_iso8601("2024-01-15T08:59:59Z")
        after = Timestamp.from_iso8601("2024-01-15T17:00:01Z")
        assert check_temporal(office_policy(), before) is Outcome.DENIED
        assert check_temporal(office_policy(), after) is Outcome.DENIED

    def test_empty_day_set_never_grants(self):
        policy = AccessPolicy(uid=Uid("A1B2C3D4"), window_start=0, window_end=86399)
        t = Timestamp.from_iso8601("2024-01-15T12:00:00Z")
        assert check_temporal(policy, t) is Outcome.DENIED

    @given(
        st.integers(min_value=0, max_value=4_000_000_000),
        st.integers(min_value=0, max_value=86399),
        st.integers(min_value=0, max_value=86399),
        st.sets(st.sampled_from(sorted(Weekday))),
    )
    def test_weekly_periodicity(self, seconds, a, b, days):
        policy = AccessPolicy(
            uid=Uid("A1B2C3D4"),
            window_start=min(a, b),
            window_end=max(a, b),
            allowed_days=frozenset(days),
        )
        t = Timestamp(seconds)
        t_next_week = Timestamp(seconds + SECONDS_PER_WEEK)
        assert check_temporal(policy, t) == check_temporal(policy, t_next_week)


class TestPolicyCache:
    def test_hit_within_ttl(self):
        cache = PolicyCache()
        uid = Uid("A1B2C3D4")
        update_cache(cache, uid, office_policy(), MONDAY_0900, ttl_s=3600)
        assert cache_lookup(cache, uid, MONDAY_0900.add_seconds(10)) is not None

    def test_expiry_boundary(self):
        cache = PolicyCache()
        uid = Uid("A1B2C3D4")
        update_cache(cache, uid, office_policy(), MONDAY_0900, ttl_s=3600)
        # now > inserted + ttl expires; exactly at the boundary still hits
        assert cache_lookup(cache, uid, MONDAY_0900.add_seconds(3600)) is not None
        assert cache_lookup(cache, uid, MONDAY_0900.add_seconds(3601)) is None

    def test_empty_cache_misses(self):
        assert cache_lookup(PolicyCache(), Uid("A1B2C3D4"), MONDAY_0900) is None

    def test_reinsert_refreshes_ttl(self):
        cache = PolicyCache()
        uid = Uid("A1B2C3D4")
        update_cache(cache, uid, office_policy(), MONDAY_0900, ttl_s=3600)
        update_cache(cache, uid, office_policy(), MONDAY_0900.add_seconds(100), ttl_s=3600)
        assert cache_lookup(cache, uid, MONDAY_0900.add_seconds(3650)) is not None

    def test_capacity_evicts_oldest_inserted(self):
        cache = PolicyCache(capacity=3)
        uids = [Uid(f"0000000{i}") for i in range(4)]
        for i, uid in enumerate(uids):
            update_cache(
                cache, uid, office_policy(uid.value), MONDAY_0900.add_seconds(i), 3600
            )
        assert cache_lookup(cache, uids[0], MONDAY_0900.add_seconds(10)) is None
        for uid in uids[1:]:
            assert cache_lookup(cache, uid, MONDAY_0900.add_seconds(10)) is not None

    def test_expired_entry_still_reachable_for_fallback(self):
        cache = PolicyCache()
        uid = Uid("A1B2C3D4")
        update_cache(cache, uid, office_policy(), MONDAY_0900, ttl_s=60)
        later = MONDAY_0900.add_seconds(120)
        assert cache_lookup(cache, uid, later) is None  # evicted as a side effect
        stale = cache.expired_entry(uid, later)
        assert stale is not None and stale.policy == office_policy()


class TestFallback:
    def test_default_denies_unknown(self):
        config = AuthConfig()
        assert (
            fallback_decision(Uid("FFFFFFFF"), PolicyCache(), MONDAY_0900, config)
            is Outcome.DENIED
        )

    def test_grant_if_previously_granted_inside_window(self):
        config = AuthConfig(fallback_mode=FallbackMode.GRANT_IF_PREVIOUSLY_GRANTED)
        cache = PolicyCache()
        uid = Uid("A1B2C3D4")
        update_cache(cache, uid, office_policy(), MONDAY_0900, ttl_s=60)
        inside = MONDAY_0900.add_seconds(3600)  # expired entry, 10:00 Monday
        assert cache_lookup(cache, uid, inside) is None
        assert fallback_decision(uid, cache, inside, config) is Outcome.GRANTED

    def test_grant_if_previously_granted_outside_window(self):
        config = AuthConfig(fallback_mode=FallbackMode.GRANT_IF_PREVIOUSLY_GRANTED)
        cache = PolicyCache()
        uid = Uid("A1B2C3D4")
        update_cache(cache, uid, office_policy(), MONDAY_0900, ttl_s=60)
        evening = Timestamp.from_iso8601("2024-01-15T20:00:00Z")
        assert fallback_decision(uid, cache, evening, config) is Outcome.DENIED

    def test_default_mode_ignores_expired_entry(self):
        config = AuthConfig()  # deny-by-default
        cache = PolicyCache()
        uid = Uid("A1B2C3D4")
        update_cache(cache, uid, office_policy(), MONDAY_0900, ttl_s=60)
        inside = MONDAY_0900.add_seconds(3600)
        assert fallback_decision(uid, cache, inside, config) is Outcome.DENIED


class TestGateActuator:
    def test_full_cycle(self):
        gate = GateActuator()
        assert gate.state is GateState.CLOSED and gate.angle_deg == 0
        gate.open()
        assert gate.state is GateState.OPEN and gate.angle_deg == 90
        gate.close()
        assert gate.state is GateState.CLOSED and gate.angle_deg == 0

    def test_out_of_order_transition_rejected(self):
        gate = GateActuator()
        with pytest.raises(InvalidGateTransitionError):
            gate.close()
        gate.open()
        with pytest.raises(InvalidGateTransitionError):
            gate.open()
        assert gate.state is GateState.OPEN and gate.angle_deg == 90


# -- engine-level behavior -----------------------------------------------------


class ScriptedCloud:
    """Cloud port whose replies are programmed per uid: ("policy", p, delay),
    ("not_found", delay), ("unavailable", delay) or ("silent",)."""

    def __init__(self, clock):
        self.clock = clock
        self.scripts: dict[str, tuple] = {}
        self.queries = 0

    def query_policy(self, uid, on_reply):
        self.queries += 1
        script = self.scripts.get(uid.value, ("silent",))
        if script[0] == "silent":
            return
        if script[0] == "policy":
            reply = script[1]
            delay = script[2]
        elif script[0] == "not_found":
            reply = None
            delay = script[1]
        else:
            reply = Nack("unavailable")
            delay = script[1]
        self.clock.schedule(delay, lambda: on_reply(reply))


def make_engine(**config_kwargs):
    clock = SimClock(MONDAY_0900)
    cloud = ScriptedCloud(clock)
    records = []
    events = []
    engine = AccessEngine(
        device_id=DeviceId("AC_001"),
        location="Main_Entrance",
        clock=clock,
        cloud=cloud,
        config=AuthConfig(**config_kwargs),
        record_out=records.append,
        event_out=lambda kind, data: events.append((kind, data)),
    )
    return engine, clock, cloud, records, events


class TestAccessEngine:
    def test_cache_hit_grants_without_cloud_traffic(self):
        engine, clock, cloud, records, events = make_engine()
        uid = Uid("A1B2C3D4")
        engine.cache.update(uid, office_policy(), clock.now_ts(), 3600)
        kind, decision = decide(engine, clock, "A1B2C3D4")
        assert kind == "auth_decision"
        assert decision["outcome"] == "granted"
        assert decision["source"] == "cache"
        assert decision["latency_ms"] == 0.0
        assert cloud.queries == 0
        assert len(records) == 1 and records[0].event_type == "access_granted"

    def test_gate_cycle_takes_exactly_t_entry(self):
        engine, clock, cloud, records, events = make_engine(t_entry_s=5.0)
        engine.cache.update(Uid("A1B2C3D4"), office_policy(), clock.now_ts(), 3600)
        decide(engine, clock, "A1B2C3D4")
        assert engine.gate.state is GateState.OPEN
        opened_at = clock.now()
        clock.run_until(clock.now() + 10)
        assert engine.gate.state is GateState.CLOSED
        closes = [d for k, d in events if k == "gate_close"]
        opens = [d for k, d in events if k == "gate_open"]
        assert opens and closes
        # the close event fired exactly t_entry after the decision
        assert clock.pending() == 0
        assert [k for k, _ in events].count("gate_open") == 1

    def test_cloud_grant_populates_cache(self):
        engine, clock, cloud, records, events = make_engine()
        cloud.scripts["A1B2C3D4"] = ("policy", office_policy(), 1.2)
        _, decision = decide(engine, clock, "A1B2C3D4")
        assert decision["outcome"] == "granted"
        assert decision["source"] == "cloud"
        assert decision["latency_ms"] == pytest.approx(1200.0)
        clock.run_until(clock.now() + 10)  # let the gate cycle finish
        _, second = decide(engine, clock, "A1B2C3D4")
        assert second["source"] == "cache"
        assert cloud.queries == 1

    def test_cloud_not_found_denies(self):
        engine, clock, cloud, records, events = make_engine()
        cloud.scripts["FFFFFFFF"] = ("not_found", 0.8)
        _, decision = decide(engine, clock, "FFFFFFFF")
        assert decision["outcome"] == "denied"
        assert decision["source"] == "cloud"
        assert records[0].event_type == "access_denied"

    def test_cloud_timeout_falls_back_to_deny(self):
        engine, clock, cloud, records, events = make_engine(t_timeout_ms=5000)
        _, decision = decide(engine, clock, "FFFFFFFF")  # silent cloud
        assert decision["outcome"] == "denied"
        assert decision["source"] == "fallback"
        assert decision["latency_ms"] == pytest.approx(5000.0)

    def test_late_reply_after_deadline_is_ignored(self):
        engine, clock, cloud, records, events = make_engine(t_timeout_ms=1000)
        cloud.scripts["A1B2C3D4"] = ("policy", office_policy(), 2.0)
        _, decision = decide(engine, clock, "A1B2C3D4")
        assert decision["source"] == "fallback"
        clock.run_until(clock.now() + 10)
        # the late reply produced nothing
        assert [k for k, _ in events].count("auth_decision") == 1
        assert len(records) == 1

    def test_deadline_after_a_cloud_decision_emits_nothing(self):
        """Request 1's deadline fires while request 2 waits on the cloud:
        it must neither decide request 2 nor decide request 1 again."""
        engine, clock, cloud, records, events = make_engine(t_timeout_ms=5000)
        cloud.scripts["FFFFFFFF"] = ("not_found", 0.5)
        cloud.scripts["EEEEEEEE"] = ("not_found", 4.5)
        engine.handle_request("FFFFFFFF", request_id="r1")  # deadline at 5.0
        clock.run_until(1.0)
        engine.handle_request("EEEEEEEE", request_id="r2")  # reply at 5.5, deadline at 6.0
        clock.run_until(20.0)
        decisions = [
            (d["request_id"], d["source"], d["latency_ms"])
            for k, d in events
            if k == "auth_decision"
        ]
        assert decisions == [("r1", "cloud", 500.0), ("r2", "cloud", 4500.0)]
        assert len(records) == 2
        assert clock.pending() == 0

    def test_unavailable_reply_uses_fallback(self):
        engine, clock, cloud, records, events = make_engine()
        cloud.scripts["A1B2C3D4"] = ("unavailable", 0.5)
        _, decision = decide(engine, clock, "A1B2C3D4")
        assert decision["source"] == "fallback"
        assert decision["outcome"] == "denied"

    def test_malformed_uid_is_dropped_without_side_effects(self):
        engine, clock, cloud, records, events = make_engine()
        assert decide(engine, clock, "xyz")[0] == "rejected_input"
        assert cloud.queries == 0
        assert records == []
        assert [k for k, _ in events] == ["rejected_input"]

    def test_request_during_gate_cycle_is_refused(self):
        engine, clock, cloud, records, events = make_engine()
        engine.cache.update(Uid("A1B2C3D4"), office_policy(), clock.now_ts(), 3600)
        decide(engine, clock, "A1B2C3D4")
        assert decide(engine, clock, "A1B2C3D4")[0] == "gate_busy"
        assert [k for k, _ in events].count("gate_busy") == 1
        clock.run_until(clock.now() + 6)
        assert decide(engine, clock, "A1B2C3D4")[1]["outcome"] == "granted"

    def test_denied_request_rings_buzzer_with_named_pattern(self):
        engine, clock, cloud, records, events = make_engine()
        cloud.scripts["FFFFFFFF"] = ("not_found", 0.2)
        decide(engine, clock, "FFFFFFFF")
        buzz = [d for k, d in events if k == "buzzer"]
        assert buzz == [{"pattern": "denied_triple_beep"}]

    def test_decision_events_carry_request_id(self):
        engine, clock, cloud, records, events = make_engine()
        engine.cache.update(Uid("A1B2C3D4"), office_policy(), clock.now_ts(), 3600)
        engine.handle_request("xyz", request_id="r0")
        engine.handle_request("A1B2C3D4", request_id="r1")
        engine.handle_request("A1B2C3D4", request_id="r2")  # gate still open
        decisions = [(k, d) for k, d in events if k != "gate_open"]
        assert decisions == [
            ("rejected_input", {"request_id": "r0", "raw_uid": "xyz"}),
            (
                "auth_decision",
                {
                    "request_id": "r1",
                    "uid": "A1B2C3D4",
                    "outcome": "granted",
                    "source": "cache",
                    "latency_ms": 0.0,
                },
            ),
            ("gate_busy", {"request_id": "r2", "raw_uid": "A1B2C3D4"}),
        ]

    @pytest.mark.parametrize("uid, actuator", [("A1B2C3D4", "gate_open"), ("FFFFFFFF", "buzzer")])
    def test_auth_decision_follows_actuator(self, uid, actuator):
        engine, clock, cloud, records, events = make_engine()
        cloud.scripts["A1B2C3D4"] = ("policy", office_policy(), 0.5)
        cloud.scripts["FFFFFFFF"] = ("not_found", 0.5)
        engine.handle_request(uid, request_id="r7")
        clock.run_until(clock.now() + 1)
        kinds = [k for k, _ in events]
        assert kinds == [actuator, "auth_decision"]
        assert events[1][1]["request_id"] == "r7"
        assert events[1][1]["source"] == "cloud"

    def test_exactly_one_record_per_wellformed_request(self):
        engine, clock, cloud, records, events = make_engine()
        cloud.scripts["A1B2C3D4"] = ("policy", office_policy(), 0.5)
        cloud.scripts["FFFFFFFF"] = ("not_found", 0.5)
        decide(engine, clock, "A1B2C3D4")
        clock.run_until(clock.now() + 10)
        decide(engine, clock, "FFFFFFFF")
        clock.run_until(clock.now() + 10)
        assert len(records) == 2
        assert [r.seq for r in records] == [0, 1]

    def test_granted_record_carries_listing_fields(self):
        engine, clock, cloud, records, events = make_engine(t_entry_s=5.0)
        engine.cache.update(Uid("A1B2C3D4"), office_policy(), clock.now_ts(), 3600)
        decide(engine, clock, "A1B2C3D4")
        record = records[0]
        assert record.data["uid"] == "A1B2C3D4"
        assert record.data["gate_status"] == "open"
        assert record.data["duration_ms"] == 5000
        assert record.data["location"] == "Main_Entrance"

    def test_cached_policy_reevaluated_at_later_time(self):
        # A policy granted this morning must deny after hours even on a hit.
        engine, clock, cloud, records, events = make_engine(cache_ttl_s=86400)
        engine.cache.update(Uid("A1B2C3D4"), office_policy(), clock.now_ts(), 86400)
        assert decide(engine, clock, "A1B2C3D4")[1]["outcome"] == "granted"
        clock.run_until(clock.now() + 12 * 3600)  # 21:00, outside the window
        _, decision = decide(engine, clock, "A1B2C3D4")
        assert decision["source"] == "cache"
        assert decision["outcome"] == "denied"
