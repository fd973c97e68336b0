from __future__ import annotations

from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from edgegate.core import (
    ALL_DAYS,
    SECONDS_PER_DAY,
    SECONDS_PER_WEEK,
    AccessPolicy,
    CoreError,
    DeviceId,
    PolicyError,
    Timestamp,
    Uid,
    Weekday,
    seconds_of_day,
    weekday_of,
)


def ts(iso: str) -> Timestamp:
    return Timestamp.from_iso8601(iso)


class TestTimestamp:
    def test_iso_round_trip(self):
        t = ts("2024-01-15T14:30:45Z")
        assert t.iso8601() == "2024-01-15T14:30:45Z"
        assert t.seconds_utc == 1705329045

    def test_bad_iso_rejected(self):
        for bad in (
            "2024-01-15 14:30:45",
            "2024-01-15T14:30:45",
            "not-a-time",
            "",
            "2024-02-30T00:00:00Z",  # no such day
            "2023-02-29T00:00:00Z",  # not a leap year
            "2024-01-15T24:00:00Z",
            "2024-01-15T14:60:00Z",
            "2024-01-15T14:30:60Z",
            "2024-13-01T00:00:00Z",
            "2024-01-15T14:30:45Z ",  # trailing space
            "2024-01-15T14:30:4\u0665Z",  # ARABIC-INDIC DIGIT FIVE
            "\uff12024-01-15T14:30:45Z",  # FULLWIDTH DIGIT TWO
            "2024-1-5T1:2:3Z",  # unpadded: strptime took it, encode never writes it
            "2024-01-15t14:30:45z",  # lowercase: strptime took it too
        ):
            with pytest.raises(CoreError):
                Timestamp.from_iso8601(bad)

    def test_leap_day_accepted(self):
        assert ts("2024-02-29T00:00:00Z").iso8601() == "2024-02-29T00:00:00Z"

    @given(st.integers(min_value=0, max_value=253402300799))
    def test_iso_agrees_with_datetime(self, seconds):
        expected = datetime.fromtimestamp(seconds, timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        text = Timestamp(seconds).iso8601()
        assert text == expected
        assert Timestamp.from_iso8601(text) == Timestamp(seconds)

    def test_millis_bounds(self):
        Timestamp(0, 0)
        Timestamp(0, 999)
        with pytest.raises(CoreError):
            Timestamp(0, 1000)
        with pytest.raises(CoreError):
            Timestamp(0, -1)

    def test_ordering_follows_seconds_then_millis(self):
        assert Timestamp(10, 5) < Timestamp(10, 6) < Timestamp(11, 0)
        assert Timestamp(10, 999) < Timestamp(11, 0)

    def test_epoch_round_trip(self):
        t = Timestamp(1705329045, 250)
        assert Timestamp.from_epoch(t.to_epoch()) == t

    def test_add_and_diff(self):
        t = ts("2024-01-15T14:30:45Z")
        later = t.add_seconds(1.5)
        assert later.millis == 500
        assert later.diff_seconds(t) == pytest.approx(1.5)


class TestWeekday:
    def test_epoch_is_thursday(self):
        assert weekday_of(Timestamp(0)) is Weekday.THURSDAY

    def test_listing_timestamp_is_monday(self):
        assert weekday_of(ts("2024-01-15T14:30:45Z")) is Weekday.MONDAY

    @given(st.integers(min_value=0, max_value=4_000_000_000))
    def test_agrees_with_datetime(self, seconds):
        expected = datetime.fromtimestamp(seconds, tz=timezone.utc).weekday()
        assert weekday_of(Timestamp(seconds)) == Weekday(expected)

    @given(st.integers(min_value=0, max_value=4_000_000_000))
    def test_weekly_periodicity(self, seconds):
        t = Timestamp(seconds)
        assert weekday_of(t) == weekday_of(Timestamp(seconds + SECONDS_PER_WEEK))

    def test_from_name(self):
        assert Weekday.from_name("monday") is Weekday.MONDAY
        assert Weekday.from_name(" Sunday ") is Weekday.SUNDAY
        with pytest.raises(CoreError):
            Weekday.from_name("Funday")


class TestSecondsOfDay:
    def test_midnight(self):
        assert seconds_of_day(ts("2024-01-15T00:00:00Z")) == 0

    def test_afternoon(self):
        # 14h 30m 45s past midnight
        assert seconds_of_day(ts("2024-01-15T14:30:45Z")) == 14 * 3600 + 30 * 60 + 45

    def test_day_boundary(self):
        assert seconds_of_day(ts("2024-01-15T23:59:59Z")) == 86399

    @given(
        st.integers(min_value=0, max_value=4_000_000_000),
        st.integers(min_value=0, max_value=100),
    )
    def test_whole_day_shifts_are_invisible(self, seconds, k):
        t = Timestamp(seconds)
        shifted = Timestamp(seconds + k * SECONDS_PER_DAY)
        assert seconds_of_day(t) == seconds_of_day(shifted)


class TestIdentity:
    def test_uid_accepts_canonical(self):
        assert Uid("A1B2C3D4").value == "A1B2C3D4"

    def test_uid_rejects_noncanonical(self):
        for bad in ("a1b2c3d4", "A1B2C3", "A1B2C3D4E5", "GHIJKLMN", "", "A1B2C3D4\n"):
            with pytest.raises(CoreError):
                Uid(bad)

    def test_device_id_shape(self):
        assert DeviceId("AC_001").value == "AC_001"
        assert DeviceId("SM_12").value == "SM_12"
        for bad in ("", "AC", "AC-001", "001_AC", "AC_", "AC_001\n", "\nAC_001"):
            with pytest.raises(CoreError):
                DeviceId(bad)


class TestAccessPolicy:
    def test_plain_window(self):
        p = AccessPolicy(
            uid=Uid("A1B2C3D4"),
            window_start=9 * 3600,
            window_end=17 * 3600,
            allowed_days=frozenset({Weekday.MONDAY}),
        )
        assert p.window_start < p.window_end

    def test_overnight_window_rejected(self):
        with pytest.raises(PolicyError):
            AccessPolicy(
                uid=Uid("A1B2C3D4"), window_start=23 * 3600, window_end=1 * 3600
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(PolicyError):
            AccessPolicy(uid=Uid("A1B2C3D4"), window_start=0, window_end=SECONDS_PER_DAY)

    def test_empty_days_allowed(self):
        p = AccessPolicy(uid=Uid("A1B2C3D4"), window_start=0, window_end=86399)
        assert p.allowed_days == frozenset()

    def test_dict_round_trip(self):
        p = AccessPolicy(
            uid=Uid("A1B2C3D4"),
            window_start=32400,
            window_end=61200,
            allowed_days=frozenset({Weekday.MONDAY, Weekday.FRIDAY}),
        )
        assert AccessPolicy.from_dict(p.to_dict()) == p

    def test_all_days_constant(self):
        assert len(ALL_DAYS) == 7
