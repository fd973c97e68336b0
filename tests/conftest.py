from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from edgegate.core import ALL_DAYS, AccessPolicy, DeviceId, Timestamp, Uid
from edgegate.codec import CloudRecord

# HYPOTHESIS_PROFILE=ci widens the properties that run whole simulations per
# example; tier-1 runs them on the default profile, small and derandomized.
settings.register_profile(
    "ci",
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "default")
settings.load_profile(PROFILE)


def whole_run_settings(tier1_examples: int) -> settings:
    """Settings of a property that runs a whole simulation per example:
    ``tier1_examples`` derandomized examples on the default profile, the
    loaded profile's own settings on any other."""
    if PROFILE != "default":
        return settings()
    return settings(
        max_examples=tier1_examples,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


@pytest.fixture
def listing_record() -> CloudRecord:
    """The canonical example record used throughout the wire-format docs."""
    return CloudRecord(
        device_id=DeviceId("AC_001"),
        timestamp=Timestamp.from_iso8601("2024-01-15T14:30:45Z"),
        event_type="access_granted",
        data={
            "uid": "A1B2C3D4",
            "gate_status": "open",
            "duration_ms": 4800,
            "location": "Main_Entrance",
        },
        seq=0,
    )


def always_open_policy(uid: str) -> AccessPolicy:
    return AccessPolicy(
        uid=Uid(uid), window_start=0, window_end=86399, allowed_days=ALL_DAYS
    )
