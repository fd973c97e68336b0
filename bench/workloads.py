"""Seeded scenario generators for the benchmark's workloads.

Each generator turns a benchmark seed into a scenario document (the dict
that ``edgegate run`` reads as YAML). The seed sets the scenario's random
streams and the card set. Everything that sets the amount of work (device
count, rates, duration, where faults and episodes fall) is fixed per
workload, so runs with different seeds do about the same work.

Why each workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import random

START_TIME = "2024-01-15T08:00:00Z"  # a Monday


def _authz(stream: str) -> list[dict]:
    """Four provisioned cards drawn from ``stream``: three always allowed,
    one on office hours, so both grants and denials come from cached
    policies."""
    rng = random.Random(stream)
    cards: set[str] = set()
    while len(cards) < 4:
        cards.add(f"{rng.randrange(16 ** 8):08X}")
    a, b, c, d = sorted(cards)
    return [
        {"uid": a, "window_start": "00:00:00", "window_end": "23:59:59", "allowed_days": "all"},
        {"uid": b, "window_start": "00:00:00", "window_end": "23:59:59", "allowed_days": "all"},
        {"uid": c, "window_start": "00:00:00", "window_end": "23:59:59", "allowed_days": "all"},
        {
            "uid": d,
            "window_start": "09:00:00",
            "window_end": "17:00:00",
            "allowed_days": ["Monday", "Tuesday", "Wednesday", "Thursday", "Friday"],
        },
    ]


def _access_devices(n: int) -> list[dict]:
    return [
        {"device_id": f"AC_{i:03d}", "role": "access", "location": f"Gate_{i:03d}"}
        for i in range(n)
    ]


def access_fleet(seed: int, devices: int = 120, duration_s: float = 1200.0) -> dict:
    return {
        "seed": seed,
        "start_time": START_TIME,
        "duration_s": duration_s,
        "devices": _access_devices(devices),
        "workload": {
            "access": {
                "process": "poisson",
                "rate_per_s": 0.05,
                "authorized_fraction": 0.7,
                "malformed_fraction": 0.05,
            }
        },
        "authz": _authz(f"access_fleet/{seed}"),
        "network": {"drop_prob": 0.05, "ack_drop_prob": 0.02},
        "faults": {
            "partitions": [{"start_s": 0.2 * duration_s, "end_s": 0.5 * duration_s}],
            "sink_outages": [{"start_s": 0.6 * duration_s, "end_s": 0.6 * duration_s + 30.0}],
        },
        "sink": {"mode": "inprocess"},
    }


def safety_sensors(seed: int, monitors: int = 4, duration_s: float = 21600.0) -> dict:
    devices = [
        {
            "device_id": f"SM_{i:03d}",
            "role": "safety",
            "location": f"Pump_Room_{i}",
            "status_period_s": 60,
        }
        for i in range(monitors)
    ]
    # Two low-rate gate controllers, so the decision metric exists here too,
    # from enough decisions to be steady across seeds.
    devices += _access_devices(2)
    flame_at = round(0.3 * duration_s)
    flow_at = (2 * round(0.25 * duration_s / 2), 2 * round(0.7 * duration_s / 2))
    return {
        "seed": seed,
        "start_time": START_TIME,
        "duration_s": duration_s,
        "devices": devices,
        "workload": {
            "access": {
                "process": "poisson",
                "rate_per_s": 0.05,
                "authorized_fraction": 0.7,
                "malformed_fraction": 0.05,
            },
            "flame": {
                "sample_period_s": 1.0,
                "episodes": [{"start_s": flame_at, "duration_s": 90, "peak": 1500}],
            },
            "flow": {
                "sample_period_s": 2.0,
                "anomalies": [
                    {"at_s": flow_at[0], "magnitude_lpm": 18.0},
                    {"at_s": flow_at[1], "magnitude_lpm": -9.5},
                ],
            },
            "personnel_scans": [{"at_s": flow_at[0] - 20, "uid": "A1B2C3D4"}],
        },
        "authz": _authz(f"safety_sensors/{seed}"),
        "sink": {"mode": "inprocess"},
    }


def socket_sink(seed: int, devices: int = 64, duration_s: float = 3600.0) -> dict:
    return {
        "seed": seed,
        "start_time": START_TIME,
        "duration_s": duration_s,
        "devices": _access_devices(devices),
        "workload": {
            "access": {
                "process": "poisson",
                "rate_per_s": 0.05,
                "authorized_fraction": 0.7,
                "malformed_fraction": 0.05,
            }
        },
        "authz": _authz(f"socket_sink/{seed}"),
        "network": {"drop_prob": 0.05, "ack_drop_prob": 0.02},
        "sink": {"mode": "socket"},
    }


WORKLOADS = {
    "access_fleet": access_fleet,
    "safety_sensors": safety_sensors,
    "socket_sink": socket_sink,
}
