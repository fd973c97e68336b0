"""Scenario schema: every key, default and bound comes from the config
dataclasses, and every problem is reported with its field path."""

from __future__ import annotations

import pytest

from edgegate.scenario import (
    ConfigError,
    FlowAnomalySpec,
    FlowWorkload,
    Scenario,
    parse_scenario,
)


def full_doc() -> dict:
    """A valid document in which every section and list has one entry."""
    return {
        "seed": 1,
        "devices": [
            {
                "device_id": "AC_001",
                "role": "access",
                "auth": {"t_entry_s": 4.0},
                "retry": {"t_base_s": 1.0},
                "outbox": {"capacity": 10},
                "kalman": {"q": 0.02},
                "flame_params": {"t_base": 700.0},
            },
            {"device_id": "SM_001", "role": "safety"},
        ],
        "workload": {
            "access": {"rate_per_s": 0.1},
            "flame": {
                "sample_period_s": 1.0,
                "episodes": [{"start_s": 10, "duration_s": 5}],
            },
            "flow": {
                "sample_period_s": 2.0,
                "anomalies": [{"at_s": 20, "magnitude_lpm": 5.0}],
            },
            "personnel_scans": [{"at_s": 5, "uid": "A1B2C3D4"}],
        },
        "authz": [{"uid": "A1B2C3D4"}],
        "network": {"drop_prob": 0.1},
        "faults": {
            "partitions": [{"start_s": 1, "end_s": 2}],
            "sink_outages": [{"start_s": 3, "end_s": 4}],
            "drop_windows": [{"start_s": 5, "end_s": 6}],
        },
        "sink": {"mode": "inprocess"},
    }


def issues_of(doc) -> list[str]:
    with pytest.raises(ConfigError) as info:
        parse_scenario(doc)
    return info.value.issues


def at(doc: dict, steps: tuple) -> dict:
    for step in steps:
        doc = doc[step]
    return doc


def test_full_doc_is_valid():
    scenario = parse_scenario(full_doc())
    assert scenario.devices[0].kalman.q == 0.02
    assert scenario.faults.drop_windows[0].prob == 1.0


def test_empty_and_null_documents_are_the_default_scenario():
    assert parse_scenario({}) == parse_scenario(None) == Scenario()


UNKNOWN_KEY_LEVELS = [
    ((), "top level"),
    (("devices", 0), "devices[0]"),
    (("devices", 0, "auth"), "devices[0].auth"),
    (("devices", 0, "retry"), "devices[0].retry"),
    (("devices", 0, "outbox"), "devices[0].outbox"),
    (("devices", 0, "kalman"), "devices[0].kalman"),
    (("devices", 0, "flame_params"), "devices[0].flame_params"),
    (("devices", 1), "devices[1]"),
    (("workload",), "workload"),
    (("workload", "access"), "workload.access"),
    (("workload", "flame"), "workload.flame"),
    (("workload", "flame", "episodes", 0), "workload.flame.episodes[0]"),
    (("workload", "flow"), "workload.flow"),
    (("workload", "flow", "anomalies", 0), "workload.flow.anomalies[0]"),
    (("workload", "personnel_scans", 0), "workload.personnel_scans[0]"),
    (("authz", 0), "authz[0]"),
    (("network",), "network"),
    (("faults",), "faults"),
    (("faults", "partitions", 0), "faults.partitions[0]"),
    (("faults", "sink_outages", 0), "faults.sink_outages[0]"),
    (("faults", "drop_windows", 0), "faults.drop_windows[0]"),
    (("sink",), "sink"),
]


@pytest.mark.parametrize(
    "steps, path", UNKNOWN_KEY_LEVELS, ids=[path for _, path in UNKNOWN_KEY_LEVELS]
)
def test_unknown_key_is_rejected_at_every_level(steps, path):
    doc = full_doc()
    at(doc, steps)["bogus"] = 1
    assert issues_of(doc) == [f"{path}: unknown key 'bogus'"]


@pytest.mark.parametrize(
    "doc, issue",
    [
        ({"workload": {"access": {"rate_per_sec": 1.0}}},
         "workload.access: unknown key 'rate_per_sec'"),
        ({"network": {"drop_probability": 0.5}}, "network: unknown key 'drop_probability'"),
        ({"faults": {"partition": [{"start_s": 0, "end_s": 10}]}},
         "faults: unknown key 'partition'"),
        ({"devices": [{"device_id": "AC_001", "role": "access", "auth": {"t_detection_ms": 100}}]},
         "devices[0].auth: unknown key 't_detection_ms'"),
    ],
)
def test_typos_that_used_to_run_silently_are_rejected(doc, issue):
    assert issues_of(doc) == [issue]


def test_independent_problems_are_each_reported():
    doc = full_doc()
    doc["sed"] = 5
    doc["devices"][0]["auth"]["t_entry"] = 5.0
    doc["devices"][1]["role"] = "pilot"
    doc["workload"]["access"]["authorized_fraction"] = 2.0
    del doc["workload"]["flame"]["episodes"][0]["start_s"]
    doc["authz"].append({"window_start": "08:00:00"})
    doc["network"]["latency_mean_s"] = "fast"
    assert issues_of(doc) == [
        "top level: unknown key 'sed'",
        "devices[0].auth: unknown key 't_entry'",
        "devices[1].role: must be 'access' or 'safety', got 'pilot'",
        "workload.access.authorized_fraction: 2.0 above maximum 1.0",
        "workload.flame.episodes[0].start_s: required",
        "authz[1].uid: required",
        "network.latency_mean_s: expected a number, got 'fast'",
    ]


@pytest.mark.parametrize(
    "steps, key, value, issue",
    [
        (("network",), "ack_drop_prob", 1.5, "network.ack_drop_prob: 1.5 above maximum 1.0"),
        (("devices", 0), "send_timeout_s", 0, "devices[0].send_timeout_s: 0.0 below minimum 0.001"),
        (("devices", 0, "auth"), "open_angle_deg", 181,
         "devices[0].auth: open_angle_deg must be in [0, 180], got 181"),
        (("devices", 0, "outbox"), "capacity", 0, "devices[0].outbox.capacity: 0 below minimum 1"),
        (("devices", 0, "outbox"), "capacity", 10.5,
         "devices[0].outbox.capacity: expected an integer, got 10.5"),
        ((), "seed", 1.0, "seed: expected an integer, got 1.0"),
        (("devices", 0, "kalman"), "r", 0,
         "devices[0].kalman: measurement noise r must be > 0, got 0.0"),
    ],
)
def test_values_out_of_bounds_or_of_the_wrong_type_are_rejected(steps, key, value, issue):
    doc = full_doc()
    at(doc, steps)[key] = value
    assert issues_of(doc) == [issue]


def test_negative_anomaly_magnitude_is_accepted():
    doc = full_doc()
    doc["workload"]["flow"]["anomalies"][0]["magnitude_lpm"] = -9.5
    assert parse_scenario(doc).workload.flow.anomalies[0].magnitude_lpm == -9.5


def test_anomalies_on_one_sample_are_rejected():
    doc = full_doc()
    doc["workload"]["flow"] = {
        "sample_period_s": 3.0,
        "anomalies": [{"at_s": 99, "magnitude_lpm": 18.0}, {"at_s": 100, "magnitude_lpm": 5.0}],
    }
    assert issues_of(doc) == [
        "workload.flow.anomalies[1]: at_s 100.0 falls on the same sample as anomalies[0]"
        " (at_s 99.0)"
    ]
    with pytest.raises(ConfigError):
        FlowWorkload(
            sample_period_s=3.0,
            anomalies=(FlowAnomalySpec(99.0, 18.0), FlowAnomalySpec(100.0, 5.0)),
        )


def test_cross_field_invariants_name_their_paths():
    doc = full_doc()
    doc["devices"][1]["device_id"] = "AC_001"
    doc["authz"].append({"uid": "a1b2c3d4"})
    doc["faults"]["partitions"] = [{"start_s": 50, "end_s": 80}, {"start_s": 10, "end_s": 60}]
    doc["faults"]["drop_windows"][0]["end_s"] = 5
    # A mapping's invariants are checked once its fields parse, so each
    # enclosing level's problems show up after the inner ones are fixed.
    assert issues_of(doc) == ["faults.drop_windows[0]: end_s must exceed start_s"]
    doc["faults"]["drop_windows"][0]["end_s"] = 6
    assert issues_of(doc) == ["faults.partitions: intervals overlap near t=50.0"]
    doc["faults"]["partitions"] = [{"start_s": 50, "end_s": 80}, {"start_s": 10, "end_s": 20}]
    assert issues_of(doc) == [
        "devices[1].device_id: duplicate AC_001",
        "authz[1].uid: duplicate A1B2C3D4",
    ]
    del doc["devices"][1]
    del doc["authz"][1]
    partitions = parse_scenario(doc).faults.partitions
    assert [p.start_s for p in partitions] == [10.0, 50.0]

