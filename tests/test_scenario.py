"""Scenario schema: every key, default and bound comes from the config
dataclasses, and every problem is reported with its field path."""

from __future__ import annotations

import dataclasses
import types
import typing
from pathlib import Path

import pytest
import yaml

from edgegate import scenario as scenario_mod
from edgegate.scenario import (
    ConfigError,
    FlameWorkload,
    FlowAnomalySpec,
    FlowWorkload,
    Scenario,
    load_scenario,
    parse_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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
         "devices[0].auth.open_angle_deg: 181 above maximum 180"),
        (("devices", 0, "outbox"), "capacity", 0, "devices[0].outbox.capacity: 0 below minimum 1"),
        (("devices", 0, "outbox"), "capacity", 10.5,
         "devices[0].outbox.capacity: expected an integer, got 10.5"),
        ((), "seed", 1.0, "seed: expected an integer, got 1.0"),
        (("devices", 0, "kalman"), "r", 0, "devices[0].kalman.r: 0.0 must be above 0.0"),
        (("network",), "drop_prob", 1.5, "network.drop_prob: 1.5 above maximum 1.0"),
        (("network",), "latency_stddev_s", -0.1,
         "network.latency_stddev_s: -0.1 below minimum 0.0"),
        (("faults", "drop_windows", 0), "prob", 1.5,
         "faults.drop_windows[0].prob: 1.5 above maximum 1.0"),
        (("devices", 0, "retry"), "t_base_s", 0, "devices[0].retry.t_base_s: 0.0 must be above 0.0"),
        (("devices", 0, "retry"), "max_attempts", 0,
         "devices[0].retry.max_attempts: 0 below minimum 1"),
        (("authz", 0), "window_end", 86400, "authz[0].window_end: 86400 above maximum 86399"),
    ],
)
def test_values_out_of_bounds_or_of_the_wrong_type_are_rejected(steps, key, value, issue):
    doc = full_doc()
    at(doc, steps)[key] = value
    assert issues_of(doc) == [issue]


def test_every_bad_number_of_one_mapping_is_reported():
    doc = full_doc()
    doc["devices"][0]["auth"] = {"t_entry_s": 0, "open_angle_deg": 181}
    assert issues_of(doc) == [
        "devices[0].auth.t_entry_s: 0.0 must be above 0.0",
        "devices[0].auth.open_angle_deg: 181 above maximum 180",
    ]


def test_null_retry_budget_retries_forever():
    doc = full_doc()
    doc["devices"][0]["retry"]["max_attempts"] = None
    assert parse_scenario(doc).devices[0].retry.max_attempts is None


# -- the schema's bounds ------------------------------------------------------
# A generator of scenarios can draw every number from its field's ``bounds``
# metadata only if every number has some, or a reason to have none.

UNBOUNDED_NUMBERS = {
    "seed": "any integer seeds the run",
    "workload.flow.anomalies[0].magnitude_lpm": "signed: an anomaly can lower the flow",
    "devices[0].retry.t_max_s": "bounded below by t_base_s, a cross-field invariant",
}


def number_fields(cls: type = Scenario, steps: tuple = (), path: str = ""):
    """``(steps, path, field)`` of every int or float field reachable from
    ``cls``, through nested mappings and the first item of each list."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        tp, here, name = hints[f.name], steps + (f.name,), f"{path}{f.name}"
        inner = [a for a in typing.get_args(tp) if a not in (type(None), Ellipsis)]
        if typing.get_origin(tp) is tuple:
            (tp,), here, name = inner, here + (0,), name + "[0]"
        elif typing.get_origin(tp) is types.UnionType:  # X | None
            (tp,) = inner
        if tp in (int, float):
            yield here, name, f
        elif dataclasses.is_dataclass(tp) and tp not in scenario_mod._LEAF_READERS:
            yield from number_fields(tp, here, name + ".")


BOUNDED_NUMBERS = [
    (steps, path, f.metadata["bounds"])
    for steps, path, f in number_fields()
    if "bounds" in f.metadata
]


def test_every_number_declares_bounds_or_a_reason_not_to():
    unbounded = {path for _, path, f in number_fields() if "bounds" not in f.metadata}
    assert unbounded == set(UNBOUNDED_NUMBERS)


@pytest.mark.parametrize(
    "steps, path, bounds", BOUNDED_NUMBERS, ids=[path for _, path, _ in BOUNDED_NUMBERS]
)
def test_a_value_past_each_bound_gives_one_issue_at_its_path(steps, path, bounds):
    lo, hi, gt = bounds
    past = [v for v in (None if lo is None else lo - 1, None if hi is None else hi + 1, gt)
            if v is not None]
    assert past
    for value in past:
        doc = full_doc()
        at(doc, steps[:-1])[steps[-1]] = value
        [issue] = issues_of(doc)
        assert issue.startswith(f"{path}: ")


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
    # Intervals are half-open, so touching ones do not overlap.
    doc["faults"]["partitions"] = [{"start_s": 20, "end_s": 25}, {"start_s": 10, "end_s": 20}]
    partitions = parse_scenario(doc).faults.partitions
    assert [(p.start_s, p.end_s) for p in partitions] == [(10.0, 20.0), (20.0, 25.0)]


@pytest.mark.parametrize("period", [0.0004, 0.001, 0.0015, 0.0019999])
def test_flame_periods_that_can_repeat_a_stamp_are_rejected(period):
    doc = full_doc()
    doc["workload"]["flame"]["sample_period_s"] = period
    assert issues_of(doc) == [
        f"workload.flame.sample_period_s: {period} below minimum 0.002 (0 turns the channel off)"
    ]
    with pytest.raises(ConfigError):
        FlameWorkload(sample_period_s=period)


@pytest.mark.parametrize("period", [0.0, 0.002, 0.0025, 1.0])
def test_flame_periods_of_two_millis_and_up_are_accepted(period):
    doc = full_doc()
    doc["workload"]["flame"]["sample_period_s"] = period
    assert parse_scenario(doc).workload.flame.sample_period_s == period


# -- the YAML loader ---------------------------------------------------------

needs_libyaml = pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml"
)


def many_devices_doc(n: int = 150) -> dict:
    """A scenario of ``n`` gate controllers, each with its own settings, and
    one safety monitor."""
    doc = full_doc()
    doc["start_time"] = "2024-01-15T08:00:00Z"
    doc["devices"] = [
        {
            "device_id": f"AC_{i:03d}",
            "role": "access",
            "location": f"Gate é{i}",
            "auth": {"t_entry_s": 4.0 + i / 1000},
            "outbox": {"capacity": 100 + i, "overflow": "drop_oldest"},
        }
        for i in range(1, n + 1)
    ] + [{"device_id": "SM_001", "role": "safety", "kalman": {"q": 1e-3, "r": 0.5}}]
    doc["authz"] = [
        {"uid": f"{i:08X}", "window_start": "08:00:00", "window_end": "18:30:00",
         "allowed_days": ["Monday", "Friday"] if i % 2 else "all"}
        for i in range(1, 40)
    ]
    return doc


def yaml_files(tmp_path) -> list[Path]:
    path = tmp_path / "many.yaml"
    doc = many_devices_doc()
    path.write_text(yaml.safe_dump(doc, sort_keys=False, allow_unicode=True), encoding="utf-8")
    flow = tmp_path / "many_flow_style.yaml"
    flow.write_text(yaml.safe_dump(doc, default_flow_style=True), encoding="utf-8")
    return sorted(SCENARIOS.glob("*.yaml")) + [path, flow]


@needs_libyaml
def test_both_loaders_read_equal_documents_and_scenarios(tmp_path, monkeypatch):
    for path in yaml_files(tmp_path):
        text = path.read_text(encoding="utf-8")
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
        monkeypatch.setattr(scenario_mod, "_YAML_LOADER", yaml.SafeLoader)
        pure = load_scenario(path)
        monkeypatch.setattr(scenario_mod, "_YAML_LOADER", yaml.CSafeLoader)
        assert load_scenario(path) == pure


def test_scenarios_load_with_libyaml_where_it_is_built_in():
    assert scenario_mod._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@pytest.mark.parametrize(
    "loader",
    [yaml.SafeLoader, pytest.param(getattr(yaml, "CSafeLoader", None), marks=needs_libyaml)],
)
@pytest.mark.parametrize(
    "text", ["seed: [1, 2\n", "seed: a: b\n", "devices:\n\t- x\n", "- a\nseed: 1\n", "seed: '1\n"]
)
def test_malformed_yaml_is_a_config_error_under_both_loaders(tmp_path, monkeypatch, loader, text):
    path = tmp_path / "bad.yaml"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(scenario_mod, "_YAML_LOADER", loader)
    with pytest.raises(ConfigError) as info:
        load_scenario(path)
    [issue] = info.value.issues
    assert issue.startswith("not valid YAML: ")
