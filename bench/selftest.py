"""Tiny-scale self-test of the benchmark.

Runs every workload at a few devices, untraced and traced, and checks that
each run is correct and emits every metric BENCHMARK.json names, as a
number. Then it plants a duplicate row in a real sink snapshot and checks
that the correctness gate flags it. Takes about a minute:

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import yaml

import gate
import run
import workloads

TINY = {
    "access_fleet": {"devices": 3, "duration_s": 600.0},
    "safety_sensors": {"monitors": 1, "duration_s": 1800.0},
    "socket_sink": {"devices": 3, "duration_s": 600.0},
}


def check_metrics() -> None:
    for workload, scale in TINY.items():
        for trace in (False, True):
            result = run.run(workload, 1, 0.0, trace, scale)
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            assert set(result["metrics"]) == set(run.declared(trace)), workload
            for name, metric in result["metrics"].items():
                value = metric["value"]
                assert isinstance(value, (int, float)) and not isinstance(value, bool), name
                assert trace or value > 0, f"{workload}: {name} is {value}"


def check_gate_flags_duplicate() -> None:
    work = run.ROOT / ".bench_work" / "selftest"
    try:
        work.mkdir(parents=True, exist_ok=True)
        scenario = work / "scenario.yaml"
        doc = workloads.access_fleet(7, **TINY["access_fleet"])
        scenario.write_text(yaml.safe_dump(doc), encoding="utf-8")
        rep = run.run_child(scenario, work / "out", False, time.monotonic() + 120)
        assert rep.ok, rep.problems
        files = [rep.files[name] for name in run.OUTPUTS]
        assert gate.check(*files) == [], "gate flags a clean run"

        state = json.loads(rep.files["sink.json"])
        assert state["rows"], "tiny run stored no rows"
        state["rows"].append(state["rows"][0])
        files[2] = json.dumps(state).encode("utf-8")
        problems = gate.check(*files)
        assert any("stored 2 times" in p for p in problems), problems
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    if not (run.ROOT / "src" / "edgegate" / "__init__.py").is_file():
        print("no edgegate sources; run from a full checkout", file=sys.stderr)
        return 2
    check_metrics()
    check_gate_flags_duplicate()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
