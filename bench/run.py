"""edgegate benchmark: whole-run host time of ``edgegate run`` and
``edgegate replay`` on generated scenarios, with a correctness gate on every
repetition and an opt-in outside-in trace for per-layer attribution.

    python3 bench/run.py --workload access_fleet --seed 1 --seconds 30 --trace 0

Each repetition runs one whole scenario in a fresh child process
(``child.py``); repetitions run one after another for ``--seconds``: a new
one starts only if it should end within that time. ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
each the median over the repetitions. ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics, each the median over
the traced ones. The last stdout line is the JSON result; the lines before
it name every metric with its value and unit. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import yaml

import gate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUTS = ("trace.jsonl", "report.json", "sink.json", "replay.json")
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# Per-layer metrics built from the traced run's span aggregates.
CALLS_AND_SELF = (
    "sim.generate_arrivals",
    "sim.SimTransport.send",
    "sim.SimCloudClient.query_policy",
    "auth.AccessEngine.handle_request",
    "auth.check_temporal",
    "auth.PolicyCache.lookup",
    "safety.SafetyMonitor.on_flame_sample",
    "safety.SafetyMonitor.on_flow_sample",
    "safety.RollingWindow.push",
    "safety.kalman_update",
    "sync.SyncClient.enqueue",
    "sync.OutboxQueue.enqueue",
    "codec.encode",
    "codec.parse_record",
    "core.Timestamp.from_iso8601",
    "core.Timestamp.from_epoch",
    "core.Timestamp.iso8601",
    "sink.CloudSink.append",
    "sink.CloudSink.query_policy",
    "wire.RemoteSink.append",
    "wire.RemoteSink.query_policy",
    "trace.EventTrace.append",
)
RUN_TOTAL = (
    "scenario.load_scenario",
    "sim.Simulation.init",
    "sink.CloudSink.state_dict",
    "wire.SinkServer.start",
    "wire.SinkServer.stop",
    "trace.EventTrace.to_jsonl",
)
RUN_SELF = ("sim.Simulation.run", "sim.SimClock.run_until", "cli.main")


class Rep:
    """Outcome of one repetition."""

    def __init__(self, result: dict | None, files: dict[str, bytes], problems: list[str]):
        self.result = result or {}
        self.files = files
        self.problems = problems
        self.digests = gate.digests(files) if len(files) == len(OUTPUTS) else {}

    @property
    def ok(self) -> bool:
        return not self.problems


def run_child(scenario: Path, out: Path, traced: bool, deadline: float) -> Rep:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result_path = out / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(scenario), str(out), str(result_path)]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=max(5.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return Rep(None, {}, ["repetition timed out"])
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
        return Rep(None, {}, [f"child exited with {proc.returncode}: " + " | ".join(tail)])
    result = json.loads(result_path.read_text(encoding="utf-8"))
    problems = []
    for key in ("rc_run", "rc_replay"):
        if result[key] != 0:
            problems.append(f"{key} = {result[key]}")
    problems += [f"tracer: {p}" for p in result["bad_roots"]]
    files = {name: (out / name).read_bytes() for name in OUTPUTS if (out / name).is_file()}
    if len(files) < len(OUTPUTS):
        problems.append("missing output files")
    return Rep(result, files, problems)


def check_against(rep: Rep, first: Rep | None) -> None:
    """Full gate on the first good repetition; every later one must give the
    same bytes, which makes the gate's verdict the same too."""
    if not rep.ok:
        return
    if first is None:
        rep.problems += gate.check(*(rep.files[name] for name in OUTPUTS))
    elif rep.digests != first.digests:
        rep.problems.append("outputs differ from the first repetition of this seed")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, -(-int(q * len(ordered)) // 100)) - 1]


def end_to_end(good: list[Rep]) -> dict[str, float]:
    report = json.loads(good[0].files["report.json"])
    events = good[0].files["trace.jsonl"].count(b"\n") - 1
    return {
        "wall_s": median([r.result["wall_s"] for r in good]),
        "setup_s": median([r.result["setup_s"] for r in good]),
        "replay_s": median([r.result["replay_s"] for r in good]),
        "events_per_s": median([events / r.result["wall_s"] for r in good]),
        "peak_rss_mb": median([r.result["peak_rss_mb"] for r in good]),
        "logging_success": report["logging_success"],
        "delivery_p95_sim_s": report["latency_p95_s"],
        "decision_mean_sim_ms": report["response_mean_ms"],
    }


def derived_counts(rep: Rep, doc: dict) -> dict[str, float]:
    """Counts and ratios read from one run's output files."""
    events = gate.trace_events(rep.files["trace.jsonl"])
    safety_devices = {d["device_id"] for d in doc["devices"] if d["role"] == "safety"}
    kinds: dict[str, int] = {}
    sources: dict[str, int] = {}
    max_depth = 0
    safety_records = 0
    for e in events:
        kind, data = e["kind"], e["data"]
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "auth_decision":
            sources[data["source"]] = sources.get(data["source"], 0) + 1
        elif kind in ("outbox_enqueued", "delivered", "dead_letter"):
            max_depth = max(max_depth, data["depth"])
            if kind == "outbox_enqueued" and data["device"] in safety_devices:
                safety_records += 1
    decisions = kinds.get("auth_decision", 0)
    attempts = kinds.get("send_attempt", 0)
    return {
        "auth.decisions": decisions,
        "auth.cache_hit_ratio": sources.get("cache", 0) / decisions if decisions else 0.0,
        "auth.fallback_ratio": sources.get("fallback", 0) / decisions if decisions else 0.0,
        "sync.send_attempts": attempts,
        "sync.delivered_per_send": kinds.get("delivered", 0) / attempts if attempts else 0.0,
        "sync.max_depth": max_depth,
        "sync.send_failed": kinds.get("send_failed", 0),
        "safety.records": safety_records,
    }


def per_layer(traced: Rep, rows: int) -> dict[str, float]:
    run, replay = traced.result["run"], traced.result["replay"]
    zero = {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
    get = lambda agg, name: agg.get(name, zero)  # noqa: E731
    m: dict[str, float] = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = get(run, name)["calls"]
        m[f"{name}.self_s"] = get(run, name)["self_s"]
    for name in RUN_TOTAL:
        m[f"{name}.total_s"] = get(run, name)["total_s"]
    for name in RUN_SELF:
        m[f"{name}.self_s"] = get(run, name)["self_s"]
    for name in tracer.KEEP_DURATIONS:
        durations = get(run, name).get("durations", [])
        m[f"{name}.p50_ms"] = percentile(durations, 50) * 1000.0
        m[f"{name}.p99_ms"] = percentile(durations, 99) * 1000.0
    m["sim.SimClock.schedule.calls"] = get(run, "sim.SimClock.schedule")["calls"]
    m["sim.pending_at_start"] = traced.result["pending_at_start"] or 0
    m["trace.EventTrace.from_jsonl.total_s"] = get(replay, "trace.EventTrace.from_jsonl")["total_s"]
    m["metrics.compute_metrics.run_s"] = get(run, "metrics.compute_metrics")["total_s"]
    m["metrics.compute_metrics.replay_s"] = get(replay, "metrics.compute_metrics")["total_s"]
    appends = get(run, "sink.CloudSink.append")
    m["sink.dedup_hits"] = appends["calls"] - appends["errors"] - rows
    return m


def declared(trace: bool) -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool, scale: dict | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line.
    ``scale`` overrides workload sizes (the self-test uses a tiny scale)."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        doc = workloads.WORKLOADS[workload](seed, **(scale or {}))
        scenario = work / "scenario.yaml"
        scenario.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")

        untraced: list[Rep] = []
        traced: list[Rep] = []
        first: Rep | None = None
        # Start another cycle only if it should end within the window, and
        # leave room for the parity run before the hard deadline.
        window_end = min(started + seconds, deadline - 30)
        while True:
            cycle_start = time.monotonic()
            rep = run_child(scenario, work / "out", False, deadline)
            check_against(rep, first)
            untraced.append(rep)
            first = first or (rep if rep.ok else None)
            if trace:
                rep = run_child(scenario, work / "out", True, deadline)
                check_against(rep, first)
                traced.append(rep)
            now = time.monotonic()
            if now + (now - cycle_start) > window_end:
                break
        reps = untraced + traced

        parity = ""
        if doc["sink"]["mode"] == "socket":
            inproc = dict(doc, sink={**doc["sink"], "mode": "inprocess"})
            twin = work / "inprocess.yaml"
            twin.write_text(yaml.safe_dump(inproc, sort_keys=False), encoding="utf-8")
            rep = run_child(twin, work / "out", False, deadline)
            if rep.ok and first is not None:
                same = all(
                    rep.digests[f] == first.digests[f] for f in ("trace.jsonl", "sink.json")
                )
                parity = "socket parity: " + ("ok" if same else "MISMATCH")
                if not same:
                    rep.problems.append("socket and in-process runs differ")
            reps.append(rep)

        failed = [r for r in reps if not r.ok]
        for r in failed:
            print("repetition failed: " + "; ".join(r.problems), file=sys.stderr)
        base = [r for r in untraced if r.ok]
        good = [r for r in traced if r.ok] if trace else base
        if not good or not base:
            raise SystemExit("no repetition succeeded")
        if trace:
            rows = len(json.loads(good[0].files["sink.json"])["rows"])
            layers = [per_layer(r, rows) for r in good]
            metrics = {k: median([m[k] for m in layers]) for k in layers[0]}
            metrics.update(derived_counts(good[0], doc))
            metrics["tracing_overhead"] = median([r.result["wall_s"] for r in good]) / median(
                [r.result["wall_s"] for r in base]
            )
        else:
            metrics = end_to_end(good)

        spec = declared(trace)
        if set(metrics) != set(spec):
            raise SystemExit(
                f"metrics differ from BENCHMARK.json: missing {sorted(set(spec) - set(metrics))},"
                f" undeclared {sorted(set(metrics) - set(spec))}"
            )
        empty = sorted(k for k, v in metrics.items() if not isinstance(v, (int, float)))
        if empty:
            raise SystemExit(f"no value for {empty}")
        print(f"workload {workload} seed {seed}: {len(good)} measured repetitions,"
              f" {len(reps)} attempted, {len(failed)} failed"
              f" (failed_run_ratio {len(failed) / len(reps):.4f})")
        print(("traced " if trace else "") + "wall_s by repetition, sorted: "
              + " ".join(f"{w:.3f}" for w in sorted(r.result["wall_s"] for r in good)))
        if first is not None:
            print("digests " + " ".join(f"{k}={v}" for k, v in first.digests.items()))
        if parity:
            print(parity)
        for name, m in spec.items():
            print(f"  {name:<44} {metrics[name]:>16.6f} {m['unit']}")
        return {
            "correct": not failed,
            "attempted": len(reps),
            "failed": len(failed),
            "metrics": {k: {"value": metrics[k], "unit": spec[k]["unit"]} for k in spec},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "edgegate" / "__init__.py").is_file():
        print(f"no edgegate sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
