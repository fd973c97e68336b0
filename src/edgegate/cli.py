"""Command-line entry point: run scenarios, replay traces, validate configs,
serve the mock sink, and export sink snapshots to CSV.

Exit codes: 0 success, 1 bad configuration or input, 2 runtime or output failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import metrics as metrics_mod
from . import sim
from .codec import parse_json
from .scenario import ConfigError, Scenario, load_scenario
from .sink import DEFAULT_TOKEN, CloudSink, state_to_csv
from .trace import TraceError
from .wire import SinkServer

TOKEN_ENV = "EDGEGATE_SINK_TOKEN"


def effective_token(configured: str) -> str:
    """Environment override applies when the config still uses the default."""
    env = os.environ.get(TOKEN_ENV)
    if env and configured == DEFAULT_TOKEN:
        return env
    return configured


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgegate",
        description="Simulated access-control and safety monitoring testbed",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write trace + report")
    p_run.add_argument("scenario", help="scenario YAML file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default="out", help="output directory (default: ./out)")

    p_replay = sub.add_parser("replay", help="recompute metrics from a saved trace")
    p_replay.add_argument("trace", help="trace.jsonl produced by `run`")
    p_replay.add_argument("--out", default=None, help="write report JSON here instead of stdout")

    p_validate = sub.add_parser("validate", help="check a scenario file and exit")
    p_validate.add_argument("scenario", help="scenario YAML file")

    p_serve = sub.add_parser("serve-sink", help="host the mock sink on a local socket")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7621)
    p_serve.add_argument("--token", default=None, help="bearer token (default: env or built-in)")
    p_serve.add_argument(
        "--scenario", default=None, help="seed the authorization table from this scenario"
    )

    p_export = sub.add_parser("export", help="convert a sink snapshot to CSV")
    p_export.add_argument("sink_state", help="sink.json written by `run`")
    p_export.add_argument("--csv", action="store_true", help="CSV output (the only format)")
    p_export.add_argument("--out", default=None, help="write here instead of stdout")

    return parser


def _load(path: str) -> Scenario | None:
    """The scenario at ``path``, or None after saying why it is unusable."""
    try:
        return load_scenario(path)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
    return None


def _write_out(out: str | None, payload: bytes) -> int:
    """Write ``payload`` to the file ``out``, or to stdout when there is none."""
    try:
        if out:
            Path(out).write_bytes(payload)
        else:
            sys.stdout.write(payload.decode("utf-8"))
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    if scenario is None:
        return 1
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    scenario = dataclasses.replace(
        scenario,
        sink=dataclasses.replace(scenario.sink, token=effective_token(scenario.sink.token)),
    )
    out_dir = Path(args.out)
    # The trace and the sink snapshot stream into side files that take their
    # names only once the run has finished, so a failed run leaves no
    # partial file.
    partial = out_dir / "trace.jsonl.part"
    sink_partial = out_dir / "sink.json.part"
    failure = "cannot write output"  # what an exception means at this step
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(partial, "w", encoding="utf-8", newline="") as fh:
            failure = "run failed"
            simulation = sim.Simulation(scenario)
            _, report = simulation.run(writer=fh.write)
            report_json = report.to_json()
        failure = "cannot write output"
        with open(sink_partial, "wb") as fh:
            simulation.sink.write_state(fh.write)
        os.replace(partial, out_dir / "trace.jsonl")
        (out_dir / "report.json").write_bytes(report_json)
        os.replace(sink_partial, out_dir / "sink.json")
    except Exception as exc:  # noqa: BLE001 - surface any failure as exit 2
        if out_dir.is_dir():  # else mkdir failed, and there is no partial file
            partial.unlink(missing_ok=True)
            sink_partial.unlink(missing_ok=True)
        print(f"{failure}: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(metrics_mod.render_report(report).decode("utf-8"))
    print(f"wrote {out_dir / 'trace.jsonl'}, {out_dir / 'report.json'}, {out_dir / 'sink.json'}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        with open(args.trace, "rb") as fh:
            report = metrics_mod.replay(fh)
    except (TraceError, OSError) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001
        print(f"replay failed: {exc}", file=sys.stderr)
        return 2
    return _write_out(args.out, report.to_json())


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    if scenario is None:
        return 1
    print(
        f"ok: {len(scenario.devices)} device(s), {len(scenario.authz)} polic(ies), "
        f"duration {scenario.duration_s}s, seed {scenario.seed}"
    )
    return 0


def _cmd_serve_sink(args: argparse.Namespace) -> int:
    token = args.token or os.environ.get(TOKEN_ENV) or DEFAULT_TOKEN
    sink = CloudSink(token)
    if args.scenario:
        scenario = _load(args.scenario)
        if scenario is None:
            return 1
        sink.seed_policies(scenario.authz)
    try:
        server = SinkServer(sink, host=args.host, port=args.port)
    except OSError as exc:
        print(f"cannot listen on {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    print(f"sink listening on {server.address[0]}:{server.port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    try:
        state = parse_json(Path(args.sink_state).read_text(encoding="utf-8"))
        payload = state_to_csv(state)
    except (OSError, ValueError, RecursionError) as exc:  # an unreadable file or row
        print(f"cannot read sink state: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001
        print(f"export failed: {exc}", file=sys.stderr)
        return 2
    return _write_out(args.out, payload)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "replay": _cmd_replay,
        "validate": _cmd_validate,
        "serve-sink": _cmd_serve_sink,
        "export": _cmd_export,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
