from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import edgegate
from edgegate import codec, sim
from edgegate.cli import TOKEN_ENV, effective_token, main
from edgegate.core import DeviceId, Timestamp, Uid
from edgegate.sink import DEFAULT_TOKEN
from edgegate.wire import RemoteSink

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOOD = SCENARIOS / "access_basic.yaml"


@pytest.fixture
def bad_scenario(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(
        "seed: nope\nduration_s: -5\ndevices:\n  - {device_id: AC_001, role: pilot}\n",
        encoding="utf-8",
    )
    return path


class TestValidate:
    def test_good_scenario_exits_zero(self, capsys):
        assert main(["validate", str(GOOD)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_bad_scenario_exits_one_with_diagnostics(self, bad_scenario, capsys):
        assert main(["validate", str(bad_scenario)]) == 1
        err = capsys.readouterr().err
        assert "seed" in err and "duration_s" in err and "role" in err

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.yaml")]) == 1


class TestRun:
    def test_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(GOOD), "--out", str(out)]) == 0
        assert (out / "trace.jsonl").exists()
        assert (out / "report.json").exists()
        assert (out / "sink.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(GOOD), "--seed", "7", "--out", str(out1)]) == 0
        assert main(["run", str(GOOD), "--seed", "7", "--out", str(out2)]) == 0
        for name in ("trace.jsonl", "report.json", "sink.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_run(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", str(GOOD), "--seed", "1", "--out", str(out1)])
        main(["run", str(GOOD), "--seed", "2", "--out", str(out2)])
        assert (out1 / "trace.jsonl").read_bytes() != (out2 / "trace.jsonl").read_bytes()

    def test_config_error_exits_one(self, bad_scenario, tmp_path):
        assert main(["run", str(bad_scenario), "--out", str(tmp_path / "o")]) == 1

    def test_run_failing_midway_leaves_no_partial_trace(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        assert main(["run", str(GOOD), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        run_until = sim.SimClock.run_until

        def fail_midway(clock, t_end):
            run_until(clock, t_end / 2)  # events have streamed out by now
            raise RuntimeError("injected failure")

        monkeypatch.setattr(sim.SimClock, "run_until", fail_midway)
        capsys.readouterr()
        assert main(["run", str(GOOD), "--seed", "3", "--out", str(out)]) == 2
        assert "run failed: injected failure" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        fresh = tmp_path / "fresh"
        assert main(["run", str(GOOD), "--out", str(fresh)]) == 2
        assert list(fresh.iterdir()) == []


class TestReplay:
    def test_replay_matches_run_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", str(GOOD), "--out", str(out)])
        capsys.readouterr()
        replay_out = tmp_path / "replayed.json"
        assert main(["replay", str(out / "trace.jsonl"), "--out", str(replay_out)]) == 0
        assert replay_out.read_bytes() == (out / "report.json").read_bytes()

    def test_replay_to_stdout(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", str(GOOD), "--out", str(out)])
        capsys.readouterr()
        assert main(["replay", str(out / "trace.jsonl")]) == 0
        assert json.loads(capsys.readouterr().out)["schema_version"] == 1

    def test_garbage_trace_exits_one(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        assert main(["replay", str(path)]) == 1

    def test_non_utf8_trace_exits_one_naming_the_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", str(GOOD), "--out", str(out)])
        capsys.readouterr()
        lines = (out / "trace.jsonl").read_bytes().split(b"\n")
        lines[4] = lines[4][:10] + b"\xff" + lines[4][10:]
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\n".join(lines))
        assert main(["replay", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            "cannot read trace: line 5: 'utf-8' codec can't decode byte 0xff in position 10"
        )

    def test_scoring_failure_exits_two(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_bytes(
            b'{"kind":"meta","truth":{}}\n'
            b'{"t":0.0,"seq":0,"kind":"auth_decision","data":{"request_id":"r0"}}\n'
        )
        assert main(["replay", str(path)]) == 2
        assert "replay failed: decision for unknown request 'r0'" in capsys.readouterr().err

    def test_meta_line_nested_too_deep_exits_one(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"kind":"meta","truth":' + b"[" * 100_000 + b"]" * 100_000 + b"}\n")
        assert main(["replay", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            "cannot read trace: bad meta line: maximum recursion depth exceeded"
        )

    def test_bad_line_after_scoring_failure_exits_one(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_bytes(
            b'{"kind":"meta","truth":{}}\n'
            b'{"t":0.0,"seq":0,"kind":"delivered","data":{}}\n'
            b'{"t":1.0,\n'
        )
        assert main(["replay", str(path)]) == 1
        assert capsys.readouterr().err.startswith("cannot read trace: line 3: ")


def without_record(state: dict) -> dict:
    del state["rows"][2]["record"]
    return state


def with_bad_event_type(state: dict) -> dict:
    state["rows"][2]["record"]["event_type"] = "bogus"
    return state


def with_bad_received_at(state: dict) -> dict:
    state["rows"][2]["received_at"] = "yesterday"
    return state


def with_numeric_received_at(state: dict) -> dict:
    state["rows"][2]["received_at"] = 5
    return state


def with_lone_surrogate(state: dict) -> dict:
    state["rows"][2]["record"]["data"]["note"] = "\udc00"  # saved as the escape
    return state


class TestExport:
    def test_csv_from_sink_state(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", str(GOOD), "--out", str(out)])
        capsys.readouterr()
        assert main(["export", str(out / "sink.json"), "--csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("row_index,device_id,timestamp,event_type,seq,data")
        state = json.loads((out / "sink.json").read_text())
        assert len(lines) == 1 + len(state["rows"])

    def test_unreadable_state_exits_one(self, tmp_path):
        assert main(["export", str(tmp_path / "missing.json"), "--csv"]) == 1

    @pytest.mark.parametrize(
        "payload, err",
        [
            (b'{"rows":' + b"[" * 100_000 + b"]" * 100_000 + b"}",
             "cannot read sink state: maximum recursion depth exceeded"),
            (b'{"rows": []}\xff', "cannot read sink state: 'utf-8' codec can't decode"),
        ],
        ids=["nested_too_deep", "not_utf8"],
    )
    def test_undecodable_state_exits_one(self, tmp_path, capsys, payload, err):
        path = tmp_path / "sink.json"
        path.write_bytes(payload)
        assert main(["export", str(path), "--csv"]) == 1
        assert capsys.readouterr().err.startswith(err)

    def test_key_on_two_rows_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", str(GOOD), "--out", str(out)])
        capsys.readouterr()
        state = json.loads((out / "sink.json").read_text())
        state["rows"][3]["record"] = state["rows"][1]["record"]
        key = "{device_id}:{seq}".format(**state["rows"][1]["record"])
        path = tmp_path / "sink.json"
        path.write_text(json.dumps(state))
        assert main(["export", str(path), "--csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"export failed: key {key} is on two rows: row_index 1 and 3\n"
        )

    @pytest.mark.parametrize(
        "reshape, err",
        [
            (lambda state: state["rows"], "expected an object with a list of rows"),
            (lambda state: {}, "expected an object with a list of rows"),
            (lambda state: {"row": state["rows"]}, "expected an object with a list of rows"),
            (lambda state: {"rows": {"0": state["rows"][0]}},
             "expected an object with a list of rows"),
            (lambda state: {"rows": state["rows"][:2] + [[]]}, "row 2: missing 'row_index'"),
            (without_record, "row 2: missing 'record'"),
            (with_bad_event_type, "row 2: unknown event_type: 'bogus'"),
            (with_bad_received_at, "row 2: bad ISO-8601 timestamp: 'yesterday'"),
            (with_numeric_received_at, "row 2: bad ISO-8601 timestamp: 5"),
            (with_lone_surrogate, "row 2: data value for 'note' holds a lone surrogate"),
        ],
        ids=["list_top_level", "no_rows", "misspelt_rows", "rows_not_a_list", "row_not_an_object", "row_without_record",
             "bad_event_type", "bad_received_at", "numeric_received_at", "lone_surrogate"],
    )
    def test_malformed_snapshot_exits_one(self, tmp_path, capsys, reshape, err):
        out = tmp_path / "out"
        main(["run", str(GOOD), "--out", str(out)])
        state = json.loads((out / "sink.json").read_text())
        path = tmp_path / "sink.json"
        path.write_text(json.dumps(reshape(state)))
        capsys.readouterr()
        assert main(["export", str(path), "--csv"]) == 1
        assert capsys.readouterr() == ("", f"cannot read sink state: {err}\n")

    @pytest.mark.parametrize(
        "row_index", [True, None, 1.5, -1, [1], "0"],
        ids=["bool", "null", "float", "negative", "list", "string"],
    )
    def test_bad_row_index_exits_one(self, tmp_path, capsys, row_index):
        record = {"device_id": "AC_001", "timestamp": "2024-01-15T14:30:45Z",
                  "event_type": "status", "seq": 0, "data": {}}
        rows = [{"row_index": 0, "received_at": "2024-01-15T14:30:45Z", "record": record},
                {"row_index": row_index, "received_at": "2024-01-15T14:30:45Z",
                 "record": {**record, "seq": 1}}]
        path = tmp_path / "sink.json"
        path.write_text(json.dumps({"rows": rows}))
        assert main(["export", str(path), "--csv"]) == 1
        assert capsys.readouterr() == (
            "",
            "cannot read sink state: row 1: row_index must be a non-negative integer, "
            f"got {row_index!r}\n",
        )


class TestUnwritableOut:
    """An --out that cannot be written exits 2 with one line, not a traceback."""

    @pytest.mark.parametrize("command", ["run", "replay", "export"])
    def test_out_under_a_file_exits_two(self, tmp_path, capsys, command):
        made = tmp_path / "made"
        assert main(["run", str(GOOD), "--out", str(made)]) == 0
        blocker = tmp_path / "notadir"
        blocker.write_text("a file\n")
        args = {
            "run": ["run", str(GOOD), "--out", str(blocker)],
            "replay": ["replay", str(made / "trace.jsonl"), "--out", str(blocker / "x.json")],
            "export": ["export", str(made / "sink.json"), "--out", str(blocker / "x.csv")],
        }[command]
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ") and err.count("\n") == 1
        assert blocker.read_text() == "a file\n"
        assert list(tmp_path.rglob("*.part")) == []

    def test_unwritable_output_file_leaves_no_partial_trace(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "sink.json").mkdir(parents=True)
        assert main(["run", str(GOOD), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("cannot write output: ")
        assert not (out / "trace.jsonl.part").exists()

    def test_sink_json_streams_through_a_part_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        seen = []
        replace = os.replace

        def spy(src, dst):
            seen.append((Path(src).name, Path(dst).name, sorted(p.name for p in out.iterdir())))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        assert main(["run", str(GOOD), "--out", str(out)]) == 0
        assert seen[-1] == ("sink.json.part", "sink.json",
                            ["report.json", "sink.json.part", "trace.jsonl"])
        (out / "sink.json").unlink()
        (out / "sink.json").mkdir()
        assert main(["run", str(GOOD), "--out", str(out)]) == 2
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "sink.json", "trace.jsonl"]


class TestTokenOverride:
    def test_env_overrides_default_only(self, monkeypatch):
        monkeypatch.setenv("EDGEGATE_SINK_TOKEN", "secret-override")
        assert effective_token(DEFAULT_TOKEN) == "secret-override"
        assert effective_token("explicit") == "explicit"
        monkeypatch.delenv("EDGEGATE_SINK_TOKEN")
        assert effective_token(DEFAULT_TOKEN) == DEFAULT_TOKEN


class TestServeSink:
    def test_listening_line_reaches_a_pipe_before_the_server_blocks(self):
        # Without a TTY, stdout is block-buffered unless PYTHONUNBUFFERED is
        # set, so the child runs without it: a parent reading the pipe must
        # get the line, and with it the port that --port 0 chose.
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", TOKEN_ENV)}
        src = str(Path(edgegate.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        command = [sys.executable, "-m", "edgegate.cli", "serve-sink", "--port", "0",
                   "--scenario", str(GOOD)]
        with subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        ) as proc:
            try:
                ready, _, _ = select.select([proc.stdout], [], [], 10.0)
                assert ready, "no listening line within 10 s"
                line = proc.stdout.readline()
                assert line.startswith("sink listening on ")
                host, port = line.split()[-1].rsplit(":", 1)
                record = codec.CloudRecord(DeviceId("AC_001"), Timestamp(0), "status", {}, 0)
                remote = RemoteSink(host, int(port))
                try:
                    policy = remote.query_policy(DEFAULT_TOKEN, Uid("A1B2C3D4"))
                    assert remote.append(DEFAULT_TOKEN, codec.encode(record)) == 0
                    with pytest.raises(codec.ParseError, match="not UTF-8"):
                        remote.append(DEFAULT_TOKEN, b"\xff\xfe")
                finally:
                    remote.close()
                assert policy is not None and policy.uid == Uid("A1B2C3D4")
                proc.send_signal(signal.SIGINT)
                assert proc.wait(timeout=10) == 0
            finally:
                if proc.poll() is None:
                    proc.kill()


class TestScenarioErrors:
    """Scenario problems exit 1 with their field path from every command that
    reads a scenario, before anything runs."""

    def write(self, tmp_path, text: str) -> str:
        path = tmp_path / "scenario.yaml"
        path.write_text(text, encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_nested_unknown_key_exits_one_with_its_path(self, tmp_path, capsys, command):
        path = self.write(tmp_path, "workload:\n  access:\n    rate_per_sec: 1.0\n")
        args = [command, path] + (["--out", str(tmp_path / "o")] if command == "run" else [])
        assert main(args) == 1
        assert "workload.access: unknown key 'rate_per_sec'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_zero_measurement_noise_exits_one(self, tmp_path, capsys, command):
        path = self.write(
            tmp_path,
            "devices:\n  - {device_id: SM_001, role: safety, kalman: {r: 0}}\n"
            "workload:\n  flow: {sample_period_s: 1.0}\n",
        )
        args = [command, path] + (["--out", str(tmp_path / "o")] if command == "run" else [])
        assert main(args) == 1
        assert "devices[0].kalman.r: 0.0 must be above 0.0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, issue",
        [
            ("duration_s: .nan\n", "duration_s: expected a finite number, got nan"),
            ("network: {drop_prob: .nan}\n",
             "network.drop_prob: expected a finite number, got nan"),
            ("devices:\n  - {device_id: SM_001, role: safety, kalman: {r: .inf}}\n",
             "devices[0].kalman.r: expected a finite number, got inf"),
            # An integer past the float range cannot be converted at all.
            ("duration_s: 1" + "0" * 400 + "\n",
             "duration_s: expected a finite number, got 1" + "0" * 400),
        ],
        ids=["duration_nan", "drop_prob_nan", "kalman_r_inf", "int_past_float_range"],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_finite_number_exits_one_with_its_path(
        self, tmp_path, capsys, command, text, issue
    ):
        path = self.write(tmp_path, text)
        args = [command, path] + (["--out", str(tmp_path / "o")] if command == "run" else [])
        assert main(args) == 1
        assert issue in capsys.readouterr().err

    @pytest.mark.parametrize("period, code", [(0.0004, 1), (0.0015, 1), (0.002, 0)])
    def test_flame_period_floor(self, tmp_path, capsys, period, code):
        # Periods under 2 ms can give two samples one millisecond stamp.
        text = (SCENARIOS / "safety_basic.yaml").read_text(encoding="utf-8")
        text = text.replace("sample_period_s: 1.0", f"sample_period_s: {period}")
        path = self.write(tmp_path, text.replace("duration_s: 1800", "duration_s: 1"))
        assert main(["validate", path]) == code
        err = capsys.readouterr().err
        assert ("workload.flame.sample_period_s: " in err) == (code == 1)

    def test_serve_sink_with_missing_scenario_exits_one(self, tmp_path, capsys):
        missing = tmp_path / "missing.yaml"
        assert main(["serve-sink", "--port", "0", "--scenario", str(missing)]) == 1
        assert "cannot read scenario" in capsys.readouterr().err

    def test_serve_sink_on_a_busy_port_exits_two(self, capsys):
        with socket.create_server(("127.0.0.1", 0)) as holder:
            port = holder.getsockname()[1]
            assert main(["serve-sink", "--port", str(port)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"cannot listen on 127.0.0.1:{port}: ")
        assert err.count("\n") == 1
