"""Byte-for-byte pins on what `edgegate run` writes for the bundled scenarios.

A refactor must leave these digests unchanged. A change that alters run
behaviour on purpose updates them and says why.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from edgegate import cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "access_basic": {
        "trace.jsonl": "b3c08fddc6e28bd108698b7568fcc805ad1d15e0dedec2c95a60e806b9883278",
        "report.json": "6ab38c578487606f846bc2650c1edeeb770bb0de05f35a3a84923f444fedcea4",
        "sink.json": "e9b77fa1badaed8c23f1683f67779b83d8d043033d8321e16fd97c7bcf855ddf",
    },
    "safety_basic": {
        "trace.jsonl": "f3c2c8f6c04d5abefc4ff35bfa06142fc23dcc9e74694498b047384ac65c6ead",
        "report.json": "5b67422af23d921c7690d8a48968b47a483999cc485dd539a803a483b39c1899",
        "sink.json": "195876b6addb52a81d47bedeb4e5d828feb001ad326a1d6c74e9eb2dc09542f5",
    },
    "outage_recovery": {
        "trace.jsonl": "8dc748cebfc847bb1defa999465690115918b270c8b677d4929d32160c722faf",
        "report.json": "04b492f3ee382aa60dc71248eeb11649d53c88c96a2aee3facff109a70a2d6d4",
        "sink.json": "b4c44c53c73f9a22c40dc01b1a613c2b626edfaf659c5c33f29e60a081a6f7ba",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_scenario_outputs_unchanged(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.TOKEN_ENV, raising=False)
    assert cli.main(["run", str(SCENARIOS / f"{name}.yaml"), "--out", str(tmp_path)]) == 0
    digests = {
        f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in GOLDEN[name]
    }
    assert digests == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_scenario_replays_to_its_report(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.TOKEN_ENV, raising=False)
    assert cli.main(["run", str(SCENARIOS / f"{name}.yaml"), "--out", str(tmp_path)]) == 0
    replayed = tmp_path / "replay.json"
    assert cli.main(["replay", str(tmp_path / "trace.jsonl"), "--out", str(replayed)]) == 0
    assert replayed.read_bytes() == (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(replayed.read_bytes()).hexdigest() == GOLDEN[name]["report.json"]
