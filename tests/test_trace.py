from __future__ import annotations

import io
import itertools
import json
from typing import Iterable, Iterator
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgegate import cli, metrics
from edgegate.codec import compact_json
from edgegate.trace import EventTrace, TraceError, read_jsonl

META = b'{"kind":"meta","truth":{}}'


def event_line(**fields) -> bytes:
    return json.dumps(fields).encode()


def sample_trace() -> EventTrace:
    trace = EventTrace(meta={"scenario": "café", "truth": {"request_labels": {}}})
    trace.append("card_read", 0.25, {"device": "AC_001", "raw_uid": "Å\n\x01"})
    trace.append("delivered", 1.0, {"key": "AC_001:0", "depth": 0, "ok": True})
    trace.append("sim_end", 2e-7, {})
    return trace


class TestToJsonl:
    def test_matches_json_dumps_per_line(self):
        trace = sample_trace()
        compact = {"separators": (",", ":"), "ensure_ascii": False}
        lines = [json.dumps({"kind": "meta", **trace.meta}, **compact)]
        lines += [
            json.dumps({"t": e.t, "seq": e.seq, "kind": e.kind, "data": e.data}, **compact)
            for e in trace.events
        ]
        assert trace.to_jsonl() == ("\n".join(lines) + "\n").encode("utf-8")

    def test_round_trip(self):
        trace = sample_trace()
        parsed = EventTrace.from_jsonl(trace.to_jsonl())
        assert parsed.meta == trace.meta
        assert parsed.events == trace.events
        assert parsed.to_jsonl() == trace.to_jsonl()


    def test_round_trip_keeps_unicode_line_separators(self):
        # compact_json writes these raw inside strings; only "\n" ends a line.
        trace = EventTrace(meta={"note": "meta\u2028line", "truth": {}})
        trace.append("note", 0.5, {"text": "a\u2028b\u2029c\u0085d\re"})
        payload = trace.to_jsonl()
        assert "\u2028".encode() in payload
        parsed = EventTrace.from_jsonl(payload)
        assert parsed.meta == trace.meta
        assert parsed.events == trace.events
        assert parsed.to_jsonl() == payload


class TestWriter:
    def test_writer_gets_the_meta_line_then_each_event_line(self):
        lines: list[str] = []
        streamed = EventTrace(meta=sample_trace().meta, writer=lines.append)
        assert len(lines) == 1
        streamed.append("card_read", 0.25, {"device": "AC_001", "raw_uid": "Å\n\x01"})
        assert len(lines) == 2
        streamed.append("delivered", 1.0, {"key": "AC_001:0", "depth": 0, "ok": True})
        streamed.append("sim_end", 2e-7, {})
        assert all(line.endswith("\n") for line in lines)
        assert "".join(lines).encode("utf-8") == sample_trace().to_jsonl()

    def test_streamed_trace_keeps_nothing_to_read_back(self):
        streamed = EventTrace(writer=lambda line: None)
        assert streamed.append("sim_start", 0.0, {}) == 0
        for read_back in (lambda: streamed.events, streamed.to_jsonl):
            with pytest.raises(TraceError, match="kept no lines"):
                read_back()


class TestReadJsonl:
    def test_meta_at_once_then_events_lazily(self):
        payload = META + b"\n" + event_line(t=0.0, seq=0, kind="sim_start", data={}) + b"\n{"
        meta, events = read_jsonl(io.BytesIO(payload))
        assert meta == {"truth": {}}
        assert next(events) == (0.0, 0, "sim_start", {})
        with pytest.raises(TraceError, match=r"^line 3: "):
            next(events)


class TestFromJsonlErrors:
    def test_empty_payload(self):
        with pytest.raises(TraceError, match="empty trace"):
            EventTrace.from_jsonl(b"")

    def test_bad_meta_json(self):
        with pytest.raises(TraceError, match="bad meta line"):
            EventTrace.from_jsonl(b'{"kind": "meta"\n')

    @pytest.mark.parametrize(
        "first", [event_line(t=0.0, seq=0, kind="sim_start", data={}), b"[1, 2]"]
    )
    def test_first_line_must_be_meta(self, first):
        with pytest.raises(TraceError, match="first trace line must be the meta record"):
            EventTrace.from_jsonl(first + b"\n")

    def test_malformed_event_names_its_line(self):
        payload = b"\n".join(
            [META, event_line(t=0.0, seq=0, kind="sim_start", data={}), b'{"t": 1.0,']
        )
        with pytest.raises(TraceError, match=r"^line 3: "):
            EventTrace.from_jsonl(payload)

    @pytest.mark.parametrize(
        "payload, message",
        [
            (b'{"kind": "meta"\n', "bad meta line: Expecting ',' delimiter: line 1 column 16 (char 15)"),
            (META + b'\n{"t": 1.0,\n',
             "line 2: Expecting property name enclosed in double quotes: line 1 column 11 (char 10)"),
        ],
    )
    def test_json_error_positions_exclude_the_line_break(self, payload, message):
        with pytest.raises(TraceError) as info:
            EventTrace.from_jsonl(payload)
        assert str(info.value) == message

    def test_non_utf8_names_its_line(self):
        payload = META + b"\n" + event_line(t=0.0, seq=0, kind="x", data={}) + b"\xff\n"
        with pytest.raises(TraceError, match=r"^line 2: 'utf-8' codec can't decode byte 0xff"):
            EventTrace.from_jsonl(payload)

    @pytest.mark.parametrize("missing", ["t", "seq", "kind"])
    def test_event_missing_a_field(self, missing):
        fields = {"t": 0.5, "seq": 0, "kind": "sim_start", "data": {}}
        del fields[missing]
        with pytest.raises(TraceError, match=r"^line 2: bad event"):
            EventTrace.from_jsonl(META + b"\n" + event_line(**fields))

    def test_blank_lines_are_skipped(self):
        payload = b"\n".join(
            [
                META,
                b"",
                event_line(t=0.0, seq=0, kind="sim_start", data={}),
                b"   ",
                event_line(t=1.0, seq=1, kind="sim_end"),
                b"",
            ]
        )
        trace = EventTrace.from_jsonl(payload)
        assert [(e.seq, e.kind, e.data) for e in trace.events] == [
            (0, "sim_start", {}),
            (1, "sim_end", {}),
        ]
        assert trace.append("late", 2.0, {}) == 2


# ---------------------------------------------------------------------------
# The reader as it was while every line went through json.loads, kept as the
# reference for the one in use: same events, same exception and message.


def reference_read_jsonl(lines: Iterable[bytes]) -> tuple[dict, Iterator[tuple[float, int, str, dict]]]:
    numbered = enumerate(lines, start=1)
    first = next(numbered, None)
    if first is None:
        raise TraceError("empty trace")
    try:
        head = json.loads(reference_decode(*first))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise TraceError(f"bad meta line: {exc}") from None
    if not isinstance(head, dict) or head.get("kind") != "meta":
        raise TraceError("first trace line must be the meta record")
    return {k: v for k, v in head.items() if k != "kind"}, reference_read_events(numbered)


def reference_decode(i: int, raw: bytes) -> str:
    try:
        return raw.decode("utf-8").removesuffix("\n")
    except UnicodeDecodeError as exc:
        raise TraceError(f"line {i}: {exc}") from None


def reference_read_events(numbered: Iterator[tuple[int, bytes]]) -> Iterator[tuple[float, int, str, dict]]:
    for i, raw in numbered:
        line = reference_decode(i, raw)
        if not line or line.isspace():
            continue
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise TraceError(f"line {i}: {exc}") from None
        try:
            event = float(obj["t"]), int(obj["seq"]), str(obj["kind"]), dict(obj.get("data", {}))
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"line {i}: bad event: {exc}") from None
        yield event


def read_outcome(read, payload: bytes) -> tuple:
    """What ``read`` makes of ``payload``: the meta record and the events it
    yielded, then the exception that stopped it, by type and message."""
    got: list = []
    try:
        meta, events = read(io.BytesIO(payload))
        got.append(meta)
        got.extend(events)
    except TraceError as exc:
        return repr(got), type(exc), str(exc)
    return repr(got), None, None


def replay_outcome(payload: bytes) -> tuple:
    try:
        return (metrics.replay(io.BytesIO(payload)).to_json(),)
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return type(exc), str(exc)


# Event kinds the scorer reads, with the data keys it reads from them.
_KINDS = (
    "outbox_enqueued", "delivered", "dead_letter", "auth_decision", "card_read",
    "outbox_dropped", "queue_final", "flame_detected", "flow_anomaly", "sim_end",
)
_LABELS = {"r1": "authorized", "r2": "unauthorized"}
# String contents: characters JSON escapes, and line breaks to str.splitlines
# that compact_json writes raw and the reader must not split at.
_in_strings = st.text(st.sampled_from("ab\u2028\u2029\x85\r\t\"\\\x00é"), max_size=4)
_events = st.fixed_dictionaries(
    {
        "t": st.floats(0, 100) | st.integers(0, 100),
        "seq": st.integers(0, 99),
        "kind": st.sampled_from(_KINDS),
        "data": st.fixed_dictionaries(
            {},
            optional={
                "device": st.sampled_from(["AC_001", "AC_002"]),
                "depth": st.integers(0, 5),
                "key": st.sampled_from(["AC_001:0", "AC_001:1", "AC_002:0"]),
                "request_id": st.sampled_from(["r1", "r2", "r3"]),
                "outcome": st.sampled_from(["granted", "denied"]),
                "latency_ms": st.floats(0, 50) | st.integers(0, 50),
                "mode": st.sampled_from(["rejected", "drop_oldest"]),
                "note": _in_strings,
            },
        ),
    }
)
# JSON whitespace, then Unicode whitespace that JSON does not allow.
_PADDING = [" ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
_BAD_UTF8 = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]
_DEEP = "[" * 100_000 + "]" * 100_000  # past any recursion limit


@st.composite
def damaged_lines(draw, obj, whole_odds: int) -> bytes:
    """``obj`` as one trace line: whole ``whole_odds`` times in
    ``whole_odds + 1``, else damaged in one of many ways."""
    how = "whole" if draw(st.integers(0, whole_odds)) else draw(
        st.sampled_from(
            [
                "spaced", "reordered", "list", "string", "number", "missing",
                "bad_field", "data", "blank", "padded", "bom", "garbage", "not_utf8",
                "deep", "truncated",
            ]
        )
    )
    line = compact_json(obj)
    if how == "spaced":
        line = json.dumps(obj, ensure_ascii=draw(st.booleans()))
    elif how == "reordered":
        line = compact_json(dict(draw(st.permutations(list(obj.items())))))
    elif how == "list":
        line = draw(st.sampled_from(["[1,2]", "[]", compact_json(list(obj.values()))]))
    elif how == "string":
        line = draw(st.sampled_from(['"t"', '""', '"\u2028"']))
    elif how == "number":
        line = draw(st.sampled_from(["3", "-0.0", "1e400", "NaN", "-Infinity", "null", "true"]))
    elif how == "missing":
        gone = draw(st.sets(st.sampled_from(["t", "seq", "kind", "data"]), min_size=1))
        line = compact_json({k: v for k, v in obj.items() if k not in gone})
    elif how == "bad_field":
        key = draw(st.sampled_from(["t", "seq", "kind"]))
        bad = draw(st.sampled_from(["x", "1.5", [1], {}, None, True, 1.5, 2**70]))
        line = compact_json({**obj, key: bad})
    elif how == "data":
        bad = draw(st.sampled_from([[["a", 1]], [["a"]], [1], 5, "ab", "", None, True, []]))
        line = compact_json({**obj, "data": bad})
    elif how == "blank":
        return draw(st.sampled_from([b"", b" ", b"\t", b"\r", b" \r"]))
    elif how == "padded":
        pad = st.text(st.sampled_from(_PADDING), max_size=2)
        line = draw(pad) + line + draw(pad)
    elif how == "bom":
        line = "\ufeff" + line
    elif how == "garbage":
        line += draw(st.sampled_from(["x", "}", "{}", " 1", ",", "\x00", " \u2028"]))
    elif how == "not_utf8":
        raw = line.encode("utf-8")
        at = draw(st.integers(0, len(raw)))
        return raw[:at] + draw(st.sampled_from(_BAD_UTF8)) + raw[at:]
    elif how == "deep":
        line = line[:-1] + ',"deep":' + _DEEP + "}"
    elif how == "truncated":
        line = line[: draw(st.integers(0, len(line) - 1))]
    return line.encode("utf-8")


@st.composite
def damaged_traces(draw) -> bytes:
    meta = {"kind": "meta", "truth": {"request_labels": _LABELS}}
    lines = [draw(damaged_lines(meta, 2))] if draw(st.integers(0, 19)) else []
    lines += draw(st.lists(_events.flatmap(lambda e: damaged_lines(e, 3)), max_size=8))
    return b"\n".join(lines) + draw(st.sampled_from([b"", b"\n"]))


class TestAgainstTheReferenceReader:
    @given(damaged_traces())
    def test_same_events_and_same_errors(self, payload):
        assert read_outcome(read_jsonl, payload) == read_outcome(reference_read_jsonl, payload)

    @given(damaged_traces())
    def test_replay_scores_and_fails_alike(self, payload):
        with mock.patch.object(metrics, "read_jsonl", reference_read_jsonl):
            expected = replay_outcome(payload)
        assert replay_outcome(payload) == expected

    @pytest.mark.parametrize(
        "line, message",
        [
            (b"[1,2]", "line 2: bad event: list indices must be integers or slices, not str"),
            (b'"t"', "line 2: bad event: string indices must be integers, not 'str'"),
            (b"3", "line 2: bad event: 'int' object is not subscriptable"),
            (b'{"t":1,"seq":0,"kind":"x","data":5}',
             "line 2: bad event: 'int' object is not iterable"),
            (b'{"seq":"x"}', "line 2: bad event: 't'"),
            (b'{"t":1}x', "line 2: Extra data: line 1 column 8 (char 7)"),
            (b'\xef\xbb\xbf{"t":1}',
             "line 2: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        ],
    )
    def test_pinned_messages(self, line, message):
        with pytest.raises(TraceError) as info:
            EventTrace.from_jsonl(META + b"\n" + line)
        assert str(info.value) == message

    def test_every_mix_of_missing_and_bad_fields_fails_as_in_the_reference(self):
        states = {"ok": 1, "list": [1], "text": "x", "null": None}
        for t, seq, kind in itertools.product([*states, "missing"], repeat=3):
            for data in ({"a": 1}, [["a", 1]], 5, "ab", None, "missing"):
                fields = {"t": t, "seq": seq, "kind": kind}
                obj = {k: states[v] for k, v in fields.items() if v != "missing"}
                if data != "missing":
                    obj["data"] = data
                payload = META + b"\n" + compact_json(obj).encode()
                expected = read_outcome(reference_read_jsonl, payload)
                assert read_outcome(read_jsonl, payload) == expected

    def test_padded_and_crlf_lines_read_like_bare_ones(self):
        bare = event_line(t=0.5, seq=3, kind="sim_end", data={"a": 1})
        for line in (b"  " + bare, bare + b" \t", bare + b"\r", b"\t" + bare + b"\r"):
            _, events = read_jsonl(io.BytesIO(META + b"\n" + line))
            assert list(events) == [(0.5, 3, "sim_end", {"a": 1})]

    def test_data_pairs_become_a_dict(self):
        _, events = read_jsonl(io.BytesIO(META + b'\n{"t":0,"seq":0,"kind":"k","data":[["a",1]]}'))
        assert list(events) == [(0.0, 0, "k", {"a": 1})]

    @pytest.mark.parametrize(
        "line, code, err",
        [
            (b"[1,2]", 1, "cannot read trace: line 2: bad event: list indices"),
            (b"\xff", 1, "cannot read trace: line 2: 'utf-8' codec can't decode byte 0xff"),
            (b'{"t":1,"seq":0,"kind":"x","data":' + _DEEP.encode() + b"}", 1,
             "cannot read trace: line 2: maximum recursion depth exceeded"),
            (b'{"t":1,"seq":0,"kind":"auth_decision","data":{"request_id":"r9"}}', 2,
             "replay failed: decision for unknown request 'r9'"),
        ],
        # None keeps the generated id; the nested row's would be 200 KB long.
        ids=[None, None, "nested_too_deep", None],
    )
    def test_cli_replay_exit_codes(self, tmp_path, capsys, line, code, err):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(META + b"\n" + line + b"\n")
        assert cli.main(["replay", str(path)]) == code
        assert capsys.readouterr().err.startswith(err)
        with mock.patch.object(metrics, "read_jsonl", reference_read_jsonl):
            assert cli.main(["replay", str(path)]) == code
        assert capsys.readouterr().err.startswith(err)
