from __future__ import annotations

import io
import json

import pytest

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
