from __future__ import annotations

import json
import random
import traceback
from json.decoder import JSONDecoder
from json.scanner import py_make_scanner
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from edgegate import codec, wire
from edgegate.codec import (
    EVENT_TYPES,
    CloudRecord,
    InvalidRecordError,
    ParseError,
    SchemaError,
    UnknownEventTypeError,
    decode,
    encode,
    idempotency_key,
    parse_record,
)
from edgegate.core import DeviceId, Timestamp

# Pretty-printed form as a sender without a seq counter would post it.
PRETTY = b"""{
  "device_id": "AC_001",
  "timestamp": "2024-01-15T14:30:45Z",
  "event_type": "access_granted",
  "data": {
    "uid": "A1B2C3D4",
    "gate_status": "open",
    "duration_ms": 4800,
    "location": "Main_Entrance"
  }
}"""


def test_encode_is_compact_and_ordered(listing_record):
    payload = encode(listing_record)
    assert b" " not in payload and b"\n" not in payload
    keys = list(json.loads(payload))
    assert keys == ["device_id", "timestamp", "event_type", "seq", "data"]


def test_canonical_example_fields(listing_record):
    record = decode(encode(listing_record))
    assert record.device_id.value == "AC_001"
    assert record.timestamp.iso8601() == "2024-01-15T14:30:45Z"
    assert record.event_type == "access_granted"
    assert record.data == {
        "uid": "A1B2C3D4",
        "gate_status": "open",
        "duration_ms": 4800,
        "location": "Main_Entrance",
    }
    assert record.seq == 0


def test_pretty_printed_input_equals_compact(listing_record):
    assert decode(PRETTY) == decode(encode(listing_record))


def test_pretty_input_reports_missing_seq():
    record, seq_present = parse_record(PRETTY)
    assert not seq_present
    assert record.seq == 0
    record2, seq_present2 = parse_record(encode(record))
    assert seq_present2 and record2 == record


def test_data_key_order_preserved(listing_record):
    assert list(decode(encode(listing_record)).data) == [
        "uid",
        "gate_status",
        "duration_ms",
        "location",
    ]


def test_minimal_status_record():
    record = CloudRecord(
        device_id=DeviceId("SM_001"),
        timestamp=Timestamp(0),
        event_type="status",
        data={},
        seq=3,
    )
    assert b'"data":{}' in encode(record)
    assert decode(encode(record)) == record


def test_unknown_event_type_rejected():
    bad = PRETTY.replace(b"access_granted", b"teleport")
    with pytest.raises(UnknownEventTypeError):
        decode(bad)


def test_truncated_json_rejected():
    with pytest.raises(ParseError):
        decode(PRETTY[:40])


def test_not_utf8_rejected():
    with pytest.raises(ParseError):
        decode(b"\xff\xfe{}")


def test_nesting_too_deep_for_the_parser_rejected():
    with pytest.raises(ParseError, match="not JSON"):
        decode(b'{"data":' + b"[" * 200_000)


def test_unknown_top_level_key_rejected(listing_record):
    obj = json.loads(encode(listing_record))
    obj["extra"] = 1
    with pytest.raises(SchemaError):
        decode(json.dumps(obj).encode())


def test_missing_required_key_rejected(listing_record):
    obj = json.loads(encode(listing_record))
    del obj["timestamp"]
    with pytest.raises(SchemaError):
        decode(json.dumps(obj).encode())


def test_malformed_timestamp_rejected(listing_record):
    obj = json.loads(encode(listing_record))
    obj["timestamp"] = "2024-01-15 14:30:45"
    with pytest.raises(SchemaError):
        decode(json.dumps(obj).encode())


def test_float_data_value_rejected(listing_record):
    obj = json.loads(encode(listing_record))
    obj["data"]["duration_ms"] = 4800.5
    with pytest.raises(SchemaError):
        decode(json.dumps(obj).encode())


def test_negative_seq_rejected(listing_record):
    obj = json.loads(encode(listing_record))
    obj["seq"] = -1
    with pytest.raises(SchemaError):
        decode(json.dumps(obj).encode())


def test_record_validates_on_construction():
    with pytest.raises(InvalidRecordError):
        CloudRecord(DeviceId("AC_001"), Timestamp(0), "teleport", {}, 0)
    with pytest.raises(InvalidRecordError):
        CloudRecord(DeviceId("AC_001"), Timestamp(0), "status", {"x": 1.5}, 0)
    with pytest.raises(InvalidRecordError):
        CloudRecord(DeviceId("AC_001"), Timestamp(0), "status", {}, -4)


class TestIdempotencyKey:
    def test_shape(self):
        record = CloudRecord(DeviceId("AC_001"), Timestamp(0), "status", {}, 42)
        assert idempotency_key(record) == "AC_001:42"

    def test_stable_across_reencode(self, listing_record):
        assert idempotency_key(decode(encode(listing_record))) == idempotency_key(
            listing_record
        )

    def test_distinct_per_seq(self):
        a = CloudRecord(DeviceId("AC_001"), Timestamp(0), "status", {}, 42)
        b = CloudRecord(DeviceId("AC_001"), Timestamp(0), "status", {}, 43)
        assert idempotency_key(a) != idempotency_key(b)


# -- property-based round trips ---------------------------------------------

_data_values = st.one_of(
    st.text(max_size=20),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.booleans(),
)

records = st.builds(
    CloudRecord,
    device_id=st.sampled_from([DeviceId("AC_001"), DeviceId("SM_002"), DeviceId("GW_17")]),
    timestamp=st.integers(min_value=0, max_value=4_000_000_000).map(Timestamp),
    event_type=st.sampled_from(EVENT_TYPES),
    data=st.dictionaries(st.text(min_size=1, max_size=12), _data_values, max_size=6),
    seq=st.integers(min_value=0, max_value=2**40),
)


@given(records)
def test_round_trip_identity(record):
    assert decode(encode(record)) == record


@given(records)
def test_encode_deterministic_fixed_point(record):
    payload = encode(record)
    assert encode(decode(payload)) == payload


@settings(max_examples=60)
@given(records, st.randoms(use_true_random=False))
def test_structural_corruption_detected(record, rng):
    """Flipping any structural byte (punctuation or a key name) must not
    produce an accepted record; free-form value bytes are exempt."""
    payload = encode(record)
    structural = _structural_positions(payload)
    pos = structural[rng.randrange(len(structural))]
    replacement = bytes([(payload[pos] + 1 + rng.randrange(255)) % 256])
    corrupted = payload[:pos] + replacement + payload[pos + 1 :]
    if corrupted == payload:
        return
    with pytest.raises(codec.CodecError):
        decode(corrupted)


def _structural_positions(payload: bytes) -> list[int]:
    """Byte offsets of JSON punctuation and the five envelope key names.

    Operates on raw bytes: ASCII punctuation never occurs inside a UTF-8
    multi-byte sequence, so continuation bytes are safely treated as string
    content and skipped.
    """
    positions = []
    in_string = False
    escaped = False
    for i, b in enumerate(payload):
        ch = chr(b) if b < 0x80 else None
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
                positions.append(i)
            continue
        if ch == '"':
            in_string = True
            positions.append(i)
        elif ch is not None and ch in "{}[]:,":
            positions.append(i)
    for key in (b"device_id", b"timestamp", b"event_type", b"seq", b"data"):
        idx = payload.find(b'"' + key + b'"')
        positions.extend(range(idx + 1, idx + 1 + len(key)))
    return sorted(set(positions))


def test_bulk_round_trip_corpus():
    """Seeded volume check kept apart from hypothesis so its cost is fixed."""
    rng = random.Random(2024)
    devices = [DeviceId("AC_001"), DeviceId("SM_002")]
    for i in range(2000):
        data = {}
        for k in range(rng.randrange(5)):
            key = f"k{k}"
            roll = rng.random()
            if roll < 0.4:
                data[key] = rng.randrange(10**6)
            elif roll < 0.7:
                data[key] = rng.random() < 0.5
            else:
                data[key] = "".join(rng.choice("abcXYZ_ ") for _ in range(rng.randrange(9)))
        record = CloudRecord(
            device_id=devices[rng.randrange(2)],
            timestamp=Timestamp(rng.randrange(2**31), rng.randrange(1000)),
            event_type=EVENT_TYPES[rng.randrange(len(EVENT_TYPES))],
            data=data,
            seq=i,
        )
        assert decode(encode(record)) == record


# -- the prebuilt JSON encoder ----------------------------------------------

# What compact_json must match: a fresh encoder with its options, per call.
_reference_json = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode

_tricky_text = st.one_of(
    # Every code point, lone surrogates included.
    st.text(st.characters(exclude_categories=()), max_size=12),
    st.sampled_from([" ", " ", "\ud800", "a\udfffb", "\x00\x1f\x7f", '"\\/', "é€𝄞"]),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(2**100), 10**40]),
    st.floats(),
    st.sampled_from([-0.0, 1e-7, 1e16, 5e-324, 1.7976931348623157e308]),
    _tricky_text,
)
_keys = st.one_of(_tricky_text, st.integers(), st.floats(), st.booleans(), st.none())
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=12,
)
_envelopes = st.fixed_dictionaries(
    {
        "device_id": _tricky_text,
        "timestamp": _tricky_text,
        "event_type": _tricky_text,
        "seq": st.integers(),
        "data": st.dictionaries(_tricky_text, _scalars, max_size=6),
    }
)
_trace_events = st.fixed_dictionaries(
    {
        "t": st.floats(),
        "seq": st.integers(min_value=0),
        "kind": _tricky_text,
        "data": st.dictionaries(_tricky_text, _values, max_size=6),
    }
)


@given(st.one_of(_envelopes, _trace_events, _values))
def test_compact_json_matches_a_fresh_encoder(obj):
    assert codec.compact_json(obj) == _reference_json(obj)


@pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes", 1j, Timestamp(0)])
def test_compact_json_type_error_matches_and_leaves_no_state(bad):
    inner = {"v": bad}
    event = {"t": 1.0, "kind": "status", "data": {"nested": [1, inner]}}
    with pytest.raises(TypeError) as ours:
        codec.compact_json(event)
    with pytest.raises(TypeError) as reference:
        _reference_json(event)
    assert str(ours.value) == str(reference.value)
    # A failed encode leaves no state behind: once fixed, the same objects
    # encode, with no "Circular reference detected" from a stale marker.
    inner["v"] = 2
    assert codec.compact_json(event) == _reference_json(event)


def test_compact_encoder_without_the_c_accelerator(monkeypatch):
    monkeypatch.setattr(codec, "c_make_encoder", None)
    encode_json = codec._compact_encoder()
    obj = {"t": -0.0, "data": {"s": " \ud800", "n": 2**70, "f": 1e-7, "b": None}}
    assert encode_json(obj) == _reference_json(obj)
    with pytest.raises(TypeError, match="not JSON serializable"):
        encode_json({"x": object()})


# -- the prebuilt JSON decoder ----------------------------------------------


def _loads_outcome(loads, text) -> tuple:
    """What ``loads`` makes of ``text``: the value, by repr so that NaN and
    -0.0 compare, or the exception by type and message, with the type of its
    context and the file of the innermost frame it passed through."""
    try:
        return (repr(loads(text)),)
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return type(exc), str(exc), type(exc.__context__), frame.filename


def _duplicate_keys(pairs) -> str:
    members = (f"{codec.compact_json(k)}:{codec.compact_json(v)}" for k, v in pairs)
    return "{" + ",".join(members) + "}"


_json_texts = st.one_of(
    _values.map(codec.compact_json),
    st.builds(
        lambda v, indent, ascii: json.dumps(v, indent=indent, ensure_ascii=ascii),
        _values,
        st.sampled_from([None, 0, 2, "\t"]),
        st.booleans(),
    ),
    st.lists(st.tuples(st.sampled_from(["a", "b", ""]), _values), max_size=4).map(_duplicate_keys),
    st.sampled_from(
        [
            '"\\ud800"', '"a\\udfff\\ud800"', "NaN", "-Infinity", "-0.0", "1e400", "1" * 5000,
            str(2**70), "[" * 50 + "]" * 50, "[" * 100_000, '{"a":' * 100_000,
            "[" * 100_000 + "]" * 100_000,
        ]
    ),
)
# JSON whitespace, then Unicode whitespace that JSON does not allow.
_json_padding = st.text(st.sampled_from([" ", "\t", "\n", "\r", "\x0b", "\x85", "\xa0", "\u2028"]))


@st.composite
def _damaged_json(draw) -> str:
    text = draw(_json_texts)
    how = draw(st.sampled_from(["whole", "padded", "bom", "garbage", "truncated", "any"]))
    if how == "padded":
        return draw(_json_padding) + text + draw(_json_padding)
    if how == "bom":
        return "\ufeff" + text
    if how == "garbage":
        return text + draw(st.sampled_from(["x", "}", "]", "{}", " 1", ",", "\x00", "\n\n2"]))
    if how == "truncated":
        return text[: draw(st.integers(0, max(0, len(text) - 1)))]
    if how == "any":
        return draw(_tricky_text)
    return text


@given(_damaged_json())
def test_parse_json_is_json_loads(text):
    assert _loads_outcome(codec.parse_json, text) == _loads_outcome(json.loads, text)


@given(_damaged_json())
def test_every_reader_reads_as_with_json_loads(text):
    payload = text.encode("utf-8", "surrogatepass")
    readers = (codec.parse_record, wire._parse_body)
    ours = [_loads_outcome(read, payload)[:2] for read in readers]
    with mock.patch.object(codec, "parse_json", json.loads):
        assert ours == [_loads_outcome(read, payload)[:2] for read in readers]


@pytest.mark.parametrize(
    "text, value",
    [
        ('{"a":1,"a":2}', {"a": 2}),
        ("[NaN,-0.0]", [float("nan"), -0.0]),
        (str(2**70), 2**70),
        ('"\\ud800"', "\ud800"),
        ('{"t":1} \t\r\n', {"t": 1}),
    ],
)
def test_parse_json_values(text, value):
    assert repr(codec.parse_json(text)) == repr(value)


@pytest.mark.parametrize(
    "text",
    ["", " 1", "\ufeff1", "1 x", "1\u2028", "[1,", "[" * 100_000],
    ids=["empty", "padded", "bom", "extra_data", "unicode_space_after", "truncated", "too_deep"],
)
def test_parse_json_errors_are_json_loads_own(text):
    assert _loads_outcome(codec.parse_json, text) == _loads_outcome(json.loads, text)


def test_parse_json_with_the_pure_python_scanner(monkeypatch):
    # What a build without the _json accelerator gets from the same code.
    monkeypatch.setattr(codec, "_scan", py_make_scanner(JSONDecoder()))
    for text in ('{"a":[1,2.5,"\\ud800"]}', "NaN", " 1", "[1]x", "[" * 100_000):
        assert _loads_outcome(codec.parse_json, text)[:2] == _loads_outcome(json.loads, text)[:2]
