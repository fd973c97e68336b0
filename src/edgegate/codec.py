"""Canonical encoder/decoder for the cloud record envelope.

The wire form is a UTF-8 JSON object with top-level keys in a fixed order:
``device_id``, ``timestamp``, ``event_type``, ``seq``, ``data``. Encoding is
compact (no insignificant whitespace) and deterministic, so equal records
always produce identical bytes; that byte stability is what makes
retransmissions safely deduplicable. Decoding additionally accepts
pretty-printed input and, for compatibility with senders that omit it,
tolerates a missing ``seq``: it decodes as 0, and :func:`validate_record`
reports its absence so the sink can assign the next ``seq`` after the
device's highest stored one.

Every JSON text the package writes goes through :func:`compact_json`, and
every JSON text it reads (trace lines, wire frame bodies, records, reports,
sink snapshots) through :func:`parse_json`. ``json.loads`` wraps the same C
scanner that :func:`parse_json` calls directly in a Python decoder that
skips leading whitespace, checks for a BOM and looks for extra data, and
that wrapper costs more per trace line than the scan. Where the scan starts
at the first character and ends at the last, or before only JSON
whitespace, ``json.loads`` would return that same value; every other text
goes to ``json.loads`` itself, so the value or the exception is always its.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from json.decoder import JSONDecoder
from json.encoder import c_make_encoder, encode_basestring

from .core import CoreError, DeviceId, Timestamp

EVENT_TYPES: tuple[str, ...] = (
    "access_granted",
    "access_denied",
    "flame_detected",
    "flow_anomaly",
    "status",
    "personnel_scan",
)

_TOP_LEVEL_KEYS = ("device_id", "timestamp", "event_type", "seq", "data")
_REQUIRED_KEYS = ("device_id", "timestamp", "event_type", "data")

DataValue = str | int | bool


class CodecError(ValueError):
    """Base for encode/decode failures."""


class InvalidRecordError(CodecError):
    """A record value violates the envelope invariants."""


class ParseError(CodecError):
    """Input bytes are not well-formed JSON (or not UTF-8)."""


class SchemaError(CodecError):
    """JSON parsed but does not match the envelope schema."""


class UnknownEventTypeError(SchemaError):
    """event_type is not one of the closed enumeration."""


def _check_seq(seq: object) -> None:
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise InvalidRecordError(f"seq must be a non-negative integer, got {seq!r}")


def _check_data(data: dict) -> None:
    for k, v in data.items():
        if not isinstance(k, str):
            raise InvalidRecordError(f"data key must be a string, got {k!r}")
        if not isinstance(v, (str, int, bool)) or isinstance(v, float):
            raise InvalidRecordError(
                f"data value for {k!r} must be string/integer/boolean, got {type(v).__name__}"
            )


@dataclass(frozen=True)
class CloudRecord:
    """One event envelope: who, when, what, plus a scalar-valued data map.

    ``seq`` increases monotonically per device and combines with the device
    id to form the idempotency key used for retransmission dedup. Envelope
    timestamps are whole-second (the wire shape); sub-second stamps truncate
    here so that every valid record round-trips byte-exactly.
    """

    device_id: DeviceId
    timestamp: Timestamp
    event_type: str
    data: dict[str, DataValue] = field(default_factory=dict)
    seq: int = 0

    def __post_init__(self) -> None:
        if self.event_type not in EVENT_TYPES:
            raise InvalidRecordError(f"unknown event_type: {self.event_type!r}")
        _check_seq(self.seq)
        if self.timestamp.millis != 0:
            object.__setattr__(self, "timestamp", Timestamp(self.timestamp.seconds_utc, 0))
        _check_data(self.data)


def _compact_encoder() -> Callable[[object], str]:
    """``json.dumps(obj, separators=(",", ":"), ensure_ascii=False)`` as one
    encoder built once. ``JSONEncoder.encode`` builds a new C encoder on
    every call, and ``json.dumps`` a new ``JSONEncoder`` as well.

    The C encoder gets no circular-reference check: its marker dict would
    be shared by every call, and an encode that raises leaves its entries
    behind. Callers encode trees they built; a cycle raises RecursionError.
    """
    reference = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)
    if c_make_encoder is None:
        return reference.encode
    chunks = c_make_encoder(
        None, reference.default, encode_basestring, None, ":", ",", False, False, True
    )
    return lambda obj: "".join(chunks(obj, 0))


# Every trace line, record and wire frame is encoded by this one function.
compact_json = _compact_encoder()

# The scanner ``json.loads`` uses, built once with the same default hooks.
# It is shared by every thread, as ``json.loads`` shares its own: between
# calls it keeps nothing but a memo of object keys, which each call clears.
_scan = JSONDecoder().scan_once


def parse_json(text: str) -> object:
    """``json.loads(text)``: the same value, or the same exception.

    The scanner is tried first from index 0. Its value is returned when it
    reads to the end of ``text``, or up to JSON whitespace alone (space, tab,
    line feed, carriage return), since then ``json.loads`` returns it too.
    Anything else, including leading whitespace, a BOM, extra data and any
    exception from the scanner, is left to ``json.loads``, outside the
    ``except`` so its exception carries no context from the first try. Only
    nesting within two levels of the recursion limit can tell the two apart:
    ``json.loads`` calls the scanner from two frames deeper.
    """
    try:
        obj, end = _scan(text, 0)
    except Exception:
        pass
    else:
        if end == len(text) or not text[end:].strip(" \t\n\r"):
            return obj
    return json.loads(text)


def envelope(record: CloudRecord) -> dict:
    """The record as a fresh JSON object, top-level keys in wire order."""
    return {
        "device_id": record.device_id.value,
        "timestamp": record.timestamp.iso8601(),
        "event_type": record.event_type,
        "seq": record.seq,
        "data": dict(record.data),
    }


def encode(record: CloudRecord) -> bytes:
    """Serialize to the compact canonical byte form.

    Key order is fixed and data keys keep their insertion order, so encoding
    is a pure function of the record value.
    """
    return compact_json(envelope(record)).encode("utf-8")


def decode(payload: bytes) -> CloudRecord:
    """Parse envelope bytes, compact or pretty-printed.

    Unknown top-level keys, unknown event types, malformed timestamps and
    non-scalar data values are all rejected. A missing ``seq`` decodes as 0.
    """
    record, _ = parse_record(payload)
    return record


def utf8_text(payload: bytes) -> str:
    """``payload`` decoded as UTF-8; anything else is a :class:`ParseError`."""
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"payload is not UTF-8: {exc}") from None


def validate_record(payload: bytes) -> tuple[str, int | None, dict]:
    """Check envelope bytes as :func:`decode` does, without building a
    record: the device id, the ``seq`` (None when absent) and the parsed
    object, or the error :func:`decode` raises for them.

    Malformed bytes raise :class:`ParseError`, anything else that breaks the
    envelope :class:`SchemaError`, each check in this order.
    """
    text = utf8_text(payload)
    try:
        obj = parse_json(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"payload is not JSON: {exc}") from None

    if not isinstance(obj, dict):
        raise SchemaError("top-level JSON value must be an object")
    unknown = set(obj) - set(_TOP_LEVEL_KEYS)
    if unknown:
        raise SchemaError(f"unknown top-level keys: {sorted(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if k not in obj]
    if missing:
        raise SchemaError(f"missing required keys: {missing}")

    event_type = obj["event_type"]
    if not isinstance(event_type, str):
        raise SchemaError("event_type must be a string")
    if event_type not in EVENT_TYPES:
        raise UnknownEventTypeError(f"unknown event_type: {event_type!r}")

    device = obj["device_id"]
    if not isinstance(device, str):
        raise SchemaError("device_id must be a string")
    if not isinstance(obj["timestamp"], str):
        raise SchemaError("timestamp must be a string")
    try:
        DeviceId(device)
        Timestamp.from_iso8601(obj["timestamp"])
    except CoreError as exc:
        raise SchemaError(str(exc)) from None

    data = obj["data"]
    if not isinstance(data, dict):
        raise SchemaError("data must be an object")

    seq = obj.get("seq")
    try:
        if "seq" in obj:
            _check_seq(seq)
        _check_data(data)
    except InvalidRecordError as exc:
        raise SchemaError(str(exc)) from None
    if "\\u" in text:  # only an escape can give a string a lone surrogate
        for k, v in data.items():
            for part, value in (("key", k), ("value for", v)):
                if isinstance(value, str) and re.search("[\ud800-\udfff]", value):
                    raise SchemaError(f"data {part} {k!r} holds a lone surrogate")
    return device, seq, obj


def parse_record(payload: bytes) -> tuple[CloudRecord, bool]:
    """Like :func:`decode`, also reporting whether ``seq`` was present."""
    device, seq, obj = validate_record(payload)
    timestamp = Timestamp.from_iso8601(obj["timestamp"])
    data = dict(obj["data"])
    record = CloudRecord(DeviceId(device), timestamp, obj["event_type"], data, seq or 0)
    return record, seq is not None


def stored_envelope(payload: bytes) -> dict:
    """The envelope of bytes :func:`validate_record` accepted with a ``seq``,
    as :func:`envelope` gives it for their record: a fresh JSON object,
    top-level keys in wire order."""
    obj = parse_json(payload.decode("utf-8"))
    return {key: obj[key] for key in _TOP_LEVEL_KEYS}


def idempotency_key(record: CloudRecord) -> str:
    """Stable retransmission identity: ``<device_id>:<seq>``."""
    return f"{record.device_id.value}:{record.seq}"
