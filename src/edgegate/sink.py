"""Mock of the spreadsheet-backed cloud layer: an append-only row store with
a per-card authorization table behind a static bearer token.

Appends are deduplicated by idempotency key: retransmitting a record returns
the original row index without growing the table, which is what turns the
client's at-least-once delivery into exactly-once rows. A new key whose
``seq`` is below the highest already stored for its device is refused as
stale, so a late copy of a record the device has given up on cannot land
after its successors: per-device order holds under a finite retry budget
too. Fault injection is a simple availability flag so tests and scenarios
can emulate outages that are distinct from network partitions.

A row is kept as its received-at milliseconds and the record bytes that
were validated on arrival, so it holds no object the garbage collector
tracks. ``write_state`` streams the snapshot file row by row from those
bytes. The CSV export, :func:`state_to_csv`, reads that file back and checks
each row's record with the same validator the append path uses, then writes
its line from the validated object; no record object is built on either
side.
"""

from __future__ import annotations

import csv
import io
import json
from json.encoder import encode_basestring
from typing import Callable, Iterable, Iterator

from . import codec
from .codec import DataValue
from .core import AccessPolicy, Timestamp, Uid

DEFAULT_TOKEN = "edgegate-mock-token"

CSV_COLUMNS = ("row_index", "device_id", "timestamp", "event_type", "seq", "data")


class SinkError(Exception):
    """Base for sink-side failures."""


class UnauthorizedError(SinkError):
    """Bearer token mismatch; the table is untouched."""


class UnavailableError(SinkError):
    """Fault injection is active; callers should treat this like an outage."""


class StaleRecordError(SinkError):
    """A new key's ``seq`` is below its device's highest stored ``seq``; the
    table is untouched."""


class SheetTable:
    """Append-only storage: rows never mutate, indices are dense from 0, and
    each device's rows are stored in ``seq`` order. Row ``i`` is the ``i``-th
    received-at time (in milliseconds) and record bytes."""

    def __init__(self) -> None:
        self._received_ms: list[int] = []
        self._payloads: list[bytes] = []
        self._seen: dict[str, int] = {}  # idempotency key -> row index
        self._high_seq: dict[str, int] = {}  # device -> highest stored seq

    def __len__(self) -> int:
        return len(self._payloads)

    def stored(self) -> Iterator[tuple[int, int, bytes]]:
        """Each row as stored: index, received-at milliseconds, record bytes."""
        return zip(range(len(self._payloads)), self._received_ms, self._payloads)

    def append(self, device: str, seq: int, payload: bytes, received_at: Timestamp) -> int:
        """Append unless the idempotency key was already stored; either way
        the returned index is the row holding this key. A new key below its
        device's highest stored ``seq`` raises ``StaleRecordError``."""
        key = f"{device}:{seq}"
        existing = self._seen.get(key)
        if existing is not None:
            return existing
        high = self._high_seq.get(device, -1)
        if seq < high:
            raise StaleRecordError(f"{key} is below {device}'s stored seq {high}")
        self._high_seq[device] = seq
        row_index = len(self._payloads)
        self._received_ms.append(received_at.seconds_utc * 1000 + received_at.millis)
        self._payloads.append(payload)
        self._seen[key] = row_index
        return row_index


class CloudSink:
    """In-process sink implementation; the socket server wraps this same
    object, so both bindings behave identically."""

    def __init__(self, token: str = DEFAULT_TOKEN) -> None:
        self._token = token
        self.table = SheetTable()
        self.authz: dict[Uid, AccessPolicy] = {}  # one policy per card
        self.available = True

    def seed_policies(self, policies: Iterable[AccessPolicy]) -> None:
        for policy in policies:
            self.authz[policy.uid] = policy

    def _check(self, token: str) -> None:
        if token != self._token:
            raise UnauthorizedError("bad bearer token")
        if not self.available:
            raise UnavailableError("sink fault injection active")

    def append(self, token: str, record_bytes: bytes, received_at: Timestamp) -> int:
        """Validate and store; duplicate keys return the original row index
        without appending. A record without ``seq`` gets the next one after
        its device's highest stored ``seq``."""
        self._check(token)
        device, seq, obj = codec.validate_record(record_bytes)
        if seq is None:
            seq = obj["seq"] = self.table._high_seq.get(device, -1) + 1
            record_bytes = codec.compact_json(obj).encode("utf-8")
        return self.table.append(device, seq, record_bytes, received_at)

    def query_policy(self, token: str, uid: Uid) -> AccessPolicy | None:
        """Stored policy for ``uid``, or None when the card is unknown."""
        self._check(token)
        return self.authz.get(uid)

    def state_dict(self) -> dict:
        """JSON-ready snapshot of the table, for offline export and replay."""
        return {"rows": list(self._state_rows())}

    def write_state(self, write: Callable[[bytes], object]) -> None:
        """Pass the UTF-8 of ``json.dumps(self.state_dict(), indent=2,
        ensure_ascii=False) + "\n"`` to ``write`` in pieces, one row at a
        time, without holding the whole snapshot.

        With ``indent`` set, ``json.dumps`` falls back to its pure-Python
        encoder. This writes the fixed row layout directly and encodes each
        string with the C string encoder.
        """
        for text in _state_text(self._state_rows()):
            write(text.encode("utf-8"))

    def _state_rows(self) -> Iterator[dict]:
        for row_index, ms, payload in self.table.stored():
            yield {
                "row_index": row_index,
                "received_at": Timestamp(ms // 1000).iso8601(),
                "record": codec.stored_envelope(payload),
            }


def _csv_scalar(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# One row of ``json.dumps(state, indent=2)``, from its opening brace up to
# the record's data object.
_ROW_HEAD = (
    '\n    {\n      "row_index": %d,\n      "received_at": %s,\n      "record": {\n'
    '        "device_id": %s,\n        "timestamp": %s,\n        "event_type": %s,\n'
    '        "seq": %d,\n        "data": '
)
_DATA_ITEM = "\n          "


def _state_text(rows: Iterable[dict]) -> Iterator[str]:
    """The text :meth:`CloudSink.write_state` writes, one piece per row."""
    head = '{\n  "rows": ['
    for row in rows:
        record = row["record"]
        text = head + _ROW_HEAD % (
            row["row_index"],
            encode_basestring(row["received_at"]),
            encode_basestring(record["device_id"]),
            encode_basestring(record["timestamp"]),
            encode_basestring(record["event_type"]),
            record["seq"],
        )
        data = record["data"]
        if data:
            items = ",".join(
                _DATA_ITEM + encode_basestring(k) + ": " + _json_scalar(v)
                for k, v in data.items()
            )
            yield text + "{" + items + "\n        }\n      }\n    }"
        else:
            yield text + "{}\n      }\n    }"
        head = ","
    yield "\n  ]\n}\n" if head == "," else '{\n  "rows": []\n}\n'


def _json_scalar(value: DataValue) -> str:
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return int.__repr__(value)


def state_to_csv(state: dict) -> bytes:
    """CSV export from a saved sink snapshot (the ``state_dict`` shape, else
    ``ValueError``): a header, then one line per row, with its own
    ``row_index``; the data map flattens to semicolon-joined key=value pairs.
    A key on two rows raises ``SinkError`` naming both, as no row is left out
    silently."""
    snapshot_rows = state.get("rows") if isinstance(state, dict) else None
    if not isinstance(snapshot_rows, list):
        raise ValueError("expected an object with a list of rows")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    seen: dict[str, int] = {}
    for n, row in enumerate(snapshot_rows):
        for name in ("row_index", "received_at", "record"):
            if not isinstance(row, dict) or name not in row:
                raise ValueError(f"row {n}: missing {name!r}")
        try:
            # ASCII escapes keep a lone surrogate visible to the validator.
            device, seq, obj = codec.validate_record(json.dumps(row["record"]).encode("utf-8"))
            Timestamp.from_iso8601(row["received_at"])
        except ValueError as exc:
            raise ValueError(f"row {n}: {exc}") from None
        row_index = row["row_index"]
        if not isinstance(row_index, int) or isinstance(row_index, bool) or row_index < 0:
            raise ValueError(
                f"row {n}: row_index must be a non-negative integer, got {row_index!r}"
            )
        seq = seq or 0  # a record without ``seq`` reads as 0, as ``codec.decode`` gives it
        key = f"{device}:{seq}"
        if key in seen:
            raise SinkError(f"key {key} is on two rows: row_index {seen[key]} and {row_index}")
        seen[key] = row_index
        flattened = ";".join(f"{k}={_csv_scalar(v)}" for k, v in obj["data"].items())
        writer.writerow([row_index, device, obj["timestamp"], obj["event_type"], seq, flattened])
    return buf.getvalue().encode("utf-8")
