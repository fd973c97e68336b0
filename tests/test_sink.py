from __future__ import annotations

import csv
import dataclasses
import gc
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from edgegate import codec
from edgegate.codec import EVENT_TYPES, CloudRecord, ParseError, SchemaError, UnknownEventTypeError
from edgegate.core import CoreError, DeviceId, Timestamp, Uid
from edgegate.scenario import load_scenario
from edgegate.sim import Simulation
from edgegate.sink import (
    CSV_COLUMNS,
    CloudSink,
    SinkError,
    StaleRecordError,
    UnauthorizedError,
    UnavailableError,
    state_to_csv,
)

from conftest import always_open_policy
from helpers import stored_rows, streamed

TOKEN = "edgegate-mock-token"
T0 = Timestamp.from_iso8601("2024-01-15T14:30:45Z")


def record(seq: int, device: str = "AC_001", event: str = "status") -> CloudRecord:
    return CloudRecord(DeviceId(device), T0, event, {}, seq)


class TestAppend:
    def test_dense_row_indices(self):
        sink = CloudSink()
        rows = [sink.append(TOKEN, codec.encode(record(i)), T0) for i in range(3)]
        assert rows == [0, 1, 2]
        assert len(sink.table) == 3

    def test_duplicate_key_returns_original_row(self):
        sink = CloudSink()
        payload = codec.encode(record(7))
        first = sink.append(TOKEN, payload, T0)
        for _ in range(4):  # k retransmissions, k identical acks
            assert sink.append(TOKEN, payload, T0.add_seconds(1)) == first
        assert len(sink.table) == 1

    def test_bad_token_leaves_table_unchanged(self):
        sink = CloudSink()
        with pytest.raises(UnauthorizedError):
            sink.append("wrong", codec.encode(record(0)), T0)
        assert len(sink.table) == 0

    def test_fault_injection_is_unavailable(self):
        sink = CloudSink()
        sink.available = False
        with pytest.raises(UnavailableError):
            sink.append(TOKEN, codec.encode(record(0)), T0)
        sink.available = True
        assert sink.append(TOKEN, codec.encode(record(0)), T0) == 0

    def test_schema_failure_propagates(self):
        sink = CloudSink()
        with pytest.raises(codec.CodecError):
            sink.append(TOKEN, b"not json", T0)
        obj = json.loads(codec.encode(record(0)))
        obj["event_type"] = "teleport"
        with pytest.raises(SchemaError):
            sink.append(TOKEN, json.dumps(obj).encode(), T0)

    def test_device_id_with_a_trailing_line_feed_is_schema(self):
        sink = CloudSink()
        sink.append(TOKEN, faulty(device_id="AC_001"), T0)
        with pytest.raises(SchemaError, match="device id must look like ROLE_NNN"):
            sink.append(TOKEN, faulty(device_id="AC_001\n", seq=1), T0)
        assert len(sink.table) == 1

    def test_seqless_records_get_arrival_order(self):
        sink = CloudSink()
        base = json.loads(codec.encode(record(0)))
        del base["seq"]
        payload = json.dumps(base).encode()
        first = sink.append(TOKEN, payload, T0)
        second = sink.append(TOKEN, payload, T0)  # same bytes, still a new row
        assert (first, second) == (0, 1)
        assert [row.record.seq for row in stored_rows(sink.table)] == [0, 1]

    def test_seqless_record_follows_the_devices_stored_seqs(self):
        sink = CloudSink()
        first = CloudRecord(DeviceId("AC_001"), T0, "status", {"a": 1}, 0)
        body = json.loads(codec.encode(CloudRecord(DeviceId("AC_001"), T0, "status", {"b": 2})))
        del body["seq"]
        seqless = json.dumps(body).encode()
        assert sink.append(TOKEN, codec.encode(first), T0) == 0
        assert sink.append(TOKEN, seqless, T0) == 1
        assert sink.append(TOKEN, codec.encode(record(5)), T0) == 2
        assert sink.append(TOKEN, seqless, T0) == 3
        assert [(row.record.seq, row.record.data) for row in stored_rows(sink.table)] == [
            (0, {"a": 1}), (1, {"b": 2}), (5, {}), (6, {"b": 2}),
        ]

    def test_append_only_bindings_never_change(self):
        sink = CloudSink()
        payloads = [codec.encode(record(i)) for i in range(5)]
        for p in payloads[:3]:
            sink.append(TOKEN, p, T0)
        snapshot = [(r.row_index, r.record) for r in stored_rows(sink.table)]
        for p in payloads[3:]:
            sink.append(TOKEN, p, T0)
        assert [(r.row_index, r.record) for r in stored_rows(sink.table)][:3] == snapshot


class TestPerDeviceOrder:
    def test_new_key_below_the_stored_seq_is_stale(self):
        sink = CloudSink()
        for seq in (0, 2):
            sink.append(TOKEN, codec.encode(record(seq)), T0)
        with pytest.raises(StaleRecordError, match="AC_001:1 is below AC_001's stored seq 2"):
            sink.append(TOKEN, codec.encode(record(1)), T0)
        assert [row.record.seq for row in stored_rows(sink.table)] == [0, 2]
        # Gaps are allowed, and one device's seq does not fence another's.
        assert sink.append(TOKEN, codec.encode(record(9)), T0) == 2
        assert sink.append(TOKEN, codec.encode(record(0, "AC_002")), T0) == 3

    def test_stored_key_still_returns_its_row(self):
        sink = CloudSink()
        for seq in range(3):
            sink.append(TOKEN, codec.encode(record(seq)), T0)
        # Deduplication comes before the check, so a retransmission of an
        # earlier stored record is acknowledged with its row.
        assert sink.append(TOKEN, codec.encode(record(1)), T0) == 1
        assert len(sink.table) == 3


class TestQueryPolicy:
    def test_provisioned_uid_returns_policy_verbatim(self):
        sink = CloudSink()
        policy = always_open_policy("A1B2C3D4")
        sink.seed_policies([policy])
        assert sink.query_policy(TOKEN, Uid("A1B2C3D4")) == policy

    def test_unknown_uid_is_none(self):
        assert CloudSink().query_policy(TOKEN, Uid("FFFFFFFF")) is None

    def test_token_and_availability_checked(self):
        sink = CloudSink()
        with pytest.raises(UnauthorizedError):
            sink.query_policy("wrong", Uid("A1B2C3D4"))
        sink.available = False
        with pytest.raises(UnavailableError):
            sink.query_policy(TOKEN, Uid("A1B2C3D4"))


class TestExportCsv:
    def test_empty_table_is_header_only(self):
        assert state_to_csv(CloudSink().state_dict()) == (",".join(CSV_COLUMNS) + "\n").encode()

    def test_listing_row_values(self, listing_record):
        sink = CloudSink()
        sink.append(TOKEN, codec.encode(listing_record), T0)
        lines = state_to_csv(sink.state_dict()).decode().splitlines()
        assert len(lines) == 2
        assert lines[1] == (
            "0,AC_001,2024-01-15T14:30:45Z,access_granted,0,"
            "uid=A1B2C3D4;gate_status=open;duration_ms=4800;location=Main_Entrance"
        )

    def test_row_count_tracks_unique_appends(self):
        sink = CloudSink()
        for i in range(4):
            sink.append(TOKEN, codec.encode(record(i)), T0)
        sink.append(TOKEN, codec.encode(record(2)), T0)  # dedup
        lines = state_to_csv(sink.state_dict()).decode().splitlines()
        assert len(lines) == 5

    def test_boolean_data_renders_lowercase(self):
        sink = CloudSink()
        rec = CloudRecord(DeviceId("SM_001"), T0, "status", {"armed": True}, 0)
        sink.append(TOKEN, codec.encode(rec), T0)
        assert "armed=true" in state_to_csv(sink.state_dict()).decode()


class TestStateSnapshot:
    def test_round_trips_through_the_snapshot_file(self, listing_record):
        sink = CloudSink()
        sink.append(TOKEN, codec.encode(listing_record), T0)
        assert state_to_csv(json.loads(streamed(sink))) == state_to_csv(sink.state_dict())

    def test_key_on_two_rows_is_an_error(self):
        state = snapshot(record(0), record(1))
        state["rows"][1]["record"] = state["rows"][0]["record"]
        with pytest.raises(SinkError, match="key AC_001:0 is on two rows: row_index 0 and 1"):
            state_to_csv(state)

    def test_every_snapshot_row_is_exported_as_stored(self):
        state = snapshot(record(0), record(1))
        state["rows"].reverse()  # rows out of seq order, as older sinks could store them
        lines = state_to_csv(state).decode().splitlines()
        assert [line.split(",")[:5:4] for line in lines[1:]] == [["1", "1"], ["0", "0"]]

    def test_snapshot_is_json_ready(self, listing_record):
        sink = CloudSink()
        sink.append(TOKEN, codec.encode(listing_record), T0)
        payload = json.dumps(sink.state_dict())
        assert json.loads(payload)["rows"][0]["row_index"] == 0

    def test_rows_equal_the_decoded_wire_form(self, listing_record):
        sink = CloudSink()
        sink.append(TOKEN, codec.encode(listing_record), T0)
        sink.append(TOKEN, codec.encode(record(1)), T0.add_seconds(3600))
        rows = sink.state_dict()["rows"]
        assert [r["record"] for r in rows] == [
            json.loads(codec.encode(r.record)) for r in stored_rows(sink.table)
        ]
        assert [r["received_at"] for r in rows] == [
            "2024-01-15T14:30:45Z",
            "2024-01-15T15:30:45Z",
        ]

    def test_snapshot_does_not_share_record_data(self, listing_record):
        sink = CloudSink()
        sink.append(TOKEN, codec.encode(listing_record), T0)
        sink.state_dict()["rows"][0]["record"]["data"]["uid"] = "changed"
        assert stored_rows(sink.table)[0].record.data["uid"] == "A1B2C3D4"


def reference_json(state: dict) -> bytes:
    return (json.dumps(state, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def filled(*records: CloudRecord) -> CloudSink:
    sink = CloudSink()
    for r in records:
        sink.append(TOKEN, codec.encode(r), T0)
    return sink


def snapshot(*records: CloudRecord) -> dict:
    return filled(*records).state_dict()


data_values = st.one_of(st.text(), st.booleans(), st.integers(min_value=-(2**80), max_value=2**80))


class TestStateToJson:
    def test_empty_table(self):
        assert streamed(CloudSink()) == reference_json({"rows": []})

    def test_empty_data(self):
        sink = filled(record(0), record(1))
        assert streamed(sink) == reference_json(sink.state_dict())

    def test_non_ascii_and_control_characters(self):
        data = {"név": "Ünïcødé ✓ 日本", "ctl": "tab\tnl\ncr\r\x00\x1f\x7f", 'q"\\': "\"\\/"}
        sink = filled(CloudRecord(DeviceId("AC_001"), T0, "status", data, 0))
        assert streamed(sink) == reference_json(sink.state_dict())

    def test_bools_and_large_ints(self):
        data = {"t": True, "f": False, "zero": 0, "neg": -7, "big": 2**70, "small": -(2**70)}
        sink = filled(CloudRecord(DeviceId("AC_001"), T0, "status", data, 2**40))
        assert streamed(sink) == reference_json(sink.state_dict())

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(EVENT_TYPES),
                st.dictionaries(st.text(max_size=8), data_values, max_size=4),
            ),
            max_size=5,
        )
    )
    def test_matches_json_dumps(self, items):
        sink = filled(
            *(CloudRecord(DeviceId("AC_001"), T0, event, data, seq)
              for seq, (event, data) in enumerate(items))
        )
        assert streamed(sink) == reference_json(sink.state_dict())


# -- the append path before rows were kept as bytes, as the reference --------


def reference_parse_record(payload: bytes) -> tuple[CloudRecord, bool]:
    """``codec.parse_record`` as it was before ``validate_record``: the
    record's own constructor checks ``seq`` and the data values."""
    text = codec.utf8_text(payload)
    try:
        obj = codec.parse_json(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"payload is not JSON: {exc}") from None

    if not isinstance(obj, dict):
        raise SchemaError("top-level JSON value must be an object")
    unknown = set(obj) - {"device_id", "timestamp", "event_type", "seq", "data"}
    if unknown:
        raise SchemaError(f"unknown top-level keys: {sorted(unknown)}")
    missing = [k for k in ("device_id", "timestamp", "event_type", "data") if k not in obj]
    if missing:
        raise SchemaError(f"missing required keys: {missing}")

    event_type = obj["event_type"]
    if not isinstance(event_type, str):
        raise SchemaError("event_type must be a string")
    if event_type not in EVENT_TYPES:
        raise UnknownEventTypeError(f"unknown event_type: {event_type!r}")

    if not isinstance(obj["device_id"], str):
        raise SchemaError("device_id must be a string")
    if not isinstance(obj["timestamp"], str):
        raise SchemaError("timestamp must be a string")
    try:
        device_id = DeviceId(obj["device_id"])
        timestamp = Timestamp.from_iso8601(obj["timestamp"])
    except CoreError as exc:
        raise SchemaError(str(exc)) from None

    data = obj["data"]
    if not isinstance(data, dict):
        raise SchemaError("data must be an object")

    seq_present = "seq" in obj
    seq = obj["seq"] if seq_present else 0
    # The record constructor's checks, spelled out so that they stay the
    # reference's own.
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise SchemaError(f"seq must be a non-negative integer, got {seq!r}")
    for k, v in data.items():
        if not isinstance(v, (str, int, bool)) or isinstance(v, float):
            raise SchemaError(
                f"data value for {k!r} must be string/integer/boolean, got {type(v).__name__}"
            )
    # A record that no UTF-8 snapshot could hold is refused too.
    for k, v in data.items():
        for part, value in (("key", k), ("value for", v)):
            try:
                str(value).encode("utf-8")
            except UnicodeEncodeError:
                raise SchemaError(f"data {part} {k!r} holds a lone surrogate") from None
    return CloudRecord(device_id, timestamp, event_type, dict(data), seq), seq_present


class ReferenceTable:
    """``CloudSink.append`` before rows were kept as bytes: parse the record,
    then keep a table of rows holding ``CloudRecord``s, each row its index,
    record and received-at time."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, CloudRecord, Timestamp]] = []
        self.seen: dict[str, int] = {}
        self.high_seq: dict[str, int] = {}

    def append(self, record_bytes: bytes, received_at: Timestamp) -> int:
        record, seq_present = reference_parse_record(record_bytes)
        device = record.device_id.value
        if not seq_present:
            record = dataclasses.replace(record, seq=self.high_seq.get(device, -1) + 1)
        key = codec.idempotency_key(record)
        existing = self.seen.get(key)
        if existing is not None:
            return existing
        high = self.high_seq.get(device, -1)
        if record.seq < high:
            raise StaleRecordError(f"{key} is below {device}'s stored seq {high}")
        self.high_seq[device] = record.seq
        row_index = len(self.rows)
        self.rows.append((row_index, record, received_at))
        self.seen[key] = row_index
        return row_index

    def state_dict(self) -> dict:
        return {
            "rows": [
                {
                    "row_index": row_index,
                    "received_at": received_at.iso8601(),
                    "record": codec.envelope(record),
                }
                for row_index, record, received_at in self.rows
            ]
        }


def faulty(**fields) -> bytes:
    """A valid envelope with ``fields`` replaced or added."""
    envelope = {"device_id": "AC_001", "timestamp": "2024-01-15T14:30:45Z",
                "event_type": "status", "seq": 0, "data": {}}
    return json.dumps({**envelope, **fields}).encode()


def outcome(append, payload: bytes, received_at: Timestamp) -> tuple:
    try:
        return ("row", append(payload, received_at))
    except Exception as exc:  # noqa: BLE001 - the verdict is what is compared
        return (type(exc), str(exc))


_VALID_ENVELOPES = st.fixed_dictionaries(
    {
        "device_id": st.sampled_from(["AC_001", "AC_002", "SM_7"]),
        "timestamp": st.sampled_from(
            ["2024-01-15T14:30:45Z", "2024-02-29T00:00:00Z", "1999-12-31T23:59:59Z"]
        ),
        "event_type": st.sampled_from(EVENT_TYPES),
        "seq": st.integers(0, 4),
        "data": st.dictionaries(st.text(max_size=4), data_values, max_size=3),
    }
)
_WRONG_TYPES = {
    "device_id": [7, None, ["AC_001"]],
    "timestamp": [0, None, {"t": 1}],
    "event_type": [1, None, True],
    "seq": ["1", 1.0, None, [1]],
    "data": [[], "x", None, 5],
}
_BAD_VALUES = {
    "device_id": ["", "ac-1", "AC_", "_001", "AC_001\n", "AC 001"],
    "timestamp": ["yesterday", "2024-13-01T00:00:00Z", "2023-02-29T00:00:00Z",
                  "2024-01-15 14:30:45Z", "2024-01-15T14:30:45z", " 2024-01-15T14:30:45Z"],
    "event_type": ["bogus", "Status", ""],
    "seq": [True, False, -1, -(2**70), 2**70],
    "data": [{"f": 1.5}, {"l": [1]}, {"n": None}, {"o": {}}],
}
_DEEP = b'{"data":' + b"[" * 200_000


# Field-level mutations are drawn more often than whole-payload ones.
_MUTATIONS = ("valid", "drop", "rename", "add", "no_seq", "lone_surrogate", "not_utf8", "deep",
              *("wrong_type", "bad_value") * 4)


@st.composite
def mutated_payloads(draw) -> bytes:
    """A valid envelope with up to two mutations, so that two faults meet
    and the order of the checks shows."""
    obj = dict(draw(_VALID_ENVELOPES))
    hows = draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=2))
    for how in hows:
        key = draw(st.sampled_from(sorted(set(obj) & set(_WRONG_TYPES)) or ["seq"]))
        if how == "drop":
            obj.pop(key, None)
        elif how == "rename":
            obj[key + "_x"] = obj.pop(key, None)
        elif how == "add":
            obj[draw(st.sampled_from(["extra", "Seq", ""]))] = 1
        elif how == "wrong_type":
            obj[key] = draw(st.sampled_from(_WRONG_TYPES[key]))
        elif how == "bad_value":
            obj[key] = draw(st.sampled_from(_BAD_VALUES[key]))
        elif how == "no_seq":
            obj.pop("seq", None)
        elif how == "lone_surrogate":  # escaped it is refused; raw it is not UTF-8
            obj["data"] = {**(obj.get("data") if isinstance(obj.get("data"), dict) else {}),
                           **draw(st.sampled_from([{"s": "\udc00"}, {"\ud800": "v"}]))}
        elif how == "deep":
            return _DEEP
    if draw(st.booleans()):  # senders may reorder the keys
        obj = dict(draw(st.permutations(list(obj.items()))))
    text = json.dumps(obj, indent=draw(st.sampled_from([None, 2])),
                      ensure_ascii=draw(st.booleans()))
    payload = text.encode("utf-8", "surrogatepass")
    if "not_utf8" in hows:
        at = draw(st.integers(0, len(payload)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
        payload = payload[:at] + bad + payload[at:]
    return payload


class TestAgainstTheReferenceAppend:
    """The sink validates once and keeps bytes; the reference parses each
    record into a CloudRecord. Both give the same verdict on every append
    and hold the same rows afterwards."""

    @given(st.lists(mutated_payloads(), min_size=1, max_size=8))
    @example([faulty(seq=-1, data={"f": 1.5}), faulty(seq=True), faulty(seq=2, data=[])])
    @example([faulty(event_type="bogus", device_id=7), faulty(device_id="ac-1", timestamp=0)])
    @example([faulty(extra=1, data=None), faulty(seq=None, timestamp="yesterday")])
    @example([faulty(data={"k": "\udc00"}), faulty(seq=1, data={"\ud800": 1, "f": 1.5})])
    def test_same_verdicts_and_rows(self, payloads):
        sink, reference = CloudSink(), ReferenceTable()
        for n, payload in enumerate(payloads):
            at = T0.add_seconds(n * 1.25)
            assert outcome(lambda p, t: sink.append(TOKEN, p, t), payload, at) == outcome(
                reference.append, payload, at
            )
        assert [
            (r.row_index, r.record, r.received_at) for r in stored_rows(sink.table)
        ] == reference.rows
        assert sink.state_dict() == reference.state_dict()
        assert len(sink.table) == len(reference.rows)
        assert streamed(sink) == reference_json(reference.state_dict())


# -- the export before it wrote lines from the validated rows, as the reference


def reference_state_to_csv(state: dict) -> bytes:
    """``state_to_csv`` as it was before it wrote each line from the
    validated object: decode every row's record into a ``CloudRecord``, then
    write the rows."""
    snapshot_rows = state.get("rows", []) if isinstance(state, dict) else None
    if not isinstance(snapshot_rows, list):
        raise ValueError("expected an object with a list of rows")
    rows: list[tuple[object, CloudRecord]] = []
    seen: dict[str, object] = {}
    for n, row in enumerate(snapshot_rows):
        for name in ("row_index", "received_at", "record"):
            if not isinstance(row, dict) or name not in row:
                raise ValueError(f"row {n}: missing {name!r}")
        try:
            record = codec.decode(json.dumps(row["record"]).encode("utf-8"))
            Timestamp.from_iso8601(row["received_at"])
        except ValueError as exc:
            raise ValueError(f"row {n}: {exc}") from None
        row_index = row["row_index"]
        key = codec.idempotency_key(record)
        if key in seen:
            raise SinkError(f"key {key} is on two rows: row_index {seen[key]} and {row_index}")
        seen[key] = row_index
        rows.append((row_index, record))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row_index, record in rows:
        flattened = ";".join(
            f"{k}={str(v).lower() if isinstance(v, bool) else v}" for k, v in record.data.items()
        )
        writer.writerow([row_index, record.device_id.value, record.timestamp.iso8601(),
                         record.event_type, record.seq, flattened])
    return buf.getvalue().encode("utf-8")


def export_row(row_index: int = 0, received_at: object = "2024-01-15T14:30:45Z",
               drop: tuple[str, ...] = (), **fields) -> dict:
    """A snapshot row holding a valid envelope with ``fields`` replaced or
    added and the keys in ``drop`` removed."""
    envelope = {"device_id": "AC_001", "timestamp": "2024-01-15T14:30:45Z",
                "event_type": "status", "seq": 0, "data": {}, **fields}
    for key in drop:
        del envelope[key]
    return {"row_index": row_index, "received_at": received_at, "record": envelope}


_RECEIVED_AT = ["2024-01-15T14:30:45Z", "1999-12-31T23:59:59Z"]
_BAD_RECEIVED_AT = ["yesterday", 5, None, "2024-01-15T14:30:45Z\n", "2024-01-15T14:30:45.5Z"]
_EXPORT_FAULTS = ("drop", "add", "wrong_type", "bad_value", "no_seq", "float_data",
                  "lone_surrogate", "not_an_object", "bad_received_at", "missing_row_key",
                  "row_not_an_object")


@st.composite
def export_rows(draw, faults: bool) -> object:
    """A snapshot row with a valid envelope and, when ``faults``, perhaps one
    fault the export must refuse."""
    record = {**draw(_VALID_ENVELOPES), "seq": draw(st.integers(0, 2**70))}
    row = {"row_index": draw(st.integers(0, 2**40)),
           "received_at": draw(st.sampled_from(_RECEIVED_AT)), "record": record}
    how = draw(st.sampled_from(("valid", *_EXPORT_FAULTS))) if faults else "valid"
    key = draw(st.sampled_from(sorted(_WRONG_TYPES)))
    if how == "drop":
        del record[key]
    elif how == "add":
        record[draw(st.sampled_from(["extra", "Seq", ""]))] = 1
    elif how == "wrong_type":
        record[key] = draw(st.sampled_from(_WRONG_TYPES[key]))
    elif how == "bad_value":
        record[key] = draw(st.sampled_from(_BAD_VALUES[key]))
    elif how == "no_seq":
        del record["seq"]
    elif how == "float_data":
        record["data"] = {**record["data"], "f": draw(st.sampled_from([1.5, 1.0, -0.0, 1e300]))}
    elif how == "lone_surrogate":
        record[draw(st.sampled_from(["data", "event_type", "device_id"]))] = draw(
            st.sampled_from([{"s": "\udc00"}, {"\ud800": "v"}, "\ud800"])
        )
    elif how == "not_an_object":
        row["record"] = draw(st.sampled_from([[], "x", None, 5, [record]]))
    elif how == "bad_received_at":
        row["received_at"] = draw(st.sampled_from(_BAD_RECEIVED_AT))
    elif how == "missing_row_key":
        del row[draw(st.sampled_from(sorted(row)))]
    elif how == "row_not_an_object":
        return draw(st.sampled_from([[], None, "row", [row]]))
    return row


@st.composite
def export_snapshots(draw) -> object:
    """A saved snapshot: valid rows, rows with faults, records repeated on
    two rows, and now and then a snapshot of the wrong shape."""
    faults = draw(st.booleans())
    rows = draw(st.lists(export_rows(faults), max_size=5))
    if rows and isinstance(rows[0], dict) and "record" in rows[0] and draw(st.booleans()):
        again = {**rows[0], "row_index": draw(st.integers(0, 2**40))}
        rows.insert(draw(st.integers(1, len(rows))), again)
    shape = draw(st.sampled_from(["object"] * 6 + ["no_rows", "list", "rows_not_a_list"]))
    if shape == "no_rows":
        return draw(st.sampled_from([{}, {"row": rows}]))
    if shape == "list":
        return rows
    if shape == "rows_not_a_list":
        return {"rows": dict(enumerate(rows))}
    return {"rows": rows}


def export_outcome(export, state: object) -> tuple:
    try:
        return ("csv", export(state))
    except Exception as exc:  # noqa: BLE001 - the verdict is what is compared
        return (type(exc), str(exc))


class TestAgainstTheReferenceExport:
    """The export validates each record and writes its line from the parsed
    object; the reference decoded each record into a CloudRecord. Both give
    the same bytes, or the same exception, for every snapshot."""

    @given(export_snapshots())
    @example({"rows": [export_row(0, data={"s": "a,b", "q": '"x"\ny', "t": True, "n": -2**70}),
                       export_row(1, event_type="flow_anomaly", seq=2**70, data={"": ""})]})
    @example({"rows": [export_row(0, drop=("seq",)), export_row(1, drop=("seq",))]})
    @example({"rows": [export_row(3, seq=4), export_row(1, device_id="AC_002", seq=4),
                       export_row(2, seq=4)]})
    @example({"rows": [export_row(0, data={"\ud800": 1})]})
    @example({"rows": [export_row(0, data={"s": "\udc00"}, seq=-1)]})
    @example({"rows": [export_row(0, data={"f": 1.0})]})
    @example({"rows": [export_row(0, event_type="bogus", timestamp="yesterday")]})
    @example({"rows": [export_row(0, timestamp="2024-02-30T00:00:00Z")]})
    @example({"rows": [export_row(0, received_at="yesterday", event_type="bogus")]})
    @example({"rows": [export_row(0, device_id="AC_001\n")]})
    @example({"rows": [{**export_row(0), "record": [1]}]})
    @example({"rows": [export_row(0, extra=1, drop=("data",))]})
    @example({"rows": []})
    @example({})
    @example({"row": []})
    def test_same_csv_or_error(self, state):
        if isinstance(state, dict) and "rows" not in state:
            # The reference read a snapshot without rows as an empty table.
            assert export_outcome(state_to_csv, state) == (
                ValueError, "expected an object with a list of rows"
            )
            return
        assert export_outcome(state_to_csv, state) == export_outcome(reference_state_to_csv, state)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestRowsAsBytes:
    def test_appends_add_no_tracked_objects(self):
        sink = CloudSink()
        payloads = [
            codec.encode(CloudRecord(DeviceId(f"AC_00{seq % 3}"), T0, "access_granted",
                                     {"uid": "A1B2C3D4", "duration_ms": seq, "open": True}, seq))
            for seq in range(10_000)
        ]
        gc.collect()
        before = len(gc.get_objects())
        for payload in payloads:
            sink.append(TOKEN, payload, T0)
        grown = len(gc.get_objects()) - before
        assert len(sink.table) == 10_000
        assert grown < 100

    @pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.yaml")))
    def test_streamed_snapshot_of_a_bundled_scenario(self, name):
        simulation = Simulation(load_scenario(SCENARIOS / f"{name}.yaml"))
        simulation.run(writer=lambda line: None)
        assert len(simulation.sink.table) > 0
        assert streamed(simulation.sink) == reference_json(simulation.sink.state_dict())

    def test_streamed_snapshot_of_seqless_pretty_and_non_ascii_records(self):
        sink = CloudSink()
        seqless = {"device_id": "AC_001", "timestamp": "2024-01-15T14:30:45Z",
                   "event_type": "status", "data": {"név": "Ünïcødé ✓ 日本", "n": -7}}
        sink.append(TOKEN, json.dumps(seqless).encode(), T0)
        sink.append(TOKEN, json.dumps(seqless, ensure_ascii=False).encode(), T0)
        pretty = dict(reversed([*seqless.items(), ("seq", 5)]))
        sink.append(TOKEN, json.dumps(pretty, indent=4, ensure_ascii=False).encode(), T0)
        sink.append(TOKEN, json.dumps(seqless, indent="\t").encode(), T0.add_seconds(0.5))
        assert [r.record.seq for r in stored_rows(sink.table)] == [0, 1, 5, 6]
        assert streamed(sink) == reference_json(sink.state_dict())
        assert streamed(CloudSink()) == reference_json(CloudSink().state_dict())
