from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from edgegate import codec
from edgegate.codec import EVENT_TYPES, CloudRecord, SchemaError
from edgegate.core import DeviceId, Timestamp, Uid
from edgegate.sink import (
    CSV_COLUMNS,
    CloudSink,
    SinkError,
    StaleRecordError,
    UnauthorizedError,
    UnavailableError,
    export_csv,
    state_to_csv,
    state_to_json,
)

from conftest import always_open_policy

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

    def test_seqless_records_get_arrival_order(self):
        sink = CloudSink()
        base = json.loads(codec.encode(record(0)))
        del base["seq"]
        payload = json.dumps(base).encode()
        first = sink.append(TOKEN, payload, T0)
        second = sink.append(TOKEN, payload, T0)  # same bytes, still a new row
        assert (first, second) == (0, 1)
        assert [row.record.seq for row in sink.table.rows] == [0, 1]

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
        assert [(row.record.seq, row.record.data) for row in sink.table.rows] == [
            (0, {"a": 1}), (1, {"b": 2}), (5, {}), (6, {"b": 2}),
        ]

    def test_append_only_bindings_never_change(self):
        sink = CloudSink()
        payloads = [codec.encode(record(i)) for i in range(5)]
        for p in payloads[:3]:
            sink.append(TOKEN, p, T0)
        snapshot = [(r.row_index, r.record) for r in sink.table.rows]
        for p in payloads[3:]:
            sink.append(TOKEN, p, T0)
        assert [(r.row_index, r.record) for r in sink.table.rows][:3] == snapshot


class TestPerDeviceOrder:
    def test_new_key_below_the_stored_seq_is_stale(self):
        sink = CloudSink()
        for seq in (0, 2):
            sink.append(TOKEN, codec.encode(record(seq)), T0)
        with pytest.raises(StaleRecordError, match="AC_001:1 is below AC_001's stored seq 2"):
            sink.append(TOKEN, codec.encode(record(1)), T0)
        assert [row.record.seq for row in sink.table.rows] == [0, 2]
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
        assert CloudSink().export_csv() == (",".join(CSV_COLUMNS) + "\n").encode()

    def test_listing_row_values(self, listing_record):
        sink = CloudSink()
        sink.append(TOKEN, codec.encode(listing_record), T0)
        lines = sink.export_csv().decode().splitlines()
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
        lines = sink.export_csv().decode().splitlines()
        assert len(lines) == 5

    def test_boolean_data_renders_lowercase(self):
        sink = CloudSink()
        rec = CloudRecord(DeviceId("SM_001"), T0, "status", {"armed": True}, 0)
        sink.append(TOKEN, codec.encode(rec), T0)
        assert "armed=true" in sink.export_csv().decode()


class TestStateSnapshot:
    def test_round_trips_through_csv(self, listing_record):
        sink = CloudSink()
        sink.append(TOKEN, codec.encode(listing_record), T0)
        state = sink.state_dict()
        assert state_to_csv(state) == export_csv(sink.table)

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
            json.loads(codec.encode(r.record)) for r in sink.table.rows
        ]
        assert [r["received_at"] for r in rows] == [
            "2024-01-15T14:30:45Z",
            "2024-01-15T15:30:45Z",
        ]

    def test_snapshot_does_not_share_record_data(self, listing_record):
        sink = CloudSink()
        sink.append(TOKEN, codec.encode(listing_record), T0)
        sink.state_dict()["rows"][0]["record"]["data"]["uid"] = "changed"
        assert sink.table.rows[0].record.data["uid"] == "A1B2C3D4"


def reference_json(state: dict) -> bytes:
    return (json.dumps(state, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def snapshot(*records: CloudRecord) -> dict:
    sink = CloudSink()
    for r in records:
        sink.append(TOKEN, codec.encode(r), T0)
    return sink.state_dict()


data_values = st.one_of(st.text(), st.booleans(), st.integers(min_value=-(2**80), max_value=2**80))


class TestStateToJson:
    def test_empty_table(self):
        assert state_to_json(CloudSink().state_dict()) == reference_json({"rows": []})

    def test_empty_data(self):
        state = snapshot(record(0), record(1))
        assert state_to_json(state) == reference_json(state)

    def test_non_ascii_and_control_characters(self):
        data = {"név": "Ünïcødé ✓ 日本", "ctl": "tab\tnl\ncr\r\x00\x1f\x7f", 'q"\\': "\"\\/"}
        state = snapshot(CloudRecord(DeviceId("AC_001"), T0, "status", data, 0))
        assert state_to_json(state) == reference_json(state)

    def test_bools_and_large_ints(self):
        data = {"t": True, "f": False, "zero": 0, "neg": -7, "big": 2**70, "small": -(2**70)}
        state = snapshot(CloudRecord(DeviceId("AC_001"), T0, "status", data, 2**40))
        assert state_to_json(state) == reference_json(state)

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
        state = snapshot(
            *(CloudRecord(DeviceId("AC_001"), T0, event, data, seq)
              for seq, (event, data) in enumerate(items))
        )
        assert state_to_json(state) == reference_json(state)
