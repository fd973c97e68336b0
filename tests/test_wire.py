from __future__ import annotations

import random
import socket
import threading
import time

import pytest
from hypothesis import given, strategies as st

from edgegate import codec
from edgegate.codec import CloudRecord, ParseError, SchemaError, UnknownEventTypeError
from edgegate.core import DeviceId, Timestamp, Uid
from edgegate.scenario import NetworkConfig
from edgegate.sim import NetworkModel, SimClock, SimTransport
from edgegate.sink import CloudSink, StaleRecordError, UnauthorizedError, UnavailableError
from edgegate.sync import SyncClient
from edgegate.wire import MAX_FRAME_BYTES, RemoteSink, SinkServer, WireError, _frame, _take_frame

from conftest import always_open_policy
from helpers import drain, read_frame, stored_rows, write_frame

TOKEN = "edgegate-mock-token"
T0 = Timestamp.from_iso8601("2024-01-15T14:30:45Z")


def record(seq: int, device: str = "AC_001") -> CloudRecord:
    return CloudRecord(DeviceId(device), T0, "status", {}, seq)


def framed(body: bytes) -> bytes:
    """``body`` behind its length prefix, whatever it holds."""
    return len(body).to_bytes(4, "big") + body


@pytest.fixture
def server():
    sink = CloudSink(TOKEN)
    sink.seed_policies([always_open_policy("A1B2C3D4")])
    # Its clock stands still at T0, the time an in-process twin is given.
    with SinkServer(sink, clock=SimClock(T0)) as srv:
        yield srv


@pytest.fixture
def remote(server):
    client = RemoteSink(*server.address)
    yield client
    client.close()


class TestFraming:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            write_frame(a, {"op": "EXPORT", "n": 7})
            write_frame(a, {"op": "APPEND"}, b"\xff\n{}")
            assert read_frame(b) == ({"op": "EXPORT", "n": 7}, b"")
            assert read_frame(b) == ({"op": "APPEND"}, b"\xff\n{}")
        finally:
            a.close()
            b.close()

    def test_eof_at_boundary_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert read_frame(b) is None
        finally:
            b.close()

    def test_eof_mid_header_is_an_error(self):
        a, b = socket.socketpair()
        a.sendall(b"\x00\x00")
        a.close()
        try:
            with pytest.raises(WireError, match="mid-frame"):
                read_frame(b)
        finally:
            b.close()

    def test_oversize_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall((64 * 1024 * 1024).to_bytes(4, "big"))
            with pytest.raises(WireError):
                read_frame(b)
        finally:
            a.close()
            b.close()


_headers = st.dictionaries(
    st.text(max_size=8),
    st.none() | st.booleans() | st.integers() | st.text(max_size=16),
    max_size=4,
)
# Any bytes, and runs of line feeds, bytes that are not UTF-8 and JSON.
_payloads = st.binary(max_size=64) | st.lists(
    st.sampled_from([b"\n", b"\r\n", b"\xff", b"\xfe", b"\xed\xa0\x80", b"{}", b'"\\n"'])
).map(b"".join)


@given(header=_headers, payload=_payloads, sizes=st.lists(st.integers(1, 32), max_size=100))
def test_any_header_and_payload_survive_framing_in_any_chunks(header, payload, sizes):
    """A frame with a payload, then one without, fed to ``_take_frame`` in
    chunks of any size, come back whole and unchanged, and not before."""
    stream = _frame(header, payload) + _frame({"op": "QUERY"})
    buf = bytearray()
    taken = []
    steps = iter(sizes)
    pos = 0
    while pos < len(stream):
        step = next(steps, len(stream))
        buf += stream[pos:pos + step]
        pos += step
        while (frame := _take_frame(buf)) is not None:
            taken.append(frame)
    assert taken == [(header, payload), ({"op": "QUERY"}, b"")]
    assert not buf


class TestSocketParity:
    """The socket binding must behave exactly like the in-process sink."""

    def test_append_and_dedup(self, server, remote):
        payload = codec.encode(record(0))
        assert remote.append(TOKEN, payload) == 0
        assert remote.append(TOKEN, payload) == 0  # dedup returns original row
        assert remote.append(TOKEN, codec.encode(record(1))) == 1
        assert len(server.sink.table) == 2

    def test_query_policy_round_trip(self, remote):
        policy = remote.query_policy(TOKEN, Uid("A1B2C3D4"))
        assert policy == always_open_policy("A1B2C3D4")
        assert remote.query_policy(TOKEN, Uid("FFFFFFFF")) is None

    def test_rows_match_local(self, server, remote):
        remote.append(TOKEN, codec.encode(record(0)))
        twin = CloudSink(TOKEN)
        twin.append(TOKEN, codec.encode(record(0)), T0)
        assert server.sink.state_dict() == twin.state_dict()

    def test_error_mapping(self, server, remote):
        with pytest.raises(UnauthorizedError):
            remote.append("wrong", codec.encode(record(0)))
        with pytest.raises(ParseError):
            remote.append(TOKEN, b"{not json")
        bad_type = codec.encode(record(0)).replace(b"status", b"teleport")
        with pytest.raises(UnknownEventTypeError):
            remote.append(TOKEN, bad_type)
        server.sink.available = False
        with pytest.raises(UnavailableError):
            remote.append(TOKEN, codec.encode(record(1)))

    def test_stale_record_over_the_socket(self, server, remote):
        remote.append(TOKEN, codec.encode(record(0)))
        remote.append(TOKEN, codec.encode(record(2)))
        with pytest.raises(StaleRecordError, match="AC_001:1 is below AC_001's stored seq 2"):
            remote.append(TOKEN, codec.encode(record(1)))
        assert remote.append(TOKEN, codec.encode(record(0))) == 0  # a stored key still acks
        assert remote.append(TOKEN, codec.encode(record(3))) == 2  # the connection survives
        assert len(server.sink.table) == 3

    def test_same_results_as_inprocess_twin(self, server, remote):
        twin = CloudSink(TOKEN)
        twin.seed_policies([always_open_policy("A1B2C3D4")])
        payloads = [codec.encode(record(i)) for i in (0, 1, 1, 2)]
        remote_rows = [remote.append(TOKEN, p) for p in payloads]
        local_rows = [twin.append(TOKEN, p, T0) for p in payloads]
        assert remote_rows == local_rows
        assert server.sink.state_dict() == twin.state_dict()


class TestConcurrentAppends:
    def test_single_total_order_no_duplicates(self, server):
        """Multiple connections appending at once still observe dense rows
        and one row per idempotency key."""
        per_thread = 25
        threads = []
        errors = []

        def worker(device: str):
            client = RemoteSink(*server.address)
            try:
                for i in range(per_thread):
                    client.append(TOKEN, codec.encode(record(i, device)))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                client.close()

        for device in ("AC_001", "AC_002", "SM_001", "SM_002"):
            t = threading.Thread(target=worker, args=(device,))
            threads.append(t)
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        rows = stored_rows(server.sink.table)
        assert len(rows) == 4 * per_thread
        assert [r.row_index for r in rows] == list(range(len(rows)))
        keys = {f"{r.record.device_id.value}:{r.record.seq}" for r in rows}
        assert len(keys) == len(rows)
        # per-device arrival order was preserved by each connection
        for device in ("AC_001", "AC_002", "SM_001", "SM_002"):
            seqs = [
                r.record.seq for r in rows if r.record.device_id.value == device
            ]
            assert seqs == sorted(seqs)


class TestServerLifecycle:
    def test_stop_on_idle_server_is_prompt(self):
        server = SinkServer(CloudSink(TOKEN)).start()
        started = time.perf_counter()
        server.stop()
        assert time.perf_counter() - started < 0.2

    def test_stop_without_start_returns(self):
        server = SinkServer(CloudSink(TOKEN))
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=2)
        assert not stopper.is_alive()


def append_lone_surrogate(sock: socket.socket) -> dict:
    """APPEND the bytes a lone surrogate "\\ud800" would encode to, which
    are not UTF-8."""
    write_frame(sock, {"op": "APPEND", "token": TOKEN}, "\ud800".encode("utf-8", "surrogatepass"))
    return read_frame(sock)[0]


def send_unknown_op(sock: socket.socket) -> dict:
    write_frame(sock, {"op": "EXPORT"})
    return read_frame(sock)[0]


def query_uid_with_line_feed(sock: socket.socket) -> dict:
    write_frame(sock, {"op": "QUERY", "token": TOKEN, "uid": "A1B2C3D4\n"})
    return read_frame(sock)[0]


class TestUnencodableRecord:
    @pytest.mark.parametrize(
        "send, error, message",
        [
            (append_lone_surrogate, "parse", "payload is not UTF-8"),
            (send_unknown_op, "bad_request", "unknown op: 'EXPORT'"),
            (query_uid_with_line_feed, "bad_request",
             "uid must be 8 uppercase hex chars, got 'A1B2C3D4\\n'"),
        ],
        ids=["lone_surrogate", "unknown_op", "uid_with_line_feed"],
    )
    def test_error_reply_and_the_connection_survives(self, server, send, error, message):
        with socket.create_connection(server.address, timeout=5) as sock:
            reply = send(sock)
            assert reply["ok"] is False
            assert reply["error"] == error
            assert reply["message"].startswith(message)
            write_frame(sock, {"op": "APPEND", "token": TOKEN}, codec.encode(record(0)))
            assert read_frame(sock) == ({"ok": True, "row_index": 0}, b"")
        assert len(server.sink.table) == 1

    def test_same_error_as_inprocess_sink(self, server):
        twin = CloudSink(TOKEN)
        with pytest.raises(ParseError, match="not UTF-8") as local:
            twin.append(TOKEN, "\ud800".encode("utf-8", "surrogatepass"), T0)
        with socket.create_connection(server.address, timeout=5) as sock:
            reply = append_lone_surrogate(sock)
        assert reply == {"ok": False, "error": "parse", "message": str(local.value)}

    @pytest.mark.parametrize(
        "payload, error",
        [
            (b"\xff\xfe", ParseError),
            # UTF-8 bytes, but the escape decodes to a string with no UTF-8 form.
            (codec.encode(record(0)).replace(b'"data":{}', b'"data":{"k":"\\udc00"}'),
             SchemaError),
            (b"", ParseError),
        ],
        ids=["not_utf8", "escaped_lone_surrogate", "empty"],
    )
    def test_unencodable_records_fail_alike_on_both_bindings(
        self, server, remote, payload, error
    ):
        twin = CloudSink(TOKEN)
        errors = []
        for append in (lambda b: twin.append(TOKEN, b, T0), lambda b: remote.append(TOKEN, b)):
            with pytest.raises(Exception) as caught:
                append(payload)
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0][0] is error
        assert errors[1] == errors[0]
        assert len(server.sink.table) == 0


    @pytest.mark.parametrize(
        "token, available, error",
        [
            ("bad", True, UnauthorizedError),
            ("bad", False, UnauthorizedError),
            (TOKEN, False, UnavailableError),
            (TOKEN, True, ParseError),
        ],
    )
    def test_token_is_checked_before_the_bytes_on_both_bindings(
        self, server, remote, token, available, error
    ):
        twin = CloudSink(TOKEN)
        twin.available = server.sink.available = available
        errors = []
        for append in (lambda b: twin.append(token, b, T0), lambda b: remote.append(token, b)):
            with pytest.raises(Exception) as caught:
                append(b"\xff\xfe")
            errors.append((type(caught.value), str(caught.value)))
        assert errors[0][0] is error
        assert errors[1] == errors[0]
        assert len(server.sink.table) == 0


class TestCloseAfterAppend:
    def test_retry_lands_on_the_stored_row(self, server):
        """The connection closes after the sink has stored an append but
        before the client reads its ack. The sync client's retry must get
        the stored row back, and the sink must hold the record once."""
        server.sink.append(TOKEN, codec.encode(record(0, "AC_002")), T0)
        listener = socket.create_server(("127.0.0.1", 0))
        acks: list[dict] = []

        def closes_after_the_first_append():
            first, _ = listener.accept()
            with first, socket.create_connection(server.address, timeout=5) as upstream:
                write_frame(upstream, *read_frame(first))
                acks.append(read_frame(upstream)[0])  # stored, never forwarded
            second, _ = listener.accept()
            with second, socket.create_connection(server.address, timeout=5) as upstream:
                while (request := read_frame(second)) is not None:
                    write_frame(upstream, *request)
                    write_frame(second, read_frame(upstream)[0])

        proxy = threading.Thread(target=closes_after_the_first_append, daemon=True)
        proxy.start()
        clock = SimClock()
        remote = RemoteSink(*listener.getsockname())
        events: list[tuple[str, dict]] = []
        client = SyncClient(
            clock=clock,
            transport=SimTransport(
                clock,
                NetworkModel(NetworkConfig(latency_stddev_s=0.0)),
                remote,
                TOKEN,
                random.Random(1),
            ),
            on_event=lambda kind, data: events.append((kind, data)),
        )
        try:
            client.enqueue(record(0))
            drain(client, clock)
        finally:
            remote.close()
            proxy.join(timeout=5)
            listener.close()
        assert not proxy.is_alive()
        assert acks == [{"ok": True, "row_index": 1}]
        outcomes = [(k, d.get("reason", d.get("row_index"))) for k, d in events
                    if k in ("send_failed", "delivered")]
        assert outcomes == [("send_failed", "unavailable"), ("delivered", 1)]
        assert len(server.sink.table) == 2


class TestServerFramingErrors:
    """A framing error gets one bad_request reply, then the server closes
    that connection; other connections are unaffected."""

    @pytest.mark.parametrize(
        "raw, message",
        [
            ((MAX_FRAME_BYTES + 1).to_bytes(4, "big"), "frame too large"),
            (b"\x00\x00\x00\x05{nope", "bad frame body"),
            (b"\x00\x00\x00\x02[]", "must be a JSON object"),
            (b"\x00\x00\x00\x09{\"op\"", "closed mid-frame"),
            (b"\x00\x00", "closed mid-frame"),
            # The header is judged alone; its payload, a record, is not stored.
            (framed(b'{"op":"APPEND",\n' + codec.encode(record(0, "AC_002"))), "bad frame body"),
        ],
    )
    def test_bad_request_then_close(self, server, remote, raw, message):
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(raw)
            if "mid-frame" in message:
                sock.shutdown(socket.SHUT_WR)
            reply, _ = read_frame(sock)
            assert reply["ok"] is False
            assert reply["error"] == "bad_request"
            assert message in reply["message"]
            assert read_frame(sock) is None
        assert remote.append(TOKEN, codec.encode(record(0))) == 0


class TestStalledClient:
    def test_half_a_header_holds_nothing(self):
        server = SinkServer(CloudSink(TOKEN)).start()
        stalled = socket.create_connection(server.address, timeout=5)
        client = RemoteSink(*server.address)
        try:
            stalled.sendall(b"\x00\x00")
            started = time.perf_counter()
            assert client.append(TOKEN, codec.encode(record(0))) == 0
            assert time.perf_counter() - started < 1.0
        finally:
            client.close()
            started = time.perf_counter()
            server.stop()
            stopped_in = time.perf_counter() - started
        try:
            assert stopped_in < 0.2
            assert stalled.recv(1) == b""  # stop() closed its connection
        finally:
            stalled.close()


class TestClientClosesOnWireError:
    @staticmethod
    def first_reply_then_row_7(first: bytes, call) -> None:
        """Serve ``first`` to the client's first connection and a row index
        of 7 to its second: ``call`` must raise, and an append after it must
        read 7 over a new connection."""
        listener = socket.create_server(("127.0.0.1", 0))
        accepted: list[socket.socket] = []

        def scripted_server():
            for reply in (first, _frame({"ok": True, "row_index": 7})):
                conn, _ = listener.accept()
                accepted.append(conn)
                read_frame(conn)
                conn.sendall(reply)

        thread = threading.Thread(target=scripted_server, daemon=True)
        thread.start()
        client = RemoteSink(*listener.getsockname(), connect_timeout_s=2.0)
        try:
            call(client)
            assert client.append(TOKEN, codec.encode(record(1))) == 7
        finally:
            client.close()
            thread.join(timeout=5)
            for sock in accepted:
                sock.close()
            listener.close()
        assert not thread.is_alive()
        assert len(accepted) == 2

    def test_next_call_reconnects_after_a_framing_error(self):
        """After a "frame too large" header the rest of that reply is still
        unread; the client must drop the connection, not read it as the
        next call's reply."""
        stale = codec.compact_json({"ok": True, "row_index": 99}).encode()

        def call(client):
            with pytest.raises(WireError, match="frame too large"):
                client.append(TOKEN, codec.encode(record(0)))

        self.first_reply_then_row_7((MAX_FRAME_BYTES + 1).to_bytes(4, "big") + framed(stale), call)

    @pytest.mark.parametrize(
        "op, reply, field",
        [
            ("append", {"ok": True}, "row_index"),
            ("append", {"ok": True, "row_index": "x"}, "row_index"),
            ("append", {"ok": True, "row_index": True}, "row_index"),
            ("append", {"ok": True, "row_index": -1}, "row_index"),
            ("query", {"ok": True, "found": True, "policy": {"uid": "zz"}}, "policy"),
            ("query", {"ok": True, "found": True}, "policy"),
            ("query", {"ok": True, "found": True, "policy": "A1B2C3D4"}, "policy"),
        ],
    )
    def test_a_reply_field_that_does_not_parse_is_a_wire_error(self, op, reply, field):
        """A reply that frames well but whose field does not parse names the
        field, so a transport reads it as an outage, and the client
        reconnects for its next call."""

        def call(client):
            with pytest.raises(WireError, match=f"malformed reply: bad {field}"):
                if op == "append":
                    client.append(TOKEN, codec.encode(record(0)))
                else:
                    client.query_policy(TOKEN, Uid("A1B2C3D4"))

        self.first_reply_then_row_7(_frame(reply), call)


@pytest.fixture
def unstarted_server():
    sink = CloudSink(TOKEN)
    sink.seed_policies([always_open_policy("A1B2C3D4")])
    server = SinkServer(sink, clock=SimClock(T0))
    yield server
    server.stop()


@pytest.fixture
def inline(unstarted_server):
    client = unstarted_server.connect()
    yield client
    client.close()


class TestInlineClient:
    """A client from connect() runs the server's loop on its own thread."""

    def test_same_results_as_inprocess_twin(self, unstarted_server, inline, monkeypatch):
        monkeypatch.setattr(threading.Thread, "start", _no_threads)
        twin = CloudSink(TOKEN)
        twin.seed_policies([always_open_policy("A1B2C3D4")])
        payloads = [codec.encode(record(i)) for i in (0, 1, 1, 2)]
        assert [inline.append(TOKEN, p) for p in payloads] == [
            twin.append(TOKEN, p, T0) for p in payloads
        ]
        assert inline.query_policy(TOKEN, Uid("A1B2C3D4")) == twin.query_policy(
            TOKEN, Uid("A1B2C3D4")
        )
        assert inline.query_policy(TOKEN, Uid("FFFFFFFF")) is None
        assert unstarted_server.sink.state_dict() == twin.state_dict()
        with pytest.raises(UnauthorizedError):
            inline.append("wrong", payloads[0])
        unstarted_server.sink.available = False
        with pytest.raises(UnavailableError):
            inline.query_policy(TOKEN, Uid("A1B2C3D4"))

    def test_frames_larger_than_socket_buffers(self, unstarted_server, inline):
        """One thread writes and reads both ends, so neither end may block
        on a full socket buffer."""
        big = CloudRecord(DeviceId("AC_001"), T0, "status", {"blob": "x" * (4 << 20)}, 0)
        # The reply to a record with a 4 MiB event type quotes it back.
        bad_type = codec.encode(big).replace(b'"status"', b'"' + b"y" * (4 << 20) + b'"')
        twin = CloudSink(TOKEN)
        twin.append(TOKEN, codec.encode(big), T0)
        with pytest.raises(UnknownEventTypeError) as local:
            twin.append(TOKEN, bad_type, T0)
        started = time.perf_counter()
        assert inline.append(TOKEN, codec.encode(big)) == 0
        with pytest.raises(UnknownEventTypeError) as over_wire:
            inline.append(TOKEN, bad_type)
        assert time.perf_counter() - started < 10.0
        assert len(str(over_wire.value)) >= 4 << 20
        assert str(over_wire.value) == str(local.value)
        assert unstarted_server.sink.state_dict() == twin.state_dict()

    def test_connect_refuses_a_started_server(self):
        with SinkServer(CloudSink(TOKEN)) as server:
            with pytest.raises(RuntimeError):
                server.connect()

    def test_close_after_stop(self, unstarted_server):
        client = unstarted_server.connect()
        client.append(TOKEN, codec.encode(record(0)))
        unstarted_server.stop()
        with pytest.raises(WireError):
            client.append(TOKEN, codec.encode(record(1)))
        client.close()

    def test_each_call_serves_the_clients_own_peer(self, unstarted_server, inline, monkeypatch):
        assert inline.query_policy(TOKEN, Uid("FFFFFFFF")) is None  # attaches: accepts the peer
        rounds = count_loop_rounds(monkeypatch)
        sent: list[bytes] = []
        exchange = RemoteSink._exchange

        def counted(client, sock, frame):
            sent.append(frame)
            return exchange(client, sock, frame)

        monkeypatch.setattr(RemoteSink, "_exchange", counted)
        assert [inline.append(TOKEN, codec.encode(record(i))) for i in range(3)] == [0, 1, 2]
        assert inline.query_policy(TOKEN, Uid("A1B2C3D4")) is not None
        with pytest.raises(ParseError, match="not UTF-8"):
            inline.append(TOKEN, b"\xff\xfe")
        assert len(sent) == 5  # one frame per call, bytes that are not UTF-8 too
        assert sent[-1].endswith(b"\n\xff\xfe")
        assert rounds == []  # no call needed a round of the loop

    def test_a_peer_with_no_bytes_yet_is_served_by_the_loop(
        self, unstarted_server, inline, monkeypatch
    ):
        inline.append(TOKEN, codec.encode(record(0)))  # attached and served directly
        serve = SinkServer._serve
        starved = []

        def serve_once_without_bytes(server, conn):
            if starved:
                return serve(server, conn)
            starved.append(conn)
            real, conn.sock = conn.sock, _NoBytesYet(conn.sock)
            try:
                serve(server, conn)
            finally:
                conn.sock = real

        monkeypatch.setattr(SinkServer, "_serve", serve_once_without_bytes)
        rounds = count_loop_rounds(monkeypatch)
        assert inline.append(TOKEN, codec.encode(record(1))) == 1
        assert starved == [inline._peer]
        assert rounds  # the reply came through the selector
        assert inline.append(TOKEN, codec.encode(record(1))) == 1
        assert len(unstarted_server.sink.table) == 2

    def test_two_clients_alternate_each_with_its_own_peer(self, unstarted_server, monkeypatch):
        first, second = unstarted_server.connect(), unstarted_server.connect()
        try:
            for client in (first, second):
                assert client.query_policy(TOKEN, Uid("FFFFFFFF")) is None
            rounds = count_loop_rounds(monkeypatch)
            rows = [
                client.append(TOKEN, codec.encode(record(seq, device)))
                for seq in range(3)
                for client, device in ((first, "AC_001"), (second, "AC_002"))
            ]
            assert rows == [0, 1, 2, 3, 4, 5]
            assert first.append(TOKEN, codec.encode(record(1, "AC_001"))) == 2
            assert second.append(TOKEN, codec.encode(record(0, "AC_002"))) == 1
            assert first._peer is not second._peer
            for client in (first, second):
                assert client._peer.addr == client._sock.getsockname()
                assert client._peer.sock.getpeername() == client._sock.getsockname()
            assert rounds == []
        finally:
            first.close()
            second.close()
        assert unstarted_server._conns == set()


class _NoBytesYet:
    """A socket whose next ``recv`` finds nothing, as when loopback has not
    delivered the bytes yet."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def recv(self, n: int) -> bytes:
        raise BlockingIOError

    def __getattr__(self, name: str):
        return getattr(self._sock, name)


def count_loop_rounds(monkeypatch) -> list[None]:
    """One entry per round of the server's loop from now on."""
    rounds: list[None] = []
    poll = SinkServer._poll

    def counted(server, timeout):
        rounds.append(None)
        return poll(server, timeout)

    monkeypatch.setattr(SinkServer, "_poll", counted)
    return rounds


def _no_threads(self):
    raise AssertionError("no thread may start")


class TestFaultsStayInOneConnection:
    """A request the server cannot answer ends only the connection that sent
    it; the loop keeps serving every other client."""

    DEEP = b'{"a":' + b"[" * 2000

    def test_nesting_too_deep_for_the_parser(self, server, remote):
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(framed(self.DEEP))
            reply, _ = read_frame(sock)
            assert reply["error"] == "bad_request"
            assert "bad frame body" in reply["message"]
            assert read_frame(sock) is None
        assert remote.append(TOKEN, codec.encode(record(0))) == 0

    def test_deeply_nested_record_gets_the_inprocess_parse_error(self, server, remote):
        payload = b'{"data":' + b"[" * 200_000
        with pytest.raises(ParseError) as local:
            CloudSink(TOKEN).append(TOKEN, payload, T0)
        with pytest.raises(ParseError) as over_wire:
            remote.append(TOKEN, payload)
        assert str(over_wire.value) == str(local.value)
        assert remote.append(TOKEN, codec.encode(record(0))) == 0

    def test_unexpected_error_in_a_request(self, server, remote, monkeypatch):
        def boom(token, uid):
            raise RuntimeError("boom")

        monkeypatch.setattr(server.sink, "query_policy", boom)
        with socket.create_connection(server.address, timeout=5) as sock:
            write_frame(sock, {"op": "QUERY", "token": TOKEN, "uid": "A1B2C3D4"})
            reply, _ = read_frame(sock)
            assert reply["error"] == "bad_request"
            assert reply["message"] == "request failed: RuntimeError: boom"
            assert read_frame(sock) is None
        assert remote.append(TOKEN, codec.encode(record(0))) == 0
        assert server._thread.is_alive()
