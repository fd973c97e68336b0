"""Socket binding for the mock cloud sink.

Framing: every request and response is a 4-byte big-endian length prefix
followed by a body. A body is one line of compact UTF-8 JSON, the header;
an APPEND request's header is followed by a line feed and then the record
bytes as the device encoded them, which the server hands to the sink
unchanged. Requests carry an ``op`` of APPEND or QUERY; responses carry
``ok`` plus either the result fields or an ``error`` code that maps
one-to-one onto the in-process exception types, so a client talking over
the socket observes exactly the behavior of a local sink. Any other ``op``
gets a ``bad_request`` reply, and the connection stays open.

One non-blocking ``selectors`` loop serves every connection: on a thread of
its own after ``SinkServer.start``, or on the caller's thread in
``serve_forever`` (``edgegate serve-sink`` runs it on its main thread). An
unstarted server serves a client from its ``connect`` on the client's
thread: each call sends its frame over TCP, has the server answer the
client's own peer connection, and reads the reply; only a send or ``recv``
that would block runs a loop round.
"""

from __future__ import annotations

import json
import selectors
import socket
import struct
import threading
from typing import Callable, TypeVar

from . import codec
from .core import AccessPolicy, ClockPort, SystemClock, Uid
from .sink import CloudSink, StaleRecordError, UnauthorizedError, UnavailableError

MAX_FRAME_BYTES = 16 * 1024 * 1024
_LEN = struct.Struct(">I")
# Bytes asked of one recv; a larger frame arrives over several.
_RECV_BYTES = 64 * 1024
_T = TypeVar("_T")


class WireError(Exception):
    """Framing or protocol failure on the socket path."""


# Error code on the wire <-> sink-side exception. A subclass precedes its
# base (UnknownEventTypeError is a SchemaError) so the server picks the
# most specific code.
_ERROR_CODES: tuple[tuple[str, type[Exception]], ...] = (
    ("unauthorized", UnauthorizedError),
    ("unavailable", UnavailableError),
    ("stale", StaleRecordError),
    ("unknown_event_type", codec.UnknownEventTypeError),
    ("parse", codec.ParseError),
    ("schema", codec.SchemaError),
)
_MAPPED_ERRORS = tuple(cls for _, cls in _ERROR_CODES)


def _frame(obj: dict, payload: bytes | None = None) -> bytes:
    """The frame of header ``obj``, followed by a line feed and ``payload``
    when one is given. Compact JSON holds no raw line feed."""
    body = codec.compact_json(obj).encode("utf-8")
    if payload is not None:
        body = b"%s\n%s" % (body, payload)
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame too large: {len(body)} bytes")
    return _LEN.pack(len(body)) + body


def _body_length(header: bytes | bytearray) -> int:
    (length,) = _LEN.unpack_from(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame too large: {length} bytes")
    return length


def _parse_body(body: bytes | bytearray) -> dict:
    try:
        obj = codec.parse_json(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise WireError(f"bad frame body: {exc}") from None
    if not isinstance(obj, dict):
        raise WireError("frame body must be a JSON object")
    return obj


def _take_frame(buf: bytearray) -> tuple[dict, bytes] | None:
    """Remove the first whole frame from ``buf`` and return its header and
    the bytes after the header's line feed (empty without one); None while
    that frame has not fully arrived."""
    if len(buf) < _LEN.size:
        return None
    end = _LEN.size + _body_length(buf)
    if len(buf) < end:
        return None
    header, _, payload = bytes(buf[_LEN.size:end]).partition(b"\n")
    obj = _parse_body(header)
    del buf[:end]
    return obj, payload


def _handle_request(sink: CloudSink, clock: ClockPort, request: dict, payload: bytes) -> dict:
    op = request.get("op")
    try:
        if op == "APPEND":
            row = sink.append(str(request.get("token", "")), payload, clock.now_ts())
            return {"ok": True, "row_index": row}
        if op == "QUERY":
            uid_text = request.get("uid")
            if not isinstance(uid_text, str):
                return _err("bad_request", "QUERY requires a 'uid' string")
            try:
                uid = Uid(uid_text)
            except ValueError as exc:
                return _err("bad_request", str(exc))
            policy = sink.query_policy(str(request.get("token", "")), uid)
            if policy is None:
                return {"ok": True, "found": False}
            return {"ok": True, "found": True, "policy": policy.to_dict()}
        return _err("bad_request", f"unknown op: {op!r}")
    except _MAPPED_ERRORS as exc:
        code = next(code for code, cls in _ERROR_CODES if isinstance(exc, cls))
        return _err(code, str(exc))


def _err(code: str, message: str) -> dict:
    return {"ok": False, "error": code, "message": message}


class _Conn:
    """One accepted connection: its peer's address, bytes read but not yet
    answered, reply bytes not yet sent, and whether it ends once those are
    sent."""

    __slots__ = ("sock", "addr", "rbuf", "wbuf", "closing")

    def __init__(self, sock: socket.socket, addr: object) -> None:
        self.sock = sock
        self.addr = addr
        self.rbuf = bytearray()
        self.wbuf = bytearray()
        self.closing = False


def _client_ready(mask: int) -> None:
    """A waiting inline client's socket is ready; the client's own call
    does the I/O once the loop round returns."""


class SinkServer:
    """TCP host for one CloudSink, served by one non-blocking loop.

    Each connection keeps a read and a write buffer. Its next frame is
    answered only once the reply before it is sent, and one thread at a time
    runs the loop, so every caller observes a single total order of appends
    and a stalled or slow client holds only its own buffers.
    """

    def __init__(
        self,
        sink: CloudSink | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        clock: ClockPort | None = None,
    ) -> None:
        self.sink = sink or CloudSink()
        self._clock = clock or SystemClock()
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self._address = self._listener.getsockname()
        # stop() writes a byte here to wake a loop blocked in select.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, self._accept)
        self._selector.register(self._wake_r, selectors.EVENT_READ, self._drain_wake)
        self._conns: set[_Conn] = set()
        self._stopping = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._address

    @property
    def port(self) -> int:
        return self.address[1]

    def start(self) -> "SinkServer":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """End the loop and close every socket it serves or listens on."""
        self._stopping.set()
        if self._thread is not None:
            self._wake_w.send(b"\0")
            self._thread.join(timeout=5)
            self._thread = None
        for conn in list(self._conns):
            self._close(conn)
        self._selector.close()
        for sock in (self._listener, self._wake_r, self._wake_w):
            sock.close()

    def serve_forever(self) -> None:
        while not self._stopping.is_set():
            self._poll(None)

    def connect(self) -> "RemoteSink":
        """A client that this server answers on the caller's thread: each
        call serves the client's own peer connection directly, and runs a
        round of the loop only while a send or ``recv`` would block.

        Only one thread may run the loop at a time, so the server must not
        be started, and its ``connect`` clients share one thread.
        """
        if self._thread is not None:
            raise RuntimeError("the loop runs on its own thread; use RemoteSink(*address)")
        return RemoteSink(*self.address, server=self)

    def __enter__(self) -> "SinkServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- the loop --------------------------------------------------------------

    def _poll(self, timeout: float | None) -> bool:
        """One round of the loop; False if nothing was ready within ``timeout``."""
        ready = self._selector.select(timeout)
        for key, mask in ready:
            key.data(mask)
        return bool(ready)

    def _accept(self, mask: int) -> None:
        try:
            sock, addr = self._listener.accept()
        except OSError:  # the peer gave up, or no descriptor is left
            return
        sock.setblocking(False)
        conn = _Conn(sock, addr)
        self._conns.add(conn)
        self._selector.register(sock, selectors.EVENT_READ, lambda mask: self._serve(conn))

    def _drain_wake(self, mask: int) -> None:
        try:
            self._wake_r.recv(64)
        except BlockingIOError:
            pass

    def _serve(self, conn: _Conn) -> None:
        """Move bytes for a ready connection, then answer what has arrived."""
        try:
            if conn.wbuf:
                self._flush(conn)
            else:
                data = conn.sock.recv(_RECV_BYTES)
                if data:
                    conn.rbuf += data
                elif conn.rbuf:
                    self._reject(conn, "connection closed mid-frame")
                else:
                    self._close(conn)
            self._answer(conn)
        except BlockingIOError:
            pass
        except OSError:
            self._close(conn)
        if conn in self._conns:
            # Read only while no reply waits to go out.
            self._want(conn.sock, selectors.EVENT_WRITE if conn.wbuf else selectors.EVENT_READ)

    def _answer(self, conn: _Conn) -> None:
        while not conn.wbuf and not conn.closing:
            try:
                request = _take_frame(conn.rbuf)
                if request is None:
                    return
                conn.wbuf += _frame(_handle_request(self.sink, self._clock, *request))
            except WireError as exc:
                self._reject(conn, str(exc))
                return
            except Exception as exc:  # a fault in one request ends only its connection
                self._reject(conn, f"request failed: {type(exc).__name__}: {exc}")
                return
            self._flush(conn)

    def _reject(self, conn: _Conn, message: str) -> None:
        """Reply ``bad_request`` to a framing error or a failed request, then
        close once the reply is sent."""
        conn.wbuf += _frame(_err("bad_request", message))
        conn.closing = True
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        try:
            sent = conn.sock.send(conn.wbuf)
        except BlockingIOError:
            return
        del conn.wbuf[:sent]
        if conn.closing and not conn.wbuf:
            self._close(conn)

    def _close(self, conn: _Conn) -> None:
        conn.closing = True
        self._conns.discard(conn)
        self._selector.unregister(conn.sock)
        conn.sock.close()

    def _want(self, sock: socket.socket, events: int) -> None:
        key = self._selector.get_key(sock)
        if key.events != events:
            self._selector.modify(sock, events, key.data)

    # -- inline clients (see connect) ----------------------------------------

    def _attach(self, sock: socket.socket, timeout: float) -> _Conn:
        """Register an inline client's socket, accept its connection, and
        return the server side of it: the accepted peer whose address is
        the client's own."""
        sock.setblocking(False)
        self._selector.register(sock, selectors.EVENT_READ, _client_ready)
        name = sock.getsockname()
        while True:
            for conn in self._conns:
                if conn.addr == name:
                    return conn
            self._wait(self._listener, selectors.EVENT_READ, timeout)

    def _detach(self, sock: socket.socket, peer: _Conn | None) -> None:
        keys = self._selector.get_map()  # None once stop() closed the selector
        if keys is not None and sock in keys:
            self._selector.unregister(sock)
        if peer in self._conns:
            self._close(peer)

    def _wait(self, sock: socket.socket, events: int, timeout: float) -> None:
        """One loop round on the caller's thread, for an inline client that
        waits for ``events`` on ``sock``. The round ends once that socket or
        any socket of the server is ready."""
        if self._stopping.is_set():
            raise ConnectionAbortedError("the sink server has stopped")
        self._want(sock, events)
        if not self._poll(timeout):
            raise TimeoutError("timed out waiting for the sink")


class RemoteSink:
    """Client-side proxy with the same call surface and exception behavior
    as an in-process CloudSink.

    ``server`` is set by ``SinkServer.connect``: the client's socket is then
    non-blocking, and each call has that server answer the client's peer.
    """

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout_s: float = 5.0,
        *,
        server: SinkServer | None = None,
    ) -> None:
        self._addr = (host, port)
        self._timeout = connect_timeout_s
        self._server = server
        self._sock: socket.socket | None = None
        self._peer: _Conn | None = None  # the server side of an inline client
        self._lock = threading.Lock()

    def _conn(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(self._addr, timeout=self._timeout)
            if self._server is not None:
                self._peer = self._server._attach(self._sock, self._timeout)
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                if self._server is not None:
                    self._server._detach(self._sock, self._peer)
                self._sock.close()
            finally:
                self._sock = None
                self._peer = None

    def _call(self, request: dict, payload: bytes | None, read: Callable[[dict], _T]) -> _T:
        """Send one request and return ``read`` of its reply. A refusal in the
        reply raises the sink's own exception."""
        frame = _frame(request, payload)
        with self._lock:
            # Any failure leaves the stream at an unknown offset: a reply
            # read after it could belong to this request, so reconnect. A
            # reply whose fields do not parse counts as such a failure.
            try:
                response = self._exchange(self._conn(), frame)
                self._raise_on_error(response)
                return read(response)
            except OSError as exc:
                self.close()
                raise WireError(f"sink connection failed: {exc}") from None
            except WireError:
                self.close()
                raise

    def _exchange(self, sock: socket.socket, frame: bytes) -> dict:
        """Send one request frame and return the reply frame's body."""
        out = memoryview(frame)
        while out:
            try:
                out = out[sock.send(out):]
            except BlockingIOError:
                self._server._wait(sock, selectors.EVENT_WRITE, self._timeout)
        peer = self._peer
        if peer is not None and peer in self._server._conns:
            self._server._serve(peer)  # answers now unless bytes are in flight
        buf = bytearray()
        while True:
            reply = _take_frame(buf)
            if reply is not None:
                return reply[0]
            try:
                data = sock.recv(_RECV_BYTES)
            except BlockingIOError:
                self._server._wait(sock, selectors.EVENT_READ, self._timeout)
                continue
            if not data:
                raise WireError("connection closed mid-frame" if buf else "sink closed the connection")
            buf += data

    def append(self, token: str, record_bytes: bytes, received_at=None) -> int:
        return self._call({"op": "APPEND", "token": token}, record_bytes, _row_index)

    def query_policy(self, token: str, uid: Uid) -> AccessPolicy | None:
        return self._call({"op": "QUERY", "token": token, "uid": uid.value}, None, _policy)

    @staticmethod
    def _raise_on_error(response: dict) -> None:
        if response.get("ok"):
            return
        code = response.get("error")
        message = str(response.get("message", ""))
        for known, cls in _ERROR_CODES:
            if code == known:
                raise cls(message)
        raise WireError(f"{code}: {message}")


def _row_index(response: dict) -> int:
    row = response.get("row_index")
    if type(row) is not int or row < 0:
        raise WireError(f"malformed reply: bad row_index {row!r}")
    return row


def _policy(response: dict) -> AccessPolicy | None:
    if not response.get("found"):
        return None
    try:
        return AccessPolicy.from_dict(response["policy"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed reply: bad policy: {exc!r}") from None
