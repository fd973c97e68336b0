"""Socket binding for the mock cloud sink.

Framing: every request and response is a 4-byte big-endian length prefix
followed by a UTF-8 JSON body. Requests carry an ``op`` of APPEND, QUERY or
EXPORT; responses carry ``ok`` plus either the result fields or an ``error``
code that maps one-to-one onto the in-process exception types, so a client
talking over the socket observes exactly the behavior of a local sink.
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading

from . import codec
from .core import AccessPolicy, ClockPort, SystemClock, Uid
from .sink import CloudSink, UnauthorizedError, UnavailableError

MAX_FRAME_BYTES = 16 * 1024 * 1024
_LEN = struct.Struct(">I")
# How often the serving loop checks for shutdown; bounds how long stop() waits.
_POLL_INTERVAL_S = 0.05


class WireError(Exception):
    """Framing or protocol failure on the socket path."""


# Error code on the wire <-> sink-side exception. A subclass precedes its
# base (UnknownEventTypeError is a SchemaError) so the server picks the
# most specific code.
_ERROR_CODES: tuple[tuple[str, type[Exception]], ...] = (
    ("unauthorized", UnauthorizedError),
    ("unavailable", UnavailableError),
    ("unknown_event_type", codec.UnknownEventTypeError),
    ("parse", codec.ParseError),
    ("schema", codec.SchemaError),
)
_MAPPED_ERRORS = tuple(cls for _, cls in _ERROR_CODES)


def write_frame(sock: socket.socket, obj: dict) -> None:
    body = codec.compact_json(obj).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame too large: {len(body)} bytes")
    sock.sendall(_LEN.pack(len(body)) + body)


def read_frame(sock: socket.socket) -> dict | None:
    """Next frame as a dict, or None on clean EOF at a frame boundary."""
    header = _read_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame too large: {length} bytes")
    body = _read_exact(sock, length)
    if body is None:
        raise WireError("connection closed mid-frame")
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"bad frame body: {exc}") from None
    if not isinstance(obj, dict):
        raise WireError("frame body must be a JSON object")
    return obj


def _read_exact(sock: socket.socket, n: int) -> bytes | None:
    """Exactly ``n`` bytes; None on EOF before the first byte."""
    chunks = b""
    while len(chunks) < n:
        part = sock.recv(n - len(chunks))
        if not part:
            if chunks:
                raise WireError("connection closed mid-frame")
            return None
        chunks += part
    return chunks


def _handle_request(sink: CloudSink, clock: ClockPort, request: dict) -> dict:
    op = request.get("op")
    try:
        if op == "APPEND":
            record_text = request.get("record")
            if not isinstance(record_text, str):
                return _err("bad_request", "APPEND requires a 'record' string")
            # A lone surrogate (JSON "\ud800") has no UTF-8 form; passing it
            # through as raw bytes gets the sink's own "not UTF-8" parse error.
            row = sink.append(
                str(request.get("token", "")),
                record_text.encode("utf-8", "surrogatepass"),
                clock.now_ts(),
            )
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
        if op == "EXPORT":
            return {"ok": True, "csv": sink.export_csv().decode("utf-8")}
        return _err("bad_request", f"unknown op: {op!r}")
    except _MAPPED_ERRORS as exc:
        code = next(code for code, cls in _ERROR_CODES if isinstance(exc, cls))
        return _err(code, str(exc))


def _err(code: str, message: str) -> dict:
    return {"ok": False, "error": code, "message": message}


class SinkServer:
    """Threaded TCP host for one CloudSink. Concurrent connections are
    accepted, but a lock serializes every operation so all callers observe a
    single total order of appends."""

    def __init__(
        self,
        sink: CloudSink | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        clock: ClockPort | None = None,
    ) -> None:
        self.sink = sink or CloudSink()
        self._clock = clock or SystemClock()
        self._lock = threading.Lock()
        outer = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:  # one connection, many frames
                while True:
                    try:
                        request = read_frame(self.request)
                    except WireError as exc:
                        try:
                            write_frame(self.request, _err("bad_request", str(exc)))
                        except OSError:
                            pass
                        return
                    if request is None:
                        return
                    with outer._lock:
                        response = _handle_request(outer.sink, outer._clock, request)
                    write_frame(self.request, response)

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = Server((host, port), Handler)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address  # type: ignore[return-value]

    @property
    def port(self) -> int:
        return self.address[1]

    def start(self) -> "SinkServer":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        # shutdown() waits for a serving loop to end, so without one it
        # would wait forever.
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5)
        self._server.server_close()

    def serve_forever(self) -> None:
        self._server.serve_forever(poll_interval=_POLL_INTERVAL_S)

    def __enter__(self) -> "SinkServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


class RemoteSink:
    """Client-side proxy with the same call surface and exception behavior
    as an in-process CloudSink."""

    def __init__(self, host: str, port: int, connect_timeout_s: float = 5.0) -> None:
        self._addr = (host, port)
        self._timeout = connect_timeout_s
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()

    def _conn(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(self._addr, timeout=self._timeout)
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def _call(self, request: dict) -> dict:
        with self._lock:
            try:
                sock = self._conn()
                write_frame(sock, request)
                response = read_frame(sock)
            except OSError as exc:
                self.close()
                raise WireError(f"sink connection failed: {exc}") from None
        if response is None:
            self.close()
            raise WireError("sink closed the connection")
        return response

    def append(self, token: str, record_bytes: bytes, received_at=None) -> int:
        # Bytes that are not UTF-8 cannot travel in a JSON frame; they get
        # the in-process sink's own parse error, before anything is sent.
        record = codec.utf8_text(record_bytes)
        response = self._call({"op": "APPEND", "token": token, "record": record})
        self._raise_on_error(response)
        return int(response["row_index"])

    def query_policy(self, token: str, uid: Uid) -> AccessPolicy | None:
        response = self._call({"op": "QUERY", "token": token, "uid": uid.value})
        self._raise_on_error(response)
        if not response.get("found"):
            return None
        return AccessPolicy.from_dict(response["policy"])

    def export_csv(self) -> bytes:
        response = self._call({"op": "EXPORT"})
        self._raise_on_error(response)
        return str(response["csv"]).encode("utf-8")

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
