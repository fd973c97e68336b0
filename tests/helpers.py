"""Test drivers that run the simulator through its own event path.

``decide`` and ``drain`` step a ``SimClock`` one callback at a time until
an engine has decided a request or a sync client has emptied its queue.
``read_frame`` and ``write_frame`` are blocking socket ends for the wire's
length-prefixed frames, a JSON header line and an optional payload; the
sink's own ends work on a buffer per connection instead. ``stored_rows``
reads a sink table's rows back as decoded records, and ``streamed`` is the
snapshot text a sink writes.
"""

from __future__ import annotations

import io
import socket
from typing import NamedTuple

from edgegate import codec
from edgegate.codec import CloudRecord
from edgegate.core import Timestamp
from edgegate.wire import _LEN, WireError, _body_length, _frame, _take_frame

# The events that end a request: exactly one of them per handle_request.
DECISION_KINDS = frozenset(("auth_decision", "rejected_input", "gate_busy"))
# Clock steps a drain may take before the transport counts as stuck.
DRAIN_BUDGET = 10_000_000


def decide(engine, clock, raw_uid: str, request_id: str | None = None) -> tuple[str, dict]:
    """Present ``raw_uid`` to ``engine`` and step ``clock`` until that
    request's decision event, returned as ``(kind, data)``. Stops at the
    decision instant: later callbacks (the gate closing, a late cloud
    reply) stay scheduled."""
    emit = engine._event_out
    seen: list[tuple[str, dict]] = []

    def tap(kind: str, data: dict) -> None:
        emit(kind, data)
        if kind in DECISION_KINDS and data["request_id"] == request_id:
            seen.append((kind, data))

    engine._event_out = tap
    try:
        engine.handle_request(raw_uid, request_id=request_id)
        while not seen:
            assert clock.run_next(), "clock ran out before the decision"
    finally:
        engine._event_out = emit
    return seen[0]


def drain(client, clock) -> None:
    """Step ``clock`` until ``client``'s outbox is empty. An empty queue
    means nothing is in flight, so the client is idle."""
    for _ in range(DRAIN_BUDGET):
        if client.queue_depth() == 0:
            return
        assert clock.run_next(), "clock ran out with records still queued"
    raise AssertionError(f"queue not empty after {DRAIN_BUDGET} events")


def write_frame(sock: socket.socket, obj: dict, payload: bytes | None = None) -> None:
    sock.sendall(_frame(obj, payload))


def read_frame(sock: socket.socket) -> tuple[dict, bytes] | None:
    """Next frame as its header dict and payload bytes (empty when it has
    none), or None on clean EOF at a frame boundary."""
    header = _read_exact(sock, _LEN.size)
    if header is None:
        return None
    body = _read_exact(sock, _body_length(header))
    if body is None:
        raise WireError("connection closed mid-frame")
    return _take_frame(bytearray(header + body))


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


class StoredRow(NamedTuple):
    row_index: int
    received_at: Timestamp
    record: CloudRecord


def stored_rows(table) -> list[StoredRow]:
    """Each row of a sink table as its index, received-at time and decoded
    record."""
    return [
        StoredRow(row_index, Timestamp(*divmod(ms, 1000)), codec.decode(payload))
        for row_index, ms, payload in table.stored()
    ]


def streamed(sink) -> bytes:
    """What ``sink.write_state`` wrote: the ``sink.json`` a run saves."""
    written = io.BytesIO()
    sink.write_state(written.write)
    return written.getvalue()
