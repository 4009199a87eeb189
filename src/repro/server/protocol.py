"""The wire protocol: length-prefixed JSON frames with stable error codes.

One frame is::

    +-------------------------------+------------------------------+
    | 4-byte big-endian payload len | UTF-8 JSON object (payload)  |
    +-------------------------------+------------------------------+

Every payload is a JSON object with a ``type`` field. The connection
life cycle is::

    client                               server
    ------                               ------
    HELLO {protocol, auth?, session?} ->
                                      <- HELLO_OK {session, role, ...}
                                      <- ERROR {code: AUTH_FAILED} + close
    QUERY {id, sql, budget?, trace?}  ->
                                      <- RESULT_HEAD {id, columns}
                                      <- ROWS {id, rows}          (0..n)
                                      <- RESULT_END {id, rowcount, ...}
                                      <- ERROR {id, code, message}
    PREPARE {id, sql, trace?}         ->
                                      <- PREPARED {id, statement, params}
    EXECUTE {id, statement, params,
             trace?}                  ->
                                      <- result-set frames as above
    SET_BUDGET {budget|null}          ->
                                      <- OK
    METRICS {filter?}                 ->
                                      <- METRICS {text}
    HEALTH                            ->
                                      <- HEALTH {state, liveness, ...}
    CLUSTER_STATE                     ->
                                      <- CLUSTER_STATE {node, role, epoch,
                                                        sequence, lag,
                                                        leader?, peers?}
    SHARD_STATE                       ->
                                      <- SHARD_STATE {sharded, ...}
    TRACES {trace_id?, limit?}        ->
                                      <- TRACES {node, spans}
    EVENTS {kind?, limit?}            ->
                                      <- EVENTS {node, events}
    SLOWLOG                           ->
                                      <- SLOWLOG {node, threshold_ms,
                                                  entries}
    PING                              ->
                                      <- PONG
    CLOSE                             ->
                                      <- GOODBYE + close

``trace`` is an optional W3C-traceparent-style stamp
(``00-<trace_id>-<span_id>-<flags>``, see
:mod:`repro.observability.tracing`); the server adopts it so the
statement's server-side spans join the client's trace. ``TRACES``,
``EVENTS`` and ``SLOWLOG`` read this node's span collector, event
journal and slow-query log — the same documents the per-node HTTP
endpoint serves at ``/traces``, ``/events`` and (for the slow-query
log) the shell's ``\\slow show``.

``SHARD_STATE`` is answered by *every* server, so probes need no
special case: a plain server replies ``{sharded: false}`` (plus its
shard identity when it was started as one shard of a sharded
deployment); a :class:`~repro.sharding.router.Router` replies
``{sharded: true}`` with the shard map, per-table partition columns,
per-shard health, and the router's routing counters.

Result sets stream in bounded ``ROWS`` frames (``ROW_BATCH`` rows per
frame) so a large ``PATHS`` enumeration never requires a monster frame.

Error codes are **stable**: clients dispatch on the code, never on the
message text. The mapping from engine exceptions lives here
(:func:`error_code_for`) so the server and the docs cannot drift.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional, Tuple

from ..errors import (
    CatalogError,
    ConstraintViolation,
    DatabaseError,
    DegradedError,
    DivergenceError,
    DurabilityError,
    ExecutionError,
    FencedError,
    IntegrityError,
    NotPrimaryError,
    OverloadedError,
    PlanningError,
    ProtocolError,
    QueryCancelledError,
    QueryTimeoutError,
    ReadOnlyError,
    ReplicationError,
    ResourceExhaustedError,
    ShardRedirectError,
    ShardUnavailableError,
    CrossShardAbortError,
    CrossShardPartialError,
    ShuttingDownError,
    SqlSyntaxError,
    TransactionError,
    TypeMismatchError,
)

#: Protocol revision; HELLO carries the client's, HELLO_OK the server's.
PROTOCOL_VERSION = 1

#: Hard cap on one frame's payload (guards against a corrupt or hostile
#: length prefix allocating unbounded memory).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Rows per ROWS frame.
ROW_BATCH = 256

_LENGTH = struct.Struct(">I")

# ---------------------------------------------------------------------------
# stable error codes
# ---------------------------------------------------------------------------

#: ``(exception type, code)`` — order matters: subclasses come before
#: their bases so the most specific stable code wins.
_ERROR_CODE_TABLE: Tuple[Tuple[type, str], ...] = (
    (QueryTimeoutError, "TIMEOUT"),
    (ResourceExhaustedError, "BUDGET_EXCEEDED"),
    (QueryCancelledError, "CANCELLED"),
    (ReadOnlyError, "READ_ONLY"),
    (DegradedError, "DEGRADED"),
    (DurabilityError, "DURABILITY_ERROR"),
    (IntegrityError, "CONSTRAINT_VIOLATION"),
    (ConstraintViolation, "CONSTRAINT_VIOLATION"),
    (TypeMismatchError, "TYPE_MISMATCH"),
    (SqlSyntaxError, "PARSE_ERROR"),
    (CatalogError, "CATALOG_ERROR"),
    (PlanningError, "PLANNING_ERROR"),
    (TransactionError, "TRANSACTION_ERROR"),
    (ShardRedirectError, "SHARD_REDIRECT"),
    (ShardUnavailableError, "SHARD_UNAVAILABLE"),
    (CrossShardAbortError, "CROSS_SHARD_ABORT"),
    (CrossShardPartialError, "CROSS_SHARD_PARTIAL"),
    (OverloadedError, "OVERLOADED"),
    (ShuttingDownError, "SHUTTING_DOWN"),
    (ProtocolError, "PROTOCOL_ERROR"),
    (NotPrimaryError, "NOT_PRIMARY"),
    (FencedError, "FENCED"),
    (DivergenceError, "DIVERGED"),
    (ReplicationError, "REPLICATION_ERROR"),
    (ExecutionError, "EXECUTION_ERROR"),
    (DatabaseError, "DATABASE_ERROR"),
)

#: code -> human description (the docs render exactly this table).
ERROR_CODES: Dict[str, str] = {
    "TIMEOUT": "statement exceeded its wall-clock budget",
    "BUDGET_EXCEEDED": "statement exceeded a resource-governor cap",
    "CANCELLED": "statement cancelled (client disconnect or kill)",
    "READ_ONLY": "write rejected: this server is a read-only replica",
    "DEGRADED": "write rejected: a durable-write failure put the engine "
    "in read-only degraded mode (reads still flow)",
    "DURABILITY_ERROR": "the durable-write path failed; the statement was "
    "not acknowledged and the engine degraded",
    "CONSTRAINT_VIOLATION": "primary-key / not-null / graph integrity violation",
    "TYPE_MISMATCH": "value cannot be coerced to the declared column type",
    "PARSE_ERROR": "SQL failed to lex or parse",
    "CATALOG_ERROR": "unknown or duplicate table / view / index",
    "PLANNING_ERROR": "statement cannot be planned",
    "TRANSACTION_ERROR": "invalid transaction state transition",
    "OVERLOADED": "write queue full; back off and retry",
    "SHUTTING_DOWN": "server is draining; no new statements",
    "PROTOCOL_ERROR": "malformed frame or message",
    "AUTH_FAILED": "authentication token rejected",
    "UNSUPPORTED": "request type not supported by this server",
    "NOT_PRIMARY": "write sent to a non-primary cluster node; follow the "
    "ERROR frame's leader_hint (the statement was never executed, so the "
    "redirected retry is safe)",
    "FENCED": "node was deposed by a failover; writes go to the new primary",
    "SHARD_REDIRECT": "statement sent to a shard that does not own its "
    "partition key (stale shard map); rejected before execution, so the "
    "rerouted retry is safe even for writes",
    "SHARD_UNAVAILABLE": "a shard this statement needs cannot be reached; "
    "no partial results were returned",
    "CROSS_SHARD_ABORT": "a multi-partition write failed and was rolled "
    "back everywhere; no shard retains any effect",
    "CROSS_SHARD_PARTIAL": "a multi-partition write applied on some shards "
    "but a failed shard could not be compensated; do not retry blindly",
    "DIVERGED": "replica quarantined itself after a digest mismatch",
    "REPLICATION_ERROR": "replication protocol or topology problem",
    "EXECUTION_ERROR": "runtime failure while executing the statement",
    "DATABASE_ERROR": "unclassified engine error",
    "INTERNAL_ERROR": "unexpected server-side failure (bug)",
}


def error_code_for(error: BaseException) -> str:
    """The stable wire code for an engine exception."""
    for exc_type, code in _ERROR_CODE_TABLE:
        if isinstance(error, exc_type):
            return code
    return "INTERNAL_ERROR"


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


#: ``json.dumps(message, separators=(",", ":"))`` without building a new
#: encoder per frame.
_ENCODER = json.JSONEncoder(separators=(",", ":"))

#: Bytes asked of one ``recv`` by the buffered reader.
_RECV_BYTES = 1 << 16


def encode_frame(message: Dict[str, Any]) -> bytes:
    """Serialize one message into a length-prefixed frame."""
    payload = _ENCODER.encode(message).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(payload)) + payload


def send_frame(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Encode and transmit one frame (callers serialize access)."""
    sock.sendall(encode_frame(message))


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte limit"
        )


def _decode_payload(payload) -> Dict[str, Any]:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame payload is not valid JSON: {error}")
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame payload must be an object with a 'type'")
    return message


def _recv_exactly(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes, or None on a clean EOF at a frame
    boundary. EOF *inside* a frame is a protocol error (torn frame)."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            if remaining == count and not chunks:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame; None on clean EOF before a length prefix.

    Raises :class:`~repro.errors.ProtocolError` for a torn frame, an
    oversized length prefix, invalid JSON, or a non-object payload.
    """
    header = _recv_exactly(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    _check_length(length)
    payload = _recv_exactly(sock, length) if length else b""
    if payload is None:
        raise ProtocolError("connection closed between length and payload")
    return _decode_payload(payload)


class FrameReader:
    """Buffered frames from one socket: one ``recv`` per burst of frames.

    :func:`read_frame` reads exactly one frame and nothing past it (two
    ``recv`` calls or more); this reader takes whatever has arrived and
    hands it out frame by frame, so a response's ``RESULT_HEAD`` /
    ``ROWS`` / ``RESULT_END`` or a client's pipelined requests cost one
    ``recv``. Use one reader per connection for its whole life: bytes it
    has buffered are not in the socket any more. Outcomes and error
    messages are :func:`read_frame`'s.
    """

    __slots__ = ("sock", "buffer")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buffer = bytearray()

    def read_frame(self) -> Optional[Dict[str, Any]]:
        """The next frame; None on clean EOF at a frame boundary."""
        buffer = self.buffer
        while True:
            have = len(buffer)
            if have >= _LENGTH.size:
                (length,) = _LENGTH.unpack_from(buffer)
                _check_length(length)
                end = _LENGTH.size + length
                if have >= end:
                    payload = buffer[_LENGTH.size:end]
                    del buffer[:end]
                    return _decode_payload(payload)
            chunk = self.sock.recv(_RECV_BYTES)
            if not chunk:
                return self._eof()
            buffer += chunk

    def poll(self) -> bool:
        """Move what the peer has sent into the buffer without blocking.

        False once the peer is gone (EOF or a socket error); True while
        it is connected, whether or not anything arrived.
        """
        try:
            chunk = self.sock.recv(_RECV_BYTES, socket.MSG_DONTWAIT)
        except BlockingIOError:
            return True
        except OSError:
            return False
        self.buffer += chunk
        return bool(chunk)

    def _eof(self) -> None:
        have = len(self.buffer)
        if not have:
            return None
        if have < _LENGTH.size:
            raise ProtocolError(
                f"connection closed mid-frame ({have} of "
                f"{_LENGTH.size} bytes received)"
            )
        if have == _LENGTH.size:
            raise ProtocolError("connection closed between length and payload")
        (length,) = _LENGTH.unpack_from(self.buffer)
        raise ProtocolError(
            f"connection closed mid-frame ({have - _LENGTH.size} of "
            f"{length} bytes received)"
        )


# ---------------------------------------------------------------------------
# value plumbing
# ---------------------------------------------------------------------------


def jsonable_row(row) -> list:
    """A result row with every value JSON-representable.

    Engine values are SQL scalars (int/float/str/bool/None) already;
    anything exotic (a Path object leaking through a projection, say)
    degrades to ``str`` rather than killing the connection.
    """
    out = []
    for value in row:
        if value is None or isinstance(value, (bool, int, float, str)):
            out.append(value)
        else:
            out.append(str(value))
    return out


def budget_from_wire(spec: Optional[Dict[str, Any]]):
    """Decode a budget object from a message (None passes through).

    Unknown knobs and invalid values are protocol errors — the caps a
    client *thinks* it set must actually be the caps in force.
    """
    from ..budget import QueryBudget

    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ProtocolError("budget must be an object of budget knobs")
    try:
        return QueryBudget(**spec)
    except TypeError as error:
        raise ProtocolError(f"bad budget: {error}")
    except ValueError as error:
        raise ProtocolError(f"bad budget: {error}")


def budget_to_wire(budget) -> Optional[Dict[str, Any]]:
    """Encode a QueryBudget as its non-None knobs (None stays None)."""
    if budget is None:
        return None
    from ..budget import _KNOBS

    return {
        knob: getattr(budget, knob)
        for knob in _KNOBS
        if getattr(budget, knob) is not None
    }
