"""Wire protocol: framing, malformed input, and stable error codes."""

import json
import socket
import struct

import pytest

from repro.budget import QueryBudget
from repro.errors import (
    CatalogError,
    ConstraintViolation,
    DatabaseError,
    DivergenceError,
    ExecutionError,
    FencedError,
    IntegrityError,
    OverloadedError,
    PlanningError,
    ProtocolError,
    QueryCancelledError,
    QueryTimeoutError,
    ReadOnlyError,
    CrossShardAbortError,
    CrossShardPartialError,
    ReplicationError,
    ResourceExhaustedError,
    ShardRedirectError,
    ShardUnavailableError,
    ShuttingDownError,
    SqlSyntaxError,
    TransactionError,
    TypeMismatchError,
)
from repro.server.protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    FrameReader,
    budget_from_wire,
    budget_to_wire,
    encode_frame,
    error_code_for,
    jsonable_row,
    read_frame,
    send_frame,
)


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class ScriptedSocket:
    """A socket whose ``recv`` hands out ``pieces`` in order (at most the
    asked-for size each time), then EOF: arrival boundaries on demand."""

    def __init__(self, pieces):
        self.pieces = [bytes(piece) for piece in pieces if piece]

    def recv(self, size, flags=0):
        if not self.pieces:
            return b""
        piece = self.pieces[0]
        if len(piece) > size:
            self.pieces[0] = piece[size:]
        else:
            self.pieces.pop(0)
        return piece[:size]


def read_all(read):
    """Every frame ``read()`` yields up to EOF, then the final outcome:
    ``None`` for a clean EOF or the error message."""
    frames = []
    try:
        while True:
            frame = read()
            if frame is None:
                return frames, None
            frames.append(frame)
    except ProtocolError as error:
        return frames, str(error)


def both_readers(pieces):
    """What ``read_frame`` and a ``FrameReader`` make of the same bytes,
    arriving as ``pieces``."""
    exact = ScriptedSocket(pieces)
    buffered = FrameReader(ScriptedSocket(pieces))
    return read_all(lambda: read_frame(exact)), read_all(buffered.read_frame)


#: The frames of the tests above and of the error-code contract below,
#: plus a result set: requests, responses, unicode, every stable code.
WIRE_FRAMES = [
    {"type": "HELLO", "protocol": 1, "session": "s"},
    {"type": "QUERY", "id": 7, "sql": "SELECT 1", "n": None},
    {"type": "ROWS", "rows": [["héllo", "日本語"]]},
    {"type": "RESULT_HEAD", "id": 3, "columns": ["a", "b"]},
    {"type": "ROWS", "id": 3, "rows": [[i, f"v{i}"] for i in range(300)]},
    {"type": "RESULT_END", "id": 3, "rows": 300, "rowcount": 300},
] + [
    {"type": "ERROR", "id": i, "code": code, "message": ERROR_CODES[code]}
    for i, code in enumerate(sorted(ERROR_CODES))
] + [{"type": "PING", "id": i} for i in range(50)]


class TestFraming:
    def test_roundtrip(self, pair):
        a, b = pair
        message = {"type": "QUERY", "id": 7, "sql": "SELECT 1", "n": None}
        send_frame(a, message)
        assert read_frame(b) == message

    def test_many_frames_in_order(self, pair):
        a, b = pair
        for i in range(50):
            send_frame(a, {"type": "PING", "id": i})
        for i in range(50):
            assert read_frame(b)["id"] == i

    def test_unicode_payload(self, pair):
        a, b = pair
        send_frame(a, {"type": "ROWS", "rows": [["héllo", "日本語"]]})
        assert read_frame(b)["rows"] == [["héllo", "日本語"]]

    def test_clean_eof_returns_none(self, pair):
        a, b = pair
        a.close()
        assert read_frame(b) is None

    def test_torn_frame_is_protocol_error(self, pair):
        a, b = pair
        frame = encode_frame({"type": "PING"})
        a.sendall(frame[: len(frame) - 3])  # header + partial payload
        a.close()
        with pytest.raises(ProtocolError):
            read_frame(b)

    def test_truncated_header_is_protocol_error(self, pair):
        a, b = pair
        a.sendall(b"\x00\x00")  # half a length prefix
        a.close()
        with pytest.raises(ProtocolError):
            read_frame(b)

    def test_oversized_length_prefix_rejected(self, pair):
        a, b = pair
        a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError):
            read_frame(b)

    def test_invalid_json_rejected(self, pair):
        a, b = pair
        payload = b"{not json"
        a.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(ProtocolError):
            read_frame(b)

    def test_non_object_payload_rejected(self, pair):
        a, b = pair
        payload = b"[1, 2, 3]"
        a.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(ProtocolError):
            read_frame(b)

    def test_object_without_type_rejected(self, pair):
        a, b = pair
        payload = b'{"id": 1}'
        a.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(ProtocolError):
            read_frame(b)

    def test_encode_rejects_oversized_message(self):
        with pytest.raises(ProtocolError):
            encode_frame({"type": "ROWS", "x": "a" * (MAX_FRAME_BYTES + 1)})

    def test_encoding_is_compact_json(self):
        message = {"type": "ROWS", "id": 1, "rows": [[1, "é", None, 2.5]]}
        payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
        assert encode_frame(message) == struct.pack(">I", len(payload)) + payload

    # -- the buffered reader against the exact one ----------------------

    def test_frame_reader_one_send(self, pair):
        a, b = pair
        a.sendall(b"".join(encode_frame(m) for m in WIRE_FRAMES))
        a.close()
        assert read_all(FrameReader(b).read_frame) == (WIRE_FRAMES, None)

    def test_frame_reader_one_byte_per_recv(self):
        data = b"".join(encode_frame(m) for m in WIRE_FRAMES)
        exact, buffered = both_readers([data[i:i + 1] for i in range(len(data))])
        assert exact == buffered == (WIRE_FRAMES, None)

    def test_frame_reader_split_at_every_offset(self):
        frames = [WIRE_FRAMES[1], WIRE_FRAMES[2]]
        data = b"".join(encode_frame(m) for m in frames)
        for cut in range(1, len(data)):
            exact, buffered = both_readers([data[:cut], data[cut:]])
            assert exact == buffered == (frames, None), cut

    def test_frame_reader_clean_eof_at_boundary(self, pair):
        a, b = pair
        send_frame(a, {"type": "PING"})
        a.close()
        reader = FrameReader(b)
        assert reader.read_frame() == {"type": "PING"}
        assert reader.read_frame() is None

    @pytest.mark.parametrize("data", [
        b"\x00\x00",                                   # EOF in the prefix
        struct.pack(">I", 9),                          # EOF after the prefix
        encode_frame({"type": "PING"})[:-3],           # EOF in the payload
        struct.pack(">I", MAX_FRAME_BYTES + 1),        # oversized prefix
        struct.pack(">I", 3) + b"\xff\xfe{",           # not UTF-8
        struct.pack(">I", 9) + b"{not json",           # not JSON
        struct.pack(">I", 9) + b"[1, 2, 3]",           # not an object
        struct.pack(">I", 9) + b'{"id": 1}',           # no type
    ])
    def test_frame_reader_errors_match_read_frame(self, data):
        ping = encode_frame({"type": "PING"})
        exact, buffered = both_readers([ping + data])
        assert exact == buffered
        assert exact[0] == [{"type": "PING"}] and exact[1] is not None

    def test_poll_takes_what_arrived_and_reports_eof(self, pair):
        a, b = pair
        reader = FrameReader(b)
        assert reader.poll() is True  # nothing yet, still connected
        send_frame(a, {"type": "PING", "id": 1})
        assert reader.poll() is True
        a.close()
        assert reader.poll() is False
        assert reader.read_frame() == {"type": "PING", "id": 1}
        assert reader.read_frame() is None


class TestErrorCodes:
    """The code for each exception is a wire contract: clients dispatch
    on it, so these assignments must never drift."""

    CONTRACT = [
        (QueryTimeoutError("t"), "TIMEOUT"),
        (ResourceExhaustedError("r"), "BUDGET_EXCEEDED"),
        (QueryCancelledError("c"), "CANCELLED"),
        (ReadOnlyError("ro"), "READ_ONLY"),
        (IntegrityError("i"), "CONSTRAINT_VIOLATION"),
        (ConstraintViolation("cv"), "CONSTRAINT_VIOLATION"),
        (TypeMismatchError("tm"), "TYPE_MISMATCH"),
        (SqlSyntaxError("s"), "PARSE_ERROR"),
        (CatalogError("c"), "CATALOG_ERROR"),
        (PlanningError("p"), "PLANNING_ERROR"),
        (TransactionError("t"), "TRANSACTION_ERROR"),
        (OverloadedError("o"), "OVERLOADED"),
        (ShuttingDownError("s"), "SHUTTING_DOWN"),
        (ProtocolError("p"), "PROTOCOL_ERROR"),
        (FencedError("f"), "FENCED"),
        (DivergenceError("d"), "DIVERGED"),
        (ReplicationError("r"), "REPLICATION_ERROR"),
        (ShardRedirectError("s", shard_hint={"shard": 1}), "SHARD_REDIRECT"),
        (ShardUnavailableError("s", shard=1), "SHARD_UNAVAILABLE"),
        (CrossShardAbortError("a"), "CROSS_SHARD_ABORT"),
        (CrossShardPartialError("p", failed_shards=[2]),
         "CROSS_SHARD_PARTIAL"),
        (ExecutionError("e"), "EXECUTION_ERROR"),
        (DatabaseError("d"), "DATABASE_ERROR"),
    ]

    def test_contract(self):
        for error, code in self.CONTRACT:
            assert error_code_for(error) == code, type(error).__name__

    def test_subclass_beats_base(self):
        # QueryTimeoutError IS a ResourceExhaustedError; the wire code
        # must still distinguish them
        assert error_code_for(QueryTimeoutError("t")) == "TIMEOUT"
        assert error_code_for(IntegrityError("i")) != "EXECUTION_ERROR"

    def test_unknown_exception_is_internal(self):
        assert error_code_for(ValueError("x")) == "INTERNAL_ERROR"
        assert error_code_for(ZeroDivisionError()) == "INTERNAL_ERROR"

    def test_every_code_is_documented(self):
        for error, code in self.CONTRACT:
            assert code in ERROR_CODES
        for extra in ("AUTH_FAILED", "UNSUPPORTED", "INTERNAL_ERROR"):
            assert extra in ERROR_CODES


class TestValuePlumbing:
    def test_jsonable_row_passthrough(self):
        row = (1, 2.5, "x", True, None)
        assert jsonable_row(row) == [1, 2.5, "x", True, None]

    def test_jsonable_row_degrades_exotic_values(self):
        class Weird:
            def __str__(self):
                return "weird"

        assert jsonable_row((Weird(),)) == ["weird"]

    def test_budget_roundtrip(self):
        budget = QueryBudget(timeout_ms=250, max_rows=10)
        wire = budget_to_wire(budget)
        assert wire == {"timeout_ms": 250, "max_rows": 10}
        assert budget_from_wire(wire) == budget
        assert budget_from_wire(None) is None
        assert budget_to_wire(None) is None

    def test_budget_unknown_knob_rejected(self):
        with pytest.raises(ProtocolError):
            budget_from_wire({"max_bananas": 3})

    def test_budget_invalid_value_rejected(self):
        with pytest.raises(ProtocolError):
            budget_from_wire({"timeout_ms": -5})
        with pytest.raises(ProtocolError):
            budget_from_wire("not an object")
