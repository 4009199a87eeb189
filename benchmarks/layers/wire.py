"""The benchmark's own wire helpers: a byte-counting loopback relay for the
traced run and a canned-reply stub server for the client probe."""

from __future__ import annotations

import socket
import struct
import threading
from typing import List, Tuple

from repro.server.protocol import encode_frame, read_frame

_LENGTH = struct.Struct(">I")


class CountingRelay:
    """Forwards one listening port to the server and counts the bytes and
    frames that cross it, both directions together."""

    def __init__(self, upstream: Tuple[str, int]):
        self.upstream = upstream
        self.bytes = 0
        self.frames = 0
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._sockets: List[socket.socket] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self._accept = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                downstream, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            upstream = socket.create_connection(self.upstream)
            for sock in (downstream, upstream):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sockets += [downstream, upstream]
            for source, sink in ((downstream, upstream), (upstream, downstream)):
                thread = threading.Thread(
                    target=self._pump, args=(source, sink), daemon=True)
                thread.start()
                self._threads.append(thread)

    def _pump(self, source: socket.socket, sink: socket.socket) -> None:
        """Copy frames one way. Frames are length-prefixed, so counting
        them needs only the prefixes."""
        buffered = b""
        try:
            while True:
                chunk = source.recv(1 << 16)
                if not chunk:
                    break
                sink.sendall(chunk)
                buffered += chunk
                frames = 0
                while len(buffered) >= _LENGTH.size:
                    (length,) = _LENGTH.unpack_from(buffered)
                    if len(buffered) < _LENGTH.size + length:
                        break
                    buffered = buffered[_LENGTH.size + length:]
                    frames += 1
                with self._lock:
                    self.bytes += len(chunk)
                    self.frames += frames
        except OSError:
            pass  # the other side went away
        finally:
            try:
                sink.shutdown(socket.SHUT_WR)
            except OSError:
                pass

    def close(self) -> None:
        # close() alone leaves a thread parked in accept(); shutdown() wakes it
        self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()
        for sock in self._sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        self._accept.join(timeout=5)
        for thread in self._threads:
            thread.join(timeout=5)


class StubServer:
    """Answers ``HELLO`` and then every request with the same pre-encoded
    one-row result, so ``Client.execute`` against it costs the client, the
    framing and a loopback round trip, and no engine at all."""

    def __init__(self) -> None:
        self._reply = b"".join(encode_frame(frame) for frame in (
            {"type": "RESULT_HEAD", "id": 0, "columns": ["v"]},
            {"type": "ROWS", "id": 0, "rows": [[7]]},
            {"type": "RESULT_END", "id": 0, "rows": 1, "rowcount": 0},
        ))
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        try:
            connection, _ = self._listener.accept()
        except OSError:
            return
        with connection:
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            read_frame(connection)  # HELLO
            connection.sendall(encode_frame(
                {"type": "HELLO_OK", "session": "stub", "role": "primary"}))
            while True:
                request = read_frame(connection)
                if request is None or request.get("type") == "CLOSE":
                    return
                connection.sendall(self._reply)

    def close(self) -> None:
        self._listener.close()
        self._thread.join(timeout=5)
