"""The client's one retry ladder.

Every retried failure (a dropped connection, ``NOT_PRIMARY``,
``SHARD_REDIRECT``, ``OVERLOADED``) draws on one ``max_attempts``
budget, is counted in ``client.stats``, and backs off *outside* the
request lock, so a retrying thread never stalls the others sharing the
client. A reply that misses the ``timeout`` deadline is not retried.
"""

import socket
import threading

import pytest

from repro.client import Client
from repro.core.database import Database
from repro.errors import (
    ClientConnectionError,
    NotPrimaryError,
    OverloadedError,
    RemoteError,
    ShardRedirectError,
)
from repro.resilience.retry import RetryPolicy
from repro.server import Server

ZERO_STATS = {
    "reconnects": 0,
    "reconnect_attempts": 0,
    "overloaded_retries": 0,
    "overloaded_gave_up": 0,
    "leader_redirects": 0,
    "shard_redirects": 0,
    "replica_reads": 0,
    "replica_fallbacks": 0,
}

RESULT = [
    {"type": "RESULT_HEAD", "columns": ["a"]},
    {"type": "ROWS", "rows": [[1]]},
    {"type": "RESULT_END", "rowcount": 1},
]


def policy(max_attempts, slept):
    return RetryPolicy(
        base_delay=0.01, max_delay=0.1, multiplier=2.0, jitter=0.0,
        max_attempts=max_attempts, sleep=slept.append,
    )


def refused_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class _RefusingServer(Server):
    """Answers every QUERY with one error, raised before execution."""

    def __init__(self, error):
        super().__init__(Database())
        self.error = error

    def _run_statement(self, session, request):
        if request.get("type") == "QUERY":
            raise self.error
        return super()._run_statement(session, request)


class TestNoBackoffHoldsTheLock:
    def _lock_states(self, client):
        held = []
        client.retry_policy.sleep = (
            lambda delay: held.append(client._lock.locked())
        )
        return held

    def test_redial_to_a_refused_port(self):
        client = Client(
            "127.0.0.1", refused_port(), connect_timeout=1.0,
            retry_policy=policy(3, []),
        )
        held = self._lock_states(client)
        with pytest.raises(ClientConnectionError):
            client.execute("SELECT 1")
        assert held == [False, False]
        assert client.stats["reconnect_attempts"] == 2

    @pytest.mark.parametrize(
        "error, code",
        [
            (NotPrimaryError("not the leader", leader_hint=None),
             "NOT_PRIMARY"),
            (ShardRedirectError("partition key moved"), "SHARD_REDIRECT"),
            (OverloadedError("write queue full"), "OVERLOADED"),
        ],
    )
    def test_refused_statement(self, error, code):
        server = _RefusingServer(error).start()
        try:
            client = Client(*server.address, retry_policy=policy(3, []))
            held = self._lock_states(client)
            with client:
                with pytest.raises(RemoteError) as raised:
                    client.execute("SELECT 1")
            assert raised.value.code == code
            assert held == [False, False]
        finally:
            server.shutdown(drain=False, timeout=10)


class TestSharedBudget:
    def _scripted(self, client, outcomes):
        """Replace the one-attempt seam with ``outcomes``, in order; the
        returned list records each attempt's ``redial`` flag."""
        redials = []

        def attempt(message, redial, until):
            redials.append(redial)
            outcome = outcomes[len(redials) - 1]
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        client._attempt = attempt
        return redials

    def _outcomes(self):
        return [
            RemoteError(
                "NOT_PRIMARY", "not the leader",
                leader_hint={"node": "n2", "host": "10.0.0.2", "port": 7071},
            ),
            RemoteError("OVERLOADED", "write queue full"),
            ClientConnectionError("server closed the connection"),
            RESULT,
        ]

    def test_every_cause_draws_on_one_budget(self):
        slept = []
        client = Client("127.0.0.1", 1, retry_policy=policy(4, slept))
        redials = self._scripted(client, self._outcomes())
        assert client.execute("SELECT a FROM t").rows == [(1,)]
        assert redials == [False, False, False, True]
        # a hinted redirect retries at once; the others back off
        assert slept == [0.02, 0.04]
        assert client._leader == ("10.0.0.2", 7071)
        assert client.stats == dict(
            ZERO_STATS,
            leader_redirects=1, overloaded_retries=1, reconnect_attempts=1,
        )

    def test_exhausted_budget_raises_the_last_error(self):
        slept = []
        client = Client("127.0.0.1", 1, retry_policy=policy(3, slept))
        redials = self._scripted(client, self._outcomes())
        with pytest.raises(ClientConnectionError):
            client.execute("SELECT a FROM t")
        assert len(redials) == 3
        assert slept == [0.02]
        assert client.stats == dict(
            ZERO_STATS, leader_redirects=1, overloaded_retries=1,
        )

    def test_a_dropped_write_is_never_resent(self):
        slept = []
        client = Client("127.0.0.1", 1, retry_policy=policy(4, slept))
        redials = self._scripted(
            client, [ClientConnectionError("send failed"), RESULT],
        )
        with pytest.raises(ClientConnectionError):
            client.execute("INSERT INTO t VALUES (1)")
        assert redials == [False]
        assert slept == []
        assert client.stats == ZERO_STATS


class _StallingServer(Server):
    """Holds every QUERY until ``release`` is set."""

    def __init__(self):
        super().__init__(Database())
        self.release = threading.Event()
        self.queries = 0

    def _run_statement(self, session, request):
        if request.get("type") == "QUERY":
            self.queries += 1
            self.release.wait(5.0)
        return super()._run_statement(session, request)


def test_a_missed_deadline_is_not_retried():
    """The server is up but slow: re-running the read would only
    multiply the caller's wait and the server's load."""
    server = _StallingServer().start()
    try:
        slept = []
        client = Client(
            *server.address, timeout=0.2, retry_policy=policy(4, slept),
        )
        with client:
            with pytest.raises(ClientConnectionError, match="timed out"):
                client.execute("SELECT 1")
        assert server.queries == 1
        assert slept == []
        assert client.stats == ZERO_STATS
    finally:
        server.release.set()
        server.shutdown(drain=False, timeout=10)


def test_a_redial_counts_as_a_reconnect():
    server = Server(Database()).start()
    try:
        slept = []
        with Client(*server.address, retry_policy=policy(4, slept)) as client:
            client.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
            client._sock.shutdown(socket.SHUT_RDWR)
            assert client.execute("SELECT a FROM t").rows == []
            assert client.stats == dict(
                ZERO_STATS, reconnect_attempts=1, reconnects=1,
            )
            assert slept == [0.01]
    finally:
        server.shutdown(drain=False, timeout=10)
