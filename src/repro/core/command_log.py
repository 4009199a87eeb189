"""Command logging: VoltDB-style durability via statement replay.

VoltDB pairs periodic snapshots with a *command log* — the sequence of
statements executed since the last snapshot. Recovery restores the
snapshot and replays the log. This module provides both halves for the
reproduction:

* :class:`CommandLog` appends every successfully committed
  data-changing statement (DDL and DML) to a text file, one statement
  per line (newlines inside literals are escaped);
* :func:`replay_log` re-executes a log against a database;
* :func:`enable_command_log` attaches a log to a database as its
  ``command_log`` — the seam :meth:`Database.execute_parsed` calls
  after every successful write, whichever entry point
  (``execute``, ``execute_script``, ``apply_replicated``, the server)
  the statement came through — and recovery is
  ``Database.recover(snapshot=..., command_log=...)``.

Each appended line carries a CRC32 checksum over its escaped payload
(``crc32-hex TAB payload``), so recovery can distinguish a cleanly
written statement from a line mangled by a crash mid-write or by disk
corruption. Logs written before checksums existed (bare payload lines)
are still replayed: a loggable statement starts with a SQL keyword, and
no keyword's first eight characters are all hex digits, so legacy lines
can never be mistaken for checksummed ones.

**Replication framing.** When the log is opened with an ``epoch``
(``enable_command_log(db, path, epoch=1)``), every record additionally
carries the writer's epoch and a monotonically increasing sequence
number: the checksummed payload becomes ``r<epoch>.<seq> TAB statement``.
The sequence number is the global log position (it keeps growing across
epochs and across snapshots/truncations), which is what lets a primary
ship its log to replicas, retransmit from any acknowledged position via
:func:`read_records`, and compare replicas by how caught-up they are.
The checksum covers the frame too, so a corrupted or spliced sequence
number is detected exactly like a corrupted statement. Framing is
opt-in: standalone databases keep writing the compact legacy format,
and :func:`replay_log` replays both.

**Durability policy.** ``sync`` controls when an appended record is
forced to stable storage (``os.fsync``):

* ``"commit"`` (default) — flush **and fsync** before the commit
  returns. An acknowledged transaction survives a process *and* OS
  crash; costs one fsync per commit (the classic group-commit knob).
* ``"batch"`` — flush per commit, fsync every
  ``batch_interval`` commits. A process crash loses nothing (the OS
  has the data); an OS/power crash may lose the tail since the last
  fsync. This is VoltDB's asynchronous command-logging mode.
* ``"off"`` — flush per commit, never fsync explicitly. Same process
  -crash guarantee as ``"batch"``; an OS crash may lose everything
  since the last OS write-back.

A file that does not end in a newline lost its tail to a torn write.
Recovery keeps the final line only if its checksum validates (the
statement was complete; only the newline was lost), otherwise it drops
the tail, truncates the file back to the last complete statement, and
reports what was dropped — recovery always makes progress past a torn
tail.

Statements are logged *post-commit*, so a statement that failed (and was
rolled back) never appears. Explicit transactions log their statements
at commit time; a rollback discards them.

Limitation (documented): programmatic writes that bypass SQL
(``db.load_rows``, raw ``Table`` mutation) are not captured — use SQL or
snapshot after bulk loads, exactly like snapshot-based recovery in the
original system.
"""

from __future__ import annotations

import os
import pathlib
import re
import time
import warnings
import zlib
from typing import Callable, Iterator, List, Optional, Tuple

from ..errors import DatabaseError, DurabilityError, RecoveryError
from ..observability import tracing as tracing_module
from ..observability.metrics import recording_registry
from ..resilience.faults import (
    SITE_LOG_FSYNC,
    SITE_LOG_TRUNCATE,
    SITE_LOG_WRITE,
    FaultyIO,
    check_site,
)
from ..resilience.retry import RetryPolicy
from .database import Database


def default_fsync_retry() -> RetryPolicy:
    """The bounded fsync retry: 3 attempts, milliseconds apart.

    Deliberately tight — a transient EIO (one bad scheduling of a
    flaky controller) is absorbed; a disk that fails three fsyncs in a
    row is not getting better in microseconds, and per fsyncgate the
    only honest response is to stop acknowledging writes (degrade).
    """
    return RetryPolicy(
        base_delay=0.005, max_delay=0.05, multiplier=2.0, jitter=0.0,
        max_attempts=3,
    )

_ON_ERROR_POLICIES = ("abort", "skip", "stop")
_SYNC_POLICIES = ("commit", "batch", "off")


#: Escaped character -> what it stands for. A bare "\r" would end a
#: line for the reader too: text reads translate it to "\n".
_ESCAPES = {"n": "\n", "r": "\r", "\\": "\\"}


def _encode(sql: str) -> str:
    return sql.replace("\\", "\\\\").replace("\n", "\\n").replace("\r", "\\r")


def _decode(line: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == "\\" and i + 1 < len(line) and line[i + 1] in _ESCAPES:
            out.append(_ESCAPES[line[i + 1]])
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def _checksum(payload: str) -> str:
    return format(zlib.crc32(payload.encode("utf-8")), "08x")


def _format_line(sql: str) -> str:
    payload = _encode(sql)
    return f"{_checksum(payload)}\t{payload}\n"


# A framed payload: r<epoch>.<sequence> TAB encoded-statement. The "r"
# marker can never start a legacy payload that means something else —
# loggable SQL begins with a keyword, never "r<digits>.<digits>\t".
_FRAME_RE = re.compile(r"^r(\d+)\.(\d+)\t")


def frame_body(epoch: int, sequence: int, sql: str) -> str:
    """The checksummed body of a framed record (also the unit shipped
    to replicas — both sides checksum exactly this string)."""
    return f"r{epoch}.{sequence}\t{_encode(sql)}"


def format_record(epoch: int, sequence: int, sql: str) -> str:
    body = frame_body(epoch, sequence, sql)
    return f"{_checksum(body)}\t{body}\n"


def _parse_frame(payload: str) -> Optional[Tuple[int, int, str]]:
    """``(epoch, sequence, encoded_sql)`` if ``payload`` is framed."""
    match = _FRAME_RE.match(payload)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2)), payload[match.end():]


class LogRecord:
    """One framed command-log entry: the unit of log shipping."""

    __slots__ = ("epoch", "sequence", "sql")

    def __init__(self, epoch: int, sequence: int, sql: str):
        self.epoch = epoch
        self.sequence = sequence
        self.sql = sql

    def body(self) -> str:
        return frame_body(self.epoch, self.sequence, self.sql)

    def checksum(self) -> str:
        return _checksum(self.body())

    def __repr__(self) -> str:
        return f"LogRecord(e{self.epoch}.{self.sequence}, {self.sql!r})"


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _split_checksummed(line: str) -> Tuple[Optional[str], str]:
    """Split a log line into ``(crc_hex, payload)``.

    ``crc_hex`` is ``None`` for legacy (pre-checksum) lines. Safe
    because every loggable SQL statement begins with a keyword whose
    first eight characters include non-hex letters.
    """
    if (
        len(line) > 8
        and line[8] == "\t"
        and all(ch in _HEX_DIGITS for ch in line[:8])
    ):
        return line[:8].lower(), line[9:]
    return None, line


class RecoveryReport:
    """What :func:`replay_log` did, beyond the happy path.

    Attached to the recovered database as ``db.recovery_report`` so
    callers can inspect (and operators can log) exactly how recovery
    went: how many statements replayed, which corrupt lines were
    skipped, whether a torn tail was dropped, and where a ``"stop"``
    policy halted.
    """

    def __init__(self, path: str):
        self.path = path
        self.statements_replayed = 0
        #: ``(line_number, reason)`` pairs for lines passed over under
        #: the ``"skip"`` policy.
        self.skipped: List[Tuple[int, str]] = []
        #: Description of a dropped torn tail, or ``None``.
        self.torn_tail: Optional[str] = None
        #: Line number where the ``"stop"`` policy halted, or ``None``.
        self.stopped_at_line: Optional[int] = None
        #: Replication position of the last framed record replayed
        #: (``None`` for legacy/unframed logs).
        self.last_epoch: Optional[int] = None
        self.last_sequence: Optional[int] = None

    @property
    def clean(self) -> bool:
        return (
            not self.skipped
            and self.torn_tail is None
            and self.stopped_at_line is None
        )

    def summary(self) -> str:
        parts = [f"replayed {self.statements_replayed} statement(s)"]
        if self.last_sequence is not None:
            parts.append(
                f"through e{self.last_epoch}.{self.last_sequence}"
            )
        if self.torn_tail is not None:
            parts.append(f"dropped torn tail ({self.torn_tail})")
        if self.skipped:
            parts.append(f"skipped {len(self.skipped)} line(s)")
        if self.stopped_at_line is not None:
            parts.append(f"stopped at line {self.stopped_at_line}")
        return f"{self.path}: " + ", ".join(parts)

    def __repr__(self) -> str:
        return f"RecoveryReport({self.summary()!r})"


class _LogFile:
    """An append handle over a log file with a durability policy.

    The handle stays open for the log's lifetime so the ``sync``
    policy is meaningful: every append is flushed to the OS (other
    processes — and crash recovery — always see complete statements),
    and ``os.fsync`` is issued per the policy documented in the module
    docstring. ``fsync_count`` is exposed so tests (and benchmarks) can
    observe the durability/throughput tradeoff directly.
    """

    def __init__(
        self,
        path: str,
        sync: str = "commit",
        batch_interval: int = 64,
        io: Optional[FaultyIO] = None,
        fsync_retry: Optional[RetryPolicy] = None,
    ):
        if sync not in _SYNC_POLICIES:
            raise ValueError(
                f"sync must be one of {_SYNC_POLICIES}, got {sync!r}"
            )
        if batch_interval <= 0:
            raise ValueError("batch_interval must be positive")
        self.path = pathlib.Path(path)
        self.path.touch()
        self.sync = sync
        self.batch_interval = batch_interval
        self.fsync_count = 0
        #: Transient fsync failures absorbed by the bounded retry.
        self.fsync_retries = 0
        self._unsynced_batches = 0
        self._io = io  # explicit injector; ambient one used when None
        self._fsync_retry = fsync_retry or default_fsync_retry()
        self._handle = open(self.path, "a")

    def write_line(self, line: str) -> None:
        check_site(SITE_LOG_WRITE, handle=self._handle, data=line, io=self._io)
        self._handle.write(line)

    def commit_batch(self) -> None:
        """One commit's worth of lines was written; make it durable."""
        self._handle.flush()
        if self.sync == "commit":
            self._fsync()
        elif self.sync == "batch":
            self._unsynced_batches += 1
            if self._unsynced_batches >= self.batch_interval:
                self._fsync()

    def sync_now(self) -> None:
        """Force an fsync regardless of policy (checkpoint, shutdown)."""
        self._handle.flush()
        self._fsync()

    def _fsync(self) -> None:
        """fsync with the bounded retry; OSError here means the retry
        was exhausted and the disk is genuinely refusing durability."""
        started = time.perf_counter()

        def attempt() -> None:
            check_site(SITE_LOG_FSYNC, io=self._io)
            os.fsync(self._handle.fileno())

        def note_retry(_attempt: int, _error: BaseException) -> None:
            self.fsync_retries += 1
            retry_registry = recording_registry()
            if retry_registry is not None:
                retry_registry.counter(
                    "repro_fsync_retries_total",
                    help="Transient fsync failures absorbed by the "
                    "bounded retry.",
                ).inc()

        self._fsync_retry.call(attempt, retry_on=(OSError,), on_retry=note_retry)
        self.fsync_count += 1
        self._unsynced_batches = 0
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        registry = recording_registry()
        if registry is not None:
            registry.counter(
                "repro_commandlog_fsyncs_total",
                help="Command-log fsync() calls issued.",
            ).inc()
            registry.histogram(
                "repro_commandlog_fsync_ms",
                help="Command-log fsync() latency in milliseconds.",
            ).observe(elapsed_ms)
        # a traced write sees its durability cost as a span (the writer
        # thread carries the statement's trace context here)
        tracing_module.record_span("log.fsync", elapsed_ms)

    def truncate(self) -> None:
        check_site(SITE_LOG_TRUNCATE, io=self._io)
        self._handle.flush()
        self._handle.truncate(0)

    def close(self) -> None:
        if not self._handle.closed:
            try:
                self._handle.flush()
            except OSError:
                pass  # best effort: closing a handle over a broken disk
            try:
                self._handle.close()
            except OSError:
                pass


class CommandLog:
    """Append-only statement log attached to a database.

    With ``epoch`` set, records are framed with ``(epoch, sequence)``
    for replication; ``pre_append_hook`` and ``on_record`` are the
    replication attachment points (crash-point instrumentation and log
    shipping, respectively) and stay ``None`` for standalone use.
    """

    def __init__(
        self,
        database: Database,
        path: str,
        sync: str = "commit",
        epoch: Optional[int] = None,
        batch_interval: int = 64,
        io: Optional[FaultyIO] = None,
        fsync_retry: Optional[RetryPolicy] = None,
    ):
        if database.command_log is not None:
            raise DatabaseError(
                f"database already has a command log attached "
                f"({database.command_log.path}); detach it before "
                f"attaching {path}"
            )
        self.database = database
        self._file = _LogFile(
            path, sync=sync, batch_interval=batch_interval,
            io=io, fsync_retry=fsync_retry,
        )
        self.path = self._file.path
        #: The OSError that last degraded this log, for ``\health``.
        self.last_durable_error: Optional[str] = None
        self.epoch = epoch
        self.last_sequence = 0
        #: Sequence number at the last truncation: records with
        #: ``sequence <= base_sequence`` are no longer in this file
        #: (they are covered by the snapshot taken before truncating).
        self.base_sequence = 0
        #: Called after a commit decides to log, before anything is
        #: written (replication installs a crash-point probe here).
        self.pre_append_hook: Optional[Callable[[], None]] = None
        #: Called once per durable framed record (replication ships it).
        self.on_record: Optional[Callable[[LogRecord], None]] = None
        if epoch is not None:
            for record in read_records(self.path):
                self.last_sequence = max(self.last_sequence, record.sequence)
        self._pending: List[str] = []
        database.command_log = self

    # ------------------------------------------------------------------

    @property
    def sync(self) -> str:
        return self._file.sync

    @property
    def fsync_count(self) -> int:
        return self._file.fsync_count

    @property
    def fsync_retries(self) -> int:
        return self._file.fsync_retries

    def sync_now(self) -> None:
        self._file.sync_now()

    def _append(self, statements: List[str]) -> None:
        if not statements:
            return
        if self.pre_append_hook is not None:
            self.pre_append_hook()
        records: List[LogRecord] = []
        try:
            for sql in statements:
                if self.epoch is None:
                    self._file.write_line(_format_line(sql))
                else:
                    self.last_sequence += 1
                    record = LogRecord(self.epoch, self.last_sequence, sql)
                    self._file.write_line(
                        format_record(record.epoch, record.sequence, record.sql)
                    )
                    records.append(record)
            self._file.commit_batch()
        except OSError as error:
            # A SimulatedCrash passes straight through (the process is
            # "dead"); an OSError is the disk refusing durability after
            # the bounded retry — degrade instead of acknowledging.
            self._durability_failure(error)
        if self.on_record is not None:
            for record in records:
                self.on_record(record)

    def _durability_failure(self, error: OSError) -> None:
        """The durable-write path failed: record it, degrade the
        database, and refuse the acknowledgement.

        The statement's in-memory effect may be visible until recovery
        discards it — that does not break the contract, which is
        *acknowledged ⇒ durable*, and this statement is precisely the
        one never acknowledged.
        """
        self.last_durable_error = f"{type(error).__name__}: {error}"
        registry = recording_registry()
        if registry is not None:
            registry.counter(
                "repro_durability_failures_total",
                help="Durable-write failures that degraded the engine.",
            ).inc()
        health = getattr(self.database, "health", None)
        if health is not None:
            health.mark_degraded(
                "command-log append failed; entering read-only mode",
                error=error,
            )
        raise DurabilityError(
            f"durable write to {self.path} failed ({error}); the database "
            "is now DEGRADED (read-only) — the statement was not "
            "acknowledged and will not survive recovery"
        ) from error

    def record(self, sql: str) -> None:
        """A write statement succeeded: make it durable now, or hold it
        until the explicit transaction it ran in commits."""
        if self.database.transactions.in_transaction:
            self._pending.append(sql)
        else:
            self._append([sql])

    def commit(self) -> None:
        """The explicit transaction committed: append what it held."""
        # Swap before appending: if the append fails (degraded mode),
        # the next commit must not re-append — or double-apply — these
        # statements.
        pending, self._pending = self._pending, []
        self._append(pending)

    def rollback(self) -> None:
        self._pending = []

    def detach(self) -> None:
        """Stop logging: the database no longer calls this log."""
        if self.database.command_log is self:
            self.database.command_log = None
        self._file.close()

    def truncate(self) -> None:
        """Reset the log (after taking a snapshot).

        Sequence numbers keep counting from where they were — the log
        position is global, so replicas bootstrapped from the snapshot
        resume the stream seamlessly.
        """
        self._file.truncate()
        self.base_sequence = self.last_sequence


class FramedLogWriter:
    """A replica's durable log of *applied* records.

    Unlike :class:`CommandLog` this does not hook a database and does
    not assign sequence numbers: records are written with the exact
    ``(epoch, sequence)`` the primary assigned, after they have been
    applied locally. On restart the replica replays this file to
    recover its position; on promotion a :class:`CommandLog` opened
    over the same file continues the sequence where the primary left
    off.
    """

    def __init__(self, path: str, sync: str = "commit"):
        self._file = _LogFile(path, sync=sync)
        self.path = self._file.path
        self.last_epoch = 0
        self.last_sequence = 0
        for record in read_records(self.path):
            self.last_epoch = record.epoch
            self.last_sequence = max(self.last_sequence, record.sequence)

    @property
    def fsync_count(self) -> int:
        return self._file.fsync_count

    def append(self, epoch: int, sequence: int, sql: str) -> None:
        self._file.write_line(format_record(epoch, sequence, sql))
        self._file.commit_batch()
        self.last_epoch = epoch
        self.last_sequence = sequence

    def truncate(self) -> None:
        """Reset after a re-bootstrap (the snapshot supersedes the log)."""
        self._file.truncate()
        self.last_epoch = 0
        self.last_sequence = 0

    def close(self) -> None:
        self._file.close()


def enable_command_log(
    database: Database,
    path: str,
    sync: str = "commit",
    epoch: Optional[int] = None,
    batch_interval: int = 64,
    io: Optional[FaultyIO] = None,
    fsync_retry: Optional[RetryPolicy] = None,
) -> CommandLog:
    """Attach a command log to ``database``; returns the log handle.

    ``sync`` selects the durability policy (``"commit"`` | ``"batch"``
    | ``"off"``, see the module docstring) and ``batch_interval`` the
    commits-per-fsync under ``"batch"``; ``epoch`` enables replication
    framing; ``io`` / ``fsync_retry`` override the fault injector and
    the bounded fsync retry policy (tests).
    """
    return CommandLog(
        database, path, sync=sync, epoch=epoch,
        batch_interval=batch_interval, io=io, fsync_retry=fsync_retry,
    )


def _complete_lines(raw: str) -> Tuple[List[str], bool]:
    """``(lines, torn)`` — the log's lines and whether the tail is torn."""
    torn = not raw.endswith("\n")
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines, torn


def read_records(
    path: str, from_sequence: int = 0
) -> Iterator[LogRecord]:
    """Stream the valid framed records of a command log.

    This is the shipping/retransmission reader: a primary uses it to
    re-send every record a lagging replica has not acknowledged
    (``from_sequence`` = the replica's acknowledged position). It is
    strictly read-only — corrupt, legacy and torn lines are passed
    over without modifying the file (recovery's truncation behavior
    lives in :func:`replay_log`).
    """
    log_path = pathlib.Path(path)
    if not log_path.exists():
        return
    lines, torn = _complete_lines(log_path.read_text())
    last_number = len(lines)
    for line_number, line in enumerate(lines, start=1):
        if not line:
            continue
        crc_hex, payload = _split_checksummed(line)
        if crc_hex is None or crc_hex != _checksum(payload):
            if torn and line_number == last_number:
                return  # torn tail, nothing after it
            continue  # legacy or corrupt line: not shippable
        frame = _parse_frame(payload)
        if frame is None:
            continue
        epoch, sequence, encoded = frame
        if sequence > from_sequence:
            yield LogRecord(epoch, sequence, _decode(encoded))


def _read_log_lines(log_path: pathlib.Path, report: RecoveryReport):
    """Yield ``(line_number, line)`` for the complete lines of a log.

    Detects a torn tail (file not ending in a newline): the final
    partial line is kept only when it carries a valid checksum (the
    statement was written in full; only the newline was torn off).
    Otherwise the tail is dropped, the file is truncated back to the
    last complete statement, and the drop is recorded on ``report``
    and warned about — recovery continues either way.
    """
    raw = log_path.read_text()
    if not raw:
        return
    lines, torn = _complete_lines(raw)
    last_number = len(lines)
    for line_number, line in enumerate(lines, start=1):
        if torn and line_number == last_number:
            crc_hex, payload = _split_checksummed(line)
            if crc_hex is not None and crc_hex == _checksum(payload):
                yield line_number, line  # complete; only the \n was lost
                continue
            report.torn_tail = (
                f"line {line_number}: {len(line)} byte(s) after a torn write"
            )
            kept = lines[:-1]
            log_path.write_text("\n".join(kept) + "\n" if kept else "")
            warnings.warn(
                f"{log_path}: dropped torn tail at line {line_number} "
                f"({len(line)} byte(s)); log truncated to last complete "
                "statement",
                stacklevel=3,
            )
            return
        yield line_number, line


def replay_log(
    path: str,
    database: Optional[Database] = None,
    on_error: str = "abort",
    from_sequence: int = 0,
) -> Database:
    """Re-execute a command log against ``database`` (new by default).

    ``from_sequence`` skips framed records at or below that position —
    the checkpoint-recovery contract: a snapshot embedding replication
    position S means every record with ``sequence <= S`` is already in
    the snapshot, and replaying it again would double-apply (a crash
    between the snapshot rename and the log truncation leaves exactly
    that overlap on disk). Legacy unframed lines carry no position and
    are always replayed.

    ``on_error`` selects the policy for corrupt lines (checksum
    mismatch) and statements that fail to re-execute:

    * ``"abort"`` (default) — raise :class:`~repro.errors.RecoveryError`
      identifying the file and line;
    * ``"skip"`` — record the bad line in the report and keep replaying;
    * ``"stop"`` — keep everything replayed so far and halt at the bad
      line (the report records where).

    A torn final line (crash mid-append) is handled before the policy
    applies: it is dropped and reported, never fatal. The resulting
    database carries the :class:`RecoveryReport` in
    ``db.recovery_report``; for framed (replicated) logs the report
    also records the last ``(epoch, sequence)`` replayed.
    """
    if on_error not in _ON_ERROR_POLICIES:
        raise ValueError(
            f"on_error must be one of {_ON_ERROR_POLICIES}, got {on_error!r}"
        )
    db = database or Database()
    log_path = pathlib.Path(path)
    if not log_path.exists():
        raise RecoveryError(f"no command log at {path}")
    report = RecoveryReport(str(path))
    db.recovery_report = report
    for line_number, line in _read_log_lines(log_path, report):
        if not line:
            continue
        crc_hex, payload = _split_checksummed(line)
        if crc_hex is not None and crc_hex != _checksum(payload):
            error: Exception = RecoveryError(
                f"{path}:{line_number}: replay failed: checksum mismatch "
                f"(expected {crc_hex}, computed {_checksum(payload)})"
            )
            if on_error == "abort":
                raise error
            if on_error == "stop":
                report.stopped_at_line = line_number
                return db
            report.skipped.append((line_number, "checksum mismatch"))
            continue
        frame = _parse_frame(payload) if crc_hex is not None else None
        if frame is not None:
            epoch, sequence, payload = frame
            if sequence <= from_sequence:
                continue  # already covered by the snapshot
        sql = _decode(payload)
        try:
            db.apply_replicated(sql)
        except Exception as error:
            if on_error == "abort":
                raise RecoveryError(
                    f"{path}:{line_number}: replay failed: {error}"
                ) from error
            if on_error == "stop":
                report.stopped_at_line = line_number
                return db
            report.skipped.append((line_number, str(error)))
            continue
        report.statements_replayed += 1
        if frame is not None:
            report.last_epoch = epoch
            report.last_sequence = sequence
    return db
