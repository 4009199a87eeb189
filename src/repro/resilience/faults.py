"""Deterministic fault injection: one seeded injector, two site families.

A :class:`FaultInjector` is the single source of every injected fault.
All of its randomness comes from one ``random.Random(seed)``, so a
failing chaos run replays bit-for-bit from its seed. It does two jobs:

* **Message faults** — it sits inside every
  :class:`~repro.replication.transport.Channel` and may drop, delay,
  duplicate, reorder, or corrupt each message sent through it
  (independent per-message probabilities; see :meth:`roll`).

* **Armed faults at named sites** — production code calls
  :meth:`FaultInjector.check` at named points. Each site belongs to a
  *family* and declares the fault kinds valid there:

  ``storage`` (the durability substrate — ``core/command_log.py``,
  ``core/snapshot.py`` and the supervisor):

  ========================================  =================================
  ``commandlog.write``                      a record line is about to be
                                            written to the log file
  ``commandlog.fsync``                      the log file is about to be
                                            fsync'd (the durability point)
  ``commandlog.truncate``                   the log is about to be reset
                                            after a checkpoint snapshot
  ``snapshot.write``                        the snapshot JSON is about to be
                                            written to its temp file
  ``snapshot.fsync``                        the temp file is about to be
                                            fsync'd
  ``snapshot.rename``                       the temp file is about to be
                                            atomically renamed into place
  ``checkpoint.before_truncate``            the snapshot is durable but the
                                            command log has not yet been
                                            truncated (double-replay window)
  ``probe.write`` / ``probe.fsync``         the supervisor's health probe is
                                            touching the data directory
  ========================================  =================================

  ``replication`` — the crash points compiled into
  :class:`~repro.replication.primary.Primary` (``primary.*``) and
  :class:`~repro.replication.replica.Replica` (``replica.*``); they
  accept only ``crash``.

The fault kinds:

* ``"crash"`` — the process dies at exactly this instruction
  (:class:`SimulatedCrash`);
* ``"torn"`` — a random *prefix* of the data is written (and flushed so
  the bytes really land in the file), then the process dies: the classic
  torn write;
* ``"eio"`` — the operation fails with ``OSError(EIO)`` (a dying disk,
  a failed fsync);
* ``"enospc"`` — the operation fails with ``OSError(ENOSPC)`` (disk
  full). Usually armed ``persistent=True``: a full disk stays full.

The registry :data:`SITES` is importable so the chaos runner
(:mod:`repro.resilience.chaos`) and the chaos suite can enumerate every
site of a family.

Storage injection is opt-in and ambient: the storage layer calls
:func:`check_site`, which is a no-op unless a test (or the chaos
runner) has installed an injector with :func:`install` /
:func:`injected`. It pays one ``is None`` check per durable operation
when injection is off.
"""

from __future__ import annotations

import errno
import random
import threading
from typing import Dict, List, NamedTuple, Optional, Tuple


class SimulatedCrash(RuntimeError):
    """The process died at a named fault site (simulation).

    Deliberately **not** a :class:`~repro.errors.DatabaseError`: no
    engine-level handler may swallow a simulated process death — only
    the replication layer's explicit crash guards (which mark the node
    down) and the test harness see it.
    """

    def __init__(self, site: str):
        super().__init__(f"simulated crash at {site}")
        self.site = site


#: All fault kinds a site can fire.
FAULT_KINDS = ("crash", "torn", "eio", "enospc")


class Site(NamedTuple):
    family: str  # "storage" or "replication"
    description: str
    kinds: Tuple[str, ...]


#: Every named fault site, ``name -> Site``.
SITES: Dict[str, Site] = {}


def register_site(
    name: str,
    family: str,
    description: str = "",
    kinds: Tuple[str, ...] = FAULT_KINDS,
) -> str:
    """Declare a fault site; returns ``name`` for use as a constant."""
    for kind in kinds:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
    SITES[name] = Site(family, description, tuple(kinds))
    return name


SITE_LOG_WRITE = register_site(
    "commandlog.write", "storage",
    "a command-log record line is about to be written",
)
SITE_LOG_FSYNC = register_site(
    "commandlog.fsync", "storage",
    "the command log is about to be fsync'd (the durability point)",
    kinds=("crash", "eio", "enospc"),
)
SITE_LOG_TRUNCATE = register_site(
    "commandlog.truncate", "storage",
    "the command log is about to be truncated after a checkpoint",
    kinds=("crash", "eio"),
)
SITE_SNAPSHOT_WRITE = register_site(
    "snapshot.write", "storage",
    "the snapshot document is about to be written to its temp file",
)
SITE_SNAPSHOT_FSYNC = register_site(
    "snapshot.fsync", "storage",
    "the snapshot temp file is about to be fsync'd",
    kinds=("crash", "eio", "enospc"),
)
SITE_SNAPSHOT_RENAME = register_site(
    "snapshot.rename", "storage",
    "the snapshot temp file is about to be renamed into place",
    kinds=("crash", "eio"),
)
SITE_CHECKPOINT_TRUNCATE = register_site(
    "checkpoint.before_truncate", "storage",
    "the checkpoint snapshot is durable; the command log is not yet "
    "truncated (recovery must not double-apply the overlap)",
    kinds=("crash",),
)
SITE_PROBE_WRITE = register_site(
    "probe.write", "storage",
    "the supervisor's health probe is writing its probe file",
    kinds=("eio", "enospc"),
)
SITE_PROBE_FSYNC = register_site(
    "probe.fsync", "storage",
    "the supervisor's health probe is fsync'ing its probe file",
    kinds=("eio", "enospc"),
)


class _Plan:
    """One armed fault: fire ``kind`` when ``remaining`` hits reach 1.

    ``persistent`` plans keep firing on every hit once triggered (a full
    disk stays full); transient plans fire exactly once (a single bad
    sector, a spurious EIO a bounded retry can absorb).
    """

    __slots__ = ("kind", "remaining", "persistent")

    def __init__(self, kind: str, after: int, persistent: bool):
        self.kind = kind
        self.remaining = after
        self.persistent = persistent


class FaultInjector:
    """Seeded source of message faults and armed site faults.

    ::

        injector = FaultInjector(seed=7, drop=0.05)   # lossy channels
        injector.inject("primary.before_commit", "crash")
        injector.inject(SITE_LOG_FSYNC, "eio", persistent=True)

    ``drop``/``duplicate``/``reorder``/``corrupt``/``delay`` are
    independent per-message probabilities in ``[0, 1]``; a delayed
    message is held back for 1..``max_delay_ticks`` deliveries.
    ``counts`` and ``fired`` record every fault actually injected, so a
    test can assert its chaos really happened; ``hits`` counts every
    site reached, fired or not.
    """

    def __init__(
        self,
        seed: int = 0,
        drop: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        corrupt: float = 0.0,
        delay: float = 0.0,
        max_delay_ticks: int = 3,
    ):
        self.seed = seed
        self.random = random.Random(seed)
        self.probabilities = {
            "drop": drop,
            "duplicate": duplicate,
            "reorder": reorder,
            "corrupt": corrupt,
            "delay": delay,
        }
        for name, value in self.probabilities.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        self.max_delay_ticks = max(1, max_delay_ticks)
        self.counts: Dict[str, int] = {
            kind: 0 for kind in (*self.probabilities, *FAULT_KINDS)
        }
        #: ``(site, kind)`` per site fault fired, in order.
        self.fired: List[Tuple[str, str]] = []
        #: Site hits (fired or not), per site.
        self.hits: Dict[str, int] = {}
        self._plans: Dict[str, _Plan] = {}

    # ------------------------------------------------------------------
    # message faults (used by transport.Channel)
    # ------------------------------------------------------------------

    def roll(self, kind: str) -> bool:
        probability = self.probabilities[kind]
        if probability <= 0.0:
            return False
        hit = self.random.random() < probability
        if hit:
            self.counts[kind] += 1
        return hit

    def delay_ticks(self) -> int:
        return self.random.randint(1, self.max_delay_ticks)

    def corrupt_text(self, text: str) -> str:
        """Flip one character of ``text`` (guaranteed different)."""
        if not text:
            return "\x00"
        index = self.random.randrange(len(text))
        original = text[index]
        replacement = "#" if original != "#" else "@"
        return text[:index] + replacement + text[index + 1:]

    # ------------------------------------------------------------------
    # site faults
    # ------------------------------------------------------------------

    def inject(
        self, site: str, kind: str, after: int = 1, persistent: bool = False
    ) -> None:
        """Arm ``site`` to fire ``kind`` on its ``after``-th hit."""
        if site not in SITES:
            raise ValueError(
                f"unknown storage site or crash point {site!r}; "
                f"registered: {sorted(SITES)}"
            )
        valid = SITES[site].kinds
        if kind not in valid:
            raise ValueError(
                f"fault kind {kind!r} is not valid at {site} (valid: {valid})"
            )
        if after < 1:
            raise ValueError("after must be >= 1")
        self._plans[site] = _Plan(kind, after, persistent)

    def clear(self, site: Optional[str] = None) -> None:
        """Disarm one site (or, with no argument, every site)."""
        if site is None:
            self._plans.clear()
        else:
            self._plans.pop(site, None)

    def check(self, site: str, handle=None, data: Optional[str] = None) -> None:
        """Called by instrumented code at fault site ``site``.

        May raise ``OSError`` (``eio`` / ``enospc``) or
        :class:`SimulatedCrash` (``crash`` / ``torn``); for ``torn`` a
        random prefix of ``data`` is written to ``handle`` and flushed
        first, so the partial bytes genuinely land in the file the way a
        real torn write would leave them.
        """
        self.hits[site] = self.hits.get(site, 0) + 1
        plan = self._plans.get(site)
        if plan is None:
            return
        if plan.remaining > 1:
            plan.remaining -= 1
            return
        kind = plan.kind
        self.counts[kind] += 1
        self.fired.append((site, kind))
        if not plan.persistent:
            del self._plans[site]
        if kind == "torn" and handle is not None and data:
            cut = self.random.randrange(0, len(data))
            if cut:
                handle.write(data[:cut])
                handle.flush()
        if kind in ("crash", "torn"):
            raise SimulatedCrash(site)
        if kind == "eio":
            raise OSError(errno.EIO, f"injected I/O error at {site}")
        raise OSError(errno.ENOSPC, f"injected disk-full at {site}")

    def __repr__(self) -> str:
        active = {
            kind: probability
            for kind, probability in self.probabilities.items()
            if probability > 0
        }
        return (
            f"FaultInjector(seed={self.seed}, faults={active or 'none'}, "
            f"armed={sorted(self._plans) or 'none'}, "
            f"fired={self.fired or 'none'})"
        )


# ---------------------------------------------------------------------------
# ambient installation
# ---------------------------------------------------------------------------

_ambient_lock = threading.Lock()
_ambient: Optional[FaultInjector] = None


def install(io: FaultInjector) -> FaultInjector:
    """Install ``io`` as the process-wide ambient injector."""
    global _ambient
    with _ambient_lock:
        _ambient = io
    return io


def uninstall() -> None:
    global _ambient
    with _ambient_lock:
        _ambient = None


def ambient_io() -> Optional[FaultInjector]:
    return _ambient


class injected:
    """``with injected(FaultInjector(...)):`` — scoped ambient installation."""

    def __init__(self, io: FaultInjector):
        self.io = io

    def __enter__(self) -> FaultInjector:
        install(self.io)
        return self.io

    def __exit__(self, exc_type, exc, tb) -> bool:
        uninstall()
        return False


def check_site(site: str, handle=None, data: Optional[str] = None,
               io: Optional[FaultInjector] = None) -> None:
    """The storage layer's single injection point.

    Uses ``io`` when given, otherwise the ambient injector; a no-op
    (one ``is None`` check) when neither is installed.
    """
    active = io if io is not None else _ambient
    if active is not None:
        active.check(site, handle=handle, data=data)
