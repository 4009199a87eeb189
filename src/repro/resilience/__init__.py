"""Resilience: fault injection, degraded modes, self-healing, chaos.

Five pieces, layered so the core engine can import the light ones:

* :mod:`~repro.resilience.faults` — the one seeded fault injector
  (:class:`FaultInjector`): message faults for the replication
  transport, and armed faults at the named storage and replication
  sites of one registry (:data:`SITES`).
* :mod:`~repro.resilience.retry` — the shared :class:`RetryPolicy`
  (jittered exponential backoff) and :class:`CircuitBreaker`.
* :mod:`~repro.resilience.health` — the HEALTHY → DEGRADED →
  RECOVERING → FAILED state machine every :class:`Database` carries.
* :mod:`~repro.resilience.supervisor` — process-lifecycle manager:
  recovery on restart, checkpoints, health probes, self-heal. Import it
  as a submodule (``from repro.resilience.supervisor import
  Supervisor``); it depends on the core engine, so it is *not*
  re-exported here — that would make ``core.database`` →
  ``resilience.health`` a circular import.
* :mod:`~repro.resilience.chaos` — the chaos runner and its storage and
  cluster scenario tables (also a submodule, runnable as
  ``python -m repro.resilience.chaos {storage|cluster}``).
"""

from .faults import (
    FAULT_KINDS,
    SITES,
    FaultInjector,
    SimulatedCrash,
    ambient_io,
    check_site,
    injected,
    install,
    register_site,
    uninstall,
)
from .health import (
    DEGRADED,
    FAILED,
    HEALTHY,
    RECOVERING,
    STATES,
    HealthMonitor,
)
from .retry import CircuitBreaker, RetryPolicy

__all__ = [
    "FAULT_KINDS",
    "SITES",
    "FaultInjector",
    "SimulatedCrash",
    "ambient_io",
    "check_site",
    "injected",
    "install",
    "register_site",
    "uninstall",
    "HEALTHY",
    "DEGRADED",
    "RECOVERING",
    "FAILED",
    "STATES",
    "HealthMonitor",
    "CircuitBreaker",
    "RetryPolicy",
]
