"""Primary–replica replication for the graph-extended relational engine.

Log-shipping replication built on the engine's existing durability
primitives (command log + snapshots): the primary frames every committed
statement with ``(epoch, sequence)`` and streams it to replicas, which
apply it through the standard replay path against read-only databases.
Failover, divergence detection (logical state digests, including
graph-view topologies) and split-brain fencing are all here; the
seeded fault injector the chaos suite drives them with is
:mod:`repro.resilience.faults`. See ``docs/replication.md``.
"""

from .digest import combined_digest, database_digest, table_digest
from .manager import ReplicationManager
from .node import ClusterNode, PeerSpec, parse_peers, probe_state
from .primary import Primary, ReplicaLink
from .replica import Replica
from .transport import Channel, Message

__all__ = [
    "Channel",
    "ClusterNode",
    "Message",
    "PeerSpec",
    "Primary",
    "Replica",
    "ReplicaLink",
    "ReplicationManager",
    "parse_peers",
    "probe_state",
    "combined_digest",
    "database_digest",
    "table_digest",
]
