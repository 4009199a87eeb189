"""Database snapshots: save an entire database to a file and restore it.

VoltDB persists through command logs and snapshots; this module provides
the snapshot half for the reproduction. A snapshot is a JSON document
holding, in dependency order:

1. every base table's DDL (re-derived from its schema) and its rows;
2. secondary index definitions;
3. materialized view definitions (as SQL, via the AST renderer) —
   their contents re-derive on replay;
4. graph view definitions (re-derived from the stored mappings) plus
   any vertical-partition ``ALTER`` statements — topologies rebuild in
   one pass on replay, exactly like the original ``CREATE GRAPH VIEW``.

All column values are JSON-representable by construction (the type
system only stores int/float/str/bool/None).

Snapshots carry a CRC32 ``checksum`` over the canonical JSON encoding
of the rest of the document, verified on load — a truncated or
bit-flipped snapshot fails fast with
:class:`~repro.errors.RecoveryError` instead of restoring a silently
wrong database. Snapshots written before checksums existed load
unverified, for compatibility.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from typing import Any, Dict, List, Optional

from ..errors import RecoveryError
from ..observability.metrics import recording_registry
from ..resilience.faults import (
    SITE_SNAPSHOT_FSYNC,
    SITE_SNAPSHOT_RENAME,
    SITE_SNAPSHOT_WRITE,
    FaultyIO,
    check_site,
)
from ..graph.graph_view import ExtraAttributeSource, GraphView
from ..sql.render import render_select
from ..storage.index import HashIndex, OrderedIndex
from ..storage.table import Table
from .database import Database

SNAPSHOT_VERSION = 1

#: Keys every snapshot document must carry (``checksum`` is optional
#: for snapshots written before integrity verification existed).
_REQUIRED_KEYS = ("version", "tables", "indexes", "views", "graph_views")


def _document_checksum(document: Dict[str, Any]) -> str:
    """CRC32 (hex) over the canonical JSON of ``document`` sans checksum."""
    payload = {k: v for k, v in document.items() if k != "checksum"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return format(zlib.crc32(canonical.encode("utf-8")), "08x")


def verify_snapshot_document(
    document: Any, source: Optional[str] = None
) -> Dict[str, Any]:
    """Validate a parsed snapshot document's shape and checksum.

    Returns the document on success; raises
    :class:`~repro.errors.RecoveryError` naming ``source`` (when given)
    on a malformed document, a missing section, a version this engine
    does not understand, or a checksum mismatch.
    """
    where = f"{source}: " if source else ""
    if not isinstance(document, dict):
        raise RecoveryError(
            f"{where}snapshot is not a JSON object "
            f"(got {type(document).__name__})"
        )
    if document.get("version") != SNAPSHOT_VERSION:
        raise RecoveryError(
            f"{where}unsupported snapshot version: {document.get('version')!r}"
        )
    missing = [key for key in _REQUIRED_KEYS if key not in document]
    if missing:
        raise RecoveryError(
            f"{where}snapshot is missing section(s): {', '.join(missing)}"
        )
    stored = document.get("checksum")
    if stored is not None:
        computed = _document_checksum(document)
        if stored != computed:
            raise RecoveryError(
                f"{where}snapshot checksum mismatch "
                f"(stored {stored}, computed {computed}) — the file is "
                "corrupt or was edited by hand"
            )
    return document


def _table_ddl(table: Table) -> str:
    columns = []
    for column in table.schema.columns:
        text = f"{column.name} {column.sql_type.value}"
        if column.primary_key:
            text += " PRIMARY KEY"
        elif not column.nullable:
            text += " NOT NULL"
        columns.append(text)
    return f"CREATE TABLE {table.name} ({', '.join(columns)})"


def _index_entries(table: Table) -> List[Dict[str, Any]]:
    entries = []
    for index in table.indexes.values():
        if index is table.primary_key_index:
            continue  # re-created by the table's CREATE TABLE
        if isinstance(index, OrderedIndex):
            kind = "ordered"
        elif isinstance(index, HashIndex):
            kind = "hash"
        else:  # pragma: no cover - no other index kinds exist
            continue
        entries.append(
            {
                "name": index.name,
                "table": table.name,
                "columns": list(index.key_columns),
                "unique": index.unique,
                "kind": kind,
            }
        )
    return entries


def _mappings_of(view: GraphView) -> Dict[str, Any]:
    vertex_columns = view.vertex_table.schema.columns
    edge_columns = view.edge_table.schema.columns
    vertex_mappings = [["ID", vertex_columns[view.vertex_id_position].name]]
    for attribute, position in view.vertex_schema.attributes:
        vertex_mappings.append([attribute, vertex_columns[position].name])
    edge_mappings = [
        ["ID", edge_columns[view.edge_id_position].name],
        ["FROM", edge_columns[view.edge_from_position].name],
        ["TO", edge_columns[view.edge_to_position].name],
    ]
    for attribute, position in view.edge_schema.attributes:
        edge_mappings.append([attribute, edge_columns[position].name])
    return {
        "name": view.name,
        "directed": view.directed,
        "vertex_source": view.vertex_table.name,
        "vertex_mappings": vertex_mappings,
        "edge_source": view.edge_table.name,
        "edge_mappings": edge_mappings,
        "extra_sources": [
            _extra_source_entry(view, extra, "VERTEXES")
            for extra in view.vertex_extra_sources
        ]
        + [
            _extra_source_entry(view, extra, "EDGES")
            for extra in view.edge_extra_sources
        ],
    }


def _extra_source_entry(
    view: GraphView, extra: ExtraAttributeSource, element: str
) -> Dict[str, Any]:
    columns = extra.table.schema.columns
    mappings = [["ID", columns[extra.id_position].name]]
    for attribute, position in extra.schema.attributes:
        mappings.append([attribute, columns[position].name])
    return {
        "element": element,
        "source": extra.table.name,
        "mappings": mappings,
    }


def snapshot_to_dict(
    database: Database,
    replication: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The snapshot document for ``database`` (JSON-serializable).

    ``replication``, when given, is embedded as the document's
    ``"replication"`` section — replication stores the log position
    (``{"epoch": E, "sequence": S}``) the snapshot corresponds to, so a
    replica bootstrapping from it knows exactly where to resume the
    shipped log. The section is covered by the document checksum.
    """
    catalog = database.catalog
    view_backing_tables = {
        id(catalog.view(name).table) for name in list(catalog._views)
    }
    tables = []
    indexes: List[Dict[str, Any]] = []
    for table in catalog.tables():
        if id(table) in view_backing_tables:
            continue  # re-derived by the view definition on replay
        tables.append(
            {
                "ddl": _table_ddl(table),
                "name": table.name,
                "rows": [list(row) for row in table.rows()],
            }
        )
        indexes.extend(_index_entries(table))
    views = [
        {
            "name": catalog.view(name).name,
            "query": render_select(catalog.view(name).query),
        }
        for name in list(catalog._views)
    ]
    graph_views = [_mappings_of(view) for view in catalog.graph_views()]
    document = {
        "version": SNAPSHOT_VERSION,
        "tables": tables,
        "indexes": indexes,
        "views": views,
        "graph_views": graph_views,
    }
    if replication is not None:
        document["replication"] = dict(replication)
    document["checksum"] = _document_checksum(document)
    return document


def snapshot_temp_path(path: str) -> str:
    """The temp file a snapshot of ``path`` is staged in. One fixed
    name per snapshot path (not a random suffix): a crash mid-snapshot
    leaves at most one stale temp file, which the next write — or the
    supervisor's startup sweep — simply replaces."""
    return f"{path}.tmp"


def save_snapshot(
    database: Database,
    path: str,
    replication: Optional[Dict[str, Any]] = None,
    io: Optional[FaultyIO] = None,
) -> None:
    """Write the database to ``path`` as a JSON snapshot, atomically.

    The document is staged in ``path + ".tmp"``, flushed, fsync'd, and
    renamed into place with ``os.replace`` — at every instant ``path``
    is either the complete old snapshot or the complete new one, never
    a torn hybrid. On an OSError the temp file is removed (best
    effort) and the error propagates; after a crash the stale temp
    file is swept by the supervisor at startup.
    """
    started = time.perf_counter()
    document = snapshot_to_dict(database, replication=replication)
    tmp_path = snapshot_temp_path(path)
    payload = json.dumps(document)
    size_bytes = len(payload.encode("utf-8"))
    try:
        with open(tmp_path, "w") as handle:
            check_site(SITE_SNAPSHOT_WRITE, handle=handle, data=payload, io=io)
            handle.write(payload)
            handle.flush()
            check_site(SITE_SNAPSHOT_FSYNC, io=io)
            os.fsync(handle.fileno())
        check_site(SITE_SNAPSHOT_RENAME, io=io)
        os.replace(tmp_path, path)
    except OSError:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    registry = recording_registry()
    if registry is not None:
        registry.counter(
            "repro_snapshot_saves_total", help="Snapshots written."
        ).inc()
        registry.histogram(
            "repro_snapshot_save_ms",
            help="Snapshot write latency in milliseconds.",
        ).observe((time.perf_counter() - started) * 1000.0)
        registry.gauge(
            "repro_snapshot_bytes",
            help="Size of the most recently written snapshot.",
        ).set(size_bytes)


def restore_into(document: Dict[str, Any], database: Database) -> Database:
    """Replay a snapshot document into a (fresh) database.

    The document's embedded replication position (if any) is kept on
    the database as ``snapshot_replication`` so recovery knows which
    command-log prefix the snapshot already covers."""
    verify_snapshot_document(document)
    database.snapshot_replication = document.get("replication")
    for entry in document["tables"]:
        database.apply_replicated(entry["ddl"])
        database.load_rows(entry["name"], entry["rows"])
    for entry in document["indexes"]:
        if entry["kind"] == "ordered":
            database.create_ordered_index(
                entry["name"], entry["table"], entry["columns"], entry["unique"]
            )
        else:
            unique = "UNIQUE " if entry["unique"] else ""
            database.apply_replicated(
                f"CREATE {unique}INDEX {entry['name']} ON {entry['table']} "
                f"({', '.join(entry['columns'])})"
            )
    for entry in document["views"]:
        database.apply_replicated(f"CREATE VIEW {entry['name']} AS {entry['query']}")
    for entry in document["graph_views"]:
        direction = "DIRECTED" if entry["directed"] else "UNDIRECTED"
        vertexes = ", ".join(f"{a} = {c}" for a, c in entry["vertex_mappings"])
        edges = ", ".join(f"{a} = {c}" for a, c in entry["edge_mappings"])
        database.apply_replicated(
            f"CREATE {direction} GRAPH VIEW {entry['name']} "
            f"VERTEXES({vertexes}) FROM {entry['vertex_source']} "
            f"EDGES({edges}) FROM {entry['edge_source']}"
        )
        for extra in entry.get("extra_sources", []):
            mappings = ", ".join(f"{a} = {c}" for a, c in extra["mappings"])
            database.apply_replicated(
                f"ALTER GRAPH VIEW {entry['name']} ADD {extra['element']}"
                f"({mappings}) FROM {extra['source']}"
            )
    return database


def load_snapshot(path: str, database: Database = None) -> Database:
    """Restore a snapshot file into ``database`` (a new one by default).

    Raises :class:`~repro.errors.RecoveryError` when the file is not
    valid JSON, is structurally not a snapshot, has a version this
    engine does not understand, or fails checksum verification.
    """
    started = time.perf_counter()
    try:
        with open(path) as handle:
            document = json.load(handle)
    except json.JSONDecodeError as error:
        raise RecoveryError(
            f"{path}: snapshot is not valid JSON ({error})"
        ) from error
    verify_snapshot_document(document, source=str(path))
    restored = restore_into(document, database or Database())
    registry = recording_registry()
    if registry is not None:
        registry.counter(
            "repro_snapshot_loads_total", help="Snapshots restored."
        ).inc()
        registry.histogram(
            "repro_snapshot_load_ms",
            help="Snapshot restore latency in milliseconds.",
        ).observe((time.perf_counter() - started) * 1000.0)
    return restored
