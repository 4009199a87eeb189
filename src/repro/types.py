"""SQL value types and coercion rules.

The engine supports a compact but realistic type system modeled on the
subset VoltDB exposes: integers, floats, decimals (mapped to ``float`` for
simplicity), varchar, boolean, and timestamp (stored as an integer number
of microseconds, as VoltDB does). ``NULL`` is represented by Python
``None`` and follows SQL three-valued-logic in the expression engine.
"""

from __future__ import annotations

import datetime as _dt
from enum import Enum
from typing import Any, Optional

from .errors import TypeMismatchError


class SqlType(Enum):
    """Column data types understood by the engine."""

    INTEGER = "INTEGER"
    BIGINT = "BIGINT"
    FLOAT = "FLOAT"
    DECIMAL = "DECIMAL"
    VARCHAR = "VARCHAR"
    BOOLEAN = "BOOLEAN"
    TIMESTAMP = "TIMESTAMP"
    # Pass-through type for derived columns (materialized view outputs)
    # whose type cannot be inferred statically. No coercion is applied.
    ANY = "ANY"

    @classmethod
    def from_name(cls, name: str) -> "SqlType":
        """Resolve a type name as written in SQL (case-insensitive).

        Accepts common aliases: INT, TINYINT, SMALLINT, DOUBLE, REAL,
        STRING, TEXT, BOOL, DATE, DATETIME.
        """
        normalized = name.strip().upper()
        aliases = {
            "INT": cls.INTEGER,
            "TINYINT": cls.INTEGER,
            "SMALLINT": cls.INTEGER,
            "LONG": cls.BIGINT,
            "DOUBLE": cls.FLOAT,
            "REAL": cls.FLOAT,
            "NUMERIC": cls.DECIMAL,
            "STRING": cls.VARCHAR,
            "TEXT": cls.VARCHAR,
            "CHAR": cls.VARCHAR,
            "BOOL": cls.BOOLEAN,
            "DATE": cls.TIMESTAMP,
            "DATETIME": cls.TIMESTAMP,
        }
        if normalized in aliases:
            return aliases[normalized]
        try:
            return cls(normalized)
        except ValueError:
            raise TypeMismatchError(f"unknown SQL type: {name!r}") from None

    @property
    def is_numeric(self) -> bool:
        return self in _NUMERIC_TYPES


_NUMERIC_TYPES = frozenset(
    {SqlType.INTEGER, SqlType.BIGINT, SqlType.FLOAT, SqlType.DECIMAL}
)

_EPOCH = _dt.datetime(1970, 1, 1)


def timestamp_from_string(text: str) -> int:
    """Parse a date / datetime literal into epoch microseconds.

    Accepts ``YYYY-MM-DD``, ``YYYY-MM-DD HH:MM:SS``, and the paper's
    ``M/D/YYYY`` style (e.g. ``1/1/2000`` in Listing 2).
    """
    text = text.strip()
    for fmt in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%d", "%m/%d/%Y", "%d/%m/%Y"):
        try:
            parsed = _dt.datetime.strptime(text, fmt)
        except ValueError:
            continue
        return int((parsed - _EPOCH).total_seconds() * 1_000_000)
    raise TypeMismatchError(f"cannot parse timestamp literal: {text!r}")


def timestamp_to_string(micros: int) -> str:
    """Render epoch microseconds back as ``YYYY-MM-DD HH:MM:SS``."""
    moment = _EPOCH + _dt.timedelta(microseconds=micros)
    return moment.strftime("%Y-%m-%d %H:%M:%S")


def coerce(value: Any, sql_type: SqlType, column: str = "?") -> Optional[Any]:
    """Coerce ``value`` to the Python representation of ``sql_type``.

    ``None`` passes through (SQL NULL). Numeric widening (int -> float)
    is silent; lossy or nonsensical conversions raise
    :class:`TypeMismatchError` naming the column.
    """
    if value is None:
        return None
    if sql_type is SqlType.ANY:
        return value
    if sql_type in (SqlType.INTEGER, SqlType.BIGINT):
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                pass
        raise TypeMismatchError(
            f"column {column}: cannot store {value!r} as {sql_type.value}"
        )
    if sql_type in (SqlType.FLOAT, SqlType.DECIMAL):
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                pass
        raise TypeMismatchError(
            f"column {column}: cannot store {value!r} as {sql_type.value}"
        )
    if sql_type is SqlType.VARCHAR:
        if isinstance(value, str):
            return value
        if isinstance(value, (int, float, bool)):
            return str(value)
        raise TypeMismatchError(
            f"column {column}: cannot store {value!r} as VARCHAR"
        )
    if sql_type is SqlType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise TypeMismatchError(
            f"column {column}: cannot store {value!r} as BOOLEAN"
        )
    if sql_type is SqlType.TIMESTAMP:
        if isinstance(value, bool):
            raise TypeMismatchError(
                f"column {column}: cannot store {value!r} as TIMESTAMP"
            )
        if isinstance(value, int):
            return value
        if isinstance(value, _dt.datetime):
            return int((value - _EPOCH).total_seconds() * 1_000_000)
        if isinstance(value, str):
            return timestamp_from_string(value)
        raise TypeMismatchError(
            f"column {column}: cannot store {value!r} as TIMESTAMP"
        )
    raise TypeMismatchError(f"unhandled SQL type: {sql_type}")
