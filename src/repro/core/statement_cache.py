"""The statement cache: parse and plan once per statement *shape*.

:meth:`Database.execute <repro.core.database.Database.execute>` keys every
SQL text with :func:`~repro.sql.lexer.statement_key` — its shape (the text
with each literal replaced by a placeholder of the literal's type) and the
literals' values — and looks the shape up here:

* a **hit** checks out the plan cached under the shape and the values of
  its *pinned* literals, binds the other literals' values to the plan's
  parameters, and hands it back to run: no parse, no plan;
* a **miss** on the first sighting of a shape, or of a plan key (a known
  shape with new pinned values), only marks it, and the statement comes
  back parsed, to run uncached — so a text run once costs its key and a
  mark, not a lift and a cached plan;
* a **miss** on a marked shape or plan key parses the text once and
  *lifts* the literals in value positions into
  :class:`~repro.sql.ast.Parameter` nodes; the plan made from that
  statement joins the cache after its first successful run;
* a statement the cache does not take comes back parsed, and runs the
  way every statement did before the cache: DDL, ``EXPLAIN``, set
  operations, subqueries and ``INSERT ... SELECT``, ``?`` placeholders,
  and texts with a comment or a quoted identifier.

Value positions — where a literal is only ever evaluated at run time — are
the operands of a comparison or ``BETWEEN`` against a column or a path
element attribute in a ``WHERE`` clause, ``INSERT ... VALUES`` items and
``UPDATE ... SET`` right-hand sides (a literal or a negated one). Every
other literal is *pinned*: it stays a literal, and its value is part of
the plan's key. That covers every literal the planner reads as a value —
``PS.Length`` bounds (length inference), ``SUM(PS.Edges.x)`` bounds,
``IN`` lists, ``ORDER BY`` ordinals, ``LIMIT`` / ``OFFSET`` / ``TOP``,
select-list literals — so every value a plan decides on is the text's own.

A plan is checked out for the caller's exclusive use while it runs (its
parameter values live on its AST), so a concurrent caller of the same
shape compiles a private plan; whichever run finishes last leaves its
plan in the cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..observability.metrics import recording_registry
from ..sql import ast
from ..sql.lexer import statement_key
from ..sql.parser import Parser, parse_statement

#: Entries the statement cache holds: a shape's lift pattern and each
#: plan count one each.
CAPACITY = 256


class LruCache:
    """A bounded map that forgets its least recently used entry first.
    Safe to share between threads."""

    def __init__(self, capacity: int):
        self._capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Any:
        """The value under ``key`` (now the most recently used), or None.
        None is never stored."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def pop(self, key: Hashable) -> Any:
        """Remove and return the value under ``key``, or None."""
        with self._lock:
            return self._entries.pop(key, None)

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) > self._capacity:
                self._entries.popitem(last=False)


# ---------------------------------------------------------------------------
# lifting literals into parameters
# ---------------------------------------------------------------------------

_CACHEABLE = (ast.Select, ast.Insert, ast.Update, ast.Delete)

#: Expression nodes that keep a statement out of the cache.
_UNCACHEABLE_NODES = (ast.Parameter,) + ast.SUBQUERY_NODES

_COMPARISONS = frozenset(("=", "<>", "<", "<=", ">", ">="))

#: ``(literal, put)``: a literal in a value position, and how to put a
#: replacement where it stands.
Site = Tuple[ast.Literal, Callable[[ast.Expression], None]]


def _is_column(node: ast.Expression) -> bool:
    """A column or graph attribute reference — except ``alias.Length``,
    whose bound length inference reads at plan time."""
    if isinstance(node, ast.Identifier):
        return True
    if not isinstance(node, ast.FieldAccess):
        return False
    accessors = node.accessors
    return not (
        len(accessors) == 1
        and isinstance(accessors[0], ast.NameAccessor)
        and accessors[0].name.lower() == "length"
    )


def _value_site(
    node: ast.Expression, put: Callable[[ast.Expression], None], sites: List[Site]
) -> None:
    """Record ``node`` if it is a literal, or a negated one (the minus
    stays, the number is lifted)."""
    if isinstance(node, ast.UnaryOp) and node.op == "-":
        put = lambda replacement, unary=node: setattr(  # noqa: E731
            unary, "operand", replacement
        )
        node = node.operand
    if isinstance(node, ast.Literal):
        sites.append((node, put))


def _condition_sites(condition: Optional[ast.Expression], sites: List[Site]) -> None:
    for node in ast.walk_expression(condition):
        if isinstance(node, ast.BinaryOp) and node.op in _COMPARISONS:
            if _is_column(node.left):
                _value_site(
                    node.right, lambda r, n=node: setattr(n, "right", r), sites
                )
            if _is_column(node.right):
                _value_site(
                    node.left, lambda r, n=node: setattr(n, "left", r), sites
                )
        elif isinstance(node, ast.Between) and _is_column(node.operand):
            _value_site(node.low, lambda r, n=node: setattr(n, "low", r), sites)
            _value_site(node.high, lambda r, n=node: setattr(n, "high", r), sites)


def _has_derived_table(items: Sequence[ast.FromItem]) -> bool:
    stack = list(items)
    while stack:
        item = stack.pop()
        if isinstance(item, ast.Join):
            stack += [item.left, item.right]
        elif isinstance(item, ast.SubquerySource):
            return True
    return False


def _cacheable(statement: ast.Statement) -> bool:
    """Whether the cache takes ``statement``: a SELECT, ``INSERT ...
    VALUES``, UPDATE or DELETE with no derived table, subquery or ``?``.
    Texts of one shape parse to statements of one structure, so one
    answer holds for the whole shape."""
    if not isinstance(statement, _CACHEABLE):
        return False
    if isinstance(statement, ast.Select) and _has_derived_table(
        statement.from_items
    ):
        return False
    if isinstance(statement, ast.Insert) and statement.query is not None:
        return False
    for expression in ast.statement_expressions(statement):
        for node in ast.walk_expression(expression):
            if isinstance(node, _UNCACHEABLE_NODES):
                return False
    return True


def _value_sites(statement: ast.Statement) -> Optional[List[Site]]:
    """Every literal of ``statement`` in a value position, in no
    particular order; None when the statement is not cacheable."""
    if not _cacheable(statement):
        return None
    sites: List[Site] = []
    if isinstance(statement, ast.Insert):
        for row in statement.rows:
            for index, item in enumerate(row):
                _value_site(
                    item, lambda r, row=row, i=index: row.__setitem__(i, r), sites
                )
        return sites
    if isinstance(statement, ast.Update):
        assignments = statement.assignments
        for index, (column, expression) in enumerate(assignments):
            _value_site(
                expression,
                lambda r, i=index, c=column: assignments.__setitem__(i, (c, r)),
                sites,
            )
    _condition_sites(statement.where, sites)
    return sites


def lift_literals(
    statement: ast.Statement,
    literal_offsets: Dict[int, int],
    offsets: Sequence[int],
    values: Sequence[Any],
) -> Optional[Tuple[int, ...]]:
    """Turn the literals of ``statement`` in value positions into
    parameters numbered in text order, and return each one's position in
    the statement key's value vector, in that order.

    ``literal_offsets`` is the parser's (literal id -> offset);
    ``offsets`` / ``values`` are the key's. Every lifted literal must
    equal its key value in type and value — the parser and the key read
    the same token — else the statement is left untouched and None
    returned, as for a statement the cache does not take.
    """
    sites = _value_sites(statement)
    if sites is None:
        return None
    position_of = {offset: position for position, offset in enumerate(offsets)}
    placed = []
    for literal, put in sites:
        offset = literal_offsets.get(id(literal))
        if offset is None:
            continue  # TRUE / FALSE / NULL are keywords: part of the shape
        position = position_of.get(offset)
        if position is None:
            return None
        value = values[position]
        if type(value) is not type(literal.value) or value != literal.value:
            return None
        placed.append((position, put))
    placed.sort(key=lambda entry: entry[0])
    for index, (_position, put) in enumerate(placed):
        put(ast.Parameter(index))
    return tuple(position for position, _put in placed)


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------


class _Shape:
    """What lifting learned about a shape: the positions (in the
    key's value vector) of the literals lifted into parameters, and of
    the ones pinned in the plan's key."""

    __slots__ = ("lifted", "pinned")

    def __init__(self, lifted: Tuple[int, ...], pinned: Tuple[int, ...]):
        self.lifted = lifted
        self.pinned = pinned


#: The negative entry: a shape the cache does not take.
_UNCACHEABLE = object()

#: A shape, or a plan key, met once: the next statement that meets it
#: again is lifted and planned for the cache.
_SEEN = object()

_HELP = {
    "hits": "Statements run from a cached plan.",
    "misses": "Statements of a cacheable shape that found no cached plan.",
    "uncacheable": "Statements the statement cache does not take.",
}


def _count(outcome: str) -> None:
    registry = recording_registry()
    if registry is not None:
        registry.counter(
            f"repro_statement_cache_{outcome}_total", help=_HELP[outcome]
        ).inc()


class StatementCache:
    """Shapes and plans of one database (see the module docstring).

    ``prepare(statement)`` makes the unplanned executable form of a
    lifted statement — a :class:`~repro.core.database.PreparedQuery`,
    which plans on its first run and re-plans when the catalog or the
    planner options changed since.
    """

    def __init__(self, prepare: Callable[[ast.Statement], Any]):
        self._prepare = prepare
        self._entries = LruCache(CAPACITY)

    def checkout(self, sql: str):
        """``sql`` ready to run: a cached plan bound to its literals and
        checked out to the caller, a fresh one (a miss on a marked shape
        or plan key), or the parsed statement — on the first sighting of
        a shape or plan key, and for a statement the cache does not
        take."""
        key = statement_key(sql)
        if key is None:
            _count("uncacheable")
            return parse_statement(sql)
        shape, values, offsets = key
        known = self._entries.get(shape)
        if known is _UNCACHEABLE:
            _count("uncacheable")
            return parse_statement(sql)
        if known is None:
            statement = parse_statement(sql)
            if _cacheable(statement):
                return self._first_sighting(shape, statement)
            self._entries.put(shape, _UNCACHEABLE)
            _count("uncacheable")
            return statement
        if known is not _SEEN:
            plan_key = (shape, tuple([values[i] for i in known.pinned]))
            prepared = self._entries.pop(plan_key)
            if prepared is None:
                return self._first_sighting(plan_key, parse_statement(sql))
            if prepared is not _SEEN:
                prepared._bind([values[i] for i in known.lifted])
                _count("hits")
                return prepared
        parser = Parser(sql)
        statement = parser.parse()
        lifted = lift_literals(statement, parser.literal_offsets, offsets, values)
        if lifted is None:
            self._entries.put(shape, _UNCACHEABLE)
            _count("uncacheable")
            return statement
        parameters = set(lifted)
        pinned = tuple(i for i in range(len(values)) if i not in parameters)
        self._entries.put(shape, _Shape(lifted, pinned))
        prepared = self._prepare(statement)
        prepared.cache_key = (shape, tuple([values[i] for i in pinned]))
        prepared._bind([values[i] for i in lifted])
        _count("misses")
        return prepared

    def _first_sighting(
        self, key: Hashable, statement: ast.Statement
    ) -> ast.Statement:
        self._entries.put(key, _SEEN)
        _count("misses")
        return statement

    def checkin(self, prepared) -> None:
        """Return a plan after a successful run: it serves the next
        statement of its shape and pinned values."""
        self._entries.put(prepared.cache_key, prepared)
