"""Unit tests for the expression engine: compilation, three-valued
logic, scalar functions, and aggregate accumulators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError, PlanningError
from repro.expr import (
    RelationBinding,
    Scope,
    compile_expression,
)
from repro.expr.compile import compare
from repro.expr.functions import aggregate_over, make_accumulator
from repro.sql import ast, parse_statement
from repro.storage.schema import Column, TableSchema
from repro.types import SqlType


def make_scope():
    schema = TableSchema(
        [
            Column("a", SqlType.INTEGER),
            Column("b", SqlType.VARCHAR),
            Column("c", SqlType.FLOAT),
        ]
    )
    return Scope([RelationBinding("t", 0, schema)])


def evaluate(expression_sql, row):
    """Compile the WHERE expression of a probe query and run it."""
    statement = parse_statement(f"SELECT 1 FROM t WHERE {expression_sql}")
    compiled = compile_expression(statement.where, make_scope())
    return compiled.fn([row])


def project(expression_sql, row):
    statement = parse_statement(f"SELECT {expression_sql} FROM t")
    compiled = compile_expression(statement.items[0].expression, make_scope())
    return compiled.fn([row])


class TestColumnAccess:
    def test_qualified(self):
        assert project("t.a", (5, "x", 1.0)) == 5

    def test_unqualified(self):
        assert project("b", (5, "x", 1.0)) == "x"

    def test_unknown_column_raises_at_compile(self):
        with pytest.raises(PlanningError):
            project("zzz", (5, "x", 1.0))

    def test_unknown_alias_raises(self):
        with pytest.raises(PlanningError):
            project("other.a", (5, "x", 1.0))


class TestComparisons:
    def test_basic_operators(self):
        row = (5, "x", 1.5)
        assert evaluate("t.a = 5", row) is True
        assert evaluate("t.a <> 5", row) is False
        assert evaluate("t.a < 6", row) is True
        assert evaluate("t.a >= 5", row) is True
        assert evaluate("t.c > 1", row) is True

    def test_null_comparisons_are_unknown(self):
        row = (None, "x", 1.0)
        assert evaluate("t.a = 5", row) is None
        assert evaluate("t.a <> 5", row) is None
        assert evaluate("t.a < 5", row) is None

    def test_string_number_affinity(self):
        # timestamps are stored as ints; date strings coerce on compare
        row = (946684800000000, "x", 1.0)  # 2000-01-01 in micros
        assert evaluate("t.a > '1999-01-01'", row) is True
        assert evaluate("t.a < '1/1/1999'", row) is False

    def test_incomparable_types_raise(self):
        with pytest.raises(ExecutionError):
            evaluate("t.b > 5", (1, "abc", 1.0))


class TestThreeValuedLogic:
    def test_and_truth_table(self):
        assert evaluate("t.a = 1 AND t.b = 'x'", (1, "x", 1.0)) is True
        assert evaluate("t.a = 1 AND t.b = 'y'", (1, "x", 1.0)) is False
        # NULL AND FALSE = FALSE; NULL AND TRUE = NULL
        assert evaluate("t.a = 1 AND t.b = 'y'", (None, "x", 1.0)) is False
        assert evaluate("t.a = 1 AND t.b = 'x'", (None, "x", 1.0)) is None

    def test_or_truth_table(self):
        assert evaluate("t.a = 1 OR t.b = 'y'", (1, "x", 1.0)) is True
        # NULL OR TRUE = TRUE; NULL OR FALSE = NULL
        assert evaluate("t.a = 1 OR t.b = 'x'", (None, "x", 1.0)) is True
        assert evaluate("t.a = 1 OR t.b = 'y'", (None, "x", 1.0)) is None

    def test_not(self):
        assert evaluate("NOT t.a = 1", (2, "x", 1.0)) is True
        assert evaluate("NOT t.a = 1", (None, "x", 1.0)) is None


class TestPredicates:
    def test_in_list(self):
        assert evaluate("t.b IN ('x', 'y')", (1, "x", 1.0)) is True
        assert evaluate("t.b IN ('p', 'q')", (1, "x", 1.0)) is False
        assert evaluate("t.b NOT IN ('p')", (1, "x", 1.0)) is True

    def test_in_list_null_semantics(self):
        # no match but a NULL item -> UNKNOWN
        assert evaluate("t.a IN (1, NULL)", (2, "x", 1.0)) is None
        assert evaluate("t.a IN (2, NULL)", (2, "x", 1.0)) is True
        assert evaluate("t.a IN (1, 2)", (None, "x", 1.0)) is None

    def test_between(self):
        assert evaluate("t.a BETWEEN 1 AND 5", (3, "x", 1.0)) is True
        assert evaluate("t.a BETWEEN 1 AND 5", (9, "x", 1.0)) is False
        assert evaluate("t.a NOT BETWEEN 1 AND 5", (9, "x", 1.0)) is True

    def test_is_null(self):
        assert evaluate("t.a IS NULL", (None, "x", 1.0)) is True
        assert evaluate("t.a IS NOT NULL", (None, "x", 1.0)) is False
        assert evaluate("t.a IS NULL", (1, "x", 1.0)) is False

    def test_like(self):
        assert evaluate("t.b LIKE 'Sm%'", (1, "Smith", 1.0)) is True
        assert evaluate("t.b LIKE '_mith'", (1, "Smith", 1.0)) is True
        assert evaluate("t.b LIKE 'X%'", (1, "Smith", 1.0)) is False
        assert evaluate("t.b NOT LIKE 'X%'", (1, "Smith", 1.0)) is True

    def test_like_escapes_regex_chars(self):
        assert evaluate("t.b LIKE 'a.c'", (1, "abc", 1.0)) is False
        assert evaluate("t.b LIKE 'a.c'", (1, "a.c", 1.0)) is True


class TestArithmetic:
    def test_operations(self):
        row = (7, "x", 2.5)
        assert project("t.a + 3", row) == 10
        assert project("t.a - 3", row) == 4
        assert project("t.a * 2", row) == 14
        assert project("t.c * 2", row) == 5.0
        assert project("t.a % 4", row) == 3

    def test_integer_division_truncates(self):
        assert project("7 / 2", (0, "", 0.0)) == 3
        assert project("-7 / 2", (0, "", 0.0)) == -3

    def test_float_division(self):
        assert project("7.0 / 2", (0, "", 0.0)) == 3.5

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            project("1 / 0", (0, "", 0.0))

    def test_null_propagation(self):
        assert project("t.a + 1", (None, "x", 1.0)) is None

    def test_unary_minus(self):
        assert project("-t.a", (5, "x", 1.0)) == -5

    def test_concat_operator(self):
        assert project("t.b || '!'", (1, "hi", 1.0)) == "hi!"


class TestScalarFunctions:
    def test_string_functions(self):
        row = (1, "Hello", 1.0)
        assert project("UPPER(t.b)", row) == "HELLO"
        assert project("LOWER(t.b)", row) == "hello"
        assert project("LENGTH(t.b)", row) == 5
        assert project("SUBSTRING(t.b, 2, 3)", row) == "ell"
        assert project("CONCAT(t.b, '!')", row) == "Hello!"

    def test_numeric_functions(self):
        row = (-7, "x", 2.25)
        assert project("ABS(t.a)", row) == 7
        assert project("FLOOR(t.c)", row) == 2
        assert project("CEIL(t.c)", row) == 3
        assert project("ROUND(t.c, 1)", row) == 2.2
        assert project("SQRT(4)", row) == 2.0
        assert project("POWER(2, 10)", row) == 1024
        assert project("MOD(7, 3)", row) == 1

    def test_coalesce_and_nullif(self):
        assert project("COALESCE(t.a, 9)", (None, "x", 1.0)) == 9
        assert project("COALESCE(t.a, 9)", (5, "x", 1.0)) == 5
        assert project("NULLIF(t.a, 5)", (5, "x", 1.0)) is None
        assert project("NULLIF(t.a, 9)", (5, "x", 1.0)) == 5

    def test_null_propagation_through_functions(self):
        assert project("UPPER(t.b)", (1, None, 1.0)) is None

    def test_unknown_function_raises(self):
        with pytest.raises(PlanningError):
            project("FROBNICATE(t.a)", (1, "x", 1.0))

    def test_case_when(self):
        sql = "CASE WHEN t.a > 0 THEN 'pos' WHEN t.a < 0 THEN 'neg' ELSE 'zero' END"
        assert project(sql, (5, "x", 1.0)) == "pos"
        assert project(sql, (-5, "x", 1.0)) == "neg"
        assert project(sql, (0, "x", 1.0)) == "zero"

    def test_case_without_else_gives_null(self):
        assert project("CASE WHEN t.a > 0 THEN 1 END", (-1, "x", 1.0)) is None

    def test_cast(self):
        assert project("CAST(t.a AS VARCHAR)", (5, "x", 1.0)) == "5"
        assert project("CAST('12' AS INTEGER)", (5, "x", 1.0)) == 12


class TestAggregateAccumulators:
    def test_count_rows_vs_values(self):
        rows = [1, None, 3]
        star = make_accumulator("COUNT", count_rows=True)
        values = make_accumulator("COUNT")
        for value in rows:
            star.add(1)
            values.add(value)
        assert star.result() == 3
        assert values.result() == 2

    def test_sum_avg_min_max(self):
        assert aggregate_over("SUM", [1, 2, None, 3]) == 6
        assert aggregate_over("AVG", [2, 4, None]) == 3
        assert aggregate_over("MIN", [5, 1, None, 3]) == 1
        assert aggregate_over("MAX", [5, 1, None, 3]) == 5

    def test_empty_input_semantics(self):
        assert aggregate_over("SUM", []) is None
        assert aggregate_over("AVG", [None]) is None
        assert aggregate_over("MIN", []) is None
        assert aggregate_over("COUNT", []) == 0

    def test_distinct(self):
        assert aggregate_over("SUM", [1, 1, 2, 2], distinct=True) == 3
        assert aggregate_over("COUNT", [1, 1, 2, None], distinct=True) == 2

    def test_unknown_aggregate(self):
        with pytest.raises(ExecutionError):
            make_accumulator("MEDIAN")


class TestScopeErrors:
    def test_duplicate_alias_rejected(self):
        schema = TableSchema([Column("a", SqlType.INTEGER)])
        with pytest.raises(PlanningError):
            Scope(
                [
                    RelationBinding("t", 0, schema),
                    RelationBinding("T", 1, schema),
                ]
            )

    def test_ambiguous_unqualified_column(self):
        schema = TableSchema([Column("a", SqlType.INTEGER)])
        scope = Scope(
            [RelationBinding("t", 0, schema), RelationBinding("u", 1, schema)]
        )
        statement = parse_statement("SELECT a FROM t, u")
        with pytest.raises(PlanningError, match="ambiguous"):
            compile_expression(statement.items[0].expression, scope)

    def test_metadata_tracks_slots_and_aliases(self):
        statement = parse_statement("SELECT 1 FROM t WHERE t.a = 1")
        compiled = compile_expression(statement.where, make_scope())
        assert compiled.slots == {0}
        assert compiled.aliases == {"t"}


class TestUnqualifiedGraphAttributes:
    def test_vertex_attribute_without_alias(self):
        from repro import Database

        db = Database()
        db.execute("CREATE TABLE V (id INTEGER PRIMARY KEY, label VARCHAR)")
        db.execute(
            "CREATE TABLE E (id INTEGER PRIMARY KEY, s INTEGER, d INTEGER)"
        )
        db.execute("INSERT INTO V VALUES (1, 'hub')")
        db.execute(
            "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id, label = label) "
            "FROM V EDGES(ID = id, FROM = s, TO = d) FROM E"
        )
        # unqualified attribute resolves through the vertex binding
        assert db.execute(
            "SELECT label FROM g.Vertexes VS"
        ).scalar() == "hub"

    def test_ambiguous_unqualified_graph_attribute(self):
        from repro import Database, PlanningError

        db = Database()
        db.execute("CREATE TABLE V (id INTEGER PRIMARY KEY, label VARCHAR)")
        db.execute(
            "CREATE TABLE E (id INTEGER PRIMARY KEY, s INTEGER, d INTEGER, "
            "label VARCHAR)"
        )
        db.execute("INSERT INTO V VALUES (1, 'x')")
        db.execute(
            "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id, label = label) "
            "FROM V EDGES(ID = id, FROM = s, TO = d, label = label) FROM E"
        )
        with pytest.raises(PlanningError, match="ambiguous"):
            db.execute("SELECT label FROM g.Vertexes VS, g.Edges ES")


# values of every kind a comparison meets: NULL, ints, floats, numeric
# strings, date strings and other strings
VALUES = st.one_of(
    st.none(),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.5, 1.0, 2.5, -1.5]),
    st.sampled_from(["1", "2.5", "-3", "1e1"]),
    st.sampled_from(["1/1/2000", "12/31/1999", "2000-01-01"]),
    st.sampled_from(["x", "abc", ""]),
)


def outcome(evaluate_once):
    """A value, or the type and message of the ExecutionError raised."""
    try:
        result = evaluate_once()
    except ExecutionError as error:
        return ExecutionError, str(error)
    return type(result), result


def compile_over_t(node):
    return compile_expression(node, make_scope()).fn


class TestConstantOperandDifferential:
    """A comparison with a constant side compiles to its own closure; it
    must answer exactly what ``compare()`` answers, or raise the same
    error, with the constant on either side, as a literal or as a
    parameter bound after compilation."""

    @given(
        st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
        st.booleans(),
        st.booleans(),
        st.lists(st.tuples(VALUES, VALUES), min_size=1, max_size=4),
    )
    @settings(max_examples=400, deadline=None)
    def test_comparison_matches_compare(self, op, constant_first, as_parameter,
                                        cases):
        parameter = ast.Parameter(0)
        for value, constant in cases:
            side = parameter if as_parameter else ast.Literal(constant)
            column = ast.Identifier("a")
            node = (ast.BinaryOp(op, side, column) if constant_first
                    else ast.BinaryOp(op, column, side))
            fn = compile_over_t(node)
            parameter.value = constant  # bound after compiling
            expected = outcome(
                lambda: compare(op, constant, value) if constant_first
                else compare(op, value, constant))
            assert outcome(lambda: fn([(value, None, None)])) == expected

    @given(
        VALUES,
        st.lists(VALUES, min_size=1, max_size=4),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_in_list_matches_three_valued_reference(self, value, items, negated):
        def reference():
            if value is None:
                return None
            if any(item is not None and item == value for item in items):
                return not negated
            if any(item is None for item in items):
                return None
            return negated

        node = ast.InList(ast.Identifier("a"),
                          [ast.Literal(item) for item in items], negated)
        fn = compile_over_t(node)
        assert outcome(lambda: fn([(value, None, None)])) == outcome(reference)
