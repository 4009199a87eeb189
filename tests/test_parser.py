"""Unit tests for the SQL parser, including the paper's extensions."""

import pytest

from repro.errors import SqlSyntaxError
from repro.sql import ast, parse_script, parse_statement


class TestCreateTable:
    def test_simple(self):
        statement = parse_statement(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR)"
        )
        assert isinstance(statement, ast.CreateTable)
        assert statement.name == "t"
        assert statement.columns[0].primary_key
        assert statement.columns[1].type_name == "VARCHAR"

    def test_varchar_length_ignored(self):
        statement = parse_statement("CREATE TABLE t (name VARCHAR(64))")
        assert statement.columns[0].type_name == "VARCHAR"

    def test_not_null(self):
        statement = parse_statement("CREATE TABLE t (a INTEGER NOT NULL)")
        assert statement.columns[0].not_null

    def test_trailing_semicolon(self):
        parse_statement("CREATE TABLE t (a INTEGER);")


class TestCreateIndexAndView:
    def test_index(self):
        statement = parse_statement("CREATE INDEX i ON t (a, b)")
        assert isinstance(statement, ast.CreateIndex)
        assert statement.columns == ["a", "b"]
        assert not statement.unique

    def test_unique_index(self):
        statement = parse_statement("CREATE UNIQUE INDEX i ON t (a)")
        assert statement.unique

    def test_view(self):
        statement = parse_statement(
            "CREATE VIEW v AS SELECT a FROM t WHERE a > 1"
        )
        assert isinstance(statement, ast.CreateView)
        assert isinstance(statement.query, ast.Select)

    def test_materialized_view_keyword(self):
        statement = parse_statement(
            "CREATE MATERIALIZED VIEW v AS SELECT a FROM t"
        )
        assert isinstance(statement, ast.CreateView)


class TestCreateGraphView:
    def test_paper_listing_1(self):
        statement = parse_statement(
            "CREATE UNDIRECTED GRAPH VIEW SocialNetwork "
            "VERTEXES(ID = uId, lstName = lName, birthdate = dob) FROM Users "
            "EDGES(ID = relId, FROM = uId, TO = uId2, sdate = startDate, "
            "relative = isRelative) FROM Relationships"
        )
        assert isinstance(statement, ast.CreateGraphView)
        assert statement.name == "SocialNetwork"
        assert not statement.directed
        assert statement.vertex_source == "Users"
        assert statement.edge_source == "Relationships"
        assert ("ID", "uId") in statement.vertex_mappings
        assert ("FROM", "uId") in statement.edge_mappings
        assert ("TO", "uId2") in statement.edge_mappings

    def test_directed_default(self):
        statement = parse_statement(
            "CREATE GRAPH VIEW g VERTEXES(ID = a) FROM v "
            "EDGES(ID = b, FROM = c, TO = d) FROM e"
        )
        assert statement.directed

    def test_explicit_directed(self):
        statement = parse_statement(
            "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = a) FROM v "
            "EDGES(ID = b, FROM = c, TO = d) FROM e"
        )
        assert statement.directed


class TestDml:
    def test_insert_values(self):
        statement = parse_statement("INSERT INTO t VALUES (1, 'x', NULL)")
        assert isinstance(statement, ast.Insert)
        assert statement.columns is None
        assert len(statement.rows) == 1
        assert statement.rows[0][0] == ast.Literal(1)

    def test_insert_with_columns_multi_row(self):
        statement = parse_statement(
            "INSERT INTO t (a, b) VALUES (1, 2), (3, 4)"
        )
        assert statement.columns == ["a", "b"]
        assert len(statement.rows) == 2

    def test_update(self):
        statement = parse_statement("UPDATE t SET a = a + 1 WHERE b = 'x'")
        assert isinstance(statement, ast.Update)
        assert statement.assignments[0][0] == "a"
        assert statement.where is not None

    def test_delete(self):
        statement = parse_statement("DELETE FROM t WHERE a < 3")
        assert isinstance(statement, ast.Delete)

    def test_truncate(self):
        statement = parse_statement("TRUNCATE TABLE t")
        assert isinstance(statement, ast.Truncate)
        assert statement.table == "t"


class TestSelectCore:
    def test_star(self):
        statement = parse_statement("SELECT * FROM t")
        assert isinstance(statement.items[0].expression, ast.Star)

    def test_qualified_star(self):
        statement = parse_statement("SELECT u.* FROM t u")
        star = statement.items[0].expression
        assert isinstance(star, ast.Star)
        assert star.qualifier == "u"

    def test_aliases(self):
        statement = parse_statement("SELECT a AS x, b y FROM t")
        assert statement.items[0].alias == "x"
        assert statement.items[1].alias == "y"

    def test_distinct(self):
        assert parse_statement("SELECT DISTINCT a FROM t").distinct

    def test_where_group_having_order_limit(self):
        statement = parse_statement(
            "SELECT a, COUNT(*) FROM t WHERE b > 0 GROUP BY a "
            "HAVING COUNT(*) > 1 ORDER BY a DESC LIMIT 10 OFFSET 5"
        )
        assert statement.where is not None
        assert len(statement.group_by) == 1
        assert statement.having is not None
        assert not statement.order_by[0].ascending
        assert statement.limit == 10
        assert statement.offset == 5

    def test_top_n(self):
        statement = parse_statement("SELECT TOP 2 a FROM t")
        assert statement.limit == 2

    def test_joins(self):
        statement = parse_statement(
            "SELECT * FROM a JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y"
        )
        join = statement.from_items[0]
        assert isinstance(join, ast.Join)
        assert join.kind == "LEFT"
        assert isinstance(join.left, ast.Join)
        assert join.left.kind == "INNER"

    def test_cross_join(self):
        statement = parse_statement("SELECT * FROM a CROSS JOIN b")
        assert statement.from_items[0].kind == "CROSS"


class TestGraphFromItems:
    def test_paths_item(self):
        statement = parse_statement(
            "SELECT PS.Length FROM SocialNetwork.Paths PS"
        )
        item = statement.from_items[0]
        assert isinstance(item, ast.GraphRef)
        assert item.graph_name == "SocialNetwork"
        assert item.element == ast.GraphRef.PATHS
        assert item.alias == "PS"

    def test_vertexes_and_edges_items(self):
        statement = parse_statement(
            "SELECT 1 FROM g.Vertexes v, g.Edges e"
        )
        assert statement.from_items[0].element == ast.GraphRef.VERTEXES
        assert statement.from_items[1].element == ast.GraphRef.EDGES

    def test_shortest_path_hint(self):
        statement = parse_statement(
            "SELECT TOP 2 PS FROM RoadNetwork.Paths PS "
            "HINT(SHORTESTPATH(Distance))"
        )
        hint = statement.from_items[0].hint
        assert hint.kind == "SHORTESTPATH"
        assert hint.weight_attribute == "Distance"
        assert statement.limit == 2

    def test_dfs_bfs_hints(self):
        for kind in ("DFS", "BFS"):
            statement = parse_statement(
                f"SELECT 1 FROM g.Paths p HINT({kind})"
            )
            assert statement.from_items[0].hint.kind == kind

    def test_hint_on_table_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT 1 FROM t x HINT(DFS)")


class TestPathExpressions:
    def test_open_range(self):
        statement = parse_statement(
            "SELECT 1 FROM g.Paths PS WHERE PS.Edges[0..*].sdate > 5"
        )
        comparison = statement.where
        access = comparison.left
        assert isinstance(access, ast.FieldAccess)
        assert access.base == "PS"
        name, selector, attr = access.accessors
        assert name.name == "Edges"
        assert isinstance(selector, ast.RangeAccessor)
        assert selector.start == 0 and selector.end is None
        assert attr.name == "sdate"

    def test_bounded_range(self):
        statement = parse_statement(
            "SELECT 1 FROM g.Paths PS WHERE PS.Vertexes[1..3].x = 1"
        )
        selector = statement.where.left.accessors[1]
        assert selector.start == 1 and selector.end == 3

    def test_single_index(self):
        statement = parse_statement(
            "SELECT 1 FROM g.Paths P WHERE P.Edges[2].Label = 'C'"
        )
        selector = statement.where.left.accessors[1]
        assert isinstance(selector, ast.IndexAccessor)
        assert selector.index == 2

    def test_endpoint_access(self):
        statement = parse_statement(
            "SELECT PS.EndVertex.lstName FROM g.Paths PS"
        )
        access = statement.items[0].expression
        assert [a.name for a in access.accessors] == ["EndVertex", "lstName"]

    def test_triangle_query_listing_4(self):
        statement = parse_statement(
            "SELECT Count(P) FROM MLGraph.Paths P Where P.Length = 3 AND "
            "P.Edges[0].Label = 'A' AND P.Edges[1].Label = 'B' AND "
            "P.Edges[2].Label = 'C' AND "
            "P.Edges[2].EndVertex = P.Edges[0].StartVertex"
        )
        count = statement.items[0].expression
        assert isinstance(count, ast.FunctionCall)
        assert count.name == "COUNT"

    def test_path_aggregate(self):
        statement = parse_statement(
            "SELECT SUM(PS.Edges.Weight) FROM g.Paths PS"
        )
        call = statement.items[0].expression
        assert call.name == "SUM"
        assert isinstance(call.args[0], ast.FieldAccess)


class TestExpressions:
    def where(self, text):
        return parse_statement(f"SELECT 1 FROM t WHERE {text}").where

    def test_precedence_and_or(self):
        expression = self.where("a = 1 OR b = 2 AND c = 3")
        assert expression.op == "OR"
        assert expression.right.op == "AND"

    def test_not(self):
        expression = self.where("NOT a = 1")
        assert isinstance(expression, ast.UnaryOp)
        assert expression.op == "NOT"

    def test_arithmetic_precedence(self):
        expression = self.where("a + b * c = 7")
        assert expression.left.op == "+"
        assert expression.left.right.op == "*"

    def test_parentheses(self):
        expression = self.where("(a + b) * c = 7")
        assert expression.left.op == "*"

    def test_in_list(self):
        expression = self.where("a IN ('x', 'y')")
        assert isinstance(expression, ast.InList)
        assert len(expression.items) == 2

    def test_not_in(self):
        assert self.where("a NOT IN (1)").negated
        assert self.where("a not in (1)").negated  # keywords in any case

    def test_in_subquery(self):
        expression = self.where("a IN (SELECT b FROM u)")
        assert isinstance(expression, ast.InSubquery)

    def test_between(self):
        expression = self.where("a BETWEEN 1 AND 5")
        assert isinstance(expression, ast.Between)

    def test_like(self):
        expression = self.where("name LIKE 'S%'")
        assert isinstance(expression, ast.Like)

    def test_is_null_and_is_not_null(self):
        assert not self.where("a IS NULL").negated
        assert self.where("a IS NOT NULL").negated

    def test_unary_minus(self):
        expression = self.where("a = -5")
        assert isinstance(expression.right, ast.UnaryOp)

    def test_neq_normalized(self):
        assert self.where("a != 1").op == "<>"

    def test_case_when(self):
        expression = self.where("CASE WHEN a = 1 THEN 'x' ELSE 'y' END = 'x'")
        assert isinstance(expression.left, ast.CaseWhen)

    def test_cast(self):
        expression = self.where("CAST(a AS VARCHAR) = '1'")
        assert isinstance(expression.left, ast.Cast)

    def test_scalar_subquery(self):
        expression = self.where("a = (SELECT MAX(b) FROM u)")
        assert isinstance(expression.right, ast.ScalarSubquery)

    def test_string_concat(self):
        expression = self.where("a || b = 'xy'")
        assert expression.left.op == "||"


class TestScripts:
    def test_parse_script(self):
        statements = parse_script(
            "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1); "
            "SELECT * FROM t;"
        )
        assert len(statements) == 3

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT 1 FROM t extra garbage here")

    def test_empty_input_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("")
