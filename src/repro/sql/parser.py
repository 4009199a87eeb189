"""Recursive-descent parser for the GRFusion SQL dialect.

Grammar highlights beyond plain SQL:

* ``CREATE [UNDIRECTED|DIRECTED] GRAPH VIEW name
  VERTEXES(ID = col, attr = col, ...) FROM source
  EDGES(ID = col, FROM = col, TO = col, attr = col, ...) FROM source``
* ``FROM GV.PATHS PS [HINT(SHORTESTPATH(attr) | DFS | BFS)]`` and the
  sibling ``GV.VERTEXES`` / ``GV.EDGES`` constructs
* path element access in expressions: ``PS.Edges[0..*].attr``,
  ``PS.Vertexes[1..2].attr``, ``PS.StartVertex.Id``, ``PS.Length`` —
  parsed as generic :class:`~repro.sql.ast.FieldAccess` chains
* ``SELECT TOP n ...`` (Listing 6 of the paper) as well as ``LIMIT``
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import SqlSyntaxError
from . import ast
from .lexer import Lexer, Token, TokenType

_GRAPH_ELEMENTS = {"PATHS", "VERTEXES", "EDGES"}

_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}

_ADDITIVE_OPS = {"+", "-", "||"}

_MULTIPLICATIVE_OPS = {"*", "/", "%"}

_AGGREGATE_KEYWORDS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


class Parser:
    """Parses one token stream into one or more statements."""

    def __init__(self, text: str):
        self._tokens: List[Token] = Lexer(text).tokens()
        self._position = 0
        self._parameter_count = 0
        #: ``id`` of every literal parsed from a token -> the token's
        #: offset: how the statement cache finds a literal's place in the
        #: value vector of :func:`~repro.sql.lexer.statement_key`.
        self.literal_offsets: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # token utilities
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        if not offset:
            return self._tokens[self._position]  # never past the EOF token
        index = min(self._position + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        if self._position < len(self._tokens) - 1:
            self._position += 1
        return token

    def _error(self, message: str) -> SqlSyntaxError:
        token = self._peek()
        return SqlSyntaxError(
            f"{message}, found {token.value!r}" if token.value else message,
            token.line,
            token.column,
        )

    def _check(self, type_: TokenType, value: Optional[str] = None) -> bool:
        return self._tokens[self._position].matches(type_, value)

    def _check_keyword(self, *keywords: str) -> bool:
        token = self._tokens[self._position]
        return token.type is TokenType.KEYWORD and token.upper in keywords

    def _accept(self, type_: TokenType, value: Optional[str] = None) -> Optional[Token]:
        if self._check(type_, value):
            return self._advance()
        return None

    def _expect(self, type_: TokenType, value: Optional[str] = None) -> Token:
        if self._check(type_, value):
            return self._advance()
        expected = value or type_.name
        raise self._error(f"expected {expected}")

    def _expect_name(self) -> str:
        """Accept an identifier, or a keyword used as a name."""
        token = self._peek()
        if token.type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            self._advance()
            return token.value
        raise self._error("expected a name")

    def _at_end(self) -> bool:
        return self._peek().type is TokenType.EOF

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def parse(self) -> ast.Statement:
        statement = self._parse_statement()
        self._accept(TokenType.PUNCTUATION, ";")
        if not self._at_end():
            raise self._error("unexpected trailing input")
        return statement

    def parse_many(self) -> List[Tuple[ast.Statement, str]]:
        """Each statement of a script paired with its own source text
        (what the engine logs and reports for that statement)."""
        statements = []
        while not self._at_end():
            start = self._peek()
            statement = self._parse_statement()
            source = start.text_until(self._peek())
            statements.append((statement, source))
            while self._accept(TokenType.PUNCTUATION, ";"):
                pass
        return statements

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _parse_statement(self) -> ast.Statement:
        if self._check_keyword("EXPLAIN"):
            return self._parse_explain()
        if self._check_keyword("SELECT"):
            return self._parse_select_with_set_ops()
        if self._check_keyword("CREATE"):
            return self._parse_create()
        if self._check_keyword("DROP"):
            return self._parse_drop()
        if self._check_keyword("INSERT"):
            return self._parse_insert()
        if self._check_keyword("UPDATE"):
            return self._parse_update()
        if self._check_keyword("DELETE"):
            return self._parse_delete()
        if self._check_keyword("TRUNCATE"):
            return self._parse_truncate()
        if self._check_keyword("ALTER"):
            return self._parse_alter()
        raise self._error("expected a statement")

    def _parse_explain(self) -> ast.Explain:
        self._expect(TokenType.KEYWORD, "EXPLAIN")
        analyze = self._accept(TokenType.KEYWORD, "ANALYZE") is not None
        if self._check_keyword("EXPLAIN"):
            raise self._error("EXPLAIN cannot be nested")
        statement = self._parse_statement()
        return ast.Explain(statement, analyze)

    # -------------------------- CREATE --------------------------------

    def _parse_create(self) -> ast.Statement:
        self._expect(TokenType.KEYWORD, "CREATE")
        if self._check_keyword("TABLE"):
            return self._parse_create_table()
        if self._check_keyword("UNIQUE", "INDEX"):
            return self._parse_create_index()
        if self._check_keyword("MATERIALIZED", "VIEW"):
            return self._parse_create_view()
        if self._check_keyword("UNDIRECTED", "DIRECTED", "GRAPH"):
            return self._parse_create_graph_view()
        raise self._error("expected TABLE, INDEX, VIEW or GRAPH VIEW")

    def _parse_create_table(self) -> ast.CreateTable:
        self._expect(TokenType.KEYWORD, "TABLE")
        name = self._expect_name()
        self._expect(TokenType.PUNCTUATION, "(")
        columns: List[ast.ColumnDef] = []
        while True:
            column_name = self._expect_name()
            type_name = self._expect_name()
            # optional parenthesized length, e.g. VARCHAR(32): parsed, ignored
            if self._accept(TokenType.PUNCTUATION, "("):
                self._expect(TokenType.INTEGER)
                self._expect(TokenType.PUNCTUATION, ")")
            primary_key = False
            not_null = False
            while True:
                if self._accept(TokenType.KEYWORD, "PRIMARY"):
                    self._expect(TokenType.KEYWORD, "KEY")
                    primary_key = True
                elif self._check_keyword("NOT"):
                    self._advance()
                    self._expect(TokenType.KEYWORD, "NULL")
                    not_null = True
                else:
                    break
            columns.append(
                ast.ColumnDef(column_name, type_name, primary_key, not_null)
            )
            if not self._accept(TokenType.PUNCTUATION, ","):
                break
        self._expect(TokenType.PUNCTUATION, ")")
        partition_by = None
        if self._accept(TokenType.KEYWORD, "PARTITION"):
            self._expect(TokenType.KEYWORD, "BY")
            partition_by = self._expect_name()
        return ast.CreateTable(name, columns, partition_by)

    def _parse_create_index(self) -> ast.CreateIndex:
        unique = bool(self._accept(TokenType.KEYWORD, "UNIQUE"))
        self._expect(TokenType.KEYWORD, "INDEX")
        name = self._expect_name()
        self._expect(TokenType.KEYWORD, "ON")
        table = self._expect_name()
        self._expect(TokenType.PUNCTUATION, "(")
        columns = [self._expect_name()]
        while self._accept(TokenType.PUNCTUATION, ","):
            columns.append(self._expect_name())
        self._expect(TokenType.PUNCTUATION, ")")
        return ast.CreateIndex(name, table, columns, unique)

    def _parse_create_view(self) -> ast.CreateView:
        self._accept(TokenType.KEYWORD, "MATERIALIZED")
        self._expect(TokenType.KEYWORD, "VIEW")
        name = self._expect_name()
        self._expect(TokenType.KEYWORD, "AS")
        query = self._parse_select()
        return ast.CreateView(name, query)

    def _parse_create_graph_view(self) -> ast.CreateGraphView:
        directed = True
        if self._accept(TokenType.KEYWORD, "UNDIRECTED"):
            directed = False
        else:
            self._accept(TokenType.KEYWORD, "DIRECTED")
        self._expect(TokenType.KEYWORD, "GRAPH")
        self._expect(TokenType.KEYWORD, "VIEW")
        name = self._expect_name()
        self._expect(TokenType.KEYWORD, "VERTEXES")
        vertex_mappings = self._parse_graph_mappings()
        self._expect(TokenType.KEYWORD, "FROM")
        vertex_source = self._expect_name()
        self._expect(TokenType.KEYWORD, "EDGES")
        edge_mappings = self._parse_graph_mappings()
        self._expect(TokenType.KEYWORD, "FROM")
        edge_source = self._expect_name()
        return ast.CreateGraphView(
            name,
            directed,
            vertex_mappings,
            vertex_source,
            edge_mappings,
            edge_source,
        )

    def _parse_graph_mappings(self) -> List[Tuple[str, str]]:
        """Parse ``(attr = column, ...)``; FROM/TO/ID may be keywords."""
        self._expect(TokenType.PUNCTUATION, "(")
        mappings: List[Tuple[str, str]] = []
        while True:
            attribute = self._expect_name()
            self._expect(TokenType.OPERATOR, "=")
            source_column = self._expect_name()
            mappings.append((attribute, source_column))
            if not self._accept(TokenType.PUNCTUATION, ","):
                break
        self._expect(TokenType.PUNCTUATION, ")")
        return mappings

    def _parse_alter(self) -> ast.Statement:
        self._expect(TokenType.KEYWORD, "ALTER")
        self._expect(TokenType.KEYWORD, "GRAPH")
        self._expect(TokenType.KEYWORD, "VIEW")
        name = self._expect_name()
        self._expect(TokenType.KEYWORD, "ADD")
        if self._accept(TokenType.KEYWORD, "VERTEXES"):
            element = "VERTEXES"
        elif self._accept(TokenType.KEYWORD, "EDGES"):
            element = "EDGES"
        else:
            raise self._error("expected VERTEXES or EDGES")
        mappings = self._parse_graph_mappings()
        self._expect(TokenType.KEYWORD, "FROM")
        source = self._expect_name()
        return ast.AlterGraphViewAddSource(name, element, mappings, source)

    # --------------------------- DROP ---------------------------------

    def _parse_drop(self) -> ast.Drop:
        self._expect(TokenType.KEYWORD, "DROP")
        if self._accept(TokenType.KEYWORD, "GRAPH"):
            self._expect(TokenType.KEYWORD, "VIEW")
            kind = "GRAPH VIEW"
        elif self._accept(TokenType.KEYWORD, "TABLE"):
            kind = "TABLE"
        elif self._accept(TokenType.KEYWORD, "VIEW"):
            kind = "VIEW"
        elif self._accept(TokenType.KEYWORD, "INDEX"):
            kind = "INDEX"
        else:
            raise self._error("expected TABLE, VIEW, INDEX or GRAPH VIEW")
        if_exists = False
        if self._accept(TokenType.KEYWORD, "IS"):
            # tolerated typo-path intentionally not supported; keep strict
            raise self._error("expected object name")
        name = self._expect_name()
        return ast.Drop(kind, name, if_exists)

    # --------------------------- DML ----------------------------------

    def _parse_insert(self) -> ast.Insert:
        self._expect(TokenType.KEYWORD, "INSERT")
        self._expect(TokenType.KEYWORD, "INTO")
        table = self._expect_name()
        columns: Optional[List[str]] = None
        if self._accept(TokenType.PUNCTUATION, "("):
            columns = [self._expect_name()]
            while self._accept(TokenType.PUNCTUATION, ","):
                columns.append(self._expect_name())
            self._expect(TokenType.PUNCTUATION, ")")
        if self._check_keyword("SELECT"):
            return ast.Insert(table, columns, [], query=self._parse_select())
        self._expect(TokenType.KEYWORD, "VALUES")
        rows: List[List[ast.Expression]] = []
        while True:
            self._expect(TokenType.PUNCTUATION, "(")
            row = [self._parse_expression()]
            while self._accept(TokenType.PUNCTUATION, ","):
                row.append(self._parse_expression())
            self._expect(TokenType.PUNCTUATION, ")")
            rows.append(row)
            if not self._accept(TokenType.PUNCTUATION, ","):
                break
        return ast.Insert(table, columns, rows)

    def _parse_update(self) -> ast.Update:
        self._expect(TokenType.KEYWORD, "UPDATE")
        table = self._expect_name()
        self._expect(TokenType.KEYWORD, "SET")
        assignments: List[Tuple[str, ast.Expression]] = []
        while True:
            column = self._expect_name()
            self._expect(TokenType.OPERATOR, "=")
            assignments.append((column, self._parse_expression()))
            if not self._accept(TokenType.PUNCTUATION, ","):
                break
        where = None
        if self._accept(TokenType.KEYWORD, "WHERE"):
            where = self._parse_expression()
        return ast.Update(table, assignments, where)

    def _parse_delete(self) -> ast.Delete:
        self._expect(TokenType.KEYWORD, "DELETE")
        self._expect(TokenType.KEYWORD, "FROM")
        table = self._expect_name()
        where = None
        if self._accept(TokenType.KEYWORD, "WHERE"):
            where = self._parse_expression()
        return ast.Delete(table, where)

    def _parse_truncate(self) -> ast.Truncate:
        self._expect(TokenType.KEYWORD, "TRUNCATE")
        self._accept(TokenType.KEYWORD, "TABLE")
        return ast.Truncate(self._expect_name())

    # -------------------------- SELECT --------------------------------

    def _parse_select(self) -> ast.Select:
        self._expect(TokenType.KEYWORD, "SELECT")
        distinct = bool(self._accept(TokenType.KEYWORD, "DISTINCT"))
        limit: Optional[int] = None
        if self._accept(TokenType.KEYWORD, "TOP"):
            limit = int(self._expect(TokenType.INTEGER).value)
        items = [self._parse_select_item()]
        while self._accept(TokenType.PUNCTUATION, ","):
            items.append(self._parse_select_item())
        self._expect(TokenType.KEYWORD, "FROM")
        from_items = [self._parse_from_item()]
        while self._accept(TokenType.PUNCTUATION, ","):
            from_items.append(self._parse_from_item())
        where = None
        if self._accept(TokenType.KEYWORD, "WHERE"):
            where = self._parse_expression()
        group_by: List[ast.Expression] = []
        if self._accept(TokenType.KEYWORD, "GROUP"):
            self._expect(TokenType.KEYWORD, "BY")
            group_by.append(self._parse_expression())
            while self._accept(TokenType.PUNCTUATION, ","):
                group_by.append(self._parse_expression())
        having = None
        if self._accept(TokenType.KEYWORD, "HAVING"):
            having = self._parse_expression()
        order_by: List[ast.OrderItem] = []
        if self._accept(TokenType.KEYWORD, "ORDER"):
            self._expect(TokenType.KEYWORD, "BY")
            while True:
                expression = self._parse_expression()
                ascending = True
                if self._accept(TokenType.KEYWORD, "DESC"):
                    ascending = False
                else:
                    self._accept(TokenType.KEYWORD, "ASC")
                order_by.append(ast.OrderItem(expression, ascending))
                if not self._accept(TokenType.PUNCTUATION, ","):
                    break
        offset = None
        if self._accept(TokenType.KEYWORD, "LIMIT"):
            limit = int(self._expect(TokenType.INTEGER).value)
        if self._accept(TokenType.KEYWORD, "OFFSET"):
            offset = int(self._expect(TokenType.INTEGER).value)
        return ast.Select(
            items,
            from_items,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_select_with_set_ops(self) -> ast.Statement:
        statement: ast.Statement = self._parse_select()
        while self._accept(TokenType.KEYWORD, "UNION"):
            all_rows = bool(self._accept(TokenType.KEYWORD, "ALL"))
            right = self._parse_select()
            statement = ast.SetOperation(statement, right, all_rows)
        return statement

    def _parse_select_item(self) -> ast.SelectItem:
        if self._check(TokenType.OPERATOR, "*"):
            self._advance()
            return ast.SelectItem(ast.Star())
        # alias.* form
        if (
            self._peek().type is TokenType.IDENTIFIER
            and self._peek(1).matches(TokenType.PUNCTUATION, ".")
            and self._peek(2).matches(TokenType.OPERATOR, "*")
        ):
            qualifier = self._advance().value
            self._advance()
            self._advance()
            return ast.SelectItem(ast.Star(qualifier))
        expression = self._parse_expression()
        alias = None
        if self._accept(TokenType.KEYWORD, "AS"):
            alias = self._expect_name()
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return ast.SelectItem(expression, alias)

    def _parse_from_item(self) -> ast.FromItem:
        item = self._parse_single_from_item()
        while self._check_keyword("JOIN", "INNER", "LEFT", "CROSS"):
            kind = "INNER"
            if self._accept(TokenType.KEYWORD, "INNER"):
                pass
            elif self._accept(TokenType.KEYWORD, "LEFT"):
                self._accept(TokenType.KEYWORD, "OUTER")
                kind = "LEFT"
            elif self._accept(TokenType.KEYWORD, "CROSS"):
                kind = "CROSS"
            self._expect(TokenType.KEYWORD, "JOIN")
            right = self._parse_single_from_item()
            condition = None
            if kind != "CROSS":
                self._expect(TokenType.KEYWORD, "ON")
                condition = self._parse_expression()
            item = ast.Join(item, right, condition, kind)
        return item

    def _parse_single_from_item(self) -> ast.FromItem:
        if self._check(TokenType.PUNCTUATION, "("):
            self._advance()
            query = self._parse_select()
            self._expect(TokenType.PUNCTUATION, ")")
            self._accept(TokenType.KEYWORD, "AS")
            if self._peek().type is not TokenType.IDENTIFIER:
                raise self._error("a derived table requires an alias")
            alias = self._advance().value
            return ast.SubquerySource(query, alias)
        name = self._expect_name()
        element: Optional[str] = None
        if self._check(TokenType.PUNCTUATION, "."):
            next_token = self._peek(1)
            if (
                next_token.type is TokenType.KEYWORD
                and next_token.upper in _GRAPH_ELEMENTS
            ):
                self._advance()  # '.'
                element = self._advance().value  # PATHS / VERTEXES / EDGES
        alias = None
        if self._peek().type is TokenType.IDENTIFIER:
            alias = self._advance().value
        hint = None
        if self._accept(TokenType.KEYWORD, "HINT"):
            hint = self._parse_hint()
        if element is not None:
            return ast.GraphRef(name, element, alias, hint)
        if hint is not None:
            raise self._error("HINT is only valid on GV.PATHS items")
        return ast.TableRef(name, alias)

    def _parse_hint(self) -> ast.TraversalHint:
        self._expect(TokenType.PUNCTUATION, "(")
        if self._accept(TokenType.KEYWORD, "SHORTESTPATH"):
            self._expect(TokenType.PUNCTUATION, "(")
            weight_attribute = self._expect_name()
            self._expect(TokenType.PUNCTUATION, ")")
            hint = ast.TraversalHint("SHORTESTPATH", weight_attribute)
        elif self._accept(TokenType.KEYWORD, "DFS"):
            hint = ast.TraversalHint("DFS")
        elif self._accept(TokenType.KEYWORD, "BFS"):
            hint = ast.TraversalHint("BFS")
        else:
            raise self._error("expected SHORTESTPATH, DFS or BFS")
        self._expect(TokenType.PUNCTUATION, ")")
        return hint

    # ----------------------- expressions ------------------------------

    def _parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self._accept(TokenType.KEYWORD, "OR"):
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._accept(TokenType.KEYWORD, "AND"):
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expression:
        if self._accept(TokenType.KEYWORD, "NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expression:
        left = self._parse_additive()
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in _COMPARISON_OPS:
            op = self._advance().value
            if op == "!=":
                op = "<>"
            return ast.BinaryOp(op, left, self._parse_additive())
        negated = False
        if self._check_keyword("NOT"):
            following = self._peek(1)
            if following.type is TokenType.KEYWORD and following.upper in (
                "IN",
                "LIKE",
                "BETWEEN",
            ):
                self._advance()
                negated = True
        if self._accept(TokenType.KEYWORD, "IN"):
            return self._parse_in(left, negated)
        if self._accept(TokenType.KEYWORD, "LIKE"):
            pattern = self._parse_additive()
            return ast.Like(left, pattern, negated)
        if self._accept(TokenType.KEYWORD, "BETWEEN"):
            low = self._parse_additive()
            self._expect(TokenType.KEYWORD, "AND")
            high = self._parse_additive()
            return ast.Between(left, low, high, negated)
        if self._accept(TokenType.KEYWORD, "IS"):
            is_negated = bool(self._accept(TokenType.KEYWORD, "NOT"))
            self._expect(TokenType.KEYWORD, "NULL")
            return ast.IsNull(left, is_negated)
        return left

    def _parse_in(self, operand: ast.Expression, negated: bool) -> ast.Expression:
        self._expect(TokenType.PUNCTUATION, "(")
        if self._check_keyword("SELECT"):
            subquery = self._parse_select()
            self._expect(TokenType.PUNCTUATION, ")")
            return ast.InSubquery(operand, subquery, negated)
        items = [self._parse_expression()]
        while self._accept(TokenType.PUNCTUATION, ","):
            items.append(self._parse_expression())
        self._expect(TokenType.PUNCTUATION, ")")
        return ast.InList(operand, items, negated)

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while True:
            token = self._tokens[self._position]
            if token.type is not TokenType.OPERATOR or token.value not in _ADDITIVE_OPS:
                return left
            self._advance()
            left = ast.BinaryOp(token.value, left, self._parse_multiplicative())

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while True:
            token = self._tokens[self._position]
            if (
                token.type is not TokenType.OPERATOR
                or token.value not in _MULTIPLICATIVE_OPS
            ):
                return left
            self._advance()
            left = ast.BinaryOp(token.value, left, self._parse_unary())

    def _parse_unary(self) -> ast.Expression:
        token = self._tokens[self._position]
        if token.type is TokenType.OPERATOR:
            if token.value == "-":
                self._advance()
                return ast.UnaryOp("-", self._parse_unary())
            if token.value == "+":
                self._advance()
                return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()
        if token.type is TokenType.IDENTIFIER:
            if self._peek(1).matches(TokenType.PUNCTUATION, "("):
                return self._parse_function_call(self._advance().value)
            return self._parse_field_access()
        if token.type is TokenType.INTEGER:
            return self._literal(int(token.value))
        if token.type is TokenType.FLOAT:
            return self._literal(float(token.value))
        if token.type is TokenType.STRING:
            return self._literal(token.value)
        if token.matches(TokenType.KEYWORD, "TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.matches(TokenType.KEYWORD, "FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.matches(TokenType.KEYWORD, "NULL"):
            self._advance()
            return ast.Literal(None)
        if token.matches(TokenType.PUNCTUATION, "?"):
            self._advance()
            parameter = ast.Parameter(self._parameter_count)
            self._parameter_count += 1
            return parameter
        if token.matches(TokenType.KEYWORD, "EXISTS"):
            self._advance()
            self._expect(TokenType.PUNCTUATION, "(")
            subquery = self._parse_select()
            self._expect(TokenType.PUNCTUATION, ")")
            return ast.ExistsSubquery(subquery)
        if token.matches(TokenType.KEYWORD, "CAST"):
            self._advance()
            self._expect(TokenType.PUNCTUATION, "(")
            operand = self._parse_expression()
            self._expect(TokenType.KEYWORD, "AS")
            type_name = self._expect_name()
            self._expect(TokenType.PUNCTUATION, ")")
            return ast.Cast(operand, type_name)
        if token.matches(TokenType.KEYWORD, "CASE"):
            return self._parse_case()
        if token.matches(TokenType.PUNCTUATION, "("):
            self._advance()
            if self._check_keyword("SELECT"):
                subquery = self._parse_select()
                self._expect(TokenType.PUNCTUATION, ")")
                return ast.ScalarSubquery(subquery)
            expression = self._parse_expression()
            self._expect(TokenType.PUNCTUATION, ")")
            return expression
        if token.type is TokenType.KEYWORD and token.upper in _AGGREGATE_KEYWORDS:
            return self._parse_function_call(self._advance().value)
        raise self._error("expected an expression")

    def _literal(self, value) -> ast.Literal:
        """The literal the current token spells, its offset recorded."""
        literal = ast.Literal(value)
        self.literal_offsets[id(literal)] = self._advance().offset
        return literal

    def _parse_case(self) -> ast.Expression:
        self._expect(TokenType.KEYWORD, "CASE")
        branches: List[Tuple[ast.Expression, ast.Expression]] = []
        while self._accept(TokenType.KEYWORD, "WHEN"):
            condition = self._parse_expression()
            self._expect(TokenType.KEYWORD, "THEN")
            result = self._parse_expression()
            branches.append((condition, result))
        otherwise = None
        if self._accept(TokenType.KEYWORD, "ELSE"):
            otherwise = self._parse_expression()
        self._expect(TokenType.KEYWORD, "END")
        if not branches:
            raise self._error("CASE requires at least one WHEN branch")
        return ast.CaseWhen(branches, otherwise)

    def _parse_function_call(self, name: str) -> ast.Expression:
        self._expect(TokenType.PUNCTUATION, "(")
        distinct = bool(self._accept(TokenType.KEYWORD, "DISTINCT"))
        args: List[ast.Expression] = []
        if self._check(TokenType.OPERATOR, "*"):
            self._advance()
            args.append(ast.Star())
        elif not self._check(TokenType.PUNCTUATION, ")"):
            args.append(self._parse_expression())
            while self._accept(TokenType.PUNCTUATION, ","):
                args.append(self._parse_expression())
        self._expect(TokenType.PUNCTUATION, ")")
        return ast.FunctionCall(name, args, distinct)

    def _parse_field_access(self) -> ast.Expression:
        base = self._expect(TokenType.IDENTIFIER).value
        accessors: List[ast.Node] = []
        while True:
            if self._check(TokenType.PUNCTUATION, "."):
                following = self._peek(1)
                if following.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
                    break
                self._advance()
                accessors.append(ast.NameAccessor(self._advance().value))
            elif self._check(TokenType.PUNCTUATION, "["):
                self._advance()
                start = int(self._expect(TokenType.INTEGER).value)
                if self._accept(TokenType.PUNCTUATION, "."):
                    self._expect(TokenType.PUNCTUATION, ".")
                    if self._check(TokenType.OPERATOR, "*"):
                        self._advance()
                        end: Optional[int] = None
                    else:
                        end = int(self._expect(TokenType.INTEGER).value)
                    accessors.append(ast.RangeAccessor(start, end))
                else:
                    accessors.append(ast.IndexAccessor(start))
                self._expect(TokenType.PUNCTUATION, "]")
            else:
                break
        if not accessors:
            return ast.Identifier(base)
        return ast.FieldAccess(base, accessors)


def parse_statement(text: str) -> ast.Statement:
    """Parse exactly one statement (a trailing ``;`` is allowed)."""
    return Parser(text).parse()


def parse_script(text: str) -> List[ast.Statement]:
    """Parse a ``;``-separated sequence of statements."""
    return [statement for statement, _source in Parser(text).parse_many()]
