from dataclasses import fields
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from lazylab.errors import DepthExceededError, LazyLabError, LexError, ParseError
from lazylab.lab import generate_program
from lazylab.syntax import (
    NESTING_LIMIT,
    Assign,
    Binary,
    Call,
    Expr,
    ExprStmt,
    FunctionDef,
    Ident,
    NumberLit,
    PrintStmt,
    Program,
    Stmt,
    TokKind,
    VectorCtor,
    format_number,
    format_value,
    parse_source,
    program_source,
    tokenize,
)


def kinds(tokens):
    return tokens.kinds


def texts(tokens):
    return tokens.texts


@pytest.mark.parametrize("error,text", [
    (LexError("m", 2, 5), "m (line 2, col 5)"),
    (LexError("m"), "m"),
], ids=["positioned", "unpositioned"])
def test_error_text_names_its_position(error, text):
    assert str(error) == text


class TestTokenize:
    def test_minimal_statement(self):
        toks = tokenize("x <- 1")
        assert kinds(toks) == [TokKind.IDENT, TokKind.ASSIGN, TokKind.NUMBER, TokKind.EOF]
        assert texts(toks) == ["x", "<-", "1", ""]

    def test_function_header(self):
        toks = tokenize("function(x=5,y=x*10,z=a+b)")
        assert kinds(toks)[:6] == [
            TokKind.KW_FUNCTION, TokKind.LPAREN, TokKind.IDENT,
            TokKind.ASSIGN, TokKind.NUMBER, TokKind.COMMA,
        ]
        assert texts(toks)[:6] == ["function", "(", "x", "=", "5", ","]
        # 18 tokens ahead of the trailing EOF
        assert len(toks) - 1 == 18
        assert toks.kinds[-1] is TokKind.EOF

    def test_illegal_character_position(self):
        with pytest.raises(LexError) as exc:
            tokenize("x <- @")
        assert (exc.value.line, exc.value.col) == (1, 6)
        assert exc.value.message == "unexpected character '@'"

    def test_both_assign_spellings(self):
        toks = tokenize("a = 1 b <- 2")
        assert [t for k, t in zip(toks.kinds, toks.texts) if k is TokKind.ASSIGN] == ["=", "<-"]

    def test_comments_and_newlines(self):
        toks = tokenize("x <- 1  # trailing note\ny <- 2")
        assert [t for k, t in zip(toks.kinds, toks.texts) if k is TokKind.IDENT] == ["x", "y"]
        y = toks.texts.index("y")
        assert (toks.lines[y], toks.cols[y]) == (2, 1)

    def test_decimal_literals(self):
        toks = tokenize("2.5 + 10")
        assert texts(toks)[:3] == ["2.5", "+", "10"]

    def test_positions_non_decreasing(self):
        toks = tokenize("a <- 1\nbb <- a * 2\nprint(bb)")
        positions = list(zip(toks.lines, toks.cols))
        assert positions == sorted(positions)

    # A tab and a `\r` are one column each; only `\n` starts a line.
    @pytest.mark.parametrize("source,expected", [
        ("x <- 1\r\nprint(x)\r\n", [
            ("IDENT", "x", 1, 1), ("ASSIGN", "<-", 1, 3), ("NUMBER", "1", 1, 6),
            ("IDENT", "print", 2, 1), ("LPAREN", "(", 2, 6), ("IDENT", "x", 2, 7),
            ("RPAREN", ")", 2, 8), ("EOF", "", 3, 1),
        ]),
        ("a\t<-\t2\n\tb", [
            ("IDENT", "a", 1, 1), ("ASSIGN", "<-", 1, 3), ("NUMBER", "2", 1, 6),
            ("IDENT", "b", 2, 2), ("EOF", "", 2, 3),
        ]),
        ("x <- 1 # end", [
            ("IDENT", "x", 1, 1), ("ASSIGN", "<-", 1, 3), ("NUMBER", "1", 1, 6),
            ("EOF", "", 1, 13),
        ]),
        ("1.5", [("NUMBER", "1.5", 1, 1), ("EOF", "", 1, 4)]),
        ("<-", [("ASSIGN", "<-", 1, 1), ("EOF", "", 1, 3)]),
        # Unicode decimal digits are digits, Unicode letters are letters
        ("٣ <- 1", [
            ("NUMBER", "٣", 1, 1), ("ASSIGN", "<-", 1, 3), ("NUMBER", "1", 1, 6),
            ("EOF", "", 1, 7),
        ]),
        ("é <- ٣.٥", [
            ("IDENT", "é", 1, 1), ("ASSIGN", "<-", 1, 3), ("NUMBER", "٣.٥", 1, 6),
            ("EOF", "", 1, 9),
        ]),
    ], ids=["crlf", "tabs", "comment-at-end", "decimal", "arrow", "arabic-digit", "letter"])
    def test_edge_case_tokens(self, source, expected):
        toks = tokenize(source)
        assert [(k.name, t, line, col) for k, t, line, col
                in zip(toks.kinds, toks.texts, toks.lines, toks.cols)] == expected

    @pytest.mark.parametrize("source,char,position", [
        ("1.", ".", (1, 2)),       # a number needs a digit after its '.'
        ("x <- 1.", ".", (1, 7)),
        ("1..5", ".", (1, 2)),
        ("<", "<", (1, 1)),        # a '<' that starts no '<-'
        ("x < 1", "<", (1, 3)),
        ("a <", "<", (1, 3)),
    ])
    def test_edge_case_lex_errors(self, source, char, position):
        with pytest.raises(LexError) as exc:
            tokenize(source)
        assert ((exc.value.message, (exc.value.line, exc.value.col))
                == (f"unexpected character {char!r}", position))

    def test_tokens_are_four_parallel_lists(self):
        toks = tokenize("f(x) <- 2.5")
        assert len(toks) == 7
        assert toks.kinds == [TokKind.IDENT, TokKind.LPAREN, TokKind.IDENT, TokKind.RPAREN,
                              TokKind.ASSIGN, TokKind.NUMBER, TokKind.EOF]
        assert toks.texts == ["f", "(", "x", ")", "<-", "2.5", ""]
        assert toks.lines == [1] * 7
        assert toks.cols == [1, 2, 3, 4, 6, 9, 12]


class TestParse:
    def test_program_one_structure(self, r_prog1_listing):
        program = parse_source(r_prog1_listing)
        assert len(program.stmts) == 2
        definition, call = program.stmts
        assert isinstance(definition, Assign) and definition.name == "lazy_eval"
        fn = definition.expr
        assert isinstance(fn, FunctionDef)
        assert [name for name, _ in fn.params] == ["x", "y", "z"]
        assert all(default is not None for _, default in fn.params)
        assert isinstance(call, ExprStmt)
        assert isinstance(call.expr, Call) and call.expr.args == ()

    def test_empty_source(self):
        assert parse_source("") == Program(())

    def test_vector_ctor(self):
        program = parse_source("c(x,y,z)")
        (stmt,) = program.stmts
        assert isinstance(stmt, ExprStmt)
        assert stmt.expr == VectorCtor((Ident("x"), Ident("y"), Ident("z")))

    def test_precedence(self):
        assert parse_source("a+b*c") == parse_source("a+(b*c)")
        assert parse_source("a-b-c") == parse_source("(a-b)-c")
        assert parse_source("a*b+c") == parse_source("(a*b)+c")
        # the round trip cannot see a parser and a printer that agree on the
        # wrong associativity; the parenthesised forms can
        assert parse_source("a/b/c") == parse_source("(a/b)/c")
        assert parse_source("a-b+c") == parse_source("(a-b)+c")
        assert parse_source("a/b*c") == parse_source("(a/b)*c")
        assert parse_source("a+b*c-d/e") == parse_source("(a+(b*c))-(d/e)")

    def test_long_operator_chain_compares_hashes_and_prints(self):
        terms = ["1"] * 3000
        chain = parse_source(" + ".join(terms))
        # other positions, same structure
        assert chain == parse_source("+".join(terms))
        assert hash(chain) == hash(parse_source("+".join(terms)))
        assert chain != parse_source(" + ".join(terms[:-1] + ["2"]))
        assert chain != parse_source(" + ".join(terms[:-2] + ["1 - 1"]))
        assert chain.stmts[0].expr != NumberLit(Decimal(1))
        one = "NumberLit(value=Decimal('1'))"
        assert repr(chain.stmts[0].expr) == (
            "Binary(op='+', lhs=" * 2999 + one + f", rhs={one})" * 2999)

    def test_paren_on_a_new_line_starts_a_statement(self):
        zero = NumberLit(Decimal(0))
        assert parse_source("0\n(0 + 0) * 0").stmts == (
            ExprStmt(zero),
            ExprStmt(Binary("*", Binary("+", zero, zero), zero)),
        )
        assert parse_source("f\n(x)").stmts == (ExprStmt(Ident("f")), ExprStmt(Ident("x")))
        assert parse_source("f(\nx)").stmts == (ExprStmt(Call(Ident("f"), ((None, Ident("x")),))),)

    def test_statement_equals_is_assign(self):
        (stmt,) = parse_source("x=2").stmts
        assert stmt == Assign("x", NumberLit(Decimal(2)))

    def test_call_equals_is_named_argument(self):
        (stmt,) = parse_source("f(x = 2)").stmts
        assert stmt.expr == Call(Ident("f"), (("x", NumberLit(Decimal(2))),))

    def test_arrow_in_argument_list_rejected(self):
        with pytest.raises(ParseError):
            parse_source("f(x <- 2)")

    def test_print_statement(self):
        (stmt,) = parse_source("print(y)").stmts
        assert isinstance(stmt, PrintStmt)
        assert stmt.expr == Ident("y")

    def test_statements_split_without_separators(self):
        program = parse_source("x=2\nprint(y)\nx=10\nprint(y)")
        assert [type(s) for s in program.stmts] == [Assign, PrintStmt, Assign, PrintStmt]

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(ParseError):
            parse_source("function(a, a){ a }")

    def test_duplicate_named_argument_rejected(self):
        with pytest.raises(ParseError):
            parse_source("f(a = 1, a = 2)")

    def test_empty_function_body_rejected(self):
        with pytest.raises(ParseError):
            parse_source("function(x){}")

    def test_equals_outside_call_parens_rejected(self):
        with pytest.raises(ParseError):
            parse_source("(x = 2)")

    @pytest.mark.parametrize("bad", ["f(,)", "x <-", "function(", "1 +", "a + )",
                                     "function(a <- 1) { a }", "f <- function(a) { a"])
    def test_errors_carry_positions_in_bounds(self, bad):
        with pytest.raises((ParseError, LexError)) as exc:
            parse_source(bad)
        err = exc.value
        assert err.line >= 1 and err.col >= 1
        assert err.line <= bad.count("\n") + 1


class TestFormatNumber:
    @pytest.mark.parametrize("text,expected", [
        ("5", "5"), ("2.50", "2.5"), ("0.0", "0"), ("10", "10"), ("0.125", "0.125"),
    ])
    def test_canonical(self, text, expected):
        assert format_number(Decimal(text)) == expected

    def test_negative_zero(self):
        assert format_number(Decimal("5") - Decimal("5.0")) == "0"

    # any finite Decimal: its digits, sign and exponent drawn directly, so
    # that `E+` and `E-` forms, -0 and trailing zeros all come up
    FINITE = (st.decimals(allow_nan=False, allow_infinity=False)
              | st.builds(lambda sign, digits, exponent: Decimal((sign, digits, exponent)),
                          st.integers(0, 1), st.lists(st.integers(0, 9), min_size=1,
                                                      max_size=30).map(tuple),
                          st.integers(-40, 40)))

    @settings(max_examples=300, deadline=None)
    @given(FINITE)
    @example(Decimal("-0"))
    @example(Decimal("-0E+3"))
    @example(Decimal("1E+2"))
    @example(Decimal("1.500"))
    @example(Decimal("-0.000"))
    @example(Decimal("1.0E-7"))
    def test_equals_the_fixed_point_rendering(self, d):
        fixed = format(d, "f")
        if "." in fixed:
            fixed = fixed.rstrip("0").rstrip(".")
        expected = "0" if fixed == "-0" else fixed
        assert format_number(d) == expected
        with localcontext() as context:
            context.capitals = 0  # str(d) then writes its exponent as `e`
            assert format_number(d) == expected

    @settings(max_examples=300, deadline=None)
    @given(FINITE, st.integers(1, 5))
    @example(Decimal("0"), 1)
    @example(Decimal("1E+30"), 2)
    @example(Decimal("2.5"), 3)
    def test_equal_values_print_the_same_text(self, d, zeros):
        """The premise of a traced `PromiseStore`'s one text per distinct
        value: equal Decimals print the same text, so sharing it can never
        change a trace."""
        _, digits, exponent = d.as_tuple()
        exact = Context(prec=len(digits) + zeros, Emax=MAX_EMAX, Emin=MIN_EMIN)  # no rounding
        twins = [
            d.normalize(exact),
            d.quantize(Decimal((0, (1,), exponent - zeros)), context=exact),  # trailing zeros
            Decimal(format(d, "f")),  # its digits, as 1E+30 and 1000...0
            d.copy_negate() if d.is_zero() else d,  # 0 and -0
        ]
        for twin in twins:
            assert twin == d
            assert format_value(twin) == format_value(d)


class TestCallWeight:
    def weights(self, source):
        """The weight of each call in the program, in source order."""
        found = []

        def walk(node):
            if isinstance(node, tuple):
                for item in node:
                    walk(item)
            elif isinstance(node, (Expr, Stmt)):
                if isinstance(node, Call):
                    found.append((node.pos, node.weight))
                for f in fields(node):
                    walk(getattr(node, f.name))
        walk(parse_source(source).stmts)
        return [weight for _, weight in sorted(found)]

    @pytest.mark.parametrize("source,weights", [
        ("f()\n", [1]),
        # bare parentheses and one unparenthesised chain make no level
        ("((f()))\n", [1]),
        ("x + f(x + 1)\n", [1]),
        ("(f() + 1) * 2\n", [1]),
        # each `(` that opens a right operand and each `c(` list does
        ("1 + (1 + (f()))\n", [3]),
        ("1 + 2 * (f())\n", [2]),
        ("1 + (2) * f()\n", [1]),
        ("c(1, (g(1 + (f()))))\n", [2, 2]),
        # a callee is read inside each call chained on it
        ("f()()()\n", [3, 2, 1]),
        ("(f()())()\n", [3, 2, 1]),
        # counted from the innermost function or argument list
        ("g(g(f()))\n", [1, 1, 1]),
        ("g(function(x = h(f())) { c(1, f(x)) })\n", [1, 1, 1, 2]),
    ])
    def test_weight_counts_the_nesting_in_its_function(self, source, weights):
        assert self.weights(source) == weights

    def test_weight_is_not_compared(self):
        assert Call(Ident("f"), (), weight=3) == Call(Ident("f"), ())
        assert Call(Ident("f"), ((None, Ident("x")),), weights=(2,)) == \
            Call(Ident("f"), ((None, Ident("x")),))

    @pytest.mark.parametrize("source,weights", [
        ("f(x, 1 + 2)\n", None),
        # each `c(` list and each `(` that opens a right operand around a
        # name read counts, from the start of the argument
        ("f(c(1, x))\n", (2,)),
        ("f(y, c(1, c(1, x)), z = 1 + (1 + (x)))\n", (1, 3, 3)),
        ("f(c(1, g()))\n", (2,)),
        # no read, bare parentheses, or a read in a nested argument list or
        # function body count nothing
        ("f(c(1, 2), 1 + (2))\n", None),
        ("f(((x)))\n", None),
        ("f(c(1, function(a) { c(1, a) }), g(c(1, x)))\n", None),
    ])
    def test_argument_weight_counts_the_nesting_around_its_reads(self, source, weights):
        (stmt,) = parse_source(source).stmts
        assert stmt.expr.weights == weights

    def test_default_weight_counts_the_nesting_around_its_reads(self):
        (stmt,) = parse_source("function(a = c(1, b), d, e = 1 + (b), f = c(1)) { a }\n").stmts
        assert stmt.expr.weights == (2, 1, 2, 1)
        (stmt,) = parse_source("function(a = b, d) { c(1, a) }\n").stmts
        assert stmt.expr.weights is None

    @pytest.mark.parametrize("source,reads", [
        ("function(a) { a }\n", 0),
        # the deepest read of the body counts, from the body's own start
        ("function(a) { print(c(1, a))\n1 + (1 + (a)) }\n", 2),
        ("function(a = c(1, c(1, b))) { c(1, a) }\n", 1),
        # reads in an argument list or a nested function body count nothing
        ("function(a) { g(c(1, a))\nfunction(b) { c(1, c(1, b)) } }\n", 0),
        ("function(a) { c(1, 2) }\n", 0),
    ])
    def test_body_reads_count_the_nesting_around_its_reads(self, source, reads):
        (stmt,) = parse_source(source).stmts
        assert stmt.expr.reads == reads
        assert stmt.expr == FunctionDef(stmt.expr.params, stmt.expr.body)


# --- the parser against a reference: the earlier parser, kept verbatim, which
# reads every token through peek/advance/expect/opens_args

_NUMBER, _IDENT, _ASSIGN, _OP = TokKind.NUMBER, TokKind.IDENT, TokKind.ASSIGN, TokKind.OP
_LPAREN, _RPAREN, _LBRACE, _RBRACE = TokKind.LPAREN, TokKind.RPAREN, TokKind.LBRACE, TokKind.RBRACE
_COMMA, _KW_FUNCTION, _EOF = TokKind.COMMA, TokKind.KW_FUNCTION, TokKind.EOF
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


class SrcToken(NamedTuple):
    """One token as a value, as the reference parser and tokenizer read it."""
    kind: TokKind
    text: str
    line: int
    col: int


class _ReferenceParser:
    def __init__(self, tokens: list[SrcToken]):
        self.toks = tokens
        self.i = 0
        self.depth = 0  # open parentheses, lists and chained calls
        # open `c(` lists and `(` that open a right operand, in the innermost
        # function or argument list
        self.levels = 0
        self.operand = -1  # index of the token that starts the last right operand

    def peek(self, ahead: int = 0) -> SrcToken:
        # in bounds: advance() stops at the final EOF, and peek(1) is only
        # asked after peek() returned a name
        return self.toks[self.i + ahead]

    def advance(self) -> SrcToken:
        tok = self.toks[self.i]
        if tok.kind is not _EOF:
            self.i += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        tok = self.peek()
        shown = tok.text if tok.kind is not _EOF else "end of input"
        raise ParseError(f"expected {' or '.join(expected)}, found {shown!r}", tok.line, tok.col)

    def opens_args(self, ahead: int) -> bool:
        """Is peek(ahead) a `(` on the same line as the token just before it?"""
        tok = self.peek(ahead)
        return tok.kind is _LPAREN and tok.line == self.toks[self.i + ahead - 1].line

    def expect(self, kind: TokKind, what: str) -> SrcToken:
        if self.peek().kind is not kind:
            self.fail((what,))
        return self.advance()

    def open_paren(self):
        """Consume a `(`, one level deeper until its close_paren()."""
        tok = self.expect(_LPAREN, "'('")
        self.depth += 1
        if self.depth > NESTING_LIMIT:
            raise DepthExceededError("opening '('", NESTING_LIMIT,
                                     "nested parentheses, lists and calls").at(tok.line, tok.col)

    def close_paren(self):
        self.expect(_RPAREN, "')'")
        self.depth -= 1

    # statements

    def program(self) -> Program:
        stmts = []
        while self.peek().kind is not _EOF:
            stmts.append(self.statement())
        return Program(tuple(stmts))

    def statement(self) -> Stmt:
        tok = self.peek()
        pos = (tok.line, tok.col)
        if tok.kind is _IDENT and tok.text == "print" and self.opens_args(1):
            self.advance()
            self.advance()
            e = self.expression()
            self.expect(_RPAREN, "')'")
            return PrintStmt(e, pos)
        if tok.kind is _IDENT and self.peek(1).kind is _ASSIGN:
            self.advance()
            self.advance()
            e = self.expression()
            return Assign(tok.text, e, pos)
        e = self.expression()
        return ExprStmt(e, pos)

    # expressions

    def expression(self, min_prec: int = 1) -> Expr:
        """Precedence climbing over _PREC: an operand, then each operator that
        binds at least min_prec with its right operand.  A chain of one
        precedence is read in this loop, and the tree is left-deep."""
        left = self.factor()
        while (op := self.peek()).kind is _OP and _PREC[op.text] >= min_prec:
            self.advance()
            self.operand = self.i
            right = self.expression(_PREC[op.text] + 1)
            left = Binary(op.text, left, right, (op.line, op.col))
        return left

    def factor(self) -> Expr:
        """A primary and the calls chained on it.

        A call's weight is 1 plus the evaluator frames around it that no call
        or promise counts, from the start of its function or argument list:
        each open `c(` list, each open `(` that opens a right operand, and
        each call it is the callee of, as in `f()()`.  Bare parentheses make
        no frame, a call's arguments are read inside its own level, and the
        chains of `Binary` that precedence alone nests fit in a level."""
        e = self.primary()
        depth = self.depth
        while self.opens_args(0):
            tok = self.peek()
            levels = self.levels
            self.levels = 0
            args = tuple(self.comma_list(self.call_arg, set()))
            self.levels = levels
            e = Call(e, args, (tok.line, tok.col), 1 + levels)
            self.depth += 1  # the next call's tree holds this one
        chained = self.depth - depth
        if chained:
            self.depth = depth
            # the evaluator reads each callee one frame inside each call chained on it
            callee, k = e.callee, 1
            while callee.__class__ is Call:
                callee.weight += min(k, chained)
                callee, k = callee.callee, k + 1
        return e

    def primary(self) -> Expr:
        tok = self.peek()
        pos = (tok.line, tok.col)
        if tok.kind is _NUMBER:
            self.advance()
            return NumberLit(Decimal(tok.text), pos)
        if tok.kind is _IDENT:
            self.advance()
            if tok.text == "c" and self.opens_args(0):
                self.levels += 1  # the evaluator reads the elements in a _vector frame
                elements = tuple(self.comma_list(self.expression))
                self.levels -= 1
                return VectorCtor(elements, pos)
            return Ident(tok.text, pos)
        if tok.kind is _LPAREN:
            # a right operand in parentheses can hold a chain of its own,
            # which the evaluator reads in a deeper _binary frame
            nested = self.i == self.operand
            self.open_paren()
            self.levels += nested
            e = self.expression()
            self.levels -= nested
            self.close_paren()
            return e
        if tok.kind is _KW_FUNCTION:
            return self.function_def()
        self.fail(("a number", "a name", "'('", "'function'"))
        raise AssertionError("unreachable")

    def comma_list(self, item, *args) -> list:
        """Read `( item, ... )`, calling item(*args) for each entry."""
        self.open_paren()
        items = []
        if self.peek().kind is not _RPAREN:
            items.append(item(*args))
            while self.peek().kind is _COMMA:
                self.advance()
                items.append(item(*args))
        self.close_paren()
        return items

    @staticmethod
    def reject_duplicate(tok: SrcToken, seen: set[str], what: str):
        if tok.text in seen:
            raise ParseError(f"duplicate {what} '{tok.text}'", tok.line, tok.col)
        seen.add(tok.text)

    def call_arg(self, seen: set[str]) -> tuple[str | None, Expr]:
        tok = self.peek()
        if tok.kind is _IDENT and self.peek(1).kind is _ASSIGN:
            assign = self.peek(1)
            if assign.text != "=":
                raise ParseError(
                    "assignment is not allowed in an argument list",
                    assign.line, assign.col,
                )
            self.reject_duplicate(tok, seen, "named argument")
            self.advance()
            self.advance()
            return tok.text, self.expression()
        return None, self.expression()

    def param(self, seen: set[str]) -> tuple[str, Expr | None]:
        name_tok = self.expect(_IDENT, "a parameter name")
        self.reject_duplicate(name_tok, seen, "parameter")
        if self.peek().kind is not _ASSIGN:
            return name_tok.text, None
        assign = self.advance()
        if assign.text != "=":
            raise ParseError("parameter defaults are written with '='", assign.line, assign.col)
        return name_tok.text, self.expression()

    def function_def(self) -> FunctionDef:
        kw = self.expect(_KW_FUNCTION, "'function'")
        levels = self.levels
        self.levels = 0  # a call of it reads its defaults and body
        params = self.comma_list(self.param, set())
        self.expect(_LBRACE, "'{'")
        body: list[Stmt] = []
        while self.peek().kind is not _RBRACE:
            if self.peek().kind is _EOF:
                self.fail(("'}'",))
            body.append(self.statement())
        if not body:
            self.fail(("a statement (function bodies cannot be empty)",))
        self.expect(_RBRACE, "'}'")
        self.levels = levels
        return FunctionDef(tuple(params), tuple(body), (kw.line, kw.col))


def _outcome(parse, source):
    """The program parsed from source, or the class, message and position of its error."""
    try:
        return parse(source)
    except LazyLabError as err:
        return type(err), err.message, err.line, err.col


def _positions_and_weights(program):
    """Each node's class, `pos` and call weights, depth first: equality ignores them."""
    found, stack = [], [program.stmts]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(reversed(node))
        elif isinstance(node, (Expr, Stmt)):
            found.append((type(node).__name__, node.pos, getattr(node, "weight", None)))
            stack.extend(getattr(node, f.name) for f in reversed(fields(node))
                         if f.name not in ("pos", "weight", "weights"))
    return found


# Token soup: every token kind, a newline before a `(`, the names that the
# parser treats specially, fragments that make calls, lists and right
# operands nest, and runs that nest past NESTING_LIMIT.
_TOKENS = [
    "a", "x", "c", "print", "function", "f", "7", "2.5",
    "+", "-", "*", "/", "(", ")", "{", "}", ",", "<-", "=", "\n", "\n(",
    "f(", "c(1, ", "1 + (", "x * (", "f()(", "function(a, b = 1) {", "x <- ", "print(",
    "(" * 60, "c(" * 60, "f(" * 60, "()" * 60, "1 + (" * 60, "(" * (NESTING_LIMIT + 1),
]
_SOUP = st.lists(st.sampled_from(_TOKENS), max_size=40).map(" ".join)

# Mostly well-formed programs with soup tokens dropped in, so that whole trees
# with calls under lists, right operands and chains get compared too.
_EXPRS = st.recursive(
    st.sampled_from(["a", "x", "c", "print", "f", "7", "2.5"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(" ".join),
        inner.map("f({})".format), inner.map("c(1, {})".format), inner.map("({})".format),
        inner.map("1 + ({})".format), inner.map("{}()".format),
        *(st.tuples(inner, inner).map(lambda t, form=form: form.format(*t))
          for form in ("{}\n({})", "g({}, y = {})", "function(a, b = {}) {{ {} }}")),
    ), max_leaves=12)
_PROGRAMS = st.lists(
    st.tuples(st.sampled_from(["{}", "x <- {}", "y = {}", "print({})"]), _EXPRS)
    .map(lambda t: t[0].format(t[1])), min_size=1, max_size=4).map("\n".join)


@st.composite
def _sources(draw):
    if draw(st.booleans()):
        return draw(_SOUP)
    words = draw(_PROGRAMS).split(" ")
    for at, token in draw(st.lists(st.tuples(st.integers(0, 99), st.sampled_from(_TOKENS)),
                                   max_size=2)):
        words.insert(at % (len(words) + 1), token)
    return " ".join(words)


@settings(max_examples=500, deadline=None)
@given(_sources())
@example(generate_program(1, 12))
@example("f <- function(x, y = c(1, (x))) { g(x)(1 + (f(y)))\n(x) }\nprint(c(1, f()()))\n")
@example("(f()())()\ng(function(x = h(f())) { c(1, f(x)) })\n1 + 2 * (f())\n")
@example("f(a <- 1)")
@example("function(a, a) { a }")
@example("f <- function(a) {\n  a +\n}\n")
def test_parser_matches_the_reference(source):
    def reference(text):
        toks = tokenize(text)
        tokens = [SrcToken(*t) for t in zip(toks.kinds, toks.texts, toks.lines, toks.cols)]
        return _ReferenceParser(tokens).program()

    got, expected = _outcome(parse_source, source), _outcome(reference, source)
    assert got == expected
    if isinstance(got, Program):
        assert _positions_and_weights(got) == _positions_and_weights(expected)


# --- the tokenizer against a reference: the earlier tokenizer, kept verbatim,
# which builds a SrcToken per token

_REFERENCE_SINGLE = {
    "=": _ASSIGN,
    "+": _OP, "-": _OP, "*": _OP, "/": _OP,
    "(": _LPAREN, ")": _RPAREN, "{": _LBRACE, "}": _RBRACE, ",": _COMMA,
}


def _reference_tokenize(source: str) -> list[SrcToken]:
    tokens: list[SrcToken] = []
    append = tokens.append
    i, line, start, n = 0, 1, 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            start = i
        elif ch in " \t\r":
            i += 1
        elif ch == "#":
            i = source.find("\n", i)
            if i < 0:
                i = n
        elif ch in _REFERENCE_SINGLE:
            append(SrcToken(_REFERENCE_SINGLE[ch], ch, line, i - start + 1))
            i += 1
        elif ch.isdecimal():
            j = i + 1
            while j < n and source[j].isdecimal():
                j += 1
            if j < n - 1 and source[j] == "." and source[j + 1].isdecimal():
                j += 2
                while j < n and source[j].isdecimal():
                    j += 1
            append(SrcToken(_NUMBER, source[i:j], line, i - start + 1))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            append(SrcToken(_KW_FUNCTION if text == "function" else _IDENT, text, line,
                            i - start + 1))
            i = j
        elif ch == "<" and source.startswith("-", i + 1):
            append(SrcToken(_ASSIGN, "<-", line, i - start + 1))
            i += 2
        else:
            raise LexError(f"unexpected character {ch!r}", line, i - start + 1)
    append(SrcToken(_EOF, "", line, n - start + 1))
    return tokens


# name, keyword and digit characters, every separator and token character, and
# characters that a name may hold (`²`, `½`), that start one (`é`) or that
# start a number (`٣`), but that are neither ASCII letters nor ASCII digits
_LEX_PIECES = [
    "a", "b", "c", "_", "function", "0", "1", "2", "9", ".", " ", "\t", "\r", "\n", "#",
    "<", "-", "=", "+", "*", "/", "(", ")", "{", "}", ",", "\u00b2", "\u00bd", "\u00e9",
    "\u0663",
]


def _reference_lexed(source):
    """Each reference token as (kind, text, line, col), or the LexError's message and position."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in _reference_tokenize(source)]
    except LexError as err:
        return err.message, err.line, err.col


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_LEX_PIECES), max_size=40).map("".join))
@example("x <- 1 # note\r\ny <- a\u00b2 + \u00b2\n")
@example("function_ functiona a\u00e9\u00bd\u00b2 _1 \u0663.\u0663\t# c\r\n<-")
@example("1.2.3")
@example("a <\r-")
@example(generate_program(1, 12))
def test_tokenizer_matches_the_reference(source):
    try:
        toks = tokenize(source)
    except LexError as err:
        assert (err.message, err.line, err.col) == _reference_lexed(source)
        return
    expected = _reference_lexed(source)
    assert list(zip(toks.kinds, toks.texts, toks.lines, toks.cols)) == expected


# --- round trip: printing any parsed program and re-parsing is identity

_names = st.sampled_from(["a", "b", "x", "y", "zz", "v1"])
_numbers = st.integers(0, 99).map(lambda n: NumberLit(Decimal(n)))


def _exprs(depth):
    if depth <= 0:
        return st.one_of(_numbers, _names.map(Ident))
    sub = _exprs(depth - 1)
    return st.one_of(
        _numbers,
        _names.map(Ident),
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(lambda t: Binary(*t)),
        st.lists(sub, min_size=0, max_size=3).map(lambda es: VectorCtor(tuple(es))),
        st.tuples(_names, st.lists(sub, min_size=0, max_size=2)).map(
            lambda t: Call(Ident(t[0]), tuple((None, e) for e in t[1]))
        ),
    )


def _stmts(depth):
    expr = _exprs(depth)
    return st.one_of(
        expr.map(lambda e: ExprStmt(e)),
        st.tuples(_names, expr).map(lambda t: Assign(*t)),
        expr.map(lambda e: PrintStmt(e)),
    )


_programs = st.builds(
    lambda stmts, fn: Program(tuple(stmts) + (fn,)),
    st.lists(_stmts(2), min_size=0, max_size=4),
    st.builds(
        lambda params, body: ExprStmt(FunctionDef(tuple(params), tuple(body))),
        st.lists(
            st.tuples(_names, st.one_of(st.none(), _exprs(1))), min_size=1, max_size=3,
            unique_by=lambda p: p[0],
        ),
        st.lists(_stmts(1), min_size=1, max_size=3),
    ),
)


@settings(max_examples=60, deadline=None)
@given(_programs)
@example(parse_source("(function(a) { a })(1)\n"))
def test_print_parse_round_trip(program):
    assert parse_source(program_source(program)) == program


@settings(max_examples=40, deadline=None)
@given(_programs)
def test_printer_is_canonical(program):
    text = program_source(program)
    assert program_source(parse_source(text)) == text
