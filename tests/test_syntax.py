from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from lazylab.errors import LexError, ParseError
from lazylab.syntax import (
    Assign,
    Binary,
    Call,
    ExprStmt,
    FunctionDef,
    Ident,
    NumberLit,
    PrintStmt,
    Program,
    TokKind,
    VectorCtor,
    format_number,
    parse_source,
    program_source,
    tokenize,
)


def kinds(tokens):
    return [t.kind for t in tokens]


def texts(tokens):
    return [t.text for t in tokens]


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
        assert toks[-1].kind is TokKind.EOF

    def test_illegal_character_position(self):
        with pytest.raises(LexError) as exc:
            tokenize("x <- @")
        assert (exc.value.line, exc.value.col) == (1, 6)
        assert exc.value.message == "unexpected character '@'"

    def test_both_assign_spellings(self):
        toks = tokenize("a = 1 b <- 2")
        assert [t.text for t in toks if t.kind is TokKind.ASSIGN] == ["=", "<-"]

    def test_comments_and_newlines(self):
        toks = tokenize("x <- 1  # trailing note\ny <- 2")
        assert [t.text for t in toks if t.kind is TokKind.IDENT] == ["x", "y"]
        y = [t for t in toks if t.text == "y"][0]
        assert (y.line, y.col) == (2, 1)

    def test_decimal_literals(self):
        toks = tokenize("2.5 + 10")
        assert texts(toks)[:3] == ["2.5", "+", "10"]

    def test_positions_non_decreasing(self):
        toks = tokenize("a <- 1\nbb <- a * 2\nprint(bb)")
        positions = [(t.line, t.col) for t in toks]
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
        assert [(t.kind.name, t.text, t.line, t.col) for t in tokenize(source)] == expected

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
