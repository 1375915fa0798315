"""Lexer, AST, parser, and canonical printer for funclang.

funclang is a tiny expression language: decimal scalars, `+ - * /`,
assignment with `<-` or `=`, `function(a, b = expr){ ... }` definitions with
per-parameter default expressions, calls with named or positional arguments,
a flat vector constructor `c(...)`, and a `print(...)` statement.  There are
no statement separators; a statement ends where the expression can no longer
be extended.  The `(` of an argument list must be on the line where its callee
ends, so a statement may start with a parenthesised expression.
"""

from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum

from .errors import LexError, ParseError

Pos = tuple[int, int]
NO_POS: Pos = (0, 0)


# --- tokens

class TokKind(str, Enum):
    NUMBER = "NUMBER"
    IDENT = "IDENT"
    ASSIGN = "ASSIGN"
    OP = "OP"
    LPAREN = "LPAREN"
    RPAREN = "RPAREN"
    LBRACE = "LBRACE"
    RBRACE = "RBRACE"
    COMMA = "COMMA"
    KW_FUNCTION = "KW_FUNCTION"
    EOF = "EOF"


@dataclass(frozen=True)
class SrcToken:
    kind: TokKind
    text: str
    line: int
    col: int


_PUNCT = {
    "(": TokKind.LPAREN,
    ")": TokKind.RPAREN,
    "{": TokKind.LBRACE,
    "}": TokKind.RBRACE,
    ",": TokKind.COMMA,
}


def tokenize(source: str) -> list[SrcToken]:
    """Split funclang source into tokens; `#` starts a comment to end of line."""
    tokens: list[SrcToken] = []
    i, line, col, n = 0, 1, 1, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        start_line, start_col = line, col
        if ch.isdecimal():
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            if j < n - 1 and source[j] == "." and source[j + 1].isdecimal():
                j += 1
                while j < n and source[j].isdecimal():
                    j += 1
            tokens.append(SrcToken(TokKind.NUMBER, source[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = TokKind.KW_FUNCTION if text == "function" else TokKind.IDENT
            tokens.append(SrcToken(kind, text, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch == "<" and i + 1 < n and source[i + 1] == "-":
            tokens.append(SrcToken(TokKind.ASSIGN, "<-", start_line, start_col))
            i += 2
            col += 2
            continue
        if ch == "=":
            tokens.append(SrcToken(TokKind.ASSIGN, "=", start_line, start_col))
            i += 1
            col += 1
            continue
        if ch in "+-*/":
            tokens.append(SrcToken(TokKind.OP, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch in _PUNCT:
            tokens.append(SrcToken(_PUNCT[ch], ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise LexError(f"unexpected character {ch!r}", line, col, char=ch)
    tokens.append(SrcToken(TokKind.EOF, "", line, col))
    return tokens


# --- AST
#
# Positions are carried for diagnostics but excluded from equality, so that
# structural comparison (and the print/re-parse round trip) ignores layout.

class Expr:
    pass


@dataclass(frozen=True)
class NumberLit(Expr):
    value: Decimal
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class Ident(Expr):
    name: str
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class Call(Expr):
    callee: Expr
    args: tuple[tuple[str | None, Expr], ...]
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class FunctionDef(Expr):
    params: tuple[tuple[str, Expr | None], ...]
    body: tuple["Stmt", ...]
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class VectorCtor(Expr):
    elements: tuple[Expr, ...]
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


class Stmt:
    pass


@dataclass(frozen=True)
class Assign(Stmt):
    name: str
    expr: Expr
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class ExprStmt(Stmt):
    expr: Expr
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class PrintStmt(Stmt):
    expr: Expr
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(frozen=True)
class Program:
    stmts: tuple[Stmt, ...]


# --- parser

class _Parser:
    def __init__(self, tokens: list[SrcToken]):
        self.toks = tokens
        self.i = 0

    def peek(self, ahead: int = 0) -> SrcToken:
        # in bounds: advance() stops at the final EOF, and peek(1) is only
        # asked after peek() returned a name
        return self.toks[self.i + ahead]

    def advance(self) -> SrcToken:
        tok = self.toks[self.i]
        if tok.kind is not TokKind.EOF:
            self.i += 1
        return tok

    def fail(self, expected: tuple[str, ...], tok: SrcToken | None = None):
        tok = tok or self.peek()
        shown = tok.text if tok.kind is not TokKind.EOF else "end of input"
        raise ParseError(
            f"expected {' or '.join(expected)}, found {shown!r}",
            tok.line, tok.col, expected=expected,
        )

    def opens_args(self, ahead: int) -> bool:
        """Is peek(ahead) a `(` on the same line as the token just before it?"""
        tok = self.peek(ahead)
        return tok.kind is TokKind.LPAREN and tok.line == self.toks[self.i + ahead - 1].line

    def expect(self, kind: TokKind, what: str) -> SrcToken:
        if self.peek().kind is not kind:
            self.fail((what,))
        return self.advance()

    # statements

    def program(self) -> Program:
        stmts = []
        while self.peek().kind is not TokKind.EOF:
            stmts.append(self.statement())
        return Program(tuple(stmts))

    def statement(self) -> Stmt:
        tok = self.peek()
        pos = (tok.line, tok.col)
        if tok.kind is TokKind.IDENT and tok.text == "print" and self.opens_args(1):
            self.advance()
            self.advance()
            e = self.expression()
            self.expect(TokKind.RPAREN, "')'")
            return PrintStmt(e, pos)
        if tok.kind is TokKind.IDENT and self.peek(1).kind is TokKind.ASSIGN:
            self.advance()
            self.advance()
            e = self.expression()
            return Assign(tok.text, e, pos)
        e = self.expression()
        return ExprStmt(e, pos)

    # expressions, lowest precedence first

    def expression(self) -> Expr:
        left = self.term()
        while self.peek().kind is TokKind.OP and self.peek().text in "+-":
            op = self.advance()
            right = self.term()
            left = Binary(op.text, left, right, (op.line, op.col))
        return left

    def term(self) -> Expr:
        left = self.factor()
        while self.peek().kind is TokKind.OP and self.peek().text in "*/":
            op = self.advance()
            right = self.factor()
            left = Binary(op.text, left, right, (op.line, op.col))
        return left

    def factor(self) -> Expr:
        e = self.primary()
        while self.opens_args(0):
            tok = self.peek()
            e = Call(e, self.call_args(), (tok.line, tok.col))
        return e

    def primary(self) -> Expr:
        tok = self.peek()
        pos = (tok.line, tok.col)
        if tok.kind is TokKind.NUMBER:
            self.advance()
            return NumberLit(Decimal(tok.text), pos)
        if tok.kind is TokKind.IDENT:
            if tok.text == "c" and self.opens_args(1):
                self.advance()
                return VectorCtor(self.vector_elements(), pos)
            self.advance()
            return Ident(tok.text, pos)
        if tok.kind is TokKind.LPAREN:
            self.advance()
            e = self.expression()
            self.expect(TokKind.RPAREN, "')'")
            return e
        if tok.kind is TokKind.KW_FUNCTION:
            return self.function_def()
        self.fail(("a number", "a name", "'('", "'function'"))
        raise AssertionError("unreachable")

    def vector_elements(self) -> tuple[Expr, ...]:
        self.expect(TokKind.LPAREN, "'('")
        elems: list[Expr] = []
        if self.peek().kind is not TokKind.RPAREN:
            elems.append(self.expression())
            while self.peek().kind is TokKind.COMMA:
                self.advance()
                elems.append(self.expression())
        self.expect(TokKind.RPAREN, "')'")
        return tuple(elems)

    def call_args(self) -> tuple[tuple[str | None, Expr], ...]:
        self.expect(TokKind.LPAREN, "'('")
        args: list[tuple[str | None, Expr]] = []
        seen: set[str] = set()
        if self.peek().kind is not TokKind.RPAREN:
            while True:
                args.append(self.call_arg(seen))
                if self.peek().kind is TokKind.COMMA:
                    self.advance()
                    continue
                break
        self.expect(TokKind.RPAREN, "')'")
        return tuple(args)

    def call_arg(self, seen: set[str]) -> tuple[str | None, Expr]:
        tok = self.peek()
        if tok.kind is TokKind.IDENT and self.peek(1).kind is TokKind.ASSIGN:
            assign = self.peek(1)
            if assign.text != "=":
                raise ParseError(
                    "assignment is not allowed in an argument list",
                    assign.line, assign.col,
                )
            if tok.text in seen:
                raise ParseError(
                    f"duplicate named argument '{tok.text}'", tok.line, tok.col
                )
            seen.add(tok.text)
            self.advance()
            self.advance()
            return tok.text, self.expression()
        return None, self.expression()

    def function_def(self) -> FunctionDef:
        kw = self.expect(TokKind.KW_FUNCTION, "'function'")
        self.expect(TokKind.LPAREN, "'('")
        params: list[tuple[str, Expr | None]] = []
        seen: set[str] = set()
        if self.peek().kind is not TokKind.RPAREN:
            while True:
                name_tok = self.expect(TokKind.IDENT, "a parameter name")
                if name_tok.text in seen:
                    raise ParseError(
                        f"duplicate parameter '{name_tok.text}'",
                        name_tok.line, name_tok.col,
                    )
                seen.add(name_tok.text)
                default: Expr | None = None
                if self.peek().kind is TokKind.ASSIGN:
                    assign = self.advance()
                    if assign.text != "=":
                        raise ParseError(
                            "parameter defaults are written with '='",
                            assign.line, assign.col,
                        )
                    default = self.expression()
                params.append((name_tok.text, default))
                if self.peek().kind is TokKind.COMMA:
                    self.advance()
                    continue
                break
        self.expect(TokKind.RPAREN, "')'")
        self.expect(TokKind.LBRACE, "'{'")
        body: list[Stmt] = []
        while self.peek().kind is not TokKind.RBRACE:
            if self.peek().kind is TokKind.EOF:
                self.fail(("'}'",))
            body.append(self.statement())
        if not body:
            self.fail(("a statement (function bodies cannot be empty)",))
        self.expect(TokKind.RBRACE, "'}'")
        return FunctionDef(tuple(params), tuple(body), (kw.line, kw.col))


def parse_program(tokens: list[SrcToken]) -> Program:
    """Parse a full token stream (ending in EOF) into a Program."""
    return _Parser(tokens).program()


def parse_source(source: str) -> Program:
    return parse_program(tokenize(source))


# --- canonical printer

def format_number(d: Decimal) -> str:
    """Canonical decimal rendering: no exponent, no trailing zeros."""
    s = format(d, "f")
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    if s == "-0":
        s = "0"
    return s


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_ATOM_PREC = 9


def expr_source(e: Expr) -> str:
    return _expr_source(e, 0, False, 0)


# str() of an expression is its canonical source, which is how trace details
# show a promise's expression.
Expr.__str__ = expr_source


def _expr_source(e: Expr, parent_prec: int, right_side: bool, indent: int) -> str:
    if isinstance(e, NumberLit):
        return format_number(e.value)
    if isinstance(e, Ident):
        return e.name
    if isinstance(e, Binary):
        prec = _PREC[e.op]
        text = "{} {} {}".format(
            _expr_source(e.lhs, prec, False, indent),
            e.op,
            _expr_source(e.rhs, prec, True, indent),
        )
        if prec < parent_prec or (prec == parent_prec and right_side):
            return f"({text})"
        return text
    if isinstance(e, Call):
        callee = _expr_source(e.callee, _ATOM_PREC, False, indent)
        if isinstance(e.callee, (Binary, FunctionDef)):
            callee = f"({callee})"
        args = ", ".join(
            f"{name} = {_expr_source(arg, 0, False, indent)}" if name
            else _expr_source(arg, 0, False, indent)
            for name, arg in e.args
        )
        return f"{callee}({args})"
    if isinstance(e, VectorCtor):
        inner = ", ".join(_expr_source(el, 0, False, indent) for el in e.elements)
        return f"c({inner})"
    if isinstance(e, FunctionDef):
        params = ", ".join(
            f"{name} = {_expr_source(default, 0, False, indent)}" if default is not None
            else name
            for name, default in e.params
        )
        pad = "  " * indent
        body = "\n".join(stmt_source(s, indent + 1) for s in e.body)
        return f"function({params}) {{\n{body}\n{pad}}}"
    raise TypeError(f"not an expression: {e!r}")


def stmt_source(s: Stmt, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(s, Assign):
        return f"{pad}{s.name} <- {_expr_source(s.expr, 0, False, indent)}"
    if isinstance(s, PrintStmt):
        return f"{pad}print({_expr_source(s.expr, 0, False, indent)})"
    if isinstance(s, ExprStmt):
        return f"{pad}{_expr_source(s.expr, 0, False, indent)}"
    raise TypeError(f"not a statement: {s!r}")


def program_source(p: Program) -> str:
    """Print a Program so that re-parsing yields a structurally identical AST."""
    return "".join(stmt_source(s) + "\n" for s in p.stmts)
