"""Lexer, AST, parser, and canonical printer for funclang.

funclang is a tiny expression language: decimal scalars, `+ - * /`,
assignment with `<-` or `=`, `function(a, b = expr){ ... }` definitions with
per-parameter default expressions, calls with named or positional arguments,
a flat vector constructor `c(...)`, and a `print(...)` statement.  There are
no statement separators; a statement ends where the expression can no longer
be extended.  The `(` of an argument list must be on the line where its callee
ends, so a statement may start with a parenthesised expression.  Parentheses,
`( item, ... )` lists and chained calls `f()()` nest at most `NESTING_LIMIT`
deep; the `(` beyond it is a positioned `DepthExceededError`.

Hot-path rule, here and in the engines: hot code reads Enum members through
private module-level names (`_EOF = TokKind.EOF`), because on CPython 3.11
every `TokKind.EOF` read goes through the Enum metaclass and costs about ten
times a global read.  No AST class has a subclass, so the evaluator compares
a node's `__class__` by identity instead of calling `isinstance`.  Tokens are
a slotted, non-frozen dataclass, so they are unhashable; nothing hashes one.

The evaluator's values are a `Decimal`, a `tuple` of them (a vector) and a
`Closure`; `format_value` gives their printed form.  AST nodes here and
`Closure` are slotted, non-frozen dataclasses, hashable through
`unsafe_hash`; nothing mutates one after the parser returns it.  A frozen
dataclass's `__init__` calls `object.__setattr__` once per field and each
instance carries a `__dict__`: with CPython 3.11.7, `NumberLit(d, pos)` took
647-1,130 ns frozen and 261-346 ns slotted, and an instance shrank from 352
bytes with its `__dict__` to 40-64.
"""

from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum

from .errors import DepthExceededError, LexError, ParseError

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


@dataclass(slots=True)
class SrcToken:
    kind: TokKind
    text: str
    line: int
    col: int


# the token kinds under module names (see the hot-path rule above)
_NUMBER = TokKind.NUMBER
_IDENT = TokKind.IDENT
_ASSIGN = TokKind.ASSIGN
_OP = TokKind.OP
_LPAREN = TokKind.LPAREN
_RPAREN = TokKind.RPAREN
_LBRACE = TokKind.LBRACE
_RBRACE = TokKind.RBRACE
_COMMA = TokKind.COMMA
_KW_FUNCTION = TokKind.KW_FUNCTION
_EOF = TokKind.EOF

# one-character tokens: their kind
_SINGLE = {
    "=": _ASSIGN,
    "+": _OP, "-": _OP, "*": _OP, "/": _OP,
    "(": _LPAREN, ")": _RPAREN, "{": _LBRACE, "}": _RBRACE, ",": _COMMA,
}


def tokenize(source: str) -> list[SrcToken]:
    """Split funclang source into tokens; `#` starts a comment to end of line.
    A column is the offset from the start of its line, plus one."""
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
        elif ch in _SINGLE:
            append(SrcToken(_SINGLE[ch], ch, line, i - start + 1))
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


# --- AST
#
# Positions are carried for diagnostics but excluded from equality, so that
# structural comparison (and the print/re-parse round trip) ignores layout.
# Nodes are never mutated after construction, which keeps their hashes valid.
# The bases declare empty slots, or every node would inherit a `__dict__`.

class Expr:
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class NumberLit(Expr):
    value: Decimal
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Ident(Expr):
    name: str
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(slots=True, eq=False, repr=False)
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr
    pos: Pos = field(default=NO_POS, compare=False, repr=False)

    # The parser builds `a + b + c` left-deep: compare, hash and print the
    # left spine in a loop, so only source nesting nests Python frames.
    def _spine(self) -> list:
        """Each node's (op, rhs) from the top down, then the leftmost operand."""
        node, parts = self, []
        while isinstance(node, Binary):
            parts.append((node.op, node.rhs))
            node = node.lhs
        parts.append(node)
        return parts

    def __eq__(self, other):
        if other.__class__ is not Binary:
            return NotImplemented
        return self._spine() == other._spine()

    def __hash__(self):
        return hash(tuple(self._spine()))

    def __repr__(self):
        *ops, leftmost = self._spine()
        return ("".join(f"Binary(op={op!r}, lhs=" for op, _ in ops) + repr(leftmost)
                + "".join(f", rhs={rhs!r})" for _, rhs in reversed(ops)))


@dataclass(slots=True, unsafe_hash=True)
class Call(Expr):
    callee: Expr
    args: tuple[tuple[str | None, Expr], ...]
    pos: Pos = field(default=NO_POS, compare=False, repr=False)
    # the levels the evaluator counts for this call: 1 plus the evaluator
    # frames around it that no call or promise counts (see _Parser.factor)
    weight: int = field(default=1, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class FunctionDef(Expr):
    params: tuple[tuple[str, Expr | None], ...]
    body: tuple["Stmt", ...]
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class VectorCtor(Expr):
    elements: tuple[Expr, ...]
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


class Stmt:
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class Assign(Stmt):
    name: str
    expr: Expr
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class ExprStmt(Stmt):
    expr: Expr
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class PrintStmt(Stmt):
    expr: Expr
    pos: Pos = field(default=NO_POS, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Program:
    stmts: tuple[Stmt, ...]


# --- parser

# binary operator precedence, read by the parser and the printer
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}

# A level nests at most six parser frames (a function as a parameter's
# default) and two evaluator frames; evaluator.CALL_DEPTH_LIMIT gives the stack
# that both bounds leave.
NESTING_LIMIT = 100


class _Parser:
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


def parse_program(tokens: list[SrcToken]) -> Program:
    """Parse a full token stream (ending in EOF) into a Program."""
    return _Parser(tokens).program()


def parse_source(source: str) -> Program:
    return parse_program(tokenize(source))


# --- canonical printer

def format_number(d: Decimal) -> str:
    """Canonical decimal rendering: no exponent, no trailing zeros.

    `str(d)` is `format(d, "f")` whenever it holds no exponent, and takes a
    third of the time.  The exponent is `e` in a context with `capitals=0`."""
    s = str(d)
    if "E" in s or "e" in s:
        s = format(d, "f")
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    if s == "-0":
        s = "0"
    return s


def format_value(v) -> str:
    """The printed form of an evaluator value: a Decimal, a tuple of them, or a closure."""
    if isinstance(v, Decimal):
        return format_number(v)
    if isinstance(v, tuple):
        return " ".join(map(format_number, v))
    return "<closure>"


_ATOM_PREC = 9


def expr_source(e: Expr) -> str:
    return _expr_source(e, 0, False)


# str() of an expression is its canonical source, which is how trace details
# show a promise's expression.
Expr.__str__ = expr_source


def _expr_source(e: Expr, parent_prec: int, right_side: bool) -> str:
    if isinstance(e, NumberLit):
        return format_number(e.value)
    if isinstance(e, Ident):
        return e.name
    if isinstance(e, Binary):
        # a left operand of the same precedence never needs parentheses, so
        # a left-deep chain prints in a loop, not one frame per operator
        prec = _PREC[e.op]
        node, right = e, []
        while isinstance(node, Binary) and _PREC[node.op] == prec:
            right.append(f" {node.op} {_expr_source(node.rhs, prec, True)}")
            node = node.lhs
        text = _expr_source(node, prec, False) + "".join(reversed(right))
        if prec < parent_prec or (prec == parent_prec and right_side):
            return f"({text})"
        return text
    if isinstance(e, Call):
        callee = _expr_source(e.callee, _ATOM_PREC, False)
        if isinstance(e.callee, (Binary, FunctionDef)):
            callee = f"({callee})"
        args = ", ".join(
            f"{name} = {_expr_source(arg, 0, False)}" if name
            else _expr_source(arg, 0, False)
            for name, arg in e.args
        )
        return f"{callee}({args})"
    if isinstance(e, VectorCtor):
        inner = ", ".join(_expr_source(el, 0, False) for el in e.elements)
        return f"c({inner})"
    if isinstance(e, FunctionDef):
        params = ", ".join(
            f"{name} = {_expr_source(default, 0, False)}" if default is not None
            else name
            for name, default in e.params
        )
        # the body is one step in, and so is every line of a function in it
        body = "\n".join(stmt_source(s) for s in e.body).replace("\n", "\n  ")
        return f"function({params}) {{\n  {body}\n}}"
    raise TypeError(f"not an expression: {e!r}")


def stmt_source(s: Stmt) -> str:
    if isinstance(s, Assign):
        return f"{s.name} <- {_expr_source(s.expr, 0, False)}"
    if isinstance(s, PrintStmt):
        return f"print({_expr_source(s.expr, 0, False)})"
    if isinstance(s, ExprStmt):
        return _expr_source(s.expr, 0, False)
    raise TypeError(f"not a statement: {s!r}")


def program_source(p: Program) -> str:
    """Print a Program so that re-parsing yields a structurally identical AST."""
    return "".join(stmt_source(s) + "\n" for s in p.stmts)
