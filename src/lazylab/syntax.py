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
module-level names, never as `TokKind.EOF`, for the cost measured under
`trace.EventKind`.  One unpacking statement right after each Enum binds
its names: here the token kinds, private (`(_NUMBER, ..., _EOF) = TokKind`),
in `promises` the promise states, and in `trace` the event kinds, public,
for every module that emits or folds them.  No AST class has a subclass, so
the evaluator compares a node's `__class__` by identity instead of calling
`isinstance`.

`tokenize` makes no object per token: it appends each token's kind, text,
line and column to four parallel lists, which `Tokens` holds, and the parser
reads them by index: the current token is `kinds[self.i]`, `texts[self.i]`,
`lines[self.i]` and `cols[self.i]`, and it moves on with `self.i += 1`, with
no helper call per token; one tokenizing of a 74-token `corpus` program
went from about 45 to about 29 µs (CPython 3.11.7).  A name or a number
that no argument list follows is an operand built in `expression` itself,
without `factor` or `primary`.  An error that names what was expected goes
through one helper, `fail`.  Reading the token list by index took one
parse of a 74-token `corpus` program from about 380 calls of parser methods
to about 66, and from about 47 to about 32 µs.

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


# the token kinds under module names (see the hot-path rule above)
(_NUMBER, _IDENT, _ASSIGN, _OP, _LPAREN, _RPAREN, _LBRACE, _RBRACE, _COMMA, _KW_FUNCTION,
 _EOF) = TokKind


class Tokens:
    """`tokenize`'s result: one entry per token in each of four parallel
    lists, the last token the EOF.  The parser reads the lists by index."""
    __slots__ = ("kinds", "texts", "lines", "cols")

    def __init__(self, kinds: list[TokKind], texts: list[str], lines: list[int],
                 cols: list[int]):
        self.kinds, self.texts, self.lines, self.cols = kinds, texts, lines, cols

    def __len__(self) -> int:
        return len(self.kinds)


# one-character tokens: their kind
_SINGLE = {
    "=": _ASSIGN,
    "+": _OP, "-": _OP, "*": _OP, "/": _OP,
    "(": _LPAREN, ")": _RPAREN, "{": _LBRACE, "}": _RBRACE, ",": _COMMA,
}


def tokenize(source: str) -> Tokens:
    """Split funclang source into tokens; `#` starts a comment to end of line.
    A column is the offset from the start of its line, plus one.

    No character passes more than one branch's test, so the branches are
    tested in the order of how often generated programs hit them: a space,
    a one-character token, a name, a line end, a number."""
    kinds: list[TokKind] = []
    texts: list[str] = []
    lines: list[int] = []
    cols: list[int] = []
    kind, text, at, col = kinds.append, texts.append, lines.append, cols.append
    i, line, start, n = 0, 1, 0, len(source)
    while i < n:
        ch = source[i]
        if ch == " ":
            i += 1
        elif ch in _SINGLE:
            kind(_SINGLE[ch])
            text(ch)
            at(line)
            col(i - start + 1)
            i += 1
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind(_KW_FUNCTION if word == "function" else _IDENT)
            text(word)
            at(line)
            col(i - start + 1)
            i = j
        elif ch == "\n":
            i += 1
            line += 1
            start = i
        elif ch.isdecimal():
            j = i + 1
            while j < n and source[j].isdecimal():
                j += 1
            if j < n - 1 and source[j] == "." and source[j + 1].isdecimal():
                j += 2
                while j < n and source[j].isdecimal():
                    j += 1
            kind(_NUMBER)
            text(source[i:j])
            at(line)
            col(i - start + 1)
            i = j
        elif ch == "<" and source.startswith("-", i + 1):
            kind(_ASSIGN)
            text("<-")
            at(line)
            col(i - start + 1)
            i += 2
        elif ch == "\t" or ch == "\r":
            i += 1
        elif ch == "#":
            i = source.find("\n", i)
            if i < 0:
                i = n
        else:
            raise LexError(f"unexpected character {ch!r}", line, i - start + 1)
    kind(_EOF)
    text("")
    at(line)
    col(n - start + 1)
    return Tokens(kinds, texts, lines, cols)


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
# default); the comment on evaluator.CALL_DEPTH_LIMIT gives the stack that
# this bound and the evaluator's leave.
NESTING_LIMIT = 100


class _Parser:
    # reads the token lists by index (the module docstring); `self.i += 1`
    # only passes a token whose kind was checked, so it never passes the
    # final EOF
    __slots__ = ("kinds", "texts", "lines", "cols", "i", "depth")

    def __init__(self, tokens: Tokens):
        self.kinds, self.texts = tokens.kinds, tokens.texts
        self.lines, self.cols = tokens.lines, tokens.cols
        self.i = 0
        self.depth = 0  # open parentheses, lists and chained calls

    def fail(self, expected: tuple[str, ...]):
        i = self.i
        shown = self.texts[i] if self.kinds[i] is not _EOF else "end of input"
        raise ParseError(f"expected {' or '.join(expected)}, found {shown!r}",
                         self.lines[i], self.cols[i])

    def open_paren(self):
        """Consume the `(` at hand, one level deeper until its close_paren()."""
        i = self.i
        self.i = i + 1
        self.depth += 1
        if self.depth > NESTING_LIMIT:
            raise DepthExceededError("opening '('", NESTING_LIMIT,
                                     "nested parentheses, lists and calls").at(
                                         self.lines[i], self.cols[i])

    def close_paren(self):
        if self.kinds[self.i] is not _RPAREN:
            self.fail(("')'",))
        self.i += 1
        self.depth -= 1

    # statements

    def program(self) -> Program:
        kinds = self.kinds
        stmts = []
        while kinds[self.i] is not _EOF:
            stmts.append(self.statement())
        return Program(tuple(stmts))

    def statement(self) -> Stmt:
        kinds = self.kinds
        i = self.i
        pos = (line := self.lines[i], self.cols[i])
        if kinds[i] is _IDENT:
            nxt = kinds[i + 1]
            if nxt is _ASSIGN:
                self.i = i + 2
                return Assign(self.texts[i], self.expression(), pos)
            if nxt is _LPAREN and self.texts[i] == "print" and self.lines[i + 1] == line:
                self.i = i + 2
                e = self.expression()
                if kinds[self.i] is not _RPAREN:
                    self.fail(("')'",))
                self.i += 1
                return PrintStmt(e, pos)
        return ExprStmt(self.expression(), pos)

    # expressions

    def expression(self, min_prec: int = 1) -> Expr:
        """Precedence climbing over _PREC: an operand, then each operator that
        binds at least min_prec with its right operand.  A chain of one
        precedence is read in this loop, and the tree is left-deep.  A name or
        a number with no argument list is the operand itself."""
        kinds, texts, lines = self.kinds, self.texts, self.lines
        i = self.i
        kind = kinds[i]
        if ((kind is _IDENT or kind is _NUMBER)
                and (kinds[i + 1] is not _LPAREN or lines[i + 1] != lines[i])):
            self.i = i + 1
            if kind is _NUMBER:
                left = NumberLit(Decimal(texts[i]), (lines[i], self.cols[i]))
            else:
                left = Ident(texts[i], (lines[i], self.cols[i]))
        else:
            left = self.factor()
        while kinds[i := self.i] is _OP and (prec := _PREC[op := texts[i]]) >= min_prec:
            self.i = i + 1
            left = Binary(op, left, self.expression(prec + 1), (lines[i], self.cols[i]))
        return left

    def factor(self) -> Expr:
        """A primary and the calls chained on it.  Each call in `f()()` holds
        the one before it as its callee, so the chain counts toward
        NESTING_LIMIT as its arguments' parentheses do."""
        e = self.primary()
        kinds, lines = self.kinds, self.lines
        depth = self.depth
        while kinds[i := self.i] is _LPAREN and lines[i] == lines[i - 1]:
            e = Call(e, tuple(self.comma_list(self.call_arg, set())), (lines[i], self.cols[i]))
            self.depth += 1  # the next call's tree holds this one
        self.depth = depth
        return e

    def primary(self) -> Expr:
        kinds = self.kinds
        i = self.i
        kind = kinds[i]
        pos = (line := self.lines[i], self.cols[i])
        if kind is _NUMBER:
            self.i = i + 1
            return NumberLit(Decimal(self.texts[i]), pos)
        if kind is _IDENT:
            self.i = i + 1
            name = self.texts[i]
            if name == "c" and kinds[i + 1] is _LPAREN and self.lines[i + 1] == line:
                return VectorCtor(tuple(self.comma_list(self.expression)), pos)
            return Ident(name, pos)
        if kind is _LPAREN:
            self.open_paren()
            e = self.expression()
            self.close_paren()
            return e
        if kind is _KW_FUNCTION:
            return self.function_def()
        self.fail(("a number", "a name", "'('", "'function'"))
        raise AssertionError("unreachable")

    def comma_list(self, item, *args) -> list:
        """Read the `( item, ... )` at hand, calling item(*args) for each entry."""
        self.open_paren()
        kinds = self.kinds
        items = []
        if kinds[self.i] is not _RPAREN:
            items.append(item(*args))
            while kinds[self.i] is _COMMA:
                self.i += 1
                items.append(item(*args))
        self.close_paren()
        return items

    def reject_duplicate(self, i: int, seen: set[str], what: str):
        """Fail at token i if its name is in seen, else add it."""
        name = self.texts[i]
        if name in seen:
            raise ParseError(f"duplicate {what} '{name}'", self.lines[i], self.cols[i])
        seen.add(name)

    def call_arg(self, seen: set[str]) -> tuple[str | None, Expr]:
        kinds = self.kinds
        i = self.i
        if kinds[i] is _IDENT and kinds[i + 1] is _ASSIGN:
            if self.texts[i + 1] != "=":
                raise ParseError(
                    "assignment is not allowed in an argument list",
                    self.lines[i + 1], self.cols[i + 1],
                )
            self.reject_duplicate(i, seen, "named argument")
            self.i = i + 2
            return self.texts[i], self.expression()
        return None, self.expression()

    def param(self, seen: set[str]) -> tuple[str, Expr | None]:
        kinds = self.kinds
        i = self.i
        if kinds[i] is not _IDENT:
            self.fail(("a parameter name",))
        self.reject_duplicate(i, seen, "parameter")
        if kinds[i + 1] is not _ASSIGN:
            self.i = i + 1
            return self.texts[i], None
        if self.texts[i + 1] != "=":
            raise ParseError("parameter defaults are written with '='",
                             self.lines[i + 1], self.cols[i + 1])
        self.i = i + 2
        return self.texts[i], self.expression()

    def function_def(self) -> FunctionDef:
        kinds = self.kinds
        kw = self.i
        self.i = kw + 1
        if kinds[kw + 1] is not _LPAREN:
            self.fail(("'('",))
        params = self.comma_list(self.param, set())
        if kinds[self.i] is not _LBRACE:
            self.fail(("'{'",))
        self.i += 1
        body: list[Stmt] = []
        while (kind := kinds[self.i]) is not _RBRACE:
            if kind is _EOF:
                self.fail(("'}'",))
            body.append(self.statement())
        if not body:
            self.fail(("a statement (function bodies cannot be empty)",))
        self.i += 1
        return FunctionDef(tuple(params), tuple(body), (self.lines[kw], self.cols[kw]))


def parse_program(tokens: Tokens) -> Program:
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
