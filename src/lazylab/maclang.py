"""maclang: a macro-preprocessor language executed by textual substitution.

The scanner turns source into statement records that the session executes
in order.  It and the `&` and `%eval(` passes move forward over string
offsets with compiled patterns; a record holds its offset from the record
before it, and a (line, col) is worked out only for an error or a macro
body's start.  A statement that fails is positioned from the text it was
scanned from, and a body's statements count from where the body starts in
the source.  Open code, the text between statements, makes no record: at
the loop's head one match skips it and reads a whole `%let`, and another
skips it and reads the next `%` or `&` with its word.  One reader reads
every `(name=value, ...)` list, a call's arguments and a macro header's
parameters alike, with one match per entry unless a value holds a `(`; a
call's `()` is read with its name and makes no list.  The statement
keywords are written once.  Digits are decimal digits (`str.isdecimal`).
Macro bodies are stored verbatim and scanned once, on their first
invocation.
A session keeps its symbol tables, its macros with each body's records, the
`&` templates and the log, and nothing more: it drops each record of its
source once that record has run, while a body's records stay for the next
invocation.  A `%let` record holds its name lowercased once, at scan time,
and the table keeps that string as its key; every call written without
arguments holds the one empty read-only mapping.
Parameter defaults and call arguments are stored as raw text, `%let` values
as the text left after resolving them; every `&name` is re-resolved at every
use, from the innermost live symbol table, and the substituted text is
rescanned until no references remain.  A body's and its defaults' texts are
split at their references once per session, at the body's first scan; any
other text is split where it is resolved, and no value is cached.  Text
without `&` skips resolution, so only an entry that holds `&` is rescanned.
`%eval(...)` performs integer arithmetic on resolved text.  One walk goes
from `)` to `)`, counting the `(` before each, and searches once per call
for the next `%eval(`; an outermost call that holds none is evaluated where
it closes, and only a call that opens in another puts the enclosing one on
a stack.
In the arithmetic one search finds what the call's tokens cannot hold (in a
text of at most 640 characters, a bad character only, since no digit run
there is too long to convert), two C calls split the text into tokens, and
one pass over the tokens keeps a running sum and term per open `(`.  One
global symbol table lives for the whole session; each macro invocation
pushes a local table that is deleted at `%mend`, and invocations nest at
most `MACRO_DEPTH_LIMIT` deep.  A name repeated in a parameter list or in a
call's argument list is an error.
"""

import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import (
    ArithSyntaxError,
    DepthExceededError,
    DivisionByZeroError,
    DuplicateParamError,
    LazyLabError,
    LexError,
    MacroSyntaxError,
    NumberTooLargeError,
    UnknownMacroError,
    UnknownParamError,
    UnresolvedRefError,
    UnterminatedMacroError,
)
from .trace import (ARITH_EVAL, OUTPUT_LINE, TABLE_CREATED, TABLE_DELETED, VAR_RESOLVED,
                    VAR_STORED, TraceSink)

RESCAN_LIMIT = 64
MACRO_DEPTH_LIMIT = 100  # nested invocations; each nests two Python frames


# --- statement scanner
#
# `scan` returns statement records, each a tuple (kind, delta, a, b), where
# delta is the offset of the statement's first character minus that of the
# record before it (the first counts from the start of the text):
#   LET    a = lowercased name, the key its table keeps, b = raw value text
#   PUT    a = raw text
#   CALL   a = macro name as written, b = {lowercased argument name: raw text},
#          or `_NO_ARGS`, the one empty read-only mapping, for `%m` and `%m()`
#   MACRO  a = the MacroDef
#   ERROR  a = error class, b = its one argument; raised as a(b) at the record
#          only when execution reaches it, so the statements before it run
# `MacroSession._execute` keeps the running offset and works out a (line, col)
# only for a statement that fails.  A delta, not an offset: CPython caches the
# ints up to 256 and any larger one is a separate 28-byte object.  Against
# records positioned as (line, col), absolute offsets raised `macro_invoke`'s
# plain peak from 31.8 to 35.1 KiB, while deltas kept it and took
# `macro_store`'s from 126.1 to 115.2 KiB (`bench/run.py --seed 3`, CPython 3.11).
# Open code, the text between statements, makes no record; a `%` or `&` in it
# that does not start a name is an error.
#
# `\w` is exactly `str.isalnum()` plus `_`, `\d` is `str.isdecimal()` and `\s`
# is `str.isspace()`; no pattern class is "a letter or _", so `_is_ident_start`,
# written inline on the `%let` path, checks the first character of a name.
# Each turn of the loop tries `_LET_STATEMENT`, which skips open code and reads
# a whole `%let`, and then `_HEAD`, which skips open code and reads the next
# `%` or `&`, its word and, for a call, its `(` and a `)` that closes the list
# at once, so `%m()` makes its record without `_list`.  `_list` reads a call's
# arguments and a macro header's parameters alike, one `_ENTRY` match per entry
# and the separator after it; only a value that holds a `(` is read by counting
# depth.  A syntax error is raised at the next non-space character.

# the statement keywords, which never name a call; `%let`, `%put` and `%macro`
# make records of their keyword's kind
_KEYWORDS = LET, PUT, MACRO, MEND = "let", "put", "macro", "mend"
CALL, ERROR = "call", "error"
# the arguments of every call written without any; `invoke` only reads them
_NO_ARGS: Mapping[str, str] = MappingProxyType({})

_COMMENT = re.compile(r"/\*.*?(\*/|\Z)", re.S)  # an unclosed comment runs to the end
_NOT_NEWLINE = re.compile(r"[^\n]")
_SPACE = re.compile(r"\s*")
_LET_STATEMENT = re.compile(rf"[^%&]*(%){LET}(?!\w)\s*(\w+)\s*=([^;]*);?", re.I)
_HEAD = re.compile(r"[^%&]*([%&])(\w*)(\s*\((\s*\))?)?")
_NAME = re.compile(r"\s*(\w*)(\s*\()?")
# one `name[=value]` list entry whose value holds no '(', and its separator
_ENTRY = re.compile(r"\s*(\w*)\s*(?:=([^(),]*))?([,)]?)")
_VALUE_END = re.compile(r"[(),]")
_PUT_END = re.compile(rf";|(?=%(?:{'|'.join(_KEYWORDS)})(?!\w))", re.I)
_NESTING = re.compile(rf"%(?:({MACRO})|{MEND})(?!\w)", re.I)
# The loops call `pattern.search`, not `finditer`: on CPython 3.11 every
# `finditer` call leaves a fresh "search" string in the interpreter's method
# cache, which the benchmark's peak memory counted.


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _line_col(text: str, start: int, end: int, line: int, col: int) -> tuple[int, int]:
    """(line, col) of offset end in text, where offset start is at (line, col)."""
    newlines = text.count("\n", start, end)
    if newlines:
        return line + newlines, end - text.rfind("\n", start, end)
    return line, col + end - start


class _Scanner:
    """Single pass over offsets; `%let`, `%put`, `%macro`, and macro calls
    capture raw text so stored values keep their source spelling."""

    def __init__(self, source: str, line: int = 1, col: int = 1):
        self._mark, self._line, self._col = 0, line, col
        # _pos reads the source while comments are blanked; blanking moves
        # no offset and keeps every line break, so a record's offset is also
        # one in the source
        self.src = source
        self.src = _COMMENT.sub(self._blank, source)
        self.i = 0
        # one string per called name's spelling and per lowercased entry name,
        # shared by their records; not `sys.intern`, which 3.12 never frees
        self.names: dict[str, str] = {}

    def _blank(self, comment: re.Match) -> str:
        if not comment.group(1):
            raise LexError("unterminated comment", *self._pos(comment.start()))
        return _NOT_NEWLINE.sub(" ", comment.group())

    def _pos(self, i: int) -> tuple[int, int]:
        """(line, col) of offset i, for a body's start or an error; the
        offsets asked for never decrease."""
        self._line, self._col = _line_col(self.src, self._mark, i, self._line, self._col)
        self._mark = i
        return self._line, self._col

    def _error(self, message: str, i: int) -> MacroSyntaxError:
        """The error at the first non-space character from offset i."""
        return MacroSyntaxError(message, *self._pos(_SPACE.match(self.src, i).end()))

    def scan(self) -> list[tuple]:
        src, stmts, last = self.src, [], 0  # last: the previous record's offset
        names = self.names
        while True:
            if (let := _LET_STATEMENT.match(src, self.i)) and \
                    ((ch := let[2][0]).isalpha() or ch == "_"):
                at = let.start(1)
                stmts.append((LET, at - last, let[2].lower(), let[3].strip()))
                last, self.i = at, let.end()
                continue
            if (head := _HEAD.match(src, self.i)) is None:  # only open code is left
                return stmts
            name = head[2]
            if not _is_ident_start(name[:1]):
                raise LexError(f"stray {head[1]!r}", *self._pos(head.start(1)))
            self.i = head.end()
            if head[1] == "&" or (kw := name.lower()) == "eval":
                continue
            at = head.start(1)
            if kw not in _KEYWORDS:
                args, duplicate = (_NO_ARGS, None) if head[3] is None or head[4] else \
                    self._list("macro argument list", optional=False)
                kind, at, a, b = duplicate or (CALL, at, names.setdefault(name, name), args)
            else:
                self.i = head.end(2)
                if kw == MACRO:
                    kind, at, a, b = self._macro(at)
                elif kw == MEND:
                    kind, a, b = ERROR, MacroSyntaxError, "%mend without %macro"
                elif kw == PUT:
                    # raw text to ';'; a following statement keyword also ends
                    # it, so a missing semicolon does not swallow the next statement
                    end = _PUT_END.search(src, self.i)
                    stop = end.start() if end else len(src)
                    kind, a, b = PUT, src[self.i:stop].strip(), None
                    self.i = end.end() if end else stop
                else:  # a %let that _LET_STATEMENT could not read
                    let = _NAME.match(src, self.i)
                    if not _is_ident_start(let[1][:1]):
                        raise self._error("expected a name after %let", self.i)
                    raise self._error("expected '=' in %let", let.end(1))
            stmts.append((kind, at - last, a, b))
            last = at

    def _list(self, what: str, optional: bool) -> tuple[dict, tuple | None]:
        """Read `name[=value], ...)` from just after its `(` into {lowercased
        name: stripped raw value}.  The first repeated name comes back as
        (ERROR, its offset, a, b) for the caller to record."""
        src, entries, duplicate = self.src, {}, None
        while True:
            entry = _ENTRY.match(src, self.i)
            name, value, end = entry.groups()
            if not _is_ident_start(name[:1]):
                if entry[0].lstrip() == ")":  # the list ends, also after a trailing ','
                    self.i = entry.end()
                    return entries, duplicate
                raise self._error(f"expected a name in {what}", entry.start())
            key = name.lower()
            key = self.names.setdefault(key, key)
            if key in entries and duplicate is None:
                duplicate = (ERROR, entry.start(1), DuplicateParamError, name)
            self.i = entry.end()
            if value is None:
                if not optional:
                    raise self._error(f"{what} entries are written name=value", entry.start(3))
                if not end:
                    raise self._error(f"expected ',' or ')' in {what}", entry.start(3))
                value = ""
            elif not end:  # the value holds a '(' or runs to the end of the source
                stop = self._value_end(entry.start(2))
                value, end, self.i = src[entry.start(2):stop], src[stop], stop + 1
            entries[key] = value.strip()
            if end == ")":
                return entries, duplicate

    def _value_end(self, start: int) -> int:
        """The offset of the top-level ',' or ')' that ends the value at start."""
        depth, end = 0, start
        while (stop := _VALUE_END.search(self.src, end)) is not None:
            end = stop.end()
            if stop.group() == "(":
                depth += 1
            elif depth == 0:
                return stop.start()
            elif stop.group() == ")":
                depth -= 1
        raise self._error("unterminated parameter list", len(self.src))

    def _macro(self, at: int) -> tuple:
        """Read the `%macro` statement at offset at, up to its `%mend`, into
        (kind, offset, a, b) for the caller to record."""
        header = _NAME.match(self.src, self.i)
        name = header[1]
        if not _is_ident_start(name[:1]):
            raise self._error("expected a macro name after %macro", self.i)
        if (kw := name.lower()) in _KEYWORDS or kw == "eval":
            # `%eval` and the statements are read before any call, so such a
            # macro could never be invoked
            raise self._error(f"a macro cannot be named '{name}'", header.start(1))
        self.i = header.end()
        params, duplicate = ({}, None) if header[2] is None else \
            self._list("macro parameter list", optional=True)
        semicolon = _SPACE.match(self.src, self.i).end()
        if not self.src.startswith(";", semicolon):
            raise self._error("expected ';' after %macro header", semicolon)
        self.i = semicolon + 1
        body_line, body_col = self._pos(self.i)
        body = self._body()
        if duplicate is not None:
            return duplicate
        if body is None:
            return ERROR, at, UnterminatedMacroError, name
        return MACRO, at, MacroDef(name.lower(), params, body, body_line, body_col), None

    def _body(self) -> str | None:
        """Capture the body verbatim up to the matching %mend, or None when
        the source ends first; what follows that %mend is open code."""
        start, depth = self.i, 0
        while (keyword := _NESTING.search(self.src, self.i)) is not None:
            self.i = keyword.end()
            if keyword.group(1):
                depth += 1
            elif depth:
                depth -= 1
            else:
                return self.src[start:keyword.start()]
        self.i = len(self.src)
        return None


def scan(source: str, line: int = 1, col: int = 1) -> list[tuple]:
    """Scan maclang source (with `/* */` comments blanked) into statement
    records; see the record kinds above."""
    return _Scanner(source, line, col).scan()


# --- %eval integer arithmetic

# what tokenizing can fail on: a character that is neither a digit, an
# operator nor a blank, or a digit run too long for any int-string limit
# CPython accepts (0, or 640 and up), so a run of at most 640 digits converts.
# A text of at most 640 characters holds no longer run and is searched for bad
# characters only: `_ARITH_SUSPECT` alone tries its lookbehind at every digit
# and cost `macro_invoke` 4 % of its plain rate (CPython 3.11.7, 2 vCPUs).
# In a longer text a run is tried at its first digit only:
# without the anchor `\d{641,}` is tried again at every digit of a run, and
# the search is quadratic in the run's length.
_ARITH_BAD = re.compile(r"[^\d+\-*/() \t\r\n]")
_ARITH_SUSPECT = re.compile(r"[^\d+\-*/() \t\r\n]|(?<!\d)\d{641,}")
# each operator with a blank on either side, so that `str.split` cuts a text
# that passed the search into its tokens
_ARITH_SPACED = str.maketrans({op: f" {op} " for op in "+-*/()"})


def _divide(dividend: int, divisor: int) -> int:
    """Integer division truncating toward zero."""
    if divisor == 0:
        raise DivisionByZeroError("division by zero in %eval")
    quot, rem = divmod(dividend, divisor)
    return quot + 1 if rem != 0 and (dividend < 0) != (divisor < 0) else quot


def eval_arith(text: str) -> int:
    """Evaluate `+ - * /` integer arithmetic; division truncates toward zero.

    One search for what tokenizing can fail on raises the first such error
    in text order, before anything is evaluated; only then is the text split
    into tokens, by one `str.translate` that puts blanks around each operator
    and one `str.split`, which is exact because only digits, operators and
    blanks are left.  One pass over the tokens keeps a level's sum of closed
    terms in `total` and its open term in `term`, which starts as the sign
    of the `+` or `-` before it; each unary `-` negates `term`, and `op` is
    the `*` or `/` that takes the next factor.  Each open `(` stacks its
    enclosing level.  A factor is applied as soon as it is complete, so each
    error is raised where a left-to-right reading meets it; truncating
    division is odd in its dividend, so the sign carried in `term` gives the
    same result as applying it last."""
    search = (_ARITH_BAD if len(text) <= 640 else _ARITH_SUSPECT).search
    suspect = search(text)
    while suspect is not None:
        found = suspect.group()
        if len(found) == 1:
            raise ArithSyntaxError(f"unexpected {found!r} in integer expression")
        try:
            int(found)
        except ValueError:  # CPython's int/str conversion digit limit
            raise NumberTooLargeError(
                f"integer of {len(found)} digits is too long for %eval") from None
        suspect = search(text, suspect.end())
    toks = text.translate(_ARITH_SPACED).split()
    if not toks:
        raise ArithSyntaxError("empty integer expression")
    stack: list[tuple] = []  # (total, term, op) of each enclosing level
    total, term, op = 0, 1, "*"
    want_operand = True
    for tok in toks:
        if want_operand:
            if tok == "-":
                term = -term
                continue
            if tok == "(":
                stack.append((total, term, op))
                total, term, op = 0, 1, "*"
                continue
            if tok in "+*/)":
                raise ArithSyntaxError(f"expected an integer, found {tok!r}")
            value = int(tok)
        elif tok == ")" and stack:
            value = total + term
            total, term, op = stack.pop()
        elif tok == "*" or tok == "/":
            op, want_operand = tok, True
            continue
        elif tok == "+" or tok == "-":
            total += term
            term, op, want_operand = 1 if tok == "+" else -1, "*", True
            continue
        elif stack:
            raise ArithSyntaxError("missing ')' in integer expression")
        else:
            found = tok if tok in "()" else int(tok)
            raise ArithSyntaxError(f"trailing {found!r} in integer expression")
        term = term * value if op == "*" else _divide(term, value)
        want_operand = False
    if want_operand:
        raise ArithSyntaxError("expected an integer, found end of expression")
    if stack:
        raise ArithSyntaxError("missing ')' in integer expression")
    return total + term


# --- symbol tables and resolution

@dataclass(slots=True)
class SymbolTable:
    """Name → raw text entries for one scope; insertion order preserved.
    Slotted: `resolve_text` reads `entries` once per table it probes."""
    name: str  # "global", or the name of the macro whose invocation it serves
    entries: dict[str, str] = field(default_factory=dict)
    # "global", or "name#k" for the k-th invocation of a macro; only a traced
    # session reads it, so only a traced session formats it
    trace_label: str | None = None


_REF = re.compile(r"&(\w+)")
_EVAL = re.compile(r"%eval[ \t]*\(", re.I)


def _template(text: str) -> tuple:
    """The text's `&` split: literal, name as written, lowercased key,
    literal, ..., literal.  A `&` whose word does not start as a name stays
    in the literal around it."""
    parts = _REF.split(text)  # text, name, text, ..., name, text
    template, literal = [], parts[0]
    for k in range(1, len(parts), 2):
        name = parts[k]
        if (ch := name[0]).isalpha() or ch == "_":
            template += literal, name, name.lower()
            literal = parts[k + 1]
        else:
            literal += "&" + name + parts[k + 1]
    template.append(literal)
    return tuple(template)


def resolve_text(text: str, tables: list[SymbolTable], trace: TraceSink | None,
                 templates: dict[str, tuple] | None = None, _depth: int = 0) -> str:
    """Substitute every `&name` from the innermost table defining it (tables
    run innermost first), then rescan the substituted text so chained
    references resolve.  The text's `_template` is read from templates, a
    session's split texts, or made on the spot when it is not there.  Each
    reference is looked up, checked, traced and substituted in text order,
    at every call, and only an entry that holds `&` is rescanned.  The
    rescan depth per original reference is capped.  A body's and its
    defaults' texts are split once per session; no value is cached."""
    if "&" not in text:
        return text
    if templates is None or (template := templates.get(text)) is None:
        template = _template(text)
    parts = [template[0]]
    for k in range(1, len(template), 3):
        key = template[k + 1]
        for owner in tables:
            if (entry := owner.entries.get(key)) is not None:
                break
        else:
            raise UnresolvedRefError(template[k])
        if _depth >= RESCAN_LIMIT:
            raise DepthExceededError(f"resolving '&{template[k]}'", RESCAN_LIMIT,
                                     "rescans (self-referential value?)")
        if trace is not None:
            trace.emit(VAR_RESOLVED, key, entry, owner.trace_label)
        parts.append(resolve_text(entry, tables, trace, templates, _depth + 1)
                     if "&" in entry else entry)
        parts.append(template[k + 2])
    return "".join(parts)


def _apply_evals(text: str, trace: TraceSink | None) -> str:
    """Replace every `%eval(...)` in resolved text with its integer result.

    One pass from left to right.  From each `%eval(` the walk goes from `)`
    to `)` with `str.find`, counting the `(` before each with `str.count`;
    one search for the next `%eval(`, made as a call opens, tells whether
    that call opens before the next `)`.  An outermost call that holds none
    is evaluated where it closes.  Where a call opens in another, the
    enclosing call goes on a stack with its count of open `(` and its
    pieces: its text so far and the index in `closed` of each call closed in
    it.  A call with none nested in it is held as its text and makes no
    list.  The calls in an outermost one are evaluated, inner first, only
    when it closes, so an unterminated call is reported before anything
    inside it runs."""
    out: list[str] = []
    i = 0  # text[i:] is not copied yet
    call = _EVAL.search(text)
    while call is not None:
        out.append(text[i:call.start()])
        # the open call's pieces, once a call opens in it, and open '('; the
        # calls enclosing it, once a call opens in this outermost one
        pieces, depth, stack = None, 0, None
        pos = start = call.end()  # text[start:] of the open call is not in its pieces
        call = _EVAL.search(text, pos)
        nested_at = len(text) if call is None else call.start()
        while True:
            close = text.find(")", pos)
            if close < 0:
                raise ArithSyntaxError("unterminated %eval(...)")
            while close > nested_at:  # the next call opens in the open one
                if stack is None:
                    stack, closed = [], []
                if pieces is None:
                    pieces = []
                pieces.append(text[start:nested_at])
                stack.append((pieces, depth + text.count("(", pos, nested_at)))
                pieces, depth = None, 0
                pos = start = call.end()
                call = _EVAL.search(text, pos)
                nested_at = len(text) if call is None else call.start()
            depth += text.count("(", pos, close)
            pos = close + 1
            if depth:
                depth -= 1
                continue
            inner = text[start:close]  # the open call closes
            if pieces is not None:
                pieces.append(inner)
                inner = pieces
            if not stack:
                break
            closed.append(inner)
            pieces, depth = stack.pop()
            pieces.append(len(closed) - 1)
            start = pos
        if pieces is None:
            out.append(_result(inner, trace))
        else:
            closed.append(inner)
            out.append(_evaluate(closed, trace))
        i = pos
    out.append(text[i:])
    return "".join(out)


def _evaluate(closed: list, trace: TraceSink | None) -> str:
    """Evaluate the calls of one outermost `%eval(`, given inner first, each
    as its text or, when a call is nested in it, as its pieces: text, or
    the index in `closed` of a call nested there."""
    results: list[str] = []
    for inner in closed:
        if not isinstance(inner, str):
            inner = "".join(p if isinstance(p, str) else results[p] for p in inner)
        results.append(_result(inner, trace))
    return results[-1]


def _result(inner: str, trace: TraceSink | None) -> str:
    """The printed value of one call's text."""
    value = eval_arith(inner)
    try:
        result = str(value)
    except ValueError:  # CPython's int/str conversion digit limit
        raise NumberTooLargeError("%eval result has too many digits to print") from None
    if trace is not None:
        trace.emit(ARITH_EVAL, inner.strip(), result)
    return result


# --- macro definitions and session

@dataclass
class MacroDef:
    name: str
    params: dict[str, str]  # lowercased name -> default text (may be empty), in order
    body_text: str          # stored verbatim, unresolved
    body_line: int
    body_col: int
    # statement records of body_text, scanned on first invocation
    body: list[tuple] | None = field(default=None, init=False, repr=False, compare=False)


@dataclass
class MacroOutput:
    log_lines: list[str]


class MacroSession:
    """One maclang session: global symbol table, macro registry, log."""

    def __init__(self, trace: TraceSink | None = None):
        self.trace = trace
        # live tables, innermost first, global last
        self._tables = [SymbolTable("global", trace_label="global")]
        self.macros: dict[str, MacroDef] = {}
        self.log: list[str] = []
        self._invocations: dict[str, int] = {}  # per macro, counted when traced
        # `_template` of each `&` text in the defaults and body statements of
        # the macros invoked so far, made at a body's first scan
        self._templates: dict[str, tuple] = {}

    # execution

    def run(self, source: str) -> MacroOutput:
        """Run the source's records in order, releasing each once it has run,
        so the session keeps its tables, its macros with their bodies'
        records, the `&` templates and the log.  The list is reversed over an
        empty tuple and drained by `list.pop`, which stays in C; no record
        equals `()`, and tuples of different lengths compare unequal before
        any item is read, where a `None` sentinel took two failed compares."""
        stmts = scan(source)
        stmts.append(())
        stmts.reverse()
        self._execute(iter(stmts.pop, ()), source, 1, 1)
        return MacroOutput(list(self.log))

    def _execute(self, stmts: Iterable[tuple], text: str, line: int, col: int):
        """Run the records scanned from text, which starts at (line, col)."""
        at = 0
        for kind, delta, a, b in stmts:
            at += delta
            try:
                if kind == LET:
                    self.let(a, b)
                elif kind == PUT:
                    self.put(a)
                elif kind == CALL:
                    self.invoke(a, b)
                elif kind == MACRO:
                    self.macros[a.name] = a
                elif kind == ERROR:
                    raise a(b)
            except LazyLabError as err:
                if err.line is None:  # raised by this statement, not inside a body
                    err.at(*_line_col(text, 0, at, line, col))
                raise

    # statement semantics

    def invoke(self, name: str, overrides: Mapping[str, str] = _NO_ARGS):
        """Run a defined macro: push a local table, store parameter text
        verbatim, execute the body, delete the table at %mend.

        The macro name matches in any case.  `overrides` maps lowercase
        parameter names to their text, as the scanner's CALL records do."""
        definition = self.macros.get(name.lower())
        if definition is None:
            raise UnknownMacroError(name)
        for key in overrides:
            if key not in definition.params:
                raise UnknownParamError(definition.name, key)
        if len(self._tables) > MACRO_DEPTH_LIMIT:
            raise DepthExceededError(f"invoking '%{definition.name}'", MACRO_DEPTH_LIMIT,
                                     "nested invocations (recursive macro?)")
        # `**` merges a dict in C but reads a `MappingProxyType` through its
        # `keys()`, three times the time of this copy
        table = SymbolTable(definition.name, {**definition.params, **overrides}
                            if overrides else definition.params.copy())
        self._tables.insert(0, table)
        if self.trace is not None:
            ordinal = self._invocations.get(definition.name, 0) + 1
            self._invocations[definition.name] = ordinal
            table.trace_label = f"{definition.name}#{ordinal}"
            self.trace.emit(TABLE_CREATED, table.trace_label, definition.name)
            for key, text in table.entries.items():
                self.trace.emit(VAR_STORED, key, text, table.trace_label, "param")
        try:
            if definition.body is None:
                definition.body = scan(definition.body_text,
                                       definition.body_line, definition.body_col)
                self._split_texts(definition)
            self._execute(definition.body, definition.body_text,
                          definition.body_line, definition.body_col)
        finally:
            del self._tables[0]
            if self.trace is not None:
                self.trace.emit(TABLE_DELETED, table.trace_label)

    def _split_texts(self, definition: MacroDef):
        """Add the `_template` of each `&` text among the macro's defaults and
        its body's `%let` values, `%put` texts and call arguments."""
        texts = list(definition.params.values())
        for kind, _, a, b in definition.body:
            if kind == LET:
                texts.append(b)
            elif kind == PUT:
                texts.append(a)
            elif kind == CALL:
                texts += b.values()
        for text in texts:
            if "&" in text and text not in self._templates:
                self._templates[text] = _template(text)

    def let(self, name: str, raw_text: str):
        """Resolve the value text, then update the innermost table already
        defining the name, or create the entry in the innermost live table.

        `name` is lowercase, as the scanner's LET records hold it, and the
        table keeps that string as its key; lowering it here again cost a
        C call per store.  A value without `&` is stored as it is, without
        a call to `resolve_text`; that call cost `macro_store`, whose values
        hold no `&`, 4 % of its plain rate (CPython 3.11.7, 2 vCPUs)."""
        value = resolve_text(raw_text, self._tables, self.trace, self._templates) \
            if "&" in raw_text else raw_text
        for table in self._tables:  # innermost first; inline, one call less per store
            if name in table.entries:
                break
        else:
            table = self._tables[0]
        table.entries[name] = value
        if self.trace is not None:
            self.trace.emit(VAR_STORED, name, value, table.trace_label, "let")

    def put(self, text: str):
        # `_user_` in any case, with blanks around it: only a text that holds
        # `_` is copied twice to test for it
        if "_" in text and text.strip().lower() == "_user_":
            for table in self._tables:
                for key, value in table.entries.items():
                    self._log_line(f"{table.name.upper()} {key.upper()} {value}")
            return
        resolved = resolve_text(text, self._tables, self.trace, self._templates)
        self._log_line(_apply_evals(resolved, self.trace))

    def _log_line(self, line: str):
        self.log.append(line)
        if self.trace is not None:
            self.trace.emit(OUTPUT_LINE, "log", line)


def run_session(source: str, trace: TraceSink | None = None) -> MacroOutput:
    """Run a whole maclang session over the given source.

    With `trace=None` the session is not traced: it makes no `emit` call and
    keeps no event.  Pass a `TraceSink()` to trace it."""
    return MacroSession(trace).run(source)
