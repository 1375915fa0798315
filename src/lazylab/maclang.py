"""maclang: a macro-preprocessor language executed by textual substitution.

The scanner turns source into statement records that the session executes
in order.  It and the `&` and `%eval(` passes move forward over string
offsets with compiled patterns; a (line, col) is worked out only for a record
or an error, and a macro body's records count from where the body starts in
the source.  One anchored match at the loop's head reads a whole `%let`,
and another a whole macro call whose values hold no `(`, `)` or `,`; the
step helpers read any other call, and a malformed `%let` or call to raise
or record its error.  Digits are decimal digits (`str.isdecimal`).  Macro
bodies are stored verbatim and scanned once, on their first invocation.
Parameter defaults and call arguments are stored as raw text, `%let` values
as the text left after resolving them; every `&name` is re-resolved at every
use, from the innermost live symbol table, and the substituted text is
rescanned until no references remain.  One split per level cuts text at its
references; text without `&` skips resolution, so only an entry that holds
`&` is rescanned.  `%eval(...)` performs integer arithmetic on resolved
text: inside a call only `%eval(` and `)` are searched for, and the `(`
between hits are counted; one search finds what the call's tokens cannot
hold, and one pass over the tokens keeps a running sum and term per open
`(`.  One global symbol table lives for the whole session; each macro
invocation pushes a local table that is deleted at `%mend`, and invocations
nest at most `MACRO_DEPTH_LIMIT` deep.  A name repeated in a parameter list
or in a call's argument list is an error.
"""

import re
from dataclasses import dataclass, field

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
from .trace import EventKind, TraceSink

RESCAN_LIMIT = 64
MACRO_DEPTH_LIMIT = 100  # nested invocations; each nests two Python frames

# module names for every reference, store and call (the hot-path rule in
# syntax's docstring)
_TABLE_CREATED = EventKind.TABLE_CREATED
_TABLE_DELETED = EventKind.TABLE_DELETED
_VAR_STORED = EventKind.VAR_STORED
_VAR_RESOLVED = EventKind.VAR_RESOLVED
_ARITH_EVAL = EventKind.ARITH_EVAL
_OUTPUT_LINE = EventKind.OUTPUT_LINE


# --- statement scanner
#
# `scan` returns statement records, each a tuple (kind, line, col, a, b)
# positioned at the statement's first character:
#   LET    a = name, b = raw value text
#   PUT    a = raw text
#   CALL   a = macro name as written, b = {lowercased argument name: raw text}
#   MACRO  a = the MacroDef
#   TEXT   a = one open-code word, which execution ignores
#   ERROR  a = error class, b = its one argument; raised as a(b) at (line, col)
#          only when execution reaches the record, so the statements before it run
#
# The scanner moves forward over string offsets with compiled patterns and
# works out (line, col) only for a record or an error.  `\w` is exactly
# `str.isalnum()` plus `_`, `\d` is `str.isdecimal()` and `\s` is `str.isspace()`;
# no pattern class is "a letter or _", so `_is_ident_start` checks the first
# character of a name.  At the loop's head, one anchored match of
# `_LET_STATEMENT` reads a whole `%let`, and one of `_CALL_STATEMENT` a whole
# macro call whose values hold no `(`, `)` or `,`; one `findall` splits its
# entries.  Everything else goes to the step helpers: `%put`, `%macro`, a call
# with a parenthesised value or no argument list, and every malformed `%let`
# or call, including a call whose name is a keyword or does not start as a
# name, or whose argument names do not or repeat.  They raise or record the
# error where they stop; a syntax error points at the next non-space character.

LET, PUT, CALL, MACRO, TEXT, ERROR = "let", "put", "call", "macro", "text", "error"

_COMMENT = re.compile(r"/\*.*?(\*/|\Z)", re.S)  # an unclosed comment runs to the end
_NOT_NEWLINE = re.compile(r"[^\n]")
_SPACE = re.compile(r"\s*")
_WORD = re.compile(r"\w+")
_OPEN_CODE = re.compile(r"\d+|[-+*/()=;,]|[^\s%&+\-*/()=;,]+")
# a whole `%let` statement: its '%', name, '=' and value to ';'
_LET_STATEMENT = re.compile(r"\s*(%)let(?!\w)\s*(\w+)\s*=([^;]*);?", re.I)
# a whole macro call whose values hold no '(', ')' or ',': its '%', name and
# `name=value` entries, each ended by ',' but the last
_CALL_STATEMENT = re.compile(
    r"\s*(%)(\w+)\s*\(((?:\s*\w+\s*=[^(),]*,)*(?:\s*\w+\s*=[^(),]*)?)\s*\)")
_CALL_ENTRY = re.compile(r"(\w+)\s*=([^,]*)")
_KEYWORDS = frozenset(("let", "put", "macro", "mend", "eval"))  # never a call
_PUT_END = re.compile(r";|(?=%(?:let|put|macro|mend)(?!\w))", re.I)
_NESTING = re.compile(r"%(?:(macro)|mend)(?!\w)", re.I)
_VALUE_END = re.compile(r"[(),]")
# The loops call `pattern.search`, not `finditer`: on CPython 3.11 every
# `finditer` call leaves a fresh "search" string in the interpreter's method
# cache, which the benchmark's peak memory counted.


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _call_args(entries: str) -> dict[str, str] | None:
    """{lowercased name: stripped value} of the entries `_CALL_STATEMENT`
    read, or None when a name does not start as a name or repeats."""
    args: dict[str, str] = {}
    for name, value in _CALL_ENTRY.findall(entries):
        if not _is_ident_start(name[0]) or (key := name.lower()) in args:
            return None
        args[key] = value.strip()
    return args


class _Scanner:
    """Single pass over offsets; `%let`, `%put`, `%macro`, and macro calls
    capture raw text so stored values keep their source spelling."""

    def __init__(self, source: str, line: int = 1, col: int = 1):
        self._mark, self._line, self._col = 0, line, col
        # _pos reads the source while comments are blanked; blanking moves
        # no offset and keeps every line break
        self.src = source
        self.src = _COMMENT.sub(self._blank, source)
        self.i = 0
        self.stmts: list[tuple] = []

    def _blank(self, comment: re.Match) -> str:
        if not comment.group(1):
            raise LexError("unterminated comment", *self._pos(comment.start()))
        return _NOT_NEWLINE.sub(" ", comment.group())

    def _pos(self, i: int) -> tuple[int, int]:
        """(line, col) of offset i; the offsets asked for never decrease."""
        newlines = self.src.count("\n", self._mark, i)
        if newlines:
            self._line += newlines
            self._col = i - self.src.rindex("\n", self._mark, i)
        else:
            self._col += i - self._mark
        self._mark = i
        return self._line, self._col

    def _error(self, message: str) -> MacroSyntaxError:
        return MacroSyntaxError(message, *self._pos(_SPACE.match(self.src, self.i).end()))

    def _ident_at(self, i: int) -> str:
        """The identifier starting at offset i, or ''."""
        if i < len(self.src) and _is_ident_start(self.src[i]):
            return _WORD.match(self.src, i).group()
        return ""

    def _skip_space(self):
        self.i = _SPACE.match(self.src, self.i).end()

    def _peek(self, ch: str) -> bool:
        """Skip whitespace; whether the next character is ch."""
        self._skip_space()
        return self.src.startswith(ch, self.i)

    def _take(self, ch: str) -> bool:
        if self._peek(ch):
            self.i += 1
            return True
        return False

    def _expect_name(self, message: str) -> str:
        self._skip_space()
        name = self._ident_at(self.i)
        if not name:
            raise self._error(message)
        self.i += len(name)
        return name

    def scan(self) -> list[tuple]:
        src = self.src
        while True:
            if (let := _LET_STATEMENT.match(src, self.i)) and _is_ident_start(let[2][0]):
                self.stmts.append((LET, *self._pos(let.start(1)), let[2], let[3].strip()))
                self.i = let.end()
                continue
            if ((call := _CALL_STATEMENT.match(src, self.i)) and _is_ident_start(call[2][0])
                    and call[2].lower() not in _KEYWORDS
                    and (args := _call_args(call[3])) is not None):
                self.stmts.append((CALL, *self._pos(call.start(1)), call[2], args))
                self.i = call.end()
                continue
            if (start := _SPACE.match(src, self.i).end()) == len(src):
                return self.stmts
            line, col = self._pos(start)
            ch = src[start]
            if ch in "%&":
                name = self._ident_at(start + 1)
                if not name:
                    raise LexError(f"stray {ch!r}", line, col)
                self.i = start + 1 + len(name)
                if ch == "&":
                    self.stmts.append((TEXT, line, col, name, None))
                else:
                    self._statement(name, line, col)
            else:
                word = self._ident_at(start) or _OPEN_CODE.match(src, start).group()
                self.i = start + len(word)
                self.stmts.append((TEXT, line, col, word, None))

    def _statement(self, name: str, line: int, col: int):
        kw = name.lower()
        if kw == "macro":
            self._macro(line, col)
        elif kw == "mend":
            self.stmts.append((ERROR, line, col, MacroSyntaxError, "%mend without %macro"))
        elif kw == "let":  # the loop head read every well-formed %let
            self._expect_name("expected a name after %let")
            raise self._error("expected '=' in %let")
        elif kw == "put":
            # raw text to ';'; a following macro statement keyword also ends
            # it, so a missing semicolon does not swallow the next statement
            end = _PUT_END.search(self.src, self.i)
            stop = end.start() if end else len(self.src)
            self.stmts.append((PUT, line, col, self.src[self.i:stop].strip(), None))
            self.i = end.end() if end else stop
        elif kw == "eval":
            self.stmts.append((TEXT, line, col, "%" + name, None))
        else:
            args, duplicate = {}, None
            if self._peek("("):
                args, duplicate = self._param_list("macro argument list", values_optional=False)
            self.stmts.append(duplicate or (CALL, line, col, name, args))

    def _param_list(self, what: str, values_optional: bool) -> tuple[dict, tuple | None]:
        """Read `(name[=value], ...)` into {lowercased name: raw value}.  The
        first repeated name comes back as an ERROR record for the caller."""
        self.i += 1
        entries: dict[str, str] = {}
        duplicate = None
        while not self._take(")"):
            name = self._expect_name(f"expected a name in {what}")
            key = name.lower()
            if key in entries and duplicate is None:
                duplicate = (ERROR, *self._pos(self.i - len(name)), DuplicateParamError, name)
            if self._take("="):
                entries[key] = self._raw_value()
            elif values_optional:
                entries[key] = ""
            else:
                raise self._error(f"{what} entries are written name=value")
            if not self._take(",") and not self._peek(")"):
                raise self._error(f"expected ',' or ')' in {what}")
        return entries, duplicate

    def _raw_value(self) -> str:
        """Capture a parameter/argument value up to a top-level ',' or ')'."""
        depth, end = 0, self.i
        while (stop := _VALUE_END.search(self.src, end)) is not None:
            end = stop.end()
            if stop.group() == "(":
                depth += 1
            elif depth == 0:
                value = self.src[self.i:stop.start()].strip()
                self.i = stop.start()
                return value
            elif stop.group() == ")":
                depth -= 1
        self.i = len(self.src)
        raise self._error("unterminated parameter list")

    def _macro(self, line: int, col: int):
        name = self._expect_name("expected a macro name after %macro")
        params, duplicate = {}, None
        if self._peek("("):
            params, duplicate = self._param_list("macro parameter list", values_optional=True)
        if not self._take(";"):
            raise self._error("expected ';' after %macro header")
        body_line, body_col = self._pos(self.i)
        body = self._body()
        if duplicate is not None:
            self.stmts.append(duplicate)
        elif body is None:
            self.stmts.append((ERROR, line, col, UnterminatedMacroError, name))
        else:
            self.stmts.append((MACRO, line, col, MacroDef(
                name.lower(), params, body, body_line, body_col), None))

    def _body(self) -> str | None:
        """Capture the body verbatim up to the matching %mend and consume
        `%mend [name] [;]`; None when the source ends first."""
        start, depth = self.i, 0
        while (keyword := _NESTING.search(self.src, self.i)) is not None:
            self.i = keyword.end()
            if keyword.group(1):
                depth += 1
            elif depth:
                depth -= 1
            else:
                self._skip_space()
                self.i += len(self._ident_at(self.i))
                self._take(";")
                return self.src[start:keyword.start()]
        self.i = len(self.src)
        return None


def scan(source: str, line: int = 1, col: int = 1) -> list[tuple]:
    """Scan maclang source (with `/* */` comments blanked) into statement
    records; see the record kinds above."""
    return _Scanner(source, line, col).scan()


# --- %eval integer arithmetic

_ARITH_TOKEN = re.compile(r"\d+|[-+*/()]")
# what tokenizing can fail on: a character that is neither a digit, an
# operator nor a blank, or a digit run too long for any int-string limit
# CPython accepts (0, or 640 and up), so a run of at most 640 digits converts
_ARITH_SUSPECT = re.compile(r"[^\d+\-*/() \t\r\n]|\d{641,}")


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
    into tokens, with one `findall`.  One pass over the tokens keeps a level's
    sum of closed terms in `total` and its open term in `term`, which starts
    as the sign of the `+` or `-` before it; each unary `-` negates `term`,
    and `op` is the `*` or `/` that takes the next factor.  Each open `(`
    stacks its enclosing level.  A factor is applied as soon as it is
    complete, so each error is raised where a left-to-right reading meets
    it; truncating division is odd in its dividend, so the sign carried in
    `term` gives the same result as applying it last."""
    suspect = _ARITH_SUSPECT.search(text)
    while suspect is not None:
        found = suspect.group()
        if len(found) == 1:
            raise ArithSyntaxError(f"unexpected {found!r} in integer expression")
        try:
            int(found)
        except ValueError:  # CPython's int/str conversion digit limit
            raise NumberTooLargeError(
                f"integer of {len(found)} digits is too long for %eval") from None
        suspect = _ARITH_SUSPECT.search(text, suspect.end())
    toks = _ARITH_TOKEN.findall(text)
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
        raise ArithSyntaxError("expected an integer, found None")
    if stack:
        raise ArithSyntaxError("missing ')' in integer expression")
    return total + term


# --- symbol tables and resolution

@dataclass
class SymbolTable:
    """Name → raw text entries for one scope; insertion order preserved."""
    trace_label: str    # "global", or "name#k" for the k-th invocation of a macro
    scope_display: str  # "GLOBAL", or the macro name upper-cased, for %put _user_
    entries: dict[str, str] = field(default_factory=dict)


def _owner(tables: list[SymbolTable], key: str) -> SymbolTable | None:
    """The innermost table defining key, or None."""
    for table in tables:
        if key in table.entries:
            return table
    return None


_REF = re.compile(r"&(\w+)")
_EVAL = re.compile(r"%eval[ \t]*\(", re.I)
_EVAL_OR_CLOSE = re.compile(f"{_EVAL.pattern}|\\)", re.I)


def resolve_text(text: str, tables: list[SymbolTable], trace: TraceSink,
                 _depth: int = 0) -> str:
    """Substitute every `&name` from the innermost table defining it (tables
    run innermost first), then rescan the substituted text so chained
    references resolve.  One `_REF.split` per level gives the text between
    references and, at the odd indices, the names; a name that does not
    start as a name is put back with its `&`.  Each reference is checked,
    traced and substituted in text order, and only an entry that holds `&`
    is rescanned.  The rescan depth per original reference is capped;
    nothing is ever cached."""
    if "&" not in text:
        return text
    parts = _REF.split(text)  # text, name, text, ..., name, text
    for k in range(1, len(parts), 2):
        name = parts[k]
        if not _is_ident_start(name[0]):
            parts[k] = "&" + name
            continue
        key = name.lower()
        owner = _owner(tables, key)
        if owner is None:
            raise UnresolvedRefError(name)
        if _depth >= RESCAN_LIMIT:
            raise DepthExceededError(f"resolving '&{name}'", RESCAN_LIMIT,
                                     "rescans (self-referential value?)")
        entry = owner.entries[key]
        if trace.events is not None:
            trace.emit(_VAR_RESOLVED, key, table=owner.trace_label, text=entry)
        parts[k] = resolve_text(entry, tables, trace, _depth + 1) if "&" in entry else entry
    return "".join(parts)


def _apply_evals(text: str, trace: TraceSink) -> str:
    """Replace every `%eval(...)` in resolved text with its integer result.

    One pass from left to right.  Outside a call only `%eval(` is looked
    for; inside one, `)` too, and the `(` before each hit are counted with
    `str.count`.  Each open call is on a stack as its text so far and its
    count of open `(`.  A call nested in another is evaluated only when the
    outermost one closes, so an unterminated call is reported before
    anything inside it runs."""
    out: list[str] = []
    stack: list[list] = []   # [pieces, open '(' count] per open call, innermost last
    closed: list[list] = []  # pieces of the closed calls in the open outermost one
    i = pos = 0              # text[i:] is not copied yet; the search goes on at pos
    while (tok := (_EVAL_OR_CLOSE if stack else _EVAL).search(text, pos)) is not None:
        hit = tok.start()
        if stack:
            stack[-1][1] += text.count("(", pos, hit)
        pos = tok.end()
        if text[hit] == "%":
            (stack[-1][0] if stack else out).append(text[i:hit])
            stack.append([[], 0])
            i = pos
        elif stack[-1][1]:
            stack[-1][1] -= 1
        else:
            pieces = stack.pop()[0]
            pieces.append(text[i:hit])
            i = pos
            closed.append(pieces)
            if stack:
                stack[-1][0].append(len(closed) - 1)
            else:
                out.append(_evaluate(closed, trace))
                closed.clear()
    if stack:
        raise ArithSyntaxError("unterminated %eval(...)")
    out.append(text[i:])
    return "".join(out)


def _evaluate(closed: list[list], trace: TraceSink) -> str:
    """Evaluate the calls of one outermost `%eval(`, given inner first as
    their pieces: text, or the index in `closed` of a call nested there."""
    results: list[str] = []
    for pieces in closed:
        if len(pieces) == 1:  # no call nested in this one
            inner = pieces[0]
        else:
            inner = "".join(p if isinstance(p, str) else results[p] for p in pieces)
        value = eval_arith(inner)
        try:
            result = str(value)
        except ValueError:  # CPython's int/str conversion digit limit
            raise NumberTooLargeError("%eval result has too many digits to print") from None
        if trace.events is not None:
            trace.emit(_ARITH_EVAL, inner.strip(), text=result)
        results.append(result)
    return results[-1]


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
        self.trace = trace if trace is not None else TraceSink(keep=False)
        # live tables, innermost first, global last
        self._tables = [SymbolTable("global", "GLOBAL")]
        self.macros: dict[str, MacroDef] = {}
        self.log: list[str] = []
        self._invocations: dict[str, int] = {}

    # execution

    def run(self, source: str) -> MacroOutput:
        self._execute(scan(source))
        return MacroOutput(list(self.log))

    def _execute(self, stmts: list[tuple]):
        for kind, line, col, a, b in stmts:
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
                raise err.at(line, col)

    # statement semantics

    def invoke(self, name: str, overrides: dict[str, str] | None = None):
        """Run a defined macro: push a local table, store parameter text
        verbatim, execute the body, delete the table at %mend.

        The macro name matches in any case.  `overrides` maps lowercase
        parameter names to their text, as the scanner's CALL records do."""
        definition = self.macros.get(name.lower())
        if definition is None:
            raise UnknownMacroError(name)
        overrides = overrides or {}
        for key in overrides:
            if key not in definition.params:
                raise UnknownParamError(definition.name, key)
        if len(self._tables) > MACRO_DEPTH_LIMIT:
            raise DepthExceededError(f"invoking '%{definition.name}'", MACRO_DEPTH_LIMIT,
                                     "nested invocations (recursive macro?)")
        ordinal = self._invocations.get(definition.name, 0) + 1
        self._invocations[definition.name] = ordinal
        table = SymbolTable(f"{definition.name}#{ordinal}", definition.name.upper())
        self._tables.insert(0, table)
        if self.trace.events is not None:
            self.trace.emit(_TABLE_CREATED, table.trace_label, text=definition.name)
        try:
            for p, default in definition.params.items():
                self._store(table, p, overrides.get(p, default), origin="param")
            if definition.body is None:
                definition.body = scan(definition.body_text,
                                       definition.body_line, definition.body_col)
            self._execute(definition.body)
        finally:
            del self._tables[0]
            if self.trace.events is not None:
                self.trace.emit(_TABLE_DELETED, table.trace_label)

    def let(self, name: str, raw_text: str):
        """Resolve the value text, then update the innermost table already
        defining the name, or create the entry in the innermost live table."""
        value = resolve_text(raw_text, self._tables, self.trace)
        key = name.lower()
        self._store(_owner(self._tables, key) or self._tables[0], key, value, origin="let")

    def put(self, text: str):
        if text.strip().lower() == "_user_":
            for table in self._tables:
                for key, value in table.entries.items():
                    self._log_line(f"{table.scope_display} {key.upper()} {value}")
            return
        resolved = resolve_text(text, self._tables, self.trace)
        self._log_line(_apply_evals(resolved, self.trace))

    def _store(self, table: SymbolTable, key: str, text: str, origin: str):
        """Store text under an already lowercased key."""
        table.entries[key] = text
        if self.trace.events is not None:
            self.trace.emit(_VAR_STORED, key,
                            table=table.trace_label, origin=origin, text=text)

    def _log_line(self, line: str):
        self.log.append(line)
        if self.trace.events is not None:
            self.trace.emit(_OUTPUT_LINE, "log", text=line)


def run_session(source: str, trace: TraceSink | None = None) -> MacroOutput:
    """Run a whole maclang session over the given source.

    Without a sink the session keeps no trace and makes no `emit` call; pass
    a `TraceSink()` to keep one."""
    return MacroSession(trace).run(source)
