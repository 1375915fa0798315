"""maclang: a macro-preprocessor language executed by textual substitution.

The scanner turns source into statement records that the session executes
in order.  It and the `&` and `%eval(` passes move forward over string
offsets with compiled patterns; a (line, col) is worked out only for a record
or an error, and a macro body's records count from where the body starts in
the source.  Digits are decimal digits (`str.isdecimal`).  Macro bodies are
stored verbatim and scanned once, on their first invocation.  Parameter
defaults and call arguments are stored as raw text, `%let` values as the
text left after resolving them; every `&name` is re-resolved at every use,
from the innermost live symbol table, and the substituted text is rescanned
until no references remain.  `%eval(...)` performs integer arithmetic on
resolved text.  One global symbol table lives for the whole session; each
macro invocation pushes a local table that is deleted at `%mend`.  A name
repeated in a parameter list or in a call's argument list is an error.
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


# --- statement scanner
#
# `scan` returns statement records, each a tuple (kind, line, col, a, b)
# positioned at the statement's first character:
#   LET    a = name, b = raw value text
#   PUT    a = raw text
#   CALL   a = macro name as written, b = {lowercased argument name: raw text}
#   MACRO  a = the MacroDef
#   TEXT   a = one open-code word, forwarded to the compiler stream
#   ERROR  a = error class, b = its first argument; raised at (line, col) only
#          when execution reaches the record, so the statements before it run
#
# The scanner moves forward over string offsets with compiled patterns and
# works out (line, col) only for a record or an error.  `\w` is exactly
# `str.isalnum()` or "_", `\d` is `str.isdecimal()` and `\s` is `str.isspace()`;
# no pattern class is "a letter or _", so `_is_ident_start` checks the first
# character of a name.

LET, PUT, CALL, MACRO, TEXT, ERROR = "let", "put", "call", "macro", "text", "error"

_COMMENT = re.compile(r"/\*.*?(\*/|\Z)", re.S)  # an unclosed comment runs to the end
_NOT_NEWLINE = re.compile(r"[^\n]")
_SPACE = re.compile(r"\s*")
_WORD = re.compile(r"\w+")
_OPEN_CODE = re.compile(r"\d+|[-+*/()=;,]|[^\s%&+\-*/()=;,]+")
_LET_VALUE = re.compile(r"([^;]*);?")
_PUT_END = re.compile(r";|(?=%(?:let|put|macro|mend)(?!\w))", re.I)
_NESTING = re.compile(r"%(?:(macro)|mend)(?!\w)", re.I)
_VALUE_END = re.compile(r"[(),]")
# The loops call `pattern.search`, not `finditer`: on CPython 3.11 every
# `finditer` call leaves a fresh "search" string in the interpreter's method
# cache, which the benchmark's peak memory counted.


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


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
            raise LexError("unterminated comment", *self._pos(comment.start()), char="/*")
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
        return MacroSyntaxError(message, *self._pos(self.i))

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
        while (start := _SPACE.match(src, self.i).end()) < len(src):
            line, col = self._pos(start)
            ch = src[start]
            if ch in "%&":
                name = self._ident_at(start + 1)
                if not name:
                    raise LexError(f"stray {ch!r}", line, col, char=ch)
                self.i = start + 1 + len(name)
                if ch == "&":
                    self.stmts.append((TEXT, line, col, name, None))
                else:
                    self._statement(name, line, col)
            else:
                word = self._ident_at(start) or _OPEN_CODE.match(src, start).group()
                self.i = start + len(word)
                self.stmts.append((TEXT, line, col, word, None))
        return self.stmts

    def _statement(self, name: str, line: int, col: int):
        kw = name.lower()
        if kw == "macro":
            self._macro(line, col)
        elif kw == "mend":
            self.stmts.append((ERROR, line, col, MacroSyntaxError, "%mend without %macro"))
        elif kw == "let":
            var = self._expect_name("expected a name after %let")
            if not self._take("="):
                raise self._error("expected '=' in %let")
            value = _LET_VALUE.match(self.src, self.i)
            self.stmts.append((LET, line, col, var, value.group(1).strip()))
            self.i = value.end()
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
                name.lower(), list(params.items()), body, body_line, body_col), None))

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

_ARITH_TOKEN = re.compile(r"(\d+)|([-+*/()])|[ \t\r\n]+|(.)", re.S)


def _arith_tokens(text: str) -> list:
    toks: list = []
    for number, op, other in _ARITH_TOKEN.findall(text):
        if other:
            raise ArithSyntaxError(f"unexpected {other!r} in integer expression")
        if number:
            try:
                toks.append(int(number))
            except ValueError:  # CPython's int/str conversion digit limit
                raise NumberTooLargeError(
                    f"integer of {len(number)} digits is too long for %eval") from None
        elif op:
            toks.append(op)
    return toks


def eval_arith(text: str) -> int:
    """Evaluate `+ - * /` integer arithmetic; division truncates toward zero."""
    toks = _arith_tokens(text)
    if not toks:
        raise ArithSyntaxError("empty integer expression")
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        return tok

    def expr() -> int:
        value = term()
        while peek() in ("+", "-"):
            if take() == "+":
                value += term()
            else:
                value -= term()
        return value

    def term() -> int:
        value = unary()
        while peek() in ("*", "/"):
            if take() == "*":
                value *= unary()
            else:
                divisor = unary()
                if divisor == 0:
                    raise DivisionByZeroError("division by zero in %eval")
                quot, rem = divmod(value, divisor)
                if rem != 0 and (value < 0) != (divisor < 0):
                    quot += 1
                value = quot
        return value

    def unary() -> int:
        if peek() == "-":
            take()
            return -unary()
        return atom()

    def atom() -> int:
        tok = take() if pos < len(toks) else None
        if isinstance(tok, int):
            return tok
        if tok == "(":
            value = expr()
            if peek() != ")":
                raise ArithSyntaxError("missing ')' in integer expression")
            take()
            return value
        raise ArithSyntaxError(f"expected an integer, found {tok!r}")

    value = expr()
    if pos != len(toks):
        raise ArithSyntaxError(f"trailing {toks[pos]!r} in integer expression")
    return value


# --- symbol tables and resolution

@dataclass
class SymbolTable:
    """Name → raw text entries for one scope; insertion order preserved."""
    trace_label: str    # "global", or "name#k" for the k-th invocation of a macro
    scope_display: str  # "GLOBAL", or the macro name upper-cased, for %put _user_
    entries: dict[str, str] = field(default_factory=dict)


_REF = re.compile(r"&(\w+)")
_EVAL = re.compile(r"%eval[ \t]*\(", re.I)
_PAREN = re.compile(r"[()]")


def resolve_text(text: str, tables: list[SymbolTable], trace: TraceSink,
                 _depth: int = 0) -> str:
    """Substitute every `&name` from the innermost table defining it, then
    rescan the substituted text so chained references resolve.  The rescan
    depth per original reference is capped; nothing is ever cached."""
    def substitute(ref: re.Match) -> str:
        name = ref.group(1)
        if not _is_ident_start(name[0]):
            return ref.group()
        key = name.lower()
        owner = None
        for table in tables:
            if key in table.entries:
                owner = table
                break
        if owner is None:
            raise UnresolvedRefError(name)
        if _depth >= RESCAN_LIMIT:
            raise DepthExceededError(name, RESCAN_LIMIT)
        entry = owner.entries[key]
        trace.emit(EventKind.VAR_RESOLVED, key, table=owner.trace_label, text=entry)
        return resolve_text(entry, tables, trace, _depth + 1)

    return _REF.sub(substitute, text)


def _apply_evals(text: str, trace: TraceSink) -> str:
    """Replace every `%eval(...)` in resolved text with its integer result."""
    out: list[str] = []
    i = 0
    while (call := _EVAL.search(text, i)) is not None:
        depth, close = 1, call
        while depth:
            close = _PAREN.search(text, close.end())
            if close is None:
                raise ArithSyntaxError("unterminated %eval(...)")
            depth += 1 if close.group() == "(" else -1
        inner = _apply_evals(text[call.end():close.start()], trace)
        value = eval_arith(inner)
        try:
            result = str(value)
        except ValueError:  # CPython's int/str conversion digit limit
            raise NumberTooLargeError("%eval result has too many digits to print") from None
        trace.emit(EventKind.ARITH_EVAL, inner.strip(), text=result)
        out.extend((text[i:call.start()], result))
        i = close.end()
    out.append(text[i:])
    return "".join(out)


# --- macro definitions and session

@dataclass
class MacroDef:
    name: str
    params: list[tuple[str, str]]  # (name, default text; may be empty)
    body_text: str                 # stored verbatim, unresolved
    body_line: int = 1
    body_col: int = 1
    # statement records of body_text, scanned on first invocation
    body: list[tuple] | None = field(default=None, init=False, repr=False, compare=False)


@dataclass
class MacroOutput:
    log_lines: list[str]


class MacroSession:
    """One maclang session: global symbol table, macro registry, log."""

    def __init__(self, trace: TraceSink | None = None):
        self.trace = trace if trace is not None else TraceSink()
        self._global = SymbolTable("global", "GLOBAL")
        self._stack: list[SymbolTable] = [self._global]  # global first, innermost last
        self.macros: dict[str, MacroDef] = {}
        self.log: list[str] = []
        self.compiler_stream: list[str] = []
        self._invocations: dict[str, int] = {}

    # table access

    @property
    def global_table(self) -> SymbolTable:
        return self._global

    def live_tables(self) -> list[SymbolTable]:
        """Live tables, innermost local first, global last."""
        return list(reversed(self._stack))

    # execution

    def run(self, source: str) -> MacroOutput:
        self._execute(scan(source))
        return MacroOutput(list(self.log))

    def _execute(self, stmts: list[tuple]):
        for kind, line, col, a, b in stmts:
            try:
                if kind == TEXT:
                    self.compiler_stream.append(a)
                elif kind == LET:
                    self.let(a, b)
                elif kind == PUT:
                    self.put(a)
                elif kind == CALL:
                    self.invoke(a, b)
                elif kind == MACRO:
                    self.macros[a.name] = a
                else:
                    raise a(b, line, col)
            except LazyLabError as err:
                raise err.at(line, col)

    # statement semantics

    def invoke(self, name: str, overrides: dict[str, str] | None = None):
        """Run a defined macro: push a local table, store parameter text
        verbatim, execute the body, delete the table at %mend."""
        definition = self.macros.get(name.lower())
        if definition is None:
            raise UnknownMacroError(name)
        overrides = {k.lower(): v for k, v in (overrides or {}).items()}
        param_names = {p for p, _ in definition.params}
        for key in overrides:
            if key not in param_names:
                raise UnknownParamError(definition.name, key)
        ordinal = self._invocations.get(definition.name, 0) + 1
        self._invocations[definition.name] = ordinal
        table = SymbolTable(f"{definition.name}#{ordinal}", definition.name.upper())
        self._stack.append(table)
        self.trace.emit(EventKind.TABLE_CREATED, table.trace_label, text=definition.name)
        try:
            for p, default in definition.params:
                self._store(table, p, overrides.get(p, default), origin="param")
            if definition.body is None:
                definition.body = scan(definition.body_text,
                                       definition.body_line, definition.body_col)
            self._execute(definition.body)
        finally:
            self._stack.pop()
            self.trace.emit(EventKind.TABLE_DELETED, table.trace_label)

    def let(self, name: str, raw_text: str):
        """Resolve the value text, then update the innermost table already
        defining the name, or create the entry in the innermost live table."""
        value = self.resolve(raw_text)
        key = name.lower()
        target = None
        for table in self.live_tables():
            if key in table.entries:
                target = table
                break
        if target is None:
            target = self._stack[-1]
        self._store(target, key, value, origin="let")

    def put(self, text: str):
        if text.strip().lower() == "_user_":
            for table in self.live_tables():
                for key, value in table.entries.items():
                    self._log_line(f"{table.scope_display} {key.upper()} {value}")
            return
        resolved = self.resolve(text)
        self._log_line(_apply_evals(resolved, self.trace))

    def resolve(self, text: str) -> str:
        return resolve_text(text, self.live_tables(), self.trace)

    def _store(self, table: SymbolTable, name: str, text: str, origin: str):
        table.entries[name.lower()] = text
        self.trace.emit(EventKind.VAR_STORED, name.lower(),
                        table=table.trace_label, origin=origin, text=text)

    def _log_line(self, line: str):
        self.log.append(line)
        self.trace.emit(EventKind.OUTPUT_LINE, "log", text=line)


def run_session(source: str, trace: TraceSink | None = None) -> MacroOutput:
    """Run a whole maclang session over the given source."""
    return MacroSession(trace).run(source)
