"""maclang: a macro-preprocessor language executed by textual substitution.

The scanner turns source into statement records that the session executes
in order.  Macro bodies are stored verbatim and scanned once, on their first
invocation.  Parameter defaults and call arguments are stored as raw text,
`%let` values as the text left after resolving them; every `&name` is
re-resolved at every use, from the innermost live symbol table, and the
substituted text is rescanned until no references remain.  `%eval(...)`
performs integer arithmetic on resolved text.  One global symbol table lives
for the whole session; each macro invocation pushes a local table that is
deleted at `%mend`.  A name repeated in a parameter list or in a call's
argument list is an error.
"""

from dataclasses import dataclass, field

from .errors import (
    ArithSyntaxError,
    DepthExceededError,
    DivisionByZeroError,
    DuplicateParamError,
    LazyLabError,
    LexError,
    MacroSyntaxError,
    UnknownMacroError,
    UnknownParamError,
    UnresolvedRefError,
    UnterminatedMacroError,
)
from .trace import EventKind, TraceSink

LIVE = "LIVE"
DELETED = "DELETED"

RESCAN_LIMIT = 64

_STMT_KEYWORDS = {"let", "put", "macro", "mend"}


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

LET, PUT, CALL, MACRO, TEXT, ERROR = "let", "put", "call", "macro", "text", "error"


def _strip_comments(source: str, line: int, col: int) -> str:
    """Replace `/* ... */` comments with spaces, preserving line breaks."""
    out: list[str] = []
    i, n = 0, len(source)
    cur_line, cur_col = line, col
    while i < n:
        if source[i] == "/" and i + 1 < n and source[i + 1] == "*":
            start_line, start_col = cur_line, cur_col
            end = source.find("*/", i + 2)
            if end < 0:
                raise LexError("unterminated comment", start_line, start_col, char="/*")
            for ch in source[i:end + 2]:
                if ch == "\n":
                    out.append("\n")
                    cur_line += 1
                    cur_col = 1
                else:
                    out.append(" ")
                    cur_col += 1
            i = end + 2
            continue
        ch = source[i]
        out.append(ch)
        if ch == "\n":
            cur_line += 1
            cur_col = 1
        else:
            cur_col += 1
        i += 1
    return "".join(out)


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


class _Scanner:
    """Single-pass scanner; `%let`, `%put`, `%macro`, and macro calls switch
    it into raw-text capture so stored values keep their source spelling."""

    def __init__(self, source: str, line: int = 1, col: int = 1):
        self.src = _strip_comments(source, line, col)
        self.n = len(self.src)
        self.i = 0
        self.line = line
        self.col = col
        self.stmts: list[tuple] = []

    def scan(self) -> list[tuple]:
        while self.i < self.n:
            self._next()
        return self.stmts

    # low-level helpers

    def _emit(self, kind: str, line: int, col: int, a, b=None):
        self.stmts.append((kind, line, col, a, b))

    def _peek(self) -> str:
        return self.src[self.i] if self.i < self.n else ""

    def _advance(self):
        ch = self.src[self.i]
        self.i += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1

    def _skip_ws(self):
        while self.i < self.n and self.src[self.i].isspace():
            self._advance()

    def _skip_semi(self):
        if self._peek() == ";":
            self._advance()

    def _ident(self) -> str:
        start = self.i
        while self.i < self.n and _is_ident_char(self.src[self.i]):
            self._advance()
        return self.src[start:self.i]

    def _peek_ident_after(self, j: int) -> str:
        """Read an identifier starting at offset j without consuming."""
        if j >= self.n or not _is_ident_start(self.src[j]):
            return ""
        k = j
        while k < self.n and _is_ident_char(self.src[k]):
            k += 1
        return self.src[j:k]

    # normal-mode scanning

    def _next(self):
        ch = self._peek()
        if ch.isspace():
            self._advance()
            return
        line, col = self.line, self.col
        if ch == "%":
            self._advance()
            if not self._peek_ident_after(self.i):
                raise LexError("stray '%'", line, col, char="%")
            name = self._ident()
            kw = name.lower()
            if kw == "macro":
                self._macro_tail(line, col)
            elif kw == "mend":
                self._emit(ERROR, line, col, MacroSyntaxError, "%mend without %macro")
            elif kw == "let":
                self._let_tail(line, col)
            elif kw == "put":
                self._put_tail(line, col)
            elif kw == "eval":
                self._emit(TEXT, line, col, "%" + name)
            else:
                self._call_tail(name, line, col)
            return
        if ch == "&":
            self._advance()
            if not self._peek_ident_after(self.i):
                raise LexError("stray '&'", line, col, char="&")
            self._emit(TEXT, line, col, self._ident())
            return
        start = self.i
        if _is_ident_start(ch):
            self._ident()
        elif ch.isdigit():
            while self.i < self.n and self.src[self.i].isdigit():
                self._advance()
        elif ch in "+-*/()=;,":
            self._advance()
        else:
            # any other printable run is raw text for the compiler stream
            while (self.i < self.n and not self.src[self.i].isspace()
                   and self.src[self.i] not in "%&+-*/()=;,"):
                self._advance()
        self._emit(TEXT, line, col, self.src[start:self.i])

    # statement tails

    def _require(self, cond, message: str):
        if not cond:
            raise MacroSyntaxError(message, self.line, self.col)

    def _let_tail(self, line: int, col: int):
        self._skip_ws()
        self._require(self._peek_ident_after(self.i), "expected a name after %let")
        name = self._ident()
        self._skip_ws()
        self._require(self._peek() == "=", "expected '=' in %let")
        self._advance()
        start = self.i
        while self.i < self.n and self.src[self.i] != ";":
            self._advance()
        self._emit(LET, line, col, name, self.src[start:self.i].strip())
        self._skip_semi()

    def _put_tail(self, line: int, col: int):
        # raw text to ';'; a following macro statement keyword also ends it,
        # so a missing semicolon does not swallow the next statement
        self._skip_ws()
        start = self.i
        while self.i < self.n:
            ch = self.src[self.i]
            if ch == ";":
                break
            if ch == "%" and self._peek_ident_after(self.i + 1).lower() in _STMT_KEYWORDS:
                break
            self._advance()
        self._emit(PUT, line, col, self.src[start:self.i].strip())
        self._skip_semi()

    def _raw_value(self) -> str:
        """Capture a parameter/argument value up to a top-level ',' or ')'."""
        start = self.i
        depth = 0
        while self.i < self.n:
            ch = self.src[self.i]
            if ch == "(":
                depth += 1
            elif ch == ")":
                if depth == 0:
                    break
                depth -= 1
            elif ch == "," and depth == 0:
                break
            self._advance()
        self._require(self.i < self.n, "unterminated parameter list")
        return self.src[start:self.i].strip()

    def _param_list(self, what: str, values_optional: bool) -> tuple[dict, tuple | None]:
        """Read `(name[=value], ...)` into {lowercased name: raw value}.  The
        first repeated name comes back as an ERROR record for the caller."""
        self._advance()
        entries: dict[str, str] = {}
        duplicate = None
        while True:
            self._skip_ws()
            if self._peek() == ")":
                self._advance()
                return entries, duplicate
            line, col = self.line, self.col
            self._require(self._peek_ident_after(self.i), f"expected a name in {what}")
            name = self._ident()
            key = name.lower()
            if key in entries and duplicate is None:
                duplicate = (ERROR, line, col, DuplicateParamError, name)
            self._skip_ws()
            value = ""
            if self._peek() == "=":
                self._advance()
                value = self._raw_value()
            elif not values_optional:
                raise MacroSyntaxError(f"{what} entries are written name=value",
                                       self.line, self.col)
            entries[key] = value
            self._skip_ws()
            if self._peek() == ",":
                self._advance()
                continue
            self._require(self._peek() == ")", f"expected ',' or ')' in {what}")

    def _macro_tail(self, line: int, col: int):
        self._skip_ws()
        self._require(self._peek_ident_after(self.i), "expected a macro name after %macro")
        name = self._ident()
        self._skip_ws()
        params, duplicate = {}, None
        if self._peek() == "(":
            params, duplicate = self._param_list("macro parameter list", values_optional=True)
        self._skip_ws()
        self._require(self._peek() == ";", "expected ';' after %macro header")
        self._advance()
        body_line, body_col = self.line, self.col
        body = self._body_tail()
        if duplicate is not None:
            self.stmts.append(duplicate)
        elif body is None:
            self._emit(ERROR, line, col, UnterminatedMacroError, name)
        else:
            self._emit(MACRO, line, col, MacroDef(
                name.lower(), list(params.items()), body, body_line, body_col))

    def _body_tail(self) -> str | None:
        """Capture the body verbatim up to the matching %mend and consume
        `%mend [name] [;]`; None when the source ends first."""
        start = self.i
        depth = 0
        while self.i < self.n:
            if self.src[self.i] == "%":
                word = self._peek_ident_after(self.i + 1)
                if word.lower() == "macro":
                    depth += 1
                elif word.lower() == "mend":
                    if depth == 0:
                        body = self.src[start:self.i]
                        self._advance()
                        self._ident()
                        self._skip_ws()
                        if self._peek_ident_after(self.i):
                            self._ident()
                            self._skip_ws()
                        self._skip_semi()
                        return body
                    depth -= 1
            self._advance()
        return None

    def _call_tail(self, name: str, line: int, col: int):
        self._skip_ws()
        args, duplicate = {}, None
        if self._peek() == "(":
            args, duplicate = self._param_list("macro argument list", values_optional=False)
        self.stmts.append(duplicate or (CALL, line, col, name, args))


def scan(source: str, line: int = 1, col: int = 1) -> list[tuple]:
    """Scan maclang source (with `/* */` comments stripped) into statement
    records; see the record kinds above."""
    return _Scanner(source, line, col).scan()


# --- %eval integer arithmetic

def _arith_tokens(text: str) -> list:
    toks: list = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(int(text[i:j]))
            i = j
            continue
        if ch in "+-*/()":
            toks.append(ch)
            i += 1
            continue
        raise ArithSyntaxError(f"unexpected {ch!r} in integer expression")
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
    macro_name: str | None
    ordinal: int | None
    entries: dict[str, str] = field(default_factory=dict)
    status: str = LIVE

    @property
    def is_global(self) -> bool:
        return self.macro_name is None

    @property
    def scope_display(self) -> str:
        return "GLOBAL" if self.is_global else self.macro_name.upper()

    @property
    def trace_label(self) -> str:
        return "global" if self.is_global else f"{self.macro_name}#{self.ordinal}"


def resolve_text(text: str, tables: list[SymbolTable],
                 trace: TraceSink | None = None, _depth: int = 0) -> str:
    """Substitute every `&name` from the innermost table defining it, then
    rescan the substituted text so chained references resolve.  The rescan
    depth per original reference is capped; nothing is ever cached."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "&" and i + 1 < n and _is_ident_start(text[i + 1]):
            j = i + 1
            while j < n and _is_ident_char(text[j]):
                j += 1
            name = text[i + 1:j]
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
            if trace is not None:
                trace.emit(EventKind.VAR_RESOLVED, key,
                           f"{owner.trace_label} text={entry}")
            out.append(resolve_text(entry, tables, trace, _depth + 1))
            i = j
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _apply_evals(text: str, trace: TraceSink | None = None) -> str:
    """Replace every `%eval(...)` in resolved text with its integer result."""
    out: list[str] = []
    low = text.lower()
    i, n = 0, len(text)
    while i < n:
        if low.startswith("%eval", i):
            j = i + 5
            while j < n and text[j] in " \t":
                j += 1
            if j < n and text[j] == "(":
                depth = 1
                k = j + 1
                while k < n and depth:
                    if text[k] == "(":
                        depth += 1
                    elif text[k] == ")":
                        depth -= 1
                    k += 1
                if depth:
                    raise ArithSyntaxError("unterminated %eval(...)")
                inner = _apply_evals(text[j + 1:k - 1], trace)
                value = eval_arith(inner)
                if trace is not None:
                    trace.emit(EventKind.ARITH_EVAL, inner.strip(), str(value))
                out.append(str(value))
                i = k
                continue
        out.append(text[i])
        i += 1
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
        self._global = SymbolTable(None, None)
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

    def stack_depth(self) -> int:
        return len(self._stack)

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

    def invoke(self, name: str, overrides: dict[str, str] | None = None) -> MacroOutput:
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
        table = SymbolTable(definition.name, ordinal)
        self._stack.append(table)
        self.trace.emit(EventKind.TABLE_CREATED, table.trace_label,
                        f"macro={definition.name}")
        mark = len(self.log)
        try:
            for p, default in definition.params:
                self._store(table, p, overrides.get(p, default), origin="param")
            if definition.body is None:
                definition.body = scan(definition.body_text,
                                       definition.body_line, definition.body_col)
            self._execute(definition.body)
        finally:
            self._stack.pop()
            table.status = DELETED
            self.trace.emit(EventKind.TABLE_DELETED, table.trace_label)
        return MacroOutput(self.log[mark:])

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
                        f"{table.trace_label} {origin} bytes={len(text)} text={text}")

    def _log_line(self, line: str):
        self.log.append(line)
        self.trace.emit(EventKind.OUTPUT_LINE, "log", line)


def run_session(source: str, trace: TraceSink | None = None) -> MacroOutput:
    """Run a whole maclang session over the given source."""
    return MacroSession(trace).run(source)
