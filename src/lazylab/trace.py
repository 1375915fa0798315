"""Ordered instrumentation events shared by both engines.

A traced run owns one sink, and event ordinals are strictly increasing
within it.  A run without a sink is not traced: `FunclangRun` and
`MacroSession` then hold `trace = None`, and every event site of the engines
tests `trace is not None` before it builds a subject or a field, so a plain
run makes no `emit` call and keeps no event.  `emit` builds each
`TraceEvent` in one C call, `tuple.__new__(TraceEvent, fields)` with every
field given, instead of the NamedTuple's generated `__new__`, a Python
function; the event is the same NamedTuple.  An event carries its facts as
fields, and `DETAIL` holds one renderer per kind of the v1 `key=value`
layout.  `lab.trace_jsonl` writes each line as one f-string and calls the
renderers directly with one memo per call, so it prints a promise's
expression once per distinct `Expr` object, not once per `PROMISE_CREATED`
event; `TraceEvent.detail` renders a single event.  This module is the only
one that knows that layout.
"""

from enum import Enum
from typing import NamedTuple

from .syntax import Expr


class EventKind(str, Enum):
    ENV_CREATED = "ENV_CREATED"
    ENV_DISCARDED = "ENV_DISCARDED"
    PROMISE_CREATED = "PROMISE_CREATED"
    PROMISE_FORCED = "PROMISE_FORCED"
    PROMISE_CACHE_HIT = "PROMISE_CACHE_HIT"
    NAME_REEVAL = "NAME_REEVAL"
    TABLE_CREATED = "TABLE_CREATED"
    TABLE_DELETED = "TABLE_DELETED"
    VAR_STORED = "VAR_STORED"
    VAR_RESOLVED = "VAR_RESOLVED"
    ARITH_EVAL = "ARITH_EVAL"
    OUTPUT_LINE = "OUTPUT_LINE"


class TraceEvent(NamedTuple):
    ord: int
    kind: EventKind
    subject: str
    param: str | None = None  # PROMISE_*, NAME_REEVAL: the parameter label
    env: int | None = None    # ENV_CREATED: the parent; PROMISE_CREATED: the captured env
    expr: Expr | None = None  # PROMISE_CREATED: the unevaluated expression
    # PROMISE_FORCED, NAME_REEVAL: the printed value; VAR_STORED, VAR_RESOLVED:
    # the entry's text; ARITH_EVAL: the result; OUTPUT_LINE: the line;
    # TABLE_CREATED: the macro name
    text: str = ""
    table: str | None = None   # VAR_STORED, VAR_RESOLVED: the table's label
    origin: str | None = None  # VAR_STORED: "param" or "let"

    @property
    def detail(self) -> str:
        """The v1 detail text of this event."""
        return DETAIL[self.kind](self, {})


def _created(e: TraceEvent, printed: dict[int, str]) -> str:
    text = printed.get(id(e.expr))
    if text is None:
        text = printed[id(e.expr)] = str(e.expr)
    return f"name={e.param} env=env{e.env} expr={text}"


# The v1 detail renderer of each kind. Each takes the event and `printed`, a
# memo of the promise expressions printed so far, keyed by `id()`. One memo
# serves one pass over one list of events: the list keeps each memoized
# `Expr` object alive, so no id is reused while the memo lives.
DETAIL = {
    EventKind.ENV_CREATED: lambda e, _: f"parent=env{e.env}",
    EventKind.ENV_DISCARDED: lambda e, _: "",
    EventKind.PROMISE_CREATED: _created,
    EventKind.PROMISE_FORCED: lambda e, _: f"name={e.param} value={e.text}",
    EventKind.PROMISE_CACHE_HIT: lambda e, _: f"name={e.param}",
    EventKind.NAME_REEVAL: lambda e, _: f"name={e.param} value={e.text}",
    EventKind.TABLE_CREATED: lambda e, _: f"macro={e.text}",
    EventKind.TABLE_DELETED: lambda e, _: "",
    EventKind.VAR_STORED: lambda e, _: f"{e.table} {e.origin} bytes={len(e.text)} text={e.text}",
    EventKind.VAR_RESOLVED: lambda e, _: f"{e.table} text={e.text}",
    EventKind.ARITH_EVAL: lambda e, _: e.text,
    EventKind.OUTPUT_LINE: lambda e, _: e.text,
}


# what `emit` builds each event through (the module docstring); with CPython
# 3.11.7 it took the benchmark's `trace.emit_s` down by 17-26 % per workload
_new_tuple = tuple.__new__


class TraceSink:
    """Collects the trace events of one run, assigning 1-based ordinals.

    A run that is not traced holds None in place of a sink."""

    def __init__(self):
        self.events: list[TraceEvent] = []

    def emit(self, kind: EventKind, subject: str, *, param: str | None = None,
             env: int | None = None, expr: Expr | None = None, text: str = "",
             table: str | None = None, origin: str | None = None) -> None:
        """Record one event."""
        events = self.events
        events.append(_new_tuple(TraceEvent, (
            len(events) + 1, kind, subject, param, env, expr, text, table, origin)))
