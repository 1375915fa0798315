"""Ordered instrumentation events shared by both engines.

A traced run owns one sink, and event ordinals are strictly increasing
within it.  A sink made with `keep=False` keeps nothing and builds no event;
`run_program` and `run_session` use one when they are given no sink, so a
plain run's memory does not grow with its trace.  An event carries its facts
as fields, and `TraceEvent.detail` renders them in the v1 `key=value` layout
that `lab.trace_jsonl` writes.  This module is the only one that knows that
layout.
"""

from enum import Enum
from typing import NamedTuple

from .syntax import Expr, format_value


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
        return _DETAIL[self.kind](self)


_DETAIL = {
    EventKind.ENV_CREATED: lambda e: f"parent=env{e.env}",
    EventKind.ENV_DISCARDED: lambda e: "",
    EventKind.PROMISE_CREATED: lambda e: f"name={e.param} env=env{e.env} expr={e.expr}",
    EventKind.PROMISE_FORCED: lambda e: f"name={e.param} value={e.text}",
    EventKind.PROMISE_CACHE_HIT: lambda e: f"name={e.param}",
    EventKind.NAME_REEVAL: lambda e: f"name={e.param} value={e.text}",
    EventKind.TABLE_CREATED: lambda e: f"macro={e.text}",
    EventKind.TABLE_DELETED: lambda e: "",
    EventKind.VAR_STORED: lambda e: f"{e.table} {e.origin} bytes={len(e.text)} text={e.text}",
    EventKind.VAR_RESOLVED: lambda e: f"{e.table} text={e.text}",
    EventKind.ARITH_EVAL: lambda e: e.text,
    EventKind.OUTPUT_LINE: lambda e: e.text,
}


class TraceSink:
    """Collects the trace events of one run, assigning 1-based ordinals.

    With `keep=False`, `events` is None and `emit` returns at once."""

    def __init__(self, keep: bool = True):
        self.events: list[TraceEvent] | None = [] if keep else None

    def emit(self, kind: EventKind, subject: str, *, param: str | None = None,
             env: int | None = None, expr: Expr | None = None, text: object = "",
             table: str | None = None, origin: str | None = None) -> None:
        """Record one event.  A `text` that is not a `str` is an evaluator value;
        it is formatted with `format_value` only when the event is kept."""
        events = self.events
        if events is None:
            return
        events.append(TraceEvent(len(events) + 1, kind, subject, param, env, expr,
                                 text if text.__class__ is str else format_value(text),
                                 table, origin))
