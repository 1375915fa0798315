"""Ordered instrumentation events shared by both engines.

Every run owns one sink; event ordinals are strictly increasing within it.
An event carries its facts as fields, and `TraceEvent.detail` renders them in
the v1 `key=value` layout that `lab.trace_jsonl` writes.  This module is the
only one that knows that layout.
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
        return _DETAIL[self.kind](self)


_DETAIL = {
    EventKind.ENV_CREATED: lambda e: f"parent=env{e.env}",
    EventKind.ENV_DISCARDED: lambda e: "",
    EventKind.PROMISE_CREATED: lambda e: f"name={e.param or '_'} env=env{e.env} expr={e.expr}",
    EventKind.PROMISE_FORCED: lambda e: f"name={e.param or '_'} value={e.text}",
    EventKind.PROMISE_CACHE_HIT: lambda e: f"name={e.param or '_'}",
    EventKind.NAME_REEVAL: lambda e: f"name={e.param or '_'} value={e.text}",
    EventKind.TABLE_CREATED: lambda e: f"macro={e.text}",
    EventKind.TABLE_DELETED: lambda e: "",
    EventKind.VAR_STORED: lambda e: f"{e.table} {e.origin} bytes={len(e.text)} text={e.text}",
    EventKind.VAR_RESOLVED: lambda e: f"{e.table} text={e.text}",
    EventKind.ARITH_EVAL: lambda e: e.text,
    EventKind.OUTPUT_LINE: lambda e: e.text,
}


class TraceSink:
    """Collects trace events for one run, assigning 1-based ordinals."""

    def __init__(self):
        self.events: list[TraceEvent] = []
        self._next_ord = 1

    def emit(self, kind: EventKind, subject: str, *, param: str | None = None,
             env: int | None = None, expr: Expr | None = None, text: str = "",
             table: str | None = None, origin: str | None = None) -> TraceEvent:
        ev = TraceEvent(self._next_ord, kind, subject, param, env, expr, text, table, origin)
        self._next_ord += 1
        self.events.append(ev)
        return ev

    def of_kind(self, kind: EventKind) -> list[TraceEvent]:
        return [ev for ev in self.events if ev.kind is kind]

    def count(self, kind: EventKind) -> int:
        return sum(1 for ev in self.events if ev.kind is kind)
