"""Ordered instrumentation events shared by both engines.

A traced run owns one sink, and event ordinals are strictly increasing
within it.  A run without a sink is not traced: `FunclangRun` and
`MacroSession` then hold `trace = None`, and every event site of the engines
tests `trace is not None` before it builds a subject or a field, so a plain
run makes no `emit` call and keeps no event.  `emit` takes its fields by
position after `kind` and `subject`, and builds each `TraceEvent` in one C
call, `tuple.__new__(TraceEvent, fields)` with every field given, instead of
the NamedTuple's generated `__new__`, a Python function; the event is the
same NamedTuple.  An event holds only strings and ints: a traced run makes
each promise's and frame's name once, when it makes the promise or frame,
and every event about it holds that one string; the promise store prints
each promise expression and each distinct Decimal value once (see
`promises`).  An event carries its facts as fields and renders nothing:
`lab` holds the v1 JSON-lines layout that writes them.  This module imports
nothing from either engine.
"""

from enum import Enum
from typing import NamedTuple


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


# The engines emit and `lab` folds these names, never `EventKind.X`: with
# CPython 3.11.7 each `EventKind.X` read goes through the Enum metaclass and
# took about 100 ns, against under 7 ns for a module name (`python -m timeit`).
(ENV_CREATED, ENV_DISCARDED, PROMISE_CREATED, PROMISE_FORCED, PROMISE_CACHE_HIT,
 NAME_REEVAL, TABLE_CREATED, TABLE_DELETED, VAR_STORED, VAR_RESOLVED, ARITH_EVAL,
 OUTPUT_LINE) = EventKind


class TraceEvent(NamedTuple):
    ord: int
    kind: EventKind
    subject: str
    param: str | None = None  # PROMISE_*, NAME_REEVAL: the parameter label
    env: int | None = None    # ENV_CREATED: the parent; PROMISE_CREATED: the captured env
    # PROMISE_CREATED: the printed expression; PROMISE_FORCED, NAME_REEVAL:
    # the printed value; VAR_STORED, VAR_RESOLVED: the entry's text;
    # ARITH_EVAL: the result; OUTPUT_LINE: the line; TABLE_CREATED: the macro name
    text: str = ""
    table: str | None = None   # VAR_STORED, VAR_RESOLVED: the table's label
    origin: str | None = None  # VAR_STORED: "param" or "let"


# what `emit` builds each event through (the module docstring); with CPython
# 3.11.7 it took the benchmark's `trace.emit_s` down by 17-26 % per workload
_new_tuple = tuple.__new__


class TraceSink:
    """Collects the trace events of one run, assigning 1-based ordinals.

    A run that is not traced holds None in place of a sink."""

    def __init__(self):
        self.events: list[TraceEvent] = []

    def emit(self, kind: EventKind, subject: str, text: str = "",
             table: str | None = None, origin: str | None = None,
             param: str | None = None, env: int | None = None) -> None:
        """Record one event.  Every event site passes its fields by position,
        in this order: maclang's most frequent events give the first three."""
        events = self.events
        events.append(_new_tuple(TraceEvent, (
            len(events) + 1, kind, subject, param, env, text, table, origin)))
