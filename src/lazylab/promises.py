"""Promises: expression + environment + an initially unset value slot.

Forcing is memoized and at-most-once: the first force evaluates the
expression in the captured environment and caches the result; later forces
return the cache without re-evaluating.  A FORCING guard turns
self-referential forcing into a catchable error instead of unbounded
recursion.  Errors are never cached; a failed force leaves the promise
UNFORCED so the failure is reproducible.

The store also offers an uncached evaluation path (`evaluate_uncached`) used
by the call-by-name strategy: same expression and environment, no value slot
ever populated.

A promise is its expression, environment and value slot, and nothing more:
accesses and evaluations are counted from the trace (PROMISE_FORCED,
PROMISE_CACHE_HIT, NAME_REEVAL), not on the promise.  The store keeps no
promise; each lives as long as the frame that binds it.  It makes promises
over frames it does not check: a lookup finds a discarded one.

A traced store formats each promise's name, `promise<N>`, once, at `new`,
and the promise keeps it as the subject of all its events; a plain store
names no promise.  A traced store also prints each promise expression once
per expression object, at `new`, and each distinct Decimal value once, so
the promises of one expression share one `text`, and so do equal values,
which print alike, however often call-by-name re-evaluates them.
"""

from decimal import Decimal
from enum import Enum
from typing import Callable

from .errors import CyclicForceError
from .syntax import Expr, expr_source, format_value
from .trace import NAME_REEVAL, PROMISE_CACHE_HIT, PROMISE_CREATED, PROMISE_FORCED, TraceSink


class PromiseState(str, Enum):
    UNFORCED = "UNFORCED"
    FORCING = "FORCING"
    FORCED = "FORCED"


# module names for every force (the hot-path rule in syntax's docstring)
_UNFORCED, _FORCING, _FORCED = PromiseState


class Promise:
    __slots__ = ("name", "expr", "env", "label", "weight", "state", "value")

    def __init__(self, name: str | None, expr: Expr, env: int, label: str, weight: int):
        self.name = name  # a traced run's "promise<N>", the subject of its events
        self.expr = expr
        self.env = env
        self.label = label
        self.weight = weight  # the levels its evaluation counts (Call.weights)
        self.state = _UNFORCED
        self.value = None


# called with the promise's expression, environment and weight
Evaluator = Callable[[Expr, int, int], object]


class PromiseStore:
    """Creates, forces and traces the promises of a single run."""

    def __init__(self, trace: TraceSink | None):
        self._trace = trace
        self._named = 0  # promises made so far in a traced run
        # a traced run's printed text of each Decimal value it has printed
        self._printed: dict[Decimal, str] | None = None if trace is None else {}
        # a traced run's printed text of each expression it has made a promise
        # of, keyed by id(); each entry holds its expression, so no id is
        # reused while the store lives
        self._exprs: dict[int, tuple[Expr, str]] | None = None if trace is None else {}

    def new(self, expr: Expr, env: int, label: str, weight: int = 1) -> Promise:
        """Wrap an expression for the parameter `label` without evaluating anything."""
        if self._trace is None:
            return Promise(None, expr, env, label, weight)
        name = f"promise{self._named}"
        self._named += 1
        printed = self._exprs.get(id(expr))
        if printed is None:
            printed = self._exprs[id(expr)] = (expr, expr_source(expr))
        self._trace.emit(PROMISE_CREATED, name, printed[1], None, None, label, env)
        return Promise(name, expr, env, label, weight)

    def _text(self, value: object) -> str:
        """The printed form of `value`.  Equal Decimals print alike, so each
        distinct one is printed once and its text shared."""
        if value.__class__ is not Decimal:
            return format_value(value)
        text = self._printed.get(value)
        if text is None:
            text = self._printed[value] = format_value(value)
        return text

    def force(self, p: Promise, evaluator: Evaluator) -> object:
        """Return the cached value, evaluating once on first use."""
        if p.state is _FORCED:
            if self._trace is not None:
                self._trace.emit(PROMISE_CACHE_HIT, p.name, "", None, None, p.label)
            return p.value
        if p.state is _FORCING:
            raise CyclicForceError(p.label)
        p.state = _FORCING
        try:
            value = evaluator(p.expr, p.env, p.weight)
        except BaseException:
            p.state = _UNFORCED
            raise
        p.value = value
        p.state = _FORCED
        if self._trace is not None:
            self._trace.emit(PROMISE_FORCED, p.name, self._text(value), None, None, p.label)
        return value

    def evaluate_uncached(self, p: Promise, evaluator: Evaluator) -> object:
        """Re-evaluate the wrapped expression; nothing is ever cached."""
        if p.state is _FORCING:
            raise CyclicForceError(p.label)
        p.state = _FORCING
        try:
            value = evaluator(p.expr, p.env, p.weight)
        finally:
            p.state = _UNFORCED
        if self._trace is not None:
            self._trace.emit(NAME_REEVAL, p.name, self._text(value), None, None, p.label)
        return value
