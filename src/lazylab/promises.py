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
promise; each lives as long as the frame that binds it.
"""

from enum import Enum
from typing import Callable

from .environments import EnvRegistry
from .errors import CyclicForceError, DiscardedEnvError
from .syntax import Expr
from .trace import EventKind, TraceSink


class PromiseState(str, Enum):
    UNFORCED = "UNFORCED"
    FORCING = "FORCING"
    FORCED = "FORCED"


# module names for every force (the hot-path rule in syntax's docstring)
_UNFORCED = PromiseState.UNFORCED
_FORCING = PromiseState.FORCING
_FORCED = PromiseState.FORCED
_PROMISE_CREATED = EventKind.PROMISE_CREATED
_PROMISE_FORCED = EventKind.PROMISE_FORCED
_PROMISE_CACHE_HIT = EventKind.PROMISE_CACHE_HIT
_NAME_REEVAL = EventKind.NAME_REEVAL


class Promise:
    __slots__ = ("id", "expr", "env", "label", "state", "value")

    def __init__(self, pid: int, expr: Expr, env: int, label: str):
        self.id = pid
        self.expr = expr
        self.env = env
        self.label = label
        self.state = _UNFORCED
        self.value = None


Evaluator = Callable[[Expr, int], object]


class PromiseStore:
    """Creates, forces and traces the promises of a single run."""

    def __init__(self, envs: EnvRegistry, trace: TraceSink):
        self._envs = envs
        self._trace = trace
        self._next_id = 0

    def new(self, expr: Expr, env: int, label: str) -> Promise:
        """Wrap an expression for the parameter `label` without evaluating anything."""
        if not self._envs.is_live(env):
            raise DiscardedEnvError(f"environment env{env} was discarded")
        p = Promise(self._next_id, expr, env, label)
        self._next_id += 1
        if self._trace.events is not None:
            self._trace.emit(_PROMISE_CREATED, f"promise{p.id}",
                             param=label, env=env, expr=expr)
        return p

    def force(self, p: Promise, evaluator: Evaluator) -> object:
        """Return the cached value, evaluating once on first use."""
        if p.state is _FORCED:
            if self._trace.events is not None:
                self._trace.emit(_PROMISE_CACHE_HIT, f"promise{p.id}", param=p.label)
            return p.value
        if p.state is _FORCING:
            raise CyclicForceError(p.label)
        p.state = _FORCING
        try:
            value = evaluator(p.expr, p.env)
        except BaseException:
            p.state = _UNFORCED
            raise
        p.value = value
        p.state = _FORCED
        if self._trace.events is not None:
            self._trace.emit(_PROMISE_FORCED, f"promise{p.id}",
                             param=p.label, text=value)
        return value

    def evaluate_uncached(self, p: Promise, evaluator: Evaluator) -> object:
        """Re-evaluate the wrapped expression; nothing is ever cached."""
        if p.state is _FORCING:
            raise CyclicForceError(p.label)
        p.state = _FORCING
        try:
            value = evaluator(p.expr, p.env)
        finally:
            p.state = _UNFORCED
        if self._trace.events is not None:
            self._trace.emit(_NAME_REEVAL, f"promise{p.id}",
                             param=p.label, text=value)
        return value
