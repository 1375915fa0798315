from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from lazylab.environments import EnvRegistry
from lazylab.errors import CyclicForceError, UnboundNameError
from lazylab.evaluator import run_program
from lazylab.lab import metrics_from_events
from lazylab.promises import PromiseState, PromiseStore
from lazylab.syntax import parse_source
from lazylab.trace import EventKind, TraceSink


def _expr(text):
    (stmt,) = parse_source(text).stmts
    return stmt.expr


@pytest.fixture
def store():
    sink = TraceSink()
    envs = EnvRegistry(sink)
    return envs, PromiseStore(sink), sink


def _counting_evaluator(result=Decimal(1)):
    calls = []

    def evaluator(expr, env):
        calls.append((expr, env))
        return result

    return evaluator, calls


def _metrics(sink, promise):
    """(state, accesses, evaluations) of a promise, counted from the trace."""
    kinds = [ev.kind for ev in sink.events if ev.subject == promise.name]
    evaluations = kinds.count(EventKind.PROMISE_FORCED) + kinds.count(EventKind.NAME_REEVAL)
    return promise.state, evaluations + kinds.count(EventKind.PROMISE_CACHE_HIT), evaluations


def test_new_promise_is_unforced_and_evaluates_nothing(store):
    envs, promises, sink = store
    evaluator, calls = _counting_evaluator()
    p = promises.new(_expr("x*10"), envs.global_id, label="y")
    assert _metrics(sink, p) == (PromiseState.UNFORCED, 0, 0)
    assert calls == []


def test_literal_promise_not_constant_folded(store):
    envs, promises, _ = store
    p = promises.new(_expr("5"), envs.global_id, label="p")
    assert p.state is PromiseState.UNFORCED


def test_wrapping_never_looks_names_up(store):
    envs, promises, _ = store
    # a and b are unbound everywhere; construction must still succeed
    p = promises.new(_expr("a+b"), envs.global_id, label="p")
    assert p.state is PromiseState.UNFORCED


def test_force_caches_single_evaluation(store):
    envs, promises, sink = store
    evaluator, calls = _counting_evaluator(Decimal(20))
    p = promises.new(_expr("x*10"), envs.global_id, label="y")
    assert promises.force(p, evaluator) == Decimal(20)
    assert promises.force(p, evaluator) == Decimal(20)
    assert len(calls) == 1
    assert _metrics(sink, p) == (PromiseState.FORCED, 2, 1)


def test_force_events(store):
    envs, promises, sink = store
    evaluator, _ = _counting_evaluator()
    p = promises.new(_expr("1"), envs.global_id, label="v")
    promises.force(p, evaluator)
    promises.force(p, evaluator)
    kinds = [ev.kind for ev in sink.events]
    assert kinds == [EventKind.PROMISE_CREATED, EventKind.PROMISE_FORCED,
                     EventKind.PROMISE_CACHE_HIT]


def test_error_leaves_promise_unforced_and_retryable(store):
    envs, promises, sink = store
    p = promises.new(_expr("x"), envs.global_id, label="p")
    failed = []

    def failing(expr, env):
        failed.append(expr)
        raise UnboundNameError("x")

    def accesses_and_evaluations():
        # a force that raises emits no event, so its evaluator calls count it
        state, accesses, evaluations = _metrics(sink, p)
        return state, accesses + len(failed), evaluations

    with pytest.raises(UnboundNameError):
        promises.force(p, failing)
    assert accesses_and_evaluations() == (PromiseState.UNFORCED, 1, 0)
    # the environment is repaired; forcing now succeeds and counts once
    ok, calls = _counting_evaluator(Decimal(3))
    assert promises.force(p, ok) == Decimal(3)
    assert accesses_and_evaluations() == (PromiseState.FORCED, 2, 1)


def test_two_promise_cycle_detected(store):
    # hand trace: forcing px evaluates `y`, which forces py, which evaluates
    # `x`, which forces px again while it is still FORCING
    envs, promises, _ = store
    px = promises.new(_expr("y"), envs.global_id, label="x")
    py = promises.new(_expr("x"), envs.global_id, label="y")

    def evaluator(expr, env):
        target = px if expr == _expr("x") else py
        return promises.force(target, evaluator)

    with pytest.raises(CyclicForceError):
        promises.force(px, evaluator)
    # both ends of the cycle rolled back to UNFORCED
    assert px.state is PromiseState.UNFORCED
    assert py.state is PromiseState.UNFORCED


def test_uncached_evaluation_never_populates_the_slot(store):
    envs, promises, sink = store
    evaluator, calls = _counting_evaluator(Decimal(7))
    p = promises.new(_expr("q"), envs.global_id, label="p")
    for _ in range(3):
        assert promises.evaluate_uncached(p, evaluator) == Decimal(7)
    assert _metrics(sink, p) == (PromiseState.UNFORCED, 3, 3)
    assert p.value is None
    assert len(calls) == 3
    assert metrics_from_events(sink.events).forced_value_slots == 0


def test_equal_values_share_one_printed_text(store):
    """A traced store prints each distinct value once: re-evaluations that
    give equal values, however written, hold one `text` object."""
    envs, promises, sink = store
    values = iter([Decimal("12.50"), Decimal("12.5"), Decimal("1.25E+1")])
    p = promises.new(_expr("q"), envs.global_id, label="p")
    for _ in range(3):
        promises.evaluate_uncached(p, lambda expr, env: next(values))
    first, second, third = [ev.text for ev in sink.events if ev.kind is EventKind.NAME_REEVAL]
    assert first == "12.5"
    assert first is second is third


@pytest.mark.parametrize("strategy", ["need", "name"])
def test_every_event_about_a_promise_holds_one_subject(strategy):
    """A promise's name is made once, at `new`, and each of its events holds
    that string."""
    sink = TraceSink()
    run_program(parse_source("f <- function(x, u = x) { x * x + x }\nprint(f(2 + 3))\n"),
                strategy, sink)
    subjects: dict[str, set[int]] = {}
    for ev in sink.events:
        if ev.subject.startswith("promise"):
            subjects.setdefault(ev.subject, set()).add(id(ev.subject))
    assert sorted(subjects) == ["promise0", "promise1"]
    # x: created, then read three times; u is never read
    assert [ev.subject for ev in sink.events].count("promise0") == 4
    assert all(len(ids) == 1 for ids in subjects.values())


@settings(max_examples=50, deadline=None)
@given(st.lists(st.booleans(), min_size=0, max_size=12))
def test_occupancy_matches_forced_count(force_flags):
    envs = EnvRegistry(TraceSink())
    sink = TraceSink()
    promises = PromiseStore(sink)
    evaluator, _ = _counting_evaluator()
    ps = [promises.new(_expr("1"), envs.global_id, label="p") for _ in force_flags]
    for p, do_force in zip(ps, force_flags):
        if do_force:
            promises.force(p, evaluator)
    assert sum(p.state is PromiseState.FORCED for p in ps) == sum(force_flags)
    assert metrics_from_events(sink.events).forced_value_slots == sum(force_flags)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8))
def test_at_most_once_and_idempotent(n_forces):
    envs = EnvRegistry(TraceSink())
    sink = TraceSink()
    promises = PromiseStore(sink)
    evaluator, calls = _counting_evaluator(Decimal(42))
    p = promises.new(_expr("e"), envs.global_id, label="p")
    results = {promises.force(p, evaluator) for _ in range(n_forces)}
    assert results == {Decimal(42)}
    state, requests, evaluations = _metrics(sink, p)
    assert evaluations <= 1
    assert requests == n_forces
    assert len(calls) == evaluations
