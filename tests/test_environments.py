import pytest
from hypothesis import given, settings, strategies as st

from lazylab.environments import EnvRegistry
from lazylab.errors import (
    CannotDiscardGlobalError,
    DiscardedEnvError,
    UnboundNameError,
)
from lazylab.promises import PromiseStore
from lazylab.syntax import parse_source
from lazylab.trace import EventKind, TraceSink

from conftest import bindings_of


def test_global_is_root_and_empty():
    envs = EnvRegistry(TraceSink())
    assert bindings_of(envs, envs.global_id) == {}
    # a lookup from the root has no frame left to try, even with a child around
    envs.define(envs.child(envs.global_id), "anything", 1)
    with pytest.raises(UnboundNameError):
        envs.lookup(envs.global_id, "anything")


def test_define_then_lookup_in_global():
    envs = EnvRegistry(TraceSink())
    envs.define(envs.global_id, "y", 6)
    assert envs.lookup(envs.global_id, "y") == 6


def test_child_sees_parent_bindings():
    envs = EnvRegistry(TraceSink())
    envs.define(envs.global_id, "y", 6)
    child = envs.child(envs.global_id)
    assert envs.lookup(child, "y") == 6


def test_child_binding_stays_local():
    envs = EnvRegistry(TraceSink())
    child = envs.child(envs.global_id)
    envs.define(child, "x", 1)
    assert envs.lookup(child, "x") == 1
    with pytest.raises(UnboundNameError):
        envs.lookup(envs.global_id, "x")


def test_sibling_frames_are_independent():
    envs = EnvRegistry(TraceSink())
    left = envs.child(envs.global_id)
    right = envs.child(envs.global_id)
    envs.define(left, "a", 1)
    with pytest.raises(UnboundNameError):
        envs.lookup(right, "a")


def test_shadowing_innermost_wins():
    envs = EnvRegistry(TraceSink())
    envs.define(envs.global_id, "x", 5)
    child = envs.child(envs.global_id)
    envs.define(child, "x", 2)
    assert envs.lookup(child, "x") == 2
    assert envs.lookup(envs.global_id, "x") == 5


def test_define_in_child_never_changes_parent():
    envs = EnvRegistry(TraceSink())
    envs.define(envs.global_id, "x", 5)
    child = envs.child(envs.global_id)
    envs.define(child, "x", 2)
    # two independent lookups confirm the parent is untouched
    assert envs.lookup(envs.global_id, "x") == 5
    assert envs.lookup(child, "x") == 2


def test_redefine_overwrites_same_frame():
    envs = EnvRegistry(TraceSink())
    child = envs.child(envs.global_id)
    envs.define(child, "x", 2)
    envs.define(child, "x", 10)
    assert envs.lookup(child, "x") == 10


def test_promise_bindings_round_trip():
    envs = EnvRegistry(TraceSink())
    (stmt,) = parse_source("7").stmts
    promise = PromiseStore(TraceSink()).new(stmt.expr, envs.global_id, label="p")
    envs.define(envs.global_id, "p", promise)
    assert envs.lookup(envs.global_id, "p") is promise


def test_discard_lifecycle():
    envs = EnvRegistry(TraceSink())
    child = envs.child(envs.global_id)
    envs.define(child, "x", 1)
    assert bindings_of(envs, child) == {"x": 1}
    envs.discard(child)
    # the frame is dropped: every use of its handle fails, inspection included
    message = f"environment env{child} was discarded"
    for use in (lambda: envs.lookup(child, "x"), lambda: envs.define(child, "y", 2),
                lambda: envs.discard(child), lambda: bindings_of(envs, child),
                lambda: envs.child(child)):
        with pytest.raises(DiscardedEnvError, match=message):
            use()


def test_lookup_never_traverses_a_discarded_frame():
    envs = EnvRegistry(TraceSink())
    middle = envs.child(envs.global_id)
    leaf = envs.child(middle)
    envs.define(envs.global_id, "x", 1)
    envs.discard(middle)
    with pytest.raises(DiscardedEnvError):
        envs.lookup(leaf, "x")


def test_global_cannot_be_discarded():
    envs = EnvRegistry(TraceSink())
    with pytest.raises(CannotDiscardGlobalError):
        envs.discard(envs.global_id)


def test_child_of_discarded_parent_rejected():
    envs = EnvRegistry(TraceSink())
    child = envs.child(envs.global_id)
    envs.discard(child)
    with pytest.raises(DiscardedEnvError):
        envs.child(child)


def test_creation_and_discard_are_traced():
    sink = TraceSink()
    envs = EnvRegistry(sink)
    child = envs.child(envs.global_id)
    envs.discard(child)
    assert [ev.kind for ev in sink.events] == [EventKind.ENV_CREATED, EventKind.ENV_DISCARDED]
    assert sink.events[0].subject == sink.events[1].subject == f"env{child}"
    # the global frame itself is session substrate, not a traced creation
    assert all(ev.subject != "env0" for ev in sink.events)


_names = st.sampled_from(["a", "b", "c", "d", "e"])


@settings(max_examples=60, deadline=None)
@given(
    chain_defs=st.lists(st.lists(st.tuples(_names, st.integers(0, 9)), max_size=3),
                        min_size=1, max_size=4),
    probe=_names,
)
def test_unbound_in_child_defers_to_parent(chain_defs, probe):
    envs = EnvRegistry(TraceSink())
    env = envs.global_id
    frames = [env]
    for defs in chain_defs:
        env = envs.child(env)
        frames.append(env)
        for name, value in defs:
            envs.define(env, name, value)
    for parent, child in zip(frames, frames[1:]):
        if probe in bindings_of(envs, child):
            continue
        try:
            expected = envs.lookup(parent, probe)
        except UnboundNameError:
            expected = None
        try:
            got = envs.lookup(child, probe)
        except UnboundNameError:
            got = None
        assert got == expected


@settings(max_examples=40, deadline=None)
@given(depth=st.integers(1, 30))
def test_parent_chain_terminates(depth):
    envs = EnvRegistry(TraceSink())
    env = envs.global_id
    envs.define(env, "v0", 0)
    for level in range(1, depth + 1):
        env = envs.child(env)
        envs.define(env, f"v{level}", level)
    # the deepest frame reaches every ancestor, and the walk stops at the root
    for level in range(depth + 1):
        assert envs.lookup(env, f"v{level}") == level
    with pytest.raises(UnboundNameError):
        envs.lookup(env, "nowhere")
