import gc
import sys
import tracemalloc
from dataclasses import fields, is_dataclass
from decimal import Decimal

import pytest
from hypothesis import given, settings

from lazylab.environments import _Frame
from lazylab.errors import (
    ArityError,
    CyclicForceError,
    DepthExceededError,
    DivisionByZeroError,
    LazyLabError,
    MissingArgError,
    TypeMismatchError,
    UnboundNameError,
)
from lazylab.evaluator import (
    CALL_DEPTH_LIMIT,
    Closure,
    FunclangRun,
    Strategy,
    run_program,
)
from lazylab.lab import metrics_from_events, run_with_metrics, trace_jsonl
from lazylab.promises import Promise
from lazylab.syntax import NESTING_LIMIT, parse_source, program_source
from lazylab.trace import EventKind, TraceSink

from conftest import STRATEGIES, bindings_of, cell_runs, count, of_kind, sources_of, stack_depth


def run(source, strategy=Strategy.NEED):
    return run_program(parse_source(source), strategy)


def run_full(source, strategy=Strategy.NEED):
    r = FunclangRun(strategy, TraceSink())
    out = r.run(parse_source(source))
    return r, out


class TestGoldenPrograms:
    def test_defaults_see_body_assignments_under_need(self, r_prog1_listing):
        out = run(r_prog1_listing, Strategy.NEED)
        assert out.lines == []
        assert out.result == (Decimal(2), Decimal(20), Decimal(7))

    def test_print_wrapped_call_emits_golden_line(self):
        src = "f <- function(x=5, y=x*10, z=a+b){\n x = 2\n a = 3\n b = 4\n c(x, y, z)\n}\nprint(f())\n"
        assert run(src, Strategy.NEED).lines == ["2 20 7"]

    def test_need_caches_across_reassignment(self, r_prog2_listing):
        assert run(r_prog2_listing, Strategy.NEED).lines == ["20", "20"]

    def test_name_reevaluates_after_reassignment(self, r_prog2_listing):
        assert run(r_prog2_listing, Strategy.NAME).lines == ["20", "100"]

    def test_strict_evaluates_defaults_at_call_time(self, r_prog2_listing):
        # x=5 binds first, so y's default sees 5, not the body's 2 or 10
        assert run(r_prog2_listing, Strategy.STRICT).lines == ["50", "50"]

    def test_strict_fails_on_forward_looking_default(self, r_prog1_listing):
        with pytest.raises(UnboundNameError) as exc:
            run(r_prog1_listing, Strategy.STRICT)
        assert exc.value.message == "unbound name 'a'"

    def test_global_call_creates_and_discards_one_frame(self, env_lifecycle_program):
        r, _ = run_full(env_lifecycle_program, Strategy.NEED)
        g = r.envs.global_id
        bindings = bindings_of(r.envs, g)
        assert set(bindings) == {"y", "h", "z"}
        assert bindings["y"] == Decimal(6)
        assert isinstance(bindings["h"], Closure)
        assert bindings["z"] == Decimal(3)
        created = of_kind(r.trace.events, EventKind.ENV_CREATED)
        discarded = of_kind(r.trace.events, EventKind.ENV_DISCARDED)
        assert len(created) == len(discarded) == 1
        assert created[0].subject == discarded[0].subject
        assert created[0].ord < discarded[0].ord


class TestStrategies:
    def test_arithmetic_agrees_everywhere(self):
        for strategy in Strategy:
            out = run("print(1 + 2)", strategy)
            assert out.lines == ["3"]

    def test_unused_unbound_default_is_harmless_when_lazy(self):
        src = "f <- function(x=5, y=x*10, z=a+b){\n x = 2\n print(c(x, y))\n}\nf()\n"
        assert run(src, Strategy.NEED).lines == ["2 20"]
        assert run(src, Strategy.NAME).lines == ["2 20"]
        with pytest.raises(UnboundNameError):
            run(src, Strategy.STRICT)

    def test_need_forces_at_most_once(self):
        src = "f <- function(v = 1 + 1){ print(v)\n print(v)\n print(v)\n v }\nf()\n"
        r, out = run_full(src, Strategy.NEED)
        assert out.lines == ["2", "2", "2"]
        assert count(r.trace.events, EventKind.PROMISE_FORCED) == 1
        assert count(r.trace.events, EventKind.PROMISE_CACHE_HIT) == 3  # 3 prints + return read

    def test_name_reevaluates_every_read(self):
        src = "f <- function(v = 1 + 1){ print(v)\n print(v)\n print(v)\n v }\nf()\n"
        r, out = run_full(src, Strategy.NAME)
        assert out.lines == ["2", "2", "2"]
        assert count(r.trace.events, EventKind.NAME_REEVAL) == 4  # 3 prints + return
        assert count(r.trace.events, EventKind.PROMISE_FORCED) == 0
        assert metrics_from_events(r.trace.events).forced_value_slots == 0

    def test_supplied_arguments_capture_the_caller(self):
        # the argument expression reads the caller's `a`, not the body's
        src = "a <- 1\nf <- function(p){ a <- 100\n print(p) }\nf(a + 1)\n"
        for strategy in Strategy:
            assert run(src, strategy).lines == ["2"]

    def test_cyclic_defaults_detected_under_need(self):
        src = "f <- function(x=y, y=x){ x }\nf()\n"
        with pytest.raises(CyclicForceError):
            run(src, Strategy.NEED)

    def test_cyclic_defaults_detected_under_name(self):
        src = "f <- function(x=y, y=x){ x }\nf()\n"
        with pytest.raises(CyclicForceError):
            run(src, Strategy.NAME)


class TestCalls:
    def test_named_then_positional_matching(self):
        src = "f <- function(x, y, z){ c(x, y, z) }\nprint(f(z = 3, 1, 2))\n"
        assert run(src).lines == ["1 2 3"]

    def test_unknown_named_argument(self):
        with pytest.raises(ArityError):
            run("f <- function(x){ x }\nf(q = 1)\n")

    def test_too_many_positional_arguments(self):
        with pytest.raises(ArityError):
            run("f <- function(x){ x }\nf(1, 2)\n")

    def test_missing_argument_errors_only_when_read(self):
        assert run("f <- function(a){ 1 }\nprint(f())\n").lines == ["1"]
        with pytest.raises(MissingArgError) as exc:
            run("f <- function(a){ a + 1 }\nf()\n")
        assert exc.value.message == "argument 'a' is missing, with no default"

    def test_defaults_may_use_earlier_parameters(self):
        src = "f <- function(a, b = a * 2){ b }\nprint(f(3))\n"
        for strategy in Strategy:
            assert run(src, strategy).lines == ["6"]

    def test_closures_capture_their_definition_env(self):
        src = "k <- 10\nf <- function(n){ n + k }\nk2 <- 99\nprint(f(1))\n"
        assert run(src, Strategy.STRICT).lines == ["11"]

    def test_escaped_closure_cannot_outlive_its_frame(self):
        # execution environments are discarded on return, so a closure that
        # escapes its defining call has no live frame to attach to
        from lazylab.errors import DiscardedEnvError
        src = "mk <- function(n){ function(m){ n + m } }\nadd <- mk(1)\nadd(2)\n"
        with pytest.raises(DiscardedEnvError):
            run(src, Strategy.STRICT)

    def test_calling_a_number_is_a_type_error(self):
        with pytest.raises(TypeMismatchError):
            run("x <- 1\nx(2)\n")


class TestValuesAndPrinting:
    def test_vector_flattening(self):
        assert run("print(c(c(1, 2), 3))").lines == ["1 2 3"]

    def test_empty_vector_prints_empty_line(self):
        assert run("print(c())").lines == [""]

    def test_decimal_printing(self):
        assert run("print(2.50)").lines == ["2.5"]
        assert run("print(7 / 2)").lines == ["3.5"]
        assert run("print(6 / 3)").lines == ["2"]
        assert run("print(1 - 1)").lines == ["0"]

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            run("print(1 / 0)")

    def test_arithmetic_on_closure_rejected(self):
        with pytest.raises(TypeMismatchError):
            run("f <- function(x){ x }\nf + 1\n")

    def test_arithmetic_on_vector_rejected(self):
        with pytest.raises(TypeMismatchError):
            run("c(1, 2) + 1\n")

    def test_closure_prints_as_closure(self):
        assert run("f <- function(a) { a }\nprint(f)\n").lines == ["<closure>"]

    def test_closure_vector_element_rejected_at_the_vector(self):
        with pytest.raises(TypeMismatchError) as exc:
            run("f <- function(a) { a }\nx <- c(1, f)\n")
        assert (exc.value.line, exc.value.col) == (2, 6)

    def test_result_is_last_expression_statement(self):
        out = run("x <- 1\nx + 1\n")
        assert out.result == Decimal(2)
        out = run("x <- 1\n")
        assert out.result is None
        out = run("1 + 1\nprint(5)\n")
        assert out.result is None


class TestRunHygiene:
    def test_all_execution_envs_discarded(self):
        src = "mk <- function(n){ n * 2 }\nouter <- function(a = mk(2)){ a + mk(3) }\nprint(outer())\n"
        r, out = run_full(src, Strategy.NEED)
        assert out.lines == ["10"]
        events = r.trace.events
        assert count(events, EventKind.ENV_CREATED) == count(events, EventKind.ENV_DISCARDED) == 3

    def test_envs_discarded_even_when_the_body_fails(self):
        src = "f <- function(x){ nosuch }\nf(1)\n"
        r = FunclangRun(Strategy.NEED, TraceSink())
        with pytest.raises(UnboundNameError):
            r.run(parse_source(src))
        events = r.trace.events
        assert count(events, EventKind.ENV_CREATED) == count(events, EventKind.ENV_DISCARDED) == 1

    def test_runtime_errors_carry_positions(self):
        with pytest.raises(LazyLabError) as exc:
            run("x <- 1\ny <- nosuch + 1\n")
        assert (exc.value.line, exc.value.col) == (2, 6)

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("source,error,position", [
        # an operand's own error is at the operand
        ("x <- 1 + 2 + y + 4\n", UnboundNameError, (1, 14)),
        ("g <- function(a) { a * 2 * 3 + zz }\nprint(g(1))\n", UnboundNameError, (1, 32)),
        # an operator's error is at the operator that applies it
        ("f <- function(a) { a }\nx <- 1 + f + 2\n", TypeMismatchError, (2, 8)),
        ("f <- function(a) { a }\nx <- 1 * 2 * f\n", TypeMismatchError, (2, 12)),
        ("x <- 2 * 3 / (1 - 1) + 4\n", DivisionByZeroError, (1, 12)),
    ], ids=["unbound", "unbound-in-body", "closure", "closure-last", "division"])
    def test_chain_errors_carry_positions(self, source, error, position, strategy):
        with pytest.raises(error) as exc:
            run(source, strategy)
        assert (exc.value.line, exc.value.col) == position

    def test_deterministic_replay(self, r_prog2_listing):
        r1, out1 = run_full(r_prog2_listing, Strategy.NEED)
        r2, out2 = run_full(r_prog2_listing, Strategy.NEED)
        assert out1.lines == out2.lines
        assert r1.trace.events == r2.trace.events

    def test_live_state_stays_bounded(self):
        # discarded frames and the promises they bound are garbage at once,
        # even while the run itself is still referenced
        calls = "".join(f"x <- f(a = {i})\n" for i in range(200))
        r, _ = run_full("f <- function(a = 1, b = a * 2) { b }\n" + calls, Strategy.NEED)
        assert r.envs.lookup(r.envs.global_id, "x") == Decimal(398)
        assert count(r.trace.events, EventKind.ENV_DISCARDED) == 200
        assert count(r.trace.events, EventKind.PROMISE_CREATED) == 400
        gc.collect()
        live = gc.get_objects()
        assert sum(isinstance(o, Promise) for o in live) == 0
        assert sum(isinstance(o, _Frame) for o in live) == 1  # the global frame

    def test_plain_run_memory_is_flat_in_calls(self):
        # a run without a sink keeps no trace, so nothing grows with the calls
        def peak(calls):
            program = parse_source("f <- function(a = 1, b = a * 2) { b }\n" +
                                   "".join(f"x <- f(a = {i})\n" for i in range(calls)))
            run_program(program, Strategy.NEED)  # first-run allocations are not the run's
            gc.collect()
            tracemalloc.start()
            try:
                run_program(program, Strategy.NEED)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4000) < 2 * peak(1000)


def default_chain(first: str, links: int) -> str:
    """`f` reads `a{links}`, whose default reads the one before, down to `a0 =
    first`: a0 is evaluated `links + 2` levels deep (the call and each default)."""
    params = ", ".join([f"a0 = {first}"] + [f"a{i} = a{i - 1}" for i in range(1, links + 1)])
    return f"f <- function({params}) {{ a{links} }}\nprint(f())\n"


def call_chain(calls: int, wrap: str = "{}") -> str:
    """`f0` calls `f1` and so on, each a distinct function, down to
    `f{calls - 1}`, whose body is 7; `print` reads `f0()` through `wrap`."""
    lines = [f"f{i} <- function() {{ f{i + 1}() }}\n" for i in range(calls - 1)]
    return "".join(lines) + f"f{calls - 1} <- function() {{ 7 }}\nprint({wrap.format('f0()')})\n"


_CALLING = "calling a function exceeded 100 nested calls and argument evaluations"
_EVALUATING = "evaluating an argument exceeded 100 nested calls and argument evaluations"


def _deepest(site: str, levels: int) -> tuple[str, str, str, tuple[int, int]]:
    """A program whose deepest level is `levels` deep at `site`, the line it
    prints, and the message and position of its error when that is one level
    more than CALL_DEPTH_LIMIT."""
    if site == "promises":
        source = default_chain("7", levels - 2)
        return source, "7", _EVALUATING, (1, source.index("a1 = a0") + len("a1 = ") + 1)
    wrap, printed = {"calls": ("{}", "7"), "binary chains": ("0 + {}", "7"),
                     "vectors": ("c(1, {})", "1 7")}[site]
    # a binary chain or a vector around the first call is one level
    calls = levels if site == "calls" else levels - 1
    source = call_chain(calls, wrap)
    # the last call, at the deepest level, is in the body of the one before
    col = source.splitlines()[calls - 2].index(f"f{calls - 1}()") + len(f"f{calls - 1}") + 1
    return source, printed, _CALLING, (calls - 1, col)


# the frames the comment on CALL_DEPTH_LIMIT says both bounds need at most
_FRAME_BUDGET = 615


class TestDepthBounds:
    LINKS = CALL_DEPTH_LIMIT - 2  # a0 is evaluated at the deepest level admitted

    # One case per strategy, which checks each site whose level it can reach,
    # plain and traced; strict evaluates no promise.
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_deepest_admitted_level_runs_and_one_more_fails(self, strategy):
        sites = ["calls", "binary chains", "vectors"]
        if strategy is not Strategy.STRICT:
            sites.append("promises")
        for site in sites:
            for traced in (False, True):
                source, printed, _, _ = _deepest(site, CALL_DEPTH_LIMIT)
                r = FunclangRun(strategy, TraceSink() if traced else None)
                assert r.run(parse_source(source)).lines == [printed], site
                assert r.depth == 0, site
                source, _, message, pos = _deepest(site, CALL_DEPTH_LIMIT + 1)
                r = FunclangRun(strategy, TraceSink() if traced else None)
                with pytest.raises(DepthExceededError) as exc:
                    r.run(parse_source(source))
                assert exc.value.message == message, site
                assert (exc.value.line, exc.value.col) == pos, site
                assert r.depth == 0, site
                if traced:
                    events = r.trace.events
                    assert count(events, EventKind.ENV_CREATED) == \
                        count(events, EventKind.ENV_DISCARDED), site

    # Nesting within the bound runs: bare parentheses are no level, and the
    # other programs reach 24 to 60 levels, by strategy.
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("source,printed", [
        ("".join(f"f{i} <- function() {{ {'(' * 30}f{i + 1}(){')' * 30} }}\n" for i in range(4))
         + "f4 <- function() { 7 }\nprint(f0())\n", "7"),
        ("g <- function(y) { y }\nprint(" + "g(" * 30 + "1" + ")" * 30 + ")\n", "1"),
        ("g <- function(y) { y }\nprint(" + "c(1, g(" * 12 + "1" + "))" * 12 + ")\n",
         " ".join(["1"] * 13)),
        ("g <- function(y) { y }\nprint(" + "1 + (g(" * 15 + "1" + "))" * 15 + ")\n", "16"),
    ], ids=["bare-parentheses", "nested-arguments", "vectors-and-arguments", "right-operands"])
    def test_nesting_within_the_bound_runs(self, source, printed, strategy):
        assert run(source, strategy).lines == [printed]

    def test_a_cache_hit_is_not_a_level(self):
        # the body `z + a...` is a binary level, so z is forced at depth 3,
        # then read again at the deepest level: need hits the cache there,
        # name evaluates it once more
        source = default_chain("z", self.LINKS - 1).replace(
            "function(a0", "function(z = 3, a0").replace("{ a", "{ z + a")
        assert run(source, Strategy.NEED).lines == ["6"]
        with pytest.raises(DepthExceededError):
            run(source, Strategy.NAME)

    def test_counter_and_frames_unwind_after_the_error(self):
        # the other two fail inside counted binary and vector levels inside a
        # call, the last one also inside a promise under need and name
        failing = [
            ("f <- function(n) { n + f(n - 1) }\nf(1)\n",
             ("calling a function exceeded 100", "evaluating an argument exceeded 100")),
            ("f <- function(n) { c(1, 1 + (1 / 0)) }\nf(1)\n", ("division by zero",)),
            ("f <- function(n) { 1 + (2 * c(1, n)) }\nf(c(1, f(1)))\n",
             ("arithmetic on a vector",)),
        ]
        for source, messages in failing:
            for strategy in Strategy:
                r = FunclangRun(strategy, TraceSink())
                with pytest.raises(LazyLabError) as exc:
                    r.run(parse_source(source))
                assert exc.value.message.startswith(messages), (source, strategy)
                assert r.depth == 0, (source, strategy)
                events = r.trace.events
                assert count(events, EventKind.ENV_CREATED) == \
                    count(events, EventKind.ENV_DISCARDED), (source, strategy)

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("deep,value", [
        # the parameter list is one level, so each default nests NESTING_LIMIT
        ("(1 + " * (NESTING_LIMIT - 1) + "1" + ")" * (NESTING_LIMIT - 1), str(NESTING_LIMIT)),
        ("c(1, " * (NESTING_LIMIT - 1) + "1" + ")" * (NESTING_LIMIT - 1),
         " ".join(["1"] * NESTING_LIMIT)),
        ("g(" * (NESTING_LIMIT - 1) + "1" + ")" * (NESTING_LIMIT - 1), "1"),
    ], ids=["parentheses", "vectors", "calls"])
    def test_both_bounds_together_fit_the_stack(self, strategy, deep, value):
        """The deepest nesting the parser admits, as a default read at the
        deepest level the evaluator admits, ends in output or the positioned
        error, traced or not, within the frames that the comment on
        CALL_DEPTH_LIMIT gives it: any more is a RecursionError."""
        source = "g <- function(x) { x }\n" + default_chain(deep, self.LINKS)
        deeper = source.replace("a0 = ", "a0 = (", 1).replace(", a1 =", "), a1 =", 1)
        with pytest.raises(DepthExceededError):
            parse_source(deeper)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(stack_depth() + _FRAME_BUDGET)
        try:
            lines = run(source, strategy).lines
            traced, metrics, events = run_with_metrics(source, "func", strategy)
            trace_jsonl(events, metrics)
        except DepthExceededError as err:
            assert err.line is not None
        else:
            assert lines == traced == [value]
        finally:
            sys.setrecursionlimit(limit)


class TestPromiseMetricsThroughRuns:
    @staticmethod
    def _promises_named(r, name):
        return [e.subject for e in of_kind(r.trace.events, EventKind.PROMISE_CREATED)
                if e.param == name]

    def test_prog2_need_metrics_for_y(self, r_prog2_listing):
        r, _ = run_full(r_prog2_listing, Strategy.NEED)
        (y,) = self._promises_named(r, "y")
        forced = [e.subject for e in of_kind(r.trace.events, EventKind.PROMISE_FORCED)]
        assert forced == [y]
        m = metrics_from_events(r.trace.events)
        assert (m.arg_accesses["y"], m.arg_evaluations["y"]) == (2, 1)

    def test_never_read_argument_stays_untouched(self, r_prog1_listing):
        r, _ = run_full(r_prog1_listing, Strategy.NEED)
        (x,) = self._promises_named(r, "x")
        assert all(e.subject != x for e in r.trace.events
                   if e.kind is not EventKind.PROMISE_CREATED)
        m = metrics_from_events(r.trace.events)
        assert "x" not in m.arg_accesses and "x" not in m.arg_evaluations

    @pytest.mark.parametrize("strategy,kind", [(Strategy.NEED, EventKind.PROMISE_FORCED),
                                               (Strategy.NAME, EventKind.NAME_REEVAL)])
    @pytest.mark.parametrize("arg,value", [
        ("2.0 * 3", "6"),  # str() of the Decimal is 6.0
        ("10000000000000000 * 10000000000000000", "1" + "0" * 32),  # not 1.0...E+32
        ("c(1.50, 2)", "1.5 2"),
    ])
    def test_trace_shows_the_printed_value(self, strategy, kind, arg, value):
        r, _ = run_full(f"f <- function(x) {{ x }}\nf({arg})\n", strategy)
        (event,) = of_kind(r.trace.events, kind)
        assert (event.param, event.text) == ("x", value)


# --- slotted nodes and values

def _nodes(node):
    """Every AST node reachable from `node`, itself included."""
    stack, nodes = [node], []
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            stack.extend(item)
        elif is_dataclass(item):
            nodes.append(item)
            stack.extend(getattr(item, f.name) for f in fields(item))
    return nodes


class _RecordingRun(FunclangRun):
    """A run that keeps every value its expressions evaluate to."""

    def __init__(self, strategy):
        super().__init__(strategy)
        self.values = []

    def eval_expr(self, e, env):
        value = super().eval_expr(e, env)
        self.values.append(value)
        return value


@settings(max_examples=200, deadline=None)
@given(sources_of("program", "divergent"))
def test_nodes_and_values_are_slotted_and_hash_by_structure(source):
    program = parse_source(source)
    reparsed = parse_source(program_source(program))
    assert reparsed == program and hash(reparsed) == hash(program)
    assert [n for n in _nodes(program) if hasattr(n, "__dict__")] == []
    r = _RecordingRun(Strategy.NEED)
    r.run(program)
    assert r.values
    assert [v for v in r.values if hasattr(v, "__dict__")] == []
    # equal numbers are one set element whatever their Decimal exponents
    assert len({Decimal("1"), Decimal("1.0")}) == 1


# --- promises are made over live frames

# the two escaping-closure programs: a factory, and a factory reached
# through a second call; both fail under need and name
_ESCAPING_CLOSURES = (
    "mk <- function(a) { function(b) { a + b } }\nh <- mk(1)\nh(2)\n",
    "mk <- function(n) { function(m) { n + m } }\nouter <- function(z) { mk(z) }\n"
    "add <- outer(1)\nprint(add(1))\n",
)


def test_every_promise_is_made_over_a_live_frame():
    """`PromiseStore.new` does not check its frame: the evaluator only hands
    it one that is live, which each trace shows."""
    runs = [*cell_runs("program"), *cell_runs("divergent"), *cell_runs("bundled"),
            *((None, "func", s, source) for source in _ESCAPING_CLOSURES for s in STRATEGIES)]
    promises = failures = 0
    for _, lang, strategy, source in runs:
        try:
            events = run_with_metrics(source, lang, strategy)[2]
        except LazyLabError as err:
            events = err.partial_trace
            failures += 1
        live = {0}
        for ev in events:
            if ev.kind is EventKind.ENV_CREATED:
                live.add(int(ev.subject[3:]))
            elif ev.kind is EventKind.ENV_DISCARDED:
                live.remove(int(ev.subject[3:]))
            elif ev.kind is EventKind.PROMISE_CREATED:
                assert ev.env in live, (source, strategy, ev)
                promises += 1
    assert promises > 0 and failures > 0
