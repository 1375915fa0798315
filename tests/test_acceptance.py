"""Acceptance checklist.

Each test covers one acceptance criterion and prints a `[acceptance]` PASS or
FAIL line (run with `-s` to see them as they happen).  A01-A05 are the golden
outputs, A06 the environment-lifecycle scenario, A07-A09 the laziness and
strategy properties over a 500-program generated corpus, A10 the memory
proxies, A11 the lifecycle counts.
"""

from contextlib import contextmanager
from decimal import Decimal

import pytest

from lazylab.cli import main as cli_main
from lazylab.errors import LazyLabError, UnboundNameError
from lazylab.evaluator import Closure, FunclangRun, Strategy
from lazylab.lab import (
    CORPORA,
    PairName,
    Verdict,
    diff_outputs,
    load_program,
    paired_run,
    run_with_metrics,
)
from lazylab.syntax import parse_source
from lazylab.trace import EventKind, TraceSink

from conftest import bindings_of, cell_runs, count, of_kind


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


@pytest.fixture(scope="module")
def corpus():
    """(seed, source, {strategy: (lines, metrics, events)}) for 500 programs."""
    rows = {}
    for seed, lang, strategy, source in cell_runs("program"):
        rows.setdefault(seed, (seed, source, {}))[2][strategy] = \
            run_with_metrics(source, lang, strategy)
    return list(rows.values())


def test_a01_need_run_prints_the_defaulted_vector():
    with criterion("A01 golden func/need defaulted-call vector"):
        lines, _, _ = run_with_metrics(load_program("r_prog1.fl"), "func", Strategy.NEED)
        assert lines == ["2 20 7"]


def test_a02_macro_session_prints_the_parenthesized_vector(sas_prog1_listing):
    with criterion("A02 golden macro defaulted-call vector"):
        lines, _, _ = run_with_metrics(sas_prog1_listing, "macro")
        assert lines[-1] == "(2 20 7)"
        assert "(2 20 7)" in lines


def test_a03_need_caches_the_reread_argument():
    with criterion("A03 golden func/need cached re-read"):
        lines, metrics, events = run_with_metrics(
            load_program("r_prog2.fl"), "func", Strategy.NEED
        )
        assert lines == ["20", "20"]
        assert metrics.arg_accesses["y"] == 2
        assert metrics.arg_evaluations["y"] == 1
        assert sum(1 for e in events if e.kind is EventKind.PROMISE_CACHE_HIT) >= 1


def test_a04_macro_session_reresolves_the_reread_variable():
    with criterion("A04 golden macro re-resolved re-read"):
        lines, metrics, _ = run_with_metrics(load_program("sas_prog2.ml"), "macro")
        assert lines == ["20", "100"]
        assert metrics.var_resolutions["y"] == 2


def test_a05_by_name_matches_the_macro_engine():
    with criterion("A05 cross-paradigm correspondence"):
        name_lines, _, _ = run_with_metrics(load_program("r_prog2.fl"), "func", Strategy.NAME)
        macro_lines, _, _ = run_with_metrics(load_program("sas_prog2.ml"), "macro")
        assert name_lines == ["20", "100"]
        assert name_lines == macro_lines
        verdicts = [paired_run(p).verdict for p in PairName]
        assert verdicts == [Verdict.EQUAL, Verdict.DIVERGED, Verdict.EQUAL]
        assert cli_main(["pairs"]) == 0


def test_a06_execution_environment_lifecycle(env_lifecycle_program):
    with criterion("A06 execution environment scenario"):
        run = FunclangRun(Strategy.NEED, TraceSink())
        run.run(parse_source(env_lifecycle_program))
        bindings = bindings_of(run.envs, run.envs.global_id)
        assert set(bindings) == {"y", "h", "z"}
        assert bindings["y"] == Decimal(6)
        assert isinstance(bindings["h"], Closure)
        assert bindings["z"] == Decimal(3)
        created = of_kind(run.trace.events, EventKind.ENV_CREATED)
        discarded = of_kind(run.trace.events, EventKind.ENV_DISCARDED)
        assert len(created) == 1 and len(discarded) == 1
        assert created[0].subject == discarded[0].subject
        assert created[0].ord < discarded[0].ord


def test_a07_unused_unbound_default_is_lazy():
    with criterion("A07 unused-default laziness"):
        src = (
            "f <- function(x=5, y=x*10, z=a+b){\n"
            "  x = 2\n"
            "  print(c(x, y))\n"
            "}\n"
            "f()\n"
        )
        need_lines, _, _ = run_with_metrics(src, "func", Strategy.NEED)
        name_lines, _, _ = run_with_metrics(src, "func", Strategy.NAME)
        assert need_lines == name_lines == ["2 20"]
        with pytest.raises(UnboundNameError):
            run_with_metrics(src, "func", Strategy.STRICT)


_PROMISE_KINDS = (EventKind.PROMISE_CREATED, EventKind.PROMISE_FORCED,
                  EventKind.PROMISE_CACHE_HIT)


def test_a08_at_most_once_over_the_corpus(corpus):
    with criterion("A08 at-most-once over 500 programs"):
        assert len(corpus) >= 500
        for seed, _, runs in corpus:
            _, need_metrics, need_events = runs[Strategy.NEED]
            per_promise = {}
            for ev in need_events:
                if ev.kind is EventKind.PROMISE_FORCED:
                    per_promise[ev.subject] = per_promise.get(ev.subject, 0) + 1
            assert all(n <= 1 for n in per_promise.values()), f"seed {seed}"
            _, _, strict_events = runs[Strategy.STRICT]
            assert not any(ev.kind in _PROMISE_KINDS for ev in strict_events), f"seed {seed}"
            _, name_metrics, name_events = runs[Strategy.NAME]
            assert not any(ev.kind is EventKind.PROMISE_FORCED for ev in name_events), \
                f"seed {seed}"
            for arg, evals in need_metrics.arg_evaluations.items():
                assert evals <= 1, f"seed {seed} arg {arg}"
                assert evals <= name_metrics.arg_evaluations.get(arg, 0), \
                    f"seed {seed} arg {arg}"


def test_a09_strategy_agreement_and_forced_divergence(corpus):
    with criterion("A09 strategy agreement + divergence mutation"):
        for seed, _, runs in corpus:
            strict_lines = runs[Strategy.STRICT][0]
            assert runs[Strategy.NEED][0] == strict_lines, f"seed {seed}"
            assert runs[Strategy.NAME][0] == strict_lines, f"seed {seed}"
        # reassignment between two reads must separate the lazy strategies
        diverged_by_block = {}
        seeds, make = CORPORA["divergent"]
        for seed in seeds:
            _, src = make(seed)
            need_lines, need_metrics, _ = run_with_metrics(src, "func", Strategy.NEED)
            name_lines, name_metrics, name_events = run_with_metrics(src, "func", Strategy.NAME)
            report = diff_outputs(need_lines, name_lines)
            if report.verdict is Verdict.DIVERGED:
                block = seed // 50
                diverged_by_block[block] = diverged_by_block.get(block, 0) + 1
                # the trace makes the re-evaluation checkable by hand
                assert need_metrics.arg_evaluations["p"] == 1, f"seed {seed}"
                assert name_metrics.arg_evaluations["p"] >= 2, f"seed {seed}"
                reevals = [e for e in name_events if e.kind is EventKind.NAME_REEVAL]
                values = [e.detail.split("value=", 1)[1] for e in reevals]
                assert len(set(values)) > 1, f"seed {seed}"
        for block in {seed // 50 for seed in seeds}:
            assert diverged_by_block.get(block, 0) >= 1, f"block {block}"


def test_a10_memory_proxies_at_parameter_storage_time():
    with criterion("A10 value slots empty vs stored text occupied"):
        # funclang: at the moment the last argument promise exists, nothing
        # has been forced yet
        _, _, events = run_with_metrics(load_program("r_prog1.fl"), "func", Strategy.NEED)
        created = [e.ord for e in events if e.kind is EventKind.PROMISE_CREATED]
        forced = [e.ord for e in events if e.kind is EventKind.PROMISE_FORCED]
        assert created, "the call must create argument promises"
        assert all(max(created) < f for f in forced)
        # maclang: parameter storage occupies table bytes before the body runs
        _, _, events = run_with_metrics(load_program("sas_prog1.ml"), "macro")
        param_stores = [e for e in events if e.kind is EventKind.VAR_STORED
                        and e.detail.split(" ")[1] == "param"]
        other_var_events = [e for e in events if e.kind is EventKind.VAR_RESOLVED
                            or (e.kind is EventKind.VAR_STORED
                                and e.detail.split(" ")[1] != "param")]
        param_bytes = sum(
            int(e.detail.split("bytes=", 1)[1].split(" ", 1)[0]) for e in param_stores
        )
        assert param_bytes > 0
        assert max(e.ord for e in param_stores) < min(e.ord for e in other_var_events)


# Error programs whose partial traces must still close every frame and table.
_FUNC_ERRORS = (
    "f <- function(x) { y + x }\nf(1)\n",                       # unbound name in a body
    "f <- function(x) { x }\nf()\n",                            # missing argument
    "f <- function(x = x) { x }\nf()\n",                        # self-referential default
    "f <- function(x = 1/0) { x }\nf()\n",                      # error in a default
    "g <- function(a) { a + q }\nf <- function(b) { g(b) }\nf(1)\n",  # error in a nested call
)
_MACRO_ERRORS = (
    "%macro m(); %put &ghost; %mend;\n%m()",
    "%macro m(a=1); %put &a; %mend;\n%m(b=2)",
    "%macro inner(); %put &ghost; %mend;\n%macro outer(); %inner() %mend;\n%outer()",
)


def test_a11_lifecycle_counts(corpus, sas_prog1_listing, sas_prog2_listing):
    with criterion("A11 created equals discarded/deleted"):
        nested = (
            "%macro inner();\n%put deep;\n%mend;\n"
            "%macro outer();\n%inner()\n%mend;\n"
            "%outer()"
        )
        for source in (sas_prog1_listing, sas_prog2_listing, nested):
            _, _, events = run_with_metrics(source, "macro")
            created = sum(1 for e in events if e.kind is EventKind.TABLE_CREATED)
            deleted = sum(1 for e in events if e.kind is EventKind.TABLE_DELETED)
            assert created == deleted and created >= 1
        for name, strategy in (("r_prog1.fl", Strategy.NEED),
                               ("r_prog2.fl", Strategy.NAME)):
            _, _, events = run_with_metrics(load_program(name), "func", strategy)
            env_created = sum(1 for e in events if e.kind is EventKind.ENV_CREATED)
            env_discarded = sum(1 for e in events if e.kind is EventKind.ENV_DISCARDED)
            assert env_created == env_discarded and env_created >= 1
        for _, _, runs in corpus[::50]:
            for lines, metrics, events in runs.values():
                env_created = sum(1 for e in events if e.kind is EventKind.ENV_CREATED)
                env_discarded = sum(1 for e in events if e.kind is EventKind.ENV_DISCARDED)
                assert env_created == env_discarded
        for source in _FUNC_ERRORS:
            for strategy in Strategy:
                with pytest.raises(LazyLabError) as exc:
                    run_with_metrics(source, "func", strategy)
                events = exc.value.partial_trace
                assert count(events, EventKind.ENV_CREATED) >= 1, (source, strategy)
                assert count(events, EventKind.ENV_CREATED) == \
                    count(events, EventKind.ENV_DISCARDED), (source, strategy)
        for source in _MACRO_ERRORS:
            with pytest.raises(LazyLabError) as exc:
                run_with_metrics(source, "macro")
            events = exc.value.partial_trace
            assert count(events, EventKind.TABLE_CREATED) == \
                count(events, EventKind.TABLE_DELETED), source
