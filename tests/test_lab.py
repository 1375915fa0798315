import ast
import gc
import itertools
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lazylab.errors import LazyLabError, UnboundNameError
import lazylab.lab
import lazylab.trace
from lazylab.cli import main
from lazylab.evaluator import Strategy
from lazylab.lab import (
    CELLS,
    CORPORA,
    DETAIL,
    PAIRS,
    DivergenceReport,
    PairName,
    Verdict,
    diff_outputs,
    generate_divergent,
    generate_program,
    load_program,
    metrics_from_events,
    paired_run,
    run,
    run_with_metrics,
    trace_jsonl,
)
from lazylab.promises import PromiseStore
from lazylab.syntax import Expr, FunctionDef, Ident, Stmt, expr_source, parse_source
from lazylab.trace import EventKind, TraceEvent, TraceSink

from conftest import STRATEGIES, cell_runs, sources_of

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402  (bench/workloads.py)


class TestRunWithMetrics:
    def test_need_metrics_for_cached_argument(self):
        lines, metrics, events = run_with_metrics(
            load_program("r_prog2.fl"), "func", Strategy.NEED
        )
        assert lines == ["20", "20"]
        assert metrics.arg_accesses["y"] == 2
        assert metrics.arg_evaluations["y"] == 1
        assert sum(1 for e in events if e.kind is EventKind.PROMISE_CACHE_HIT) == 1

    def test_macro_metrics_for_reresolved_variable(self):
        lines, metrics, events = run_with_metrics(load_program("sas_prog2.ml"), "macro")
        assert lines == ["20", "100"]
        assert metrics.var_resolutions["y"] == 2
        assert sum(1 for e in events if e.kind is EventKind.ARITH_EVAL) == 2
        assert metrics.stored_text_bytes > 0

    def test_empty_program_has_zero_counters(self):
        lines, metrics, events = run_with_metrics("", "func", Strategy.NEED)
        assert lines == []
        assert metrics.to_dict() == {
            "arg_evaluations": {}, "arg_accesses": {}, "var_resolutions": {},
            "forced_value_slots": 0, "stored_text_bytes": 0, "output_lines": 0,
        }
        assert events == []

    def test_errors_attach_partial_trace(self):
        with pytest.raises(UnboundNameError) as exc:
            run_with_metrics("print(1)\nnosuch + 1\n", "func", Strategy.NEED)
        kinds = [ev.kind for ev in exc.value.partial_trace]
        assert EventKind.OUTPUT_LINE in kinds

    def test_forced_slots_equal_forced_events(self):
        for seed in range(10):
            _, metrics, events = run_with_metrics(
                generate_program(seed), "func", Strategy.NEED
            )
            forced = sum(1 for e in events if e.kind is EventKind.PROMISE_FORCED)
            assert metrics.forced_value_slots == forced

    def test_table_byte_accounting_is_linear(self, monkeypatch):
        # 5k invocations each delete a local table while 5k globals are live;
        # aggregating must not rescan the global entries at every deletion
        n = 5000
        source = ("".join(f"%let g{i}=v{i};\n" for i in range(n))
                  + "%macro m(a=1); %let b=&a; %mend;\n" + "%m()\n" * n)
        spent = []

        def timed(events):
            start = time.perf_counter()
            metrics = metrics_from_events(events)
            spent.append(time.perf_counter() - start)
            return metrics

        monkeypatch.setattr(lazylab.lab, "metrics_from_events", timed)
        start = time.perf_counter()
        _, metrics, events = run_with_metrics(source, "macro")
        run_s = time.perf_counter() - start - spent[0]
        assert len(events) == 6 * n
        assert metrics.stored_text_bytes == sum(len(f"v{i}") for i in range(n)) + 2
        # the run is linear; quadratic aggregation took several times as long
        assert spent[0] < run_s


class TestRun:
    def test_run_prints_what_the_cli_prints(self, tmp_path, capsys):
        """In each cell of the grid, and func with no strategy, `run`'s lines
        and then its result unless None are `lazylab run`'s stdout, in text
        and in JSON; an input that `run` fails on exits 1."""
        seeds, make = CORPORA["bundled"]
        inputs = {name: make(name) for name in seeds}
        inputs["sum"], path, failed = ("func", "1 + 2\n"), tmp_path / "input", set()
        cells = [*CELLS, ("func", None)]
        for (lang, strategy), (name, (_, source)) in itertools.product(cells, inputs.items()):
            path.write_text(source)
            argv = ["run", "--lang", lang, str(path)]
            argv += ["--strategy", strategy] if strategy else []
            try:
                lines, result = run(source, lang, strategy)
            except LazyLabError:
                failed.add((strategy, name))
                assert main(argv) == 1 and capsys.readouterr().out == ""
                continue
            printed = lines if result is None else [*lines, result]
            assert main(argv) == 0
            assert capsys.readouterr().out == "".join(f"{line}\n" for line in printed)
            assert main([*argv, "--output", "json"]) == 0
            assert json.loads(capsys.readouterr().out) == {"lines": printed, "result": result}
        # strict evaluates r_prog1's default z = a + b before `a` is assigned,
        # and no funclang cell reads a maclang program
        assert failed == {("strict", "r_prog1.fl"), *(
            (strategy, name) for lang, strategy in cells for name, (engine, _) in inputs.items()
            if lang == "func" and engine == "macro")}
        assert run("1 + 2\n", "func") == ([], "3")

    def test_func_defaults_to_need(self):
        source = load_program("r_prog2.fl")
        assert run(source, "func") == run(source, "func", "need") == (["20", "20"], "20")
        assert run(source, "func", "name") == (["20", "100"], "100")

    def test_strategy_on_macro_and_unknown_engine_are_value_errors(self):
        with pytest.raises(ValueError, match="func engine only"):
            run(load_program("sas_prog2.ml"), "macro", "need")
        with pytest.raises(ValueError, match="unknown engine 'cobol'"):
            run("1 + 2\n", "cobol")
        # only None means the default, need; an empty strategy is unknown
        with pytest.raises(ValueError, match="'' is not a valid Strategy"):
            run("1 + 2\n", "func", "")


class TestTracedRuns:
    def test_traced_runs_keep_real_events(self):
        """The sink builds events without the NamedTuple's own `__new__`, and
        each one still is a full TraceEvent."""
        runs = [("r_prog1.fl", "func", "need"), ("r_prog1.fl", "func", "name"),
                ("r_prog2.fl", "func", "need"), ("r_prog2.fl", "func", "name"),
                ("sas_prog1.ml", "macro", None), ("sas_prog2.ml", "macro", None)]
        first: dict[EventKind, TraceEvent] = {}
        for name, engine, strategy in runs:
            for ev in run_with_metrics(load_program(name), engine, strategy)[2]:
                first.setdefault(ev.kind, ev)
        assert set(first) == set(EventKind)
        for kind, ev in first.items():
            assert type(ev) is TraceEvent
            assert ev == TraceEvent(*ev)
            fields = ev._asdict()
            assert list(fields) == list(TraceEvent._fields)
            assert fields["kind"] is kind and fields["subject"] == ev.subject
            moved = ev._replace(ord=ev.ord + 1)
            assert type(moved) is TraceEvent
            assert moved[1:] == ev[1:] and moved.ord == ev.ord + 1
            assert json.loads(trace_jsonl([ev])[1]) == {
                "ord": ev.ord, "kind": kind.value, "subject": ev.subject,
                "detail": DETAIL[kind](ev)}


class _EventBuilt(Exception):
    pass


class _EmitCalled(Exception):
    pass


class TestPlainRuns:
    def test_plain_runs_build_no_event(self, monkeypatch, tmp_path, capsys):
        def no_event(*fields):
            raise _EventBuilt(fields)

        # the sink builds each event through tuple.__new__ under this name
        monkeypatch.setattr(lazylab.trace, "_new_tuple", no_event)
        assert run(load_program("r_prog1.fl"), "func") == (["2 20 7"], None)
        assert run(load_program("sas_prog1.ml"), "macro") == (["(2 20 7)"], None)
        for lang, name, expected in (("func", "r_prog1.fl", "2 20 7\n"),
                                     ("macro", "sas_prog1.ml", "(2 20 7)\n")):
            path = tmp_path / name
            path.write_text(load_program(name))
            assert main(["run", "--lang", lang, str(path)]) == 0
            assert capsys.readouterr().out == expected
        with pytest.raises(_EventBuilt):
            run_with_metrics(load_program("r_prog1.fl"), "func")

    def test_plain_runs_call_no_emit(self, monkeypatch, tmp_path, capsys):
        """Without a sink, no engine calls `TraceSink.emit`, so no subject or
        field of an event is built."""
        def no_emit(self, *args, **kwargs):
            raise _EmitCalled(args, kwargs)

        monkeypatch.setattr(lazylab.trace.TraceSink, "emit", no_emit)
        inputs = list(cell_runs("bundled"))
        for w in workloads.WORKLOADS:
            case = workloads.build(w, 1)[0]
            inputs += [(w, case.lang, strategy, case.source) for strategy in case.strategies]
        for name, lang, strategy, source in inputs:
            path = tmp_path / "input"
            path.write_text(source)
            argv = ["run", "--lang", lang, str(path)]
            if strategy is not None:
                argv[3:3] = ["--strategy", strategy]
            if (name, strategy) == ("r_prog1.fl", "strict"):
                # the default z = a + b is evaluated before `a` is assigned
                with pytest.raises(UnboundNameError):
                    run(source, lang, strategy)
                assert main(argv) == 1
                continue
            run(source, lang, strategy)
            assert main(argv) == 0, (name, strategy)
        capsys.readouterr()
        with pytest.raises(_EmitCalled):
            run_with_metrics(load_program("r_prog1.fl"), "func")

    def test_runs_leave_no_cyclic_garbage(self):
        """What a run keeps is freed by reference counting alone, so a peak
        measured by tracemalloc does not depend on when the collector runs."""
        inputs = [(lang, strategy, load_program(name))
                  for pair in PAIRS.values()
                  for lang, strategy, name in (("func", pair.strategy, pair.func_program),
                                               ("macro", None, pair.macro_program))]
        for w in workloads.WORKLOADS:
            case = workloads.build(w, 1)[0]
            inputs += [(case.lang, strategy, case.source) for strategy in case.strategies]
        gc.collect()
        gc.disable()
        try:
            for lang, strategy, source in inputs:
                run(source, lang, strategy)
                run_with_metrics(source, lang, strategy)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDiffOutputs:
    def test_identical(self):
        assert diff_outputs(["a", "b"], ["a", "b"]).verdict is Verdict.EQUAL

    def test_first_difference_reported(self):
        report = diff_outputs(["20", "20"], ["20", "100"])
        assert report.verdict is Verdict.DIVERGED
        assert report.first_diff_line == (1, "20", "100")

    def test_missing_line_compares_as_absent(self):
        report = diff_outputs(["a"], ["a", "b"])
        assert report.first_diff_line == (1, None, "b")

    def test_diverged_always_has_a_first_diff(self):
        report = diff_outputs([], ["x"])
        assert report.verdict is Verdict.DIVERGED and report.first_diff_line is not None


class TestPairedRuns:
    def test_defaulted_call_pair_is_equal(self):
        report = paired_run(PairName.PROGRAM1)
        assert report.verdict is Verdict.EQUAL
        assert report.metrics_delta["stored_text_bytes"][0] == 0
        assert report.metrics_delta["stored_text_bytes"][1] > 0

    def test_reassignment_pair_diverges_at_second_line(self):
        report = paired_run(PairName.PROGRAM2)
        assert report.verdict is Verdict.DIVERGED
        assert report.first_diff_line == (1, "20", "100")

    def test_by_name_replay_matches_macro_engine(self):
        assert paired_run(PairName.PROGRAM2_NAME).verdict is Verdict.EQUAL

    def test_verdicts_are_stable(self):
        first = [paired_run(p).verdict for p in PairName]
        second = [paired_run(p).verdict for p in PairName]
        assert first == second == [Verdict.EQUAL, Verdict.DIVERGED, Verdict.EQUAL]


class TestGenerator:
    def test_generated_program_is_valid(self):
        src = generate_program(0, 10)
        lines, _, _ = run_with_metrics(src, "func", Strategy.STRICT)
        assert lines

    def test_same_seed_same_source(self):
        assert generate_program(7, 20) == generate_program(7, 20)
        assert generate_divergent(7) == generate_divergent(7)

    @pytest.mark.parametrize("seed", range(0, 40))
    def test_strategies_agree_on_the_fragment(self, seed):
        src = generate_program(seed, 14)
        outputs = [run_with_metrics(src, "func", s)[0] for s in STRATEGIES]
        assert outputs == [outputs[0]] * len(outputs)

    @pytest.mark.parametrize("seed", range(0, 20))
    def test_divergent_mode_separates_need_from_name(self, seed):
        src = generate_divergent(seed)
        need_lines, need_metrics, _ = run_with_metrics(src, "func", Strategy.NEED)
        name_lines, name_metrics, name_events = run_with_metrics(src, "func", Strategy.NAME)
        report = diff_outputs(need_lines, name_lines)
        assert report.verdict is Verdict.DIVERGED
        # the re-evaluation trace explains the divergence by hand
        assert need_metrics.arg_evaluations["p"] == 1
        assert name_metrics.arg_evaluations["p"] == 2
        reevals = [e for e in name_events if e.kind is EventKind.NAME_REEVAL
                   and e.param == "p"]
        assert len(reevals) == 2


def _parameter_names(source: str) -> set[str]:
    """The parameter names of every FunctionDef in the program."""
    names, todo = set(), list(parse_source(source).stmts)
    while todo:
        node = todo.pop()
        if isinstance(node, tuple):
            todo.extend(node)
        elif isinstance(node, (Expr, Stmt)):
            if isinstance(node, FunctionDef):
                names.update(p for p, _ in node.params)
            todo.extend(getattr(node, f.name) for f in fields(node))
    return names


_PROMISE_KINDS = (EventKind.PROMISE_CREATED, EventKind.PROMISE_FORCED,
                  EventKind.PROMISE_CACHE_HIT, EventKind.NAME_REEVAL)


@settings(max_examples=200, deadline=None)
@given(sources_of("program", "divergent"),
       st.sampled_from([Strategy.NEED, Strategy.NAME]))
def test_every_promise_event_names_a_parameter(source, strategy):
    params = _parameter_names(source)
    _, _, events = run_with_metrics(source, "func", strategy)
    labels = [ev.param for ev in events if ev.kind in _PROMISE_KINDS]
    assert labels
    assert all(label in params for label in labels)


# any character, lone surrogates included, with quotes, backslashes, C0
# controls, DEL, non-ASCII and astral characters drawn often
_TEXT = st.text(st.characters(exclude_categories=())
                | st.sampled_from('"\\\x00\t\n\x1f\x7fé\u2028😀'))


class TestTraceSerialization:
    def test_header_events_metrics(self):
        lines_out, metrics, events = run_with_metrics(
            load_program("r_prog2.fl"), "func", Strategy.NEED
        )
        lines = trace_jsonl(events, metrics)
        header = json.loads(lines[0])
        assert header == {"format": "lazylab-trace", "version": 1}
        records = [json.loads(line) for line in lines[1:-1]]
        assert [r["ord"] for r in records] == sorted(r["ord"] for r in records)
        assert all({"ord", "kind", "subject", "detail"} == set(r) for r in records)
        final = json.loads(lines[-1])
        assert final["metrics"]["output_lines"] == 2

    def test_output_lines_are_events(self):
        _, _, events = run_with_metrics(load_program("sas_prog1.ml"), "macro")
        outputs = [e.text for e in events if e.kind is EventKind.OUTPUT_LINE]
        assert outputs == ["(2 20 7)"]

    @pytest.mark.parametrize("kind", list(EventKind))
    @settings(max_examples=20, deadline=None)
    @given(ord_=st.integers(min_value=1), subject=_TEXT, param=_TEXT, table=_TEXT,
           text=_TEXT)
    def test_event_line_is_json_dumps_of_the_record(self, kind, ord_, subject, param,
                                                    table, text):
        ev = TraceEvent(ord_, kind, subject, param, 0, text, table, "let")
        assert trace_jsonl([ev])[1] == json.dumps(
            {"ord": ev.ord, "kind": ev.kind.value, "subject": ev.subject,
             "detail": DETAIL[kind](ev)})

    # a traced store prints each promise expression once per Expr object:
    # promises that share one object, that hold equal but distinct objects,
    # and that give one parameter different expressions must each still
    # print their own
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), texts=st.lists(_TEXT, min_size=1, max_size=4))
    def test_shared_expressions_print_as_their_own(self, data, texts):
        pool = ([Ident(text) for text in texts] + [Ident(text) for text in texts]
                + [parse_source(f"f(a, b = {i} + a)").stmts[0].expr for i in range(2)])
        picks = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from("pq"),
                                             st.integers(0, 2)), min_size=1, max_size=40))
        sink = TraceSink()
        store = PromiseStore(sink)
        for expr, param, env in picks:
            store.new(expr, env, param)
        assert trace_jsonl(sink.events)[1:] == [
            json.dumps({"ord": i, "kind": "PROMISE_CREATED", "subject": f"promise{i - 1}",
                        "detail": f"name={param} env=env{env} expr={expr_source(expr)}"})
            for i, (expr, param, env) in enumerate(picks, 1)]


class TestTraceIsText:
    """An event holds only strings and ints: the promise store prints each
    expression once, where it makes the promise, and the trace depends on
    neither engine."""

    def test_trace_imports_nothing_from_the_package(self):
        tree = ast.parse(Path(lazylab.trace.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0 and not node.module.startswith("lazylab")
            elif isinstance(node, ast.Import):
                assert not any(alias.name.startswith("lazylab") for alias in node.names)

    @pytest.mark.parametrize("name,engine,strategy", [
        ("r_prog1.fl", "func", "strict"), ("r_prog1.fl", "func", "need"),
        ("r_prog2.fl", "func", "name"), ("sas_prog2.ml", "macro", None)])
    def test_every_event_is_json(self, name, engine, strategy):
        try:
            events = run_with_metrics(load_program(name), engine, strategy)[2]
        except LazyLabError as exc:  # r_prog1 fails under strict
            events = exc.partial_trace
        assert events
        for ev in events:
            assert json.loads(json.dumps(list(ev))) == [ev.ord, ev.kind.value, *ev[2:]]

    @pytest.mark.parametrize("strategy", ["need", "name"])
    def test_each_expression_prints_once(self, strategy):
        events = run_with_metrics(workloads.chain_source(1, [1, 2]), "func", strategy)[2]
        texts = [ev.text for ev in events if ev.kind is EventKind.PROMISE_CREATED]
        assert sorted(set(texts)) == ["1", "2", "x * 0", "x * 1", "x + x"]
        # f1 is called twice, so each default and f1's `x + x` make two promises
        for text in ("x * 0", "x * 1", "x + x"):
            first, second = (t for t in texts if t == text)
            assert first is second


class TestParallelRuns:
    def test_independent_runs_share_nothing(self):
        src = generate_program(3, 14)
        expected = run_with_metrics(src, "func", Strategy.NEED)[0]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda _: run_with_metrics(src, "func", Strategy.NEED)[0], range(16)
            ))
        assert all(r == expected for r in results)
