import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from lazylab.errors import UnboundNameError
import lazylab.lab
from lazylab.evaluator import Strategy
from lazylab.lab import (
    DivergenceReport,
    PairName,
    Verdict,
    diff_outputs,
    generate_divergent,
    generate_program,
    load_program,
    metrics_from_events,
    paired_run,
    run_with_metrics,
    trace_jsonl,
)
from lazylab.trace import EventKind


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
        outputs = {
            s: run_with_metrics(src, "func", s)[0]
            for s in (Strategy.STRICT, Strategy.NEED, Strategy.NAME)
        }
        assert outputs[Strategy.NEED] == outputs[Strategy.STRICT]
        assert outputs[Strategy.NAME] == outputs[Strategy.STRICT]

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
                   and "name=p " in e.detail + " "]
        assert len(reevals) == 2

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
        outputs = [e.detail for e in events if e.kind is EventKind.OUTPUT_LINE]
        assert outputs == ["(2 20 7)"]


class TestParallelRuns:
    def test_independent_runs_share_nothing(self):
        src = generate_program(3, 14)
        expected = run_with_metrics(src, "func", Strategy.NEED)[0]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda _: run_with_metrics(src, "func", Strategy.NEED)[0], range(16)
            ))
        assert all(r == expected for r in results)
