import io
import json
import os
import re
import subprocess
import sys

import pytest

import lazylab.lab
from lazylab.cli import _build_parser, main
from lazylab.evaluator import Strategy
from lazylab.lab import CELLS, load_program

from conftest import STRATEGIES


def _file(tmp_path, name: str, source: str) -> str:
    """The path of a new file `name` in tmp_path that holds source."""
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return str(path)


def _bundled(name: str):
    """A fixture: the path of a copy of the bundled program `name`."""
    return pytest.fixture(lambda tmp_path: _file(tmp_path, name, load_program(name)))


prog1_func, prog2_func = _bundled("r_prog1.fl"), _bundled("r_prog2.fl")
prog1_macro, prog2_macro = _bundled("sas_prog1.ml"), _bundled("sas_prog2.ml")


SELF_CALL = "f <- function(){ f() }\nf()\n"
NESTED_CALLS = "f <- function(x) { x }\ny <- " + "f(" * 170 + "1" + ")" * 170 + "\nprint(y)\n"
DEFAULT_CHAIN = ("f <- function(" + ", ".join(["a0 = 1"] + [f"a{i} = a{i - 1}" for i in range(1, 331)])
                 + ") { a330 }\nprint(f())\n")
# the read of a231 in `a232 = a231` would be the 101st level: the call and 100 defaults
DEFAULT_CHAIN_READ = DEFAULT_CHAIN.index("a232 = a231") + len("a232 = ") + 1
# the evaluator reads each callee one frame inside the call chained on it
CHAINED_CALLEE = "f <- function() { f" + "()" * 40 + " }\nf()\n"


class TestRun:
    def test_func_need(self, prog1_func, capsys):
        assert main(["run", "--lang", "func", "--strategy", "need", prog1_func]) == 0
        assert capsys.readouterr() == ("2 20 7\n", "")

    def test_macro(self, prog2_macro, capsys):
        assert main(["run", "--lang", "macro", prog2_macro]) == 0
        assert capsys.readouterr() == ("20\n100\n", "")

    def test_strategy_with_macro_is_usage_error(self, prog2_macro, capsys):
        assert main(["run", "--lang", "macro", "--strategy", "need", prog2_macro]) == 2
        assert "error" in capsys.readouterr().err

    def test_strategy_defaults_to_need(self, prog2_func, capsys):
        assert main(["run", "--lang", "func", prog2_func]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["20", "20"]

    def test_bare_final_call_result_is_echoed(self, prog2_func, capsys):
        main(["run", "--lang", "func", "--strategy", "name", prog2_func])
        assert capsys.readouterr().out == "20\n100\n100\n"

    def test_bare_expression_before_the_last_statement_is_not_echoed(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"1 + 1\nprint(5)\n")))
        assert main(["run", "--lang", "func", "-"]) == 0
        assert capsys.readouterr().out == "5\n"

    def test_program_error_diagnostic(self, tmp_path, capsys):
        path = _file(tmp_path, "bad.fl", "x <- 1\ny <- nosuch\n")
        assert main(["run", "--lang", "func", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{path}:2:6: error: unbound name 'nosuch'")

    def test_lex_error_diagnostic_names_position(self, tmp_path, capsys):
        path = _file(tmp_path, "bad.fl", "x <- @\n")
        assert main(["run", "--lang", "func", path]) == 1
        assert ":1:6: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("lang,source,position", [
        ("func", "x <- ²\n", "1:6"),
        ("func", "print(12²)\n", "1:9"),
        ("macro", "%put %eval(²+1);\n", "1:1"),
    ])
    def test_non_decimal_digit_is_a_diagnostic(self, tmp_path, capsys, lang, source, position):
        path = _file(tmp_path, "bad.txt", source)
        assert main(["run", "--lang", lang, path]) == 1
        assert capsys.readouterr().err.startswith(f"{path}:{position}: error:")

    @pytest.mark.parametrize("lang,source,position", [
        ("macro", "%put %eval(" + "1" * 5000 + "+1);\n", "1:1"),
        ("macro", "%let a=" + "9" * 2200 + ";\n%put %eval(&a*&a);\n", "2:1"),
        ("func", "x0 <- 10\n" + "".join(f"x{i} <- x{i - 1} * x{i - 1}\n" for i in range(1, 22)),
         "21:12"),
    ], ids=["eval-literal", "eval-result", "decimal-overflow"])
    def test_oversized_number_is_a_diagnostic(self, tmp_path, capsys, lang, source, position):
        path = _file(tmp_path, "big.txt", source)
        assert main(["run", "--lang", lang, path]) == 1
        assert capsys.readouterr().err.startswith(f"{path}:{position}: error:")

    def test_recursive_macro_is_a_diagnostic(self, tmp_path, capsys):
        path = _file(tmp_path, "recursive.ml", "%macro m(); %m() %mend;\n%m()\n")
        assert main(["run", "--lang", "macro", path]) == 1
        assert capsys.readouterr().err.startswith(f"{path}:1:13: error: invoking '%m' exceeded")

    def test_macro_named_after_a_keyword_is_a_diagnostic(self, tmp_path, capsys):
        path = _file(tmp_path, "keyword.ml",
                     "%macro eval(); %put in; %mend;\n%eval()\n%put done;\n")
        assert main(["run", "--lang", "macro", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}:1:8: error: a macro cannot be named 'eval'\n"

    # each ended in a RecursionError traceback: the first three recurse for
    # ever, the last three nest deeper than the evaluator's or the parser's bound
    @pytest.mark.parametrize("source,strategy,error", [
        (SELF_CALL, "strict", "1:19: error: calling a function exceeded 100"),
        (SELF_CALL, "need", "1:19: error: calling a function exceeded 100"),
        (SELF_CALL, "name", "1:19: error: calling a function exceeded 100"),
        ("f <- function(x = f()) { x }\nf()\n", "need",
         "1:20: error: calling a function exceeded 100"),
        ("f <- function(x = f()) { x }\nf()\n", "name",
         "1:20: error: calling a function exceeded 100"),
        ("f <- function(x) { x + f(x + 1) }\nf(1)\n", "need",
         "1:20: error: evaluating an argument exceeded 100"),
        ("f <- function(x) { x + f(x + 1) }\nf(1)\n", "name",
         "1:26: error: evaluating an argument exceeded 100"),
        (NESTED_CALLS, "need", "2:207: error: opening '(' exceeded 100"),
        (NESTED_CALLS, "name", "2:207: error: opening '(' exceeded 100"),
        (DEFAULT_CHAIN, "need",
         f"1:{DEFAULT_CHAIN_READ}: error: evaluating an argument exceeded 100"),
        (DEFAULT_CHAIN, "name",
         f"1:{DEFAULT_CHAIN_READ}: error: evaluating an argument exceeded 100"),
        ("x <- " + "(" * 330 + "1" + ")" * 330 + "\n", "strict",
         "1:106: error: opening '(' exceeded 100"),
        *((CHAINED_CALLEE, strategy, "1:20: error: calling a function exceeded 100")
          for strategy in STRATEGIES),
    ], ids=["self-call-strict", "self-call-need", "self-call-name", "default-call-need",
            "default-call-name", "reread-chain-need", "reread-chain-name",
            "nested-calls-need", "nested-calls-name", "default-chain-need",
            "default-chain-name", "parentheses", "chained-callee-strict",
            "chained-callee-need", "chained-callee-name"])
    def test_deep_recursion_is_a_diagnostic(self, tmp_path, capsys, source, strategy, error):
        path = _file(tmp_path, "deep.fl", source)
        assert main(["run", "--lang", "func", "--strategy", strategy, path]) == 1
        assert capsys.readouterr().err.startswith(f"{path}:{error} ")

    # Recursion under static nesting: `c(1, ` and `1 + (` add Python frames per
    # level that only a call's weight, or an argument's, counts; bare `(` and
    # `g(` add none that no level counts. Without the call weight, the
    # recursive call ended in a RecursionError traceback from depth 4 and the
    # default chain from depth 8 (strict) or 14 (need, name); the recursive
    # argument never did. Without the argument weight, the re-read chain did
    # under name from depth 16, since each read re-evaluates a chain of
    # promises that each nest its shape.
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("program,inner", [
        ("f <- function(x) {{ {} }}\nf(1)\n", "f(x)"),
        ("f <- function(x) {{ f({}) }}\nf(1)\n", "x"),
        ("h <- function(y) {{ y }}\nf <- function(x = {}) {{ x }}\nf()\n", "h(f())"),
        ("f <- function(x, n) {{ print(x)\nf({}, n) }}\nf(1, 0)\n", "x"),
    ], ids=["recursive-call", "recursive-argument", "default-chain", "reread-chain"])
    def test_recursion_under_nesting_is_a_diagnostic(self, tmp_path, capsys, program, inner,
                                                     strategy):
        path = tmp_path / "nested.fl"
        for opening in ("c(1, ", "(", "1 + (", "g("):
            for depth in (0, 4, 16):
                nested = opening * depth + inner + ")" * depth
                path.write_text("g <- function(y) { y }\n" + program.format(nested))
                code = main(["run", "--lang", "func", "--strategy", strategy, str(path)])
                err = capsys.readouterr().err
                assert code == 1, (opening, depth)
                assert re.match(rf"{re.escape(str(path))}:\d+:\d+: error: ", err), (opening, depth)
                assert "Traceback" not in err

    # Recursion through a parameter read nested in the called function's body:
    # each call of g also counts the levels open around its read of x. Without
    # that, need and name ended in a RecursionError traceback from depth 16.
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("opening", ["c(1, ", "1 + ("])
    def test_recursion_through_a_called_body_is_a_diagnostic(self, tmp_path, capsys, opening,
                                                              strategy):
        path = tmp_path / "body.fl"
        for depth in (4, 16, 30):
            body = opening * depth + "x" + ")" * depth
            path.write_text(f"g <- function(x) {{ {body} }}\nf <- function(y) {{ g(f(y)) }}\nf(1)\n")
            code = main(["run", "--lang", "func", "--strategy", strategy, str(path)])
            err = capsys.readouterr().err
            assert code == 1, depth
            assert re.match(rf"{re.escape(str(path))}:\d+:\d+: error: ", err), depth
            assert "Traceback" not in err

    def test_recursion_on_stdin_is_a_diagnostic_not_a_traceback(self):
        proc = subprocess.run([sys.executable, "-m", "lazylab", "run", "--lang", "func", "-"],
                              input=SELF_CALL, capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("<stdin>:1:19: error: calling a function exceeded 100")
        assert "Traceback" not in proc.stderr

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"print(1 + 2)\n")))
        assert main(["run", "--lang", "func", "-"]) == 0
        assert capsys.readouterr().out == "3\n"

    @pytest.mark.parametrize("command,lang", [
        ("run", "func"), ("trace", "func"), ("run", "macro"), ("trace", "macro"),
    ])
    def test_invalid_utf8_file_is_a_diagnostic(self, tmp_path, capsys, command, lang):
        path = tmp_path / "bad.fl"
        path.write_bytes(b"x <- 1\nprint(x\xff)\n")
        assert main([command, "--lang", lang, str(path)]) == 1
        assert capsys.readouterr().err == f"{path}:2:8: error: invalid UTF-8 byte 0xff\n"

    def test_invalid_utf8_stdin_is_a_diagnostic(self, capsys, monkeypatch):
        # the column counts characters: "é" is two bytes but one column
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xc3\xa9 \xc3(")))
        assert main(["run", "--lang", "func", "-"]) == 1
        assert capsys.readouterr().err == "<stdin>:1:3: error: invalid UTF-8 byte 0xc3\n"

    @pytest.mark.parametrize("lang,source,out", [
        ("func", b"x <- 1\nprint(x)\n", "1\n"),
        ("macro", b"%put hi;\n", "hi\n"),
    ])
    def test_leading_byte_order_mark_is_dropped(self, capsys, monkeypatch, lang, source, out):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xef\xbb\xbf" + source)))
        assert main(["run", "--lang", lang, "-"]) == 0
        assert capsys.readouterr() == (out, "")

    @pytest.mark.parametrize("data,err", [
        (b"\xef\xbb\xbf\xef\xbb\xbfx <- 1\n", "<stdin>:1:1: error: unexpected character '\\ufeff'\n"),
        # the column counts from after the dropped mark
        (b"\xef\xbb\xbfx\xff", "<stdin>:1:2: error: invalid UTF-8 byte 0xff\n"),
    ], ids=["second-mark", "invalid-utf8"])
    def test_only_one_leading_byte_order_mark_is_dropped(self, capsys, monkeypatch, data, err):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert main(["run", "--lang", "func", "-"]) == 1
        assert capsys.readouterr().err == err

    def test_carriage_returns_end_lines(self, tmp_path, capsys):
        path = tmp_path / "cr.fl"
        path.write_bytes(b"x <- 1\r\nprint(x)\rprint(y)\r")
        assert main(["run", "--lang", "func", str(path)]) == 1
        assert ":3:7: error: unbound name 'y'" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("op,terms,value", [
        (" + ", ["1"] * 3000, "3000"),
        (" * ", ["2", "0.5"] * 1500, "1"),
    ], ids=["sum", "product"])
    def test_long_operator_chain(self, tmp_path, capsys, strategy, op, terms, value):
        path = _file(tmp_path, "chain.fl", f"x <- {op.join(terms)}\nprint(x)\n")
        assert main(["run", "--lang", "func", "--strategy", strategy, path]) == 0
        assert capsys.readouterr().out == f"{value}\n"

    def test_long_unary_minus_chain_in_eval(self, tmp_path, capsys):
        path = _file(tmp_path, "minus.ml",
                     "%put %eval(" + "-" * 3000 + "1);\n%put %eval(" + "-" * 3001 + "1);\n")
        assert main(["run", "--lang", "macro", path]) == 0
        assert capsys.readouterr().out == "1\n-1\n"

    def test_deeply_nested_parentheses_in_eval(self, tmp_path, capsys):
        path = _file(tmp_path, "parens.ml", "%put %eval(" + "(" * 3000 + "1" + ")" * 3000 + ");\n")
        assert main(["run", "--lang", "macro", path]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_deeply_nested_evals(self, tmp_path, capsys):
        path = _file(tmp_path, "evals.ml", "%put " + "%eval(" * 3000 + "1" + ")" * 3000 + ";\n")
        assert main(["run", "--lang", "macro", path]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_json_output(self, prog1_func, capsys):
        assert main(["run", "--lang", "func", "--output", "json", prog1_func]) == 0
        assert json.loads(capsys.readouterr().out) == {"lines": ["2 20 7"], "result": None}

    def test_missing_file(self, capsys):
        assert main(["run", "--lang", "func", "/nonexistent/p.fl"]) == 1

    def test_unknown_flag_is_usage_error(self, prog1_func, capsys):
        assert main(["run", "--lang", "func", "--bogus", prog1_func]) == 2


class TestTrace:
    def _records(self, capsys):
        return [json.loads(line) for line in capsys.readouterr().out.splitlines()]

    def test_need_trace_shows_one_force_one_hit(self, prog2_func, capsys):
        assert main(["trace", "--lang", "func", "--strategy", "need", prog2_func]) == 0
        records = self._records(capsys)
        assert records[0] == {"format": "lazylab-trace", "version": 1}
        forced = [r for r in records if r.get("kind") == "PROMISE_FORCED"]
        hits = [r for r in records if r.get("kind") == "PROMISE_CACHE_HIT"]
        assert len(forced) == 1 and "name=y" in forced[0]["detail"]
        assert len(hits) == 1 and "name=y" in hits[0]["detail"]
        assert [r for r in records if r.get("kind") == "OUTPUT_LINE"]
        assert "metrics" in records[-1]

    def test_name_trace_shows_printed_values(self, prog2_func, capsys):
        assert main(["trace", "--lang", "func", "--strategy", "name", prog2_func]) == 0
        reevals = [r["detail"] for r in self._records(capsys) if r.get("kind") == "NAME_REEVAL"]
        assert reevals == ["name=y value=20", "name=y value=100"]

    def test_empty_program_trace_is_header_and_metrics(self, tmp_path, capsys):
        path = _file(tmp_path, "empty.fl", "")
        assert main(["trace", "--lang", "func", path]) == 0
        records = self._records(capsys)
        assert len(records) == 2
        assert records[0]["format"] == "lazylab-trace"
        assert "metrics" in records[1]

    def test_macro_trace_table_lifecycle(self, prog1_macro, capsys):
        assert main(["trace", "--lang", "macro", prog1_macro]) == 0
        records = self._records(capsys)
        created = [r for r in records if r.get("kind") == "TABLE_CREATED"]
        deleted = [r for r in records if r.get("kind") == "TABLE_DELETED"]
        assert len(created) == 1 and len(deleted) == 1
        assert created[0]["ord"] < deleted[0]["ord"]

    def test_long_operator_chain_argument(self, tmp_path, capsys):
        chain = " + ".join(["1"] * 3000)
        path = _file(tmp_path, "arg.fl", f"f <- function(x) {{ x }}\nf({chain})\n")
        assert main(["trace", "--lang", "func", "--strategy", "need", path]) == 0
        records = self._records(capsys)
        created = [r["detail"] for r in records if r.get("kind") == "PROMISE_CREATED"]
        forced = [r["detail"] for r in records if r.get("kind") == "PROMISE_FORCED"]
        assert created == [f"name=x env=env0 expr={chain}"]
        assert forced == ["name=x value=3000"]

    def test_non_ascii_text_is_escaped(self, tmp_path, capsys):
        path = _file(tmp_path, "esc.ml", '%let q=say "hi" \\ café 😀\ttab;\n%put &q;\n')
        assert main(["trace", "--lang", "macro", path]) == 0
        # bytes= counts characters: the value is 21 characters, 25 bytes in UTF-8
        # the output is ASCII: é and the astral 😀 (a surrogate pair) are \u escapes
        text = r'say \"hi\" \\ caf\u00e9 \ud83d\ude00\ttab'
        assert capsys.readouterr().out.splitlines() == [
            '{"format": "lazylab-trace", "version": 1}',
            '{"ord": 1, "kind": "VAR_STORED", "subject": "q", "detail": '
            f'"global let bytes=21 text={text}"}}',
            '{"ord": 2, "kind": "VAR_RESOLVED", "subject": "q", "detail": '
            f'"global text={text}"}}',
            f'{{"ord": 3, "kind": "OUTPUT_LINE", "subject": "log", "detail": "{text}"}}',
            '{"metrics": {"arg_evaluations": {}, "arg_accesses": {}, "var_resolutions": '
            '{"q": 1}, "forced_value_slots": 0, "stored_text_bytes": 21, "output_lines": 1}}',
        ]

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_output_option_is_usage_error(self, prog2_func, capsys, output):
        # trace always writes JSON lines
        assert main(["trace", "--lang", "func", "--output", output, prog2_func]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --output" in captured.err


class TestDiff:
    def test_need_vs_name_diverges(self, prog2_func, capsys):
        assert main(["diff", "need", "name", prog2_func]) == 3
        assert capsys.readouterr() == ("DIVERGED at line 2: '20' vs '100'\n", "")

    def test_agreeing_strategies(self, tmp_path, capsys):
        path = _file(tmp_path, "line.fl", "x <- 2\nprint(x * 3)\n")
        assert main(["diff", "need", "strict", path]) == 0
        assert capsys.readouterr().out.strip() == "EQUAL"

    @pytest.mark.parametrize("left,right", [("strict", "need"), ("need", "strict")])
    def test_failing_run_names_its_strategy(self, prog1_func, capsys, left, right):
        assert main(["diff", left, right, prog1_func]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{prog1_func}:1:38: error: strict run: unbound name 'a'\n"

    def test_parse_error_names_no_strategy(self, tmp_path, capsys):
        path = _file(tmp_path, "cut.fl", "x <- 1 +\n")
        assert main(["diff", "need", "strict", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"{path}:2:1: error: expected a number or a name or '('"
                                " or 'function', found 'end of input'\n")

    def test_single_strategy_is_usage_error(self, prog2_func):
        assert main(["diff", "need", prog2_func]) == 2

    def test_json_report(self, prog2_func, capsys):
        assert main(["diff", "need", "name", "--output", "json", prog2_func]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "DIVERGED"
        assert report["first_diff_line"] == {"index": 1, "left": "20", "right": "100"}
        assert report["metrics_delta"]["evaluations"] == [1, 2]


class TestPairs:
    def test_expected_pattern(self, capsys):
        assert main(["pairs"]) == 0
        assert capsys.readouterr() == (
            "PROGRAM1      EQUAL\n"
            "PROGRAM2      DIVERGED at line 2: '20' vs '100'\n"
            "PROGRAM2_NAME EQUAL\n"
            "verdict pattern: expected\n",
            "",
        )

    def test_json_verdicts(self, capsys):
        assert main(["pairs", "--output", "json"]) == 0
        verdicts = [entry["verdict"] for entry in json.loads(capsys.readouterr().out)]
        assert verdicts == ["EQUAL", "DIVERGED", "EQUAL"]

    def test_corrupted_bundle_fails_with_diagnostic(self, capsys, monkeypatch):
        def broken(name):
            return "%%%% not a program"
        monkeypatch.setattr(lazylab.lab, "load_program", broken)
        assert main(["pairs"]) == 1
        assert "error" in capsys.readouterr().err


class TestGen:
    def test_deterministic_output(self, capsys):
        assert main(["gen", "--seed", "5", "--size", "10"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--seed", "5", "--size", "10"]) == 0
        assert capsys.readouterr().out == first
        assert "function" in first

    def test_output_runs(self, capsys, monkeypatch):
        # lazylab gen --seed 7 --size 14 | lazylab run --lang func -
        assert main(["gen", "--seed", "7", "--size", "14"]) == 0
        program = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(program.encode())))
        assert main(["run", "--lang", "func", "-"]) == 0
        assert capsys.readouterr() == ("18\n18\n", "")


class TestDiagnosticColor:
    def _run_bad(self, tmp_path, capsys, monkeypatch, env_value):
        path = _file(tmp_path, "bad.fl", "x <- @\n")
        monkeypatch.setattr(sys.stderr, "isatty", lambda: True, raising=False)
        if env_value is None:
            monkeypatch.delenv("LAZYLAB_COLOR", raising=False)
        else:
            monkeypatch.setenv("LAZYLAB_COLOR", env_value)
        assert main(["run", "--lang", "func", path]) == 1
        return capsys.readouterr().err

    def test_tty_diagnostics_are_colored(self, tmp_path, capsys, monkeypatch):
        err = self._run_bad(tmp_path, capsys, monkeypatch, None)
        assert "\x1b[31m" in err

    def test_color_disabled_by_env(self, tmp_path, capsys, monkeypatch):
        err = self._run_bad(tmp_path, capsys, monkeypatch, "0")
        assert "\x1b[" not in err


def test_strategy_choices_are_the_func_cells():
    """`--strategy` and `diff`'s two strategies offer the func cells of
    `lab.CELLS`, in order. Each cell's strategy is a plain str or None: from
    Python 3.11 an f-string formats a Strategy member as `Strategy.NEED`, so
    a member would change digest keys, test ids and these choices."""
    assert all(type(strategy) is str or strategy is None for _, strategy in CELLS)
    func = [strategy for engine, strategy in CELLS if engine == "func"]
    assert func == [s.value for s in Strategy]
    commands = next(a for a in _build_parser()._actions if a.dest == "command").choices
    choices = {(name, a.dest): a.choices for name in ("run", "trace", "diff")
               for a in commands[name]._actions if a.dest in ("strategy", "left", "right")}
    assert choices == {("run", "strategy"): func, ("trace", "strategy"): func,
                       ("diff", "left"): func, ("diff", "right"): func}


class _GoneReader:
    """A stdout whose reader has gone, as after `| head -1`: every write
    raises BrokenPipeError.  Its file descriptor is a real file's."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv,program,code", [
    (["trace", "--lang", "macro"], "sas_prog2.ml", 0),
    (["trace", "--lang", "func", "--strategy", "strict"], "r_prog1.fl", 1),
    (["run", "--lang", "func"], "r_prog1.fl", 0),
    (["diff", "need", "name"], "r_prog2.fl", 3),
    (["pairs"], None, 0),
    (["gen"], None, 0),
], ids=["trace", "trace-error", "run", "diff", "pairs", "gen"])
def test_a_reader_that_stops_early_is_not_an_error(tmp_path, capsys, monkeypatch,
                                                   argv, program, code):
    """The command ends with its own exit code, and no further write or the
    flush at exit can raise: stdout's descriptor now points at os.devnull."""
    if program is not None:
        path = _file(tmp_path, program, load_program(program))
        argv = [*argv, path]
    with open(tmp_path / "stdout", "w") as target:
        monkeypatch.setattr(sys, "stdout", _GoneReader(target.fileno()))
        assert main(argv) == code
        assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
    err = capsys.readouterr().err
    assert "Broken pipe" not in err
    if code == 1:  # the program's own diagnostic still goes to stderr
        assert err.startswith(f"{path}:1:38: error: unbound name 'a'")


def test_module_entry_point(prog1_func):
    proc = subprocess.run(
        [sys.executable, "-m", "lazylab", "run", "--lang", "func",
         "--strategy", "need", prog1_func],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2 20 7\n"


def test_repeated_invocations_are_byte_identical(prog2_macro):
    runs = [
        subprocess.run(
            [sys.executable, "-m", "lazylab", "run", "--lang", "macro", prog2_macro],
            capture_output=True,
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1] == b"20\n100\n"


# The CLI's cases as one table: each row is argv, stdin, the exit code, and
# the exact stdout and stderr. The rows run from the repo root, so a
# diagnostic names a bundled program by the path the README's examples give
# it.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAMS = "src/lazylab/programs/"
NESTED = "c(1, " * 16 + "x" + ")" * 16
ESCAPING = b"mk <- function(a) { function(b) { a + b } }\nh <- mk(1)\nh(2)\n"
STRATEGY_WITH_MACRO = "lazylab: error: --strategy is only valid with --lang func\n"
STRICT_FAILS = f"{PROGRAMS}r_prog1.fl:1:38: error: unbound name 'a'\n"
CLI_CASES = {
    # funclang; need prints y's first value twice, then echoes the final call's
    "run-need-echoes-result": (["run", "--lang", "func", "--strategy", "need",
                                PROGRAMS + "r_prog2.fl"], b"", 0, "20\n20\n20\n", ""),
    # an argument re-read through nested `c(1, ` under name, each read
    # re-evaluating a chain of promises, is a positioned diagnostic
    "reread-chain-name": (["run", "--lang", "func", "--strategy", "name", "-"],
                          f"g <- function(y) {{ y }}\nf <- function(x, n) {{ print(x)\n"
                          f"f({NESTED}, n) }}\nf(1, 0)\n".encode(), 1, "",
                          "<stdin>:3:83: error: evaluating an argument exceeded 100 nested calls"
                          " and argument evaluations\n"),
    # so is a recursion through a parameter read under nested `c(1, ` in the
    # called function's body
    "called-body-need": (["run", "--lang", "func", "--strategy", "need", "-"],
                         f"g <- function(x) {{ {NESTED} }}\nf <- function(y) {{ g(f(y)) }}\n"
                         "f(1)\n".encode(), 1, "",
                         "<stdin>:2:21: error: calling a function exceeded 100 nested calls"
                         " and argument evaluations\n"),
    # a closure that escapes its call meets its discarded frame at its first
    # lookup there
    "escaping-closure-need": (["run", "--lang", "func", "--strategy", "need", "-"], ESCAPING, 1,
                              "", "<stdin>:3:2: error: environment env1 was discarded\n"),
    "escaping-closure-strict": (["run", "--lang", "func", "--strategy", "strict", "-"], ESCAPING,
                                1, "", "<stdin>:3:2: error: environment env1 was discarded\n"),
    "parse-error": (["run", "--lang", "func", "-"], b"f <- function(a) {\n  a +\n}\n", 1, "",
                    "<stdin>:3:1: error: expected a number or a name or '(' or 'function',"
                    " found '}'\n"),
    # diff parses once, before either run, so its parse error names no strategy
    "diff-parse-error": (["diff", "need", "strict", "-"], b"x <- 1 +\n", 1, "",
                         "<stdin>:2:1: error: expected a number or a name or '(' or 'function',"
                         " found 'end of input'\n"),
    "strategy-with-macro": (["run", "--lang", "macro", "--strategy", "need",
                             PROGRAMS + "sas_prog2.ml"], b"", 2, "", STRATEGY_WITH_MACRO),
    # also on stdin, before any input is read
    "strategy-with-macro-stdin": (["run", "--lang", "macro", "--strategy", "need", "-"], b"", 2,
                                  "", STRATEGY_WITH_MACRO),
    # the printed lines, the final bare expression's value among them, and
    # that value as the result
    "json-output": (["run", "--lang", "func", "--output", "json", "-"], b"1 + 2\n", 0,
                    '{"lines": ["3"], "result": "3"}\n', ""),
    # without trailing zeros, one space between a vector's elements
    "value-format": (["run", "--lang", "func", "-"], b"print(c(1.50, 2.0 * 3))\n", 0,
                     "1.5 6\n", ""),
    # a CRLF ends a line, and a `²` may go on a name but starts no token
    "crlf-superscript": (["run", "--lang", "func", "-"],
                         b"x <- 1 # note\r\ny <- a\xc2\xb2 + \xc2\xb2\n", 1, "",
                         "<stdin>:2:11: error: unexpected character '²'\n"),
    # under strict both fail at the same position
    "strict-run-fails": (["run", "--lang", "func", "--strategy", "strict",
                          PROGRAMS + "r_prog1.fl"], b"", 1, "", STRICT_FAILS),
    "strict-trace-fails": (["trace", "--lang", "func", "--strategy", "strict",
                            PROGRAMS + "r_prog1.fl"], b"", 1,
                           '{"format": "lazylab-trace", "version": 1}\n'
                           '{"ord": 1, "kind": "ENV_CREATED", "subject": "env1",'
                           ' "detail": "parent=env0"}\n'
                           '{"ord": 2, "kind": "ENV_DISCARDED", "subject": "env1", "detail": ""}\n',
                           STRICT_FAILS),
    # maclang: %let in any keyword case, spaced, ended by CRLF or followed at
    # once by the next statement
    "let-forms": (["run", "--lang", "macro", "-"], b"%LeT X = 1 ;\r\n%let y=&x&x;%put [&y];\n",
                  0, "[11]\n", ""),
    "let-name-not-a-letter": (["run", "--lang", "macro", "-"], b"%let x=1;\n%let \xc2\xb2=1;\n",
                              1, "", "<stdin>:2:6: error: expected a name after %let\n"),
    # a non-ASCII name is lowercased once, at scan time, and read back in any case
    "let-non-ascii-name": (["run", "--lang", "macro", "-"],
                           b"%let \xc3\x89a=1;\n%put &\xc3\xa9A &\xc3\x89A;\n", 0, "1 1\n", ""),
    # calls without arguments share one empty mapping, which no call writes
    "calls-without-arguments": (["run", "--lang", "macro", "-"],
                                b"%macro m(a=1); %put &a; %mend;\n%m(a=2) %m() %m\n", 0,
                                "2\n1\n1\n", ""),
    # argument keys in any case share one lowercased string per spelling
    "argument-key-case": (["run", "--lang", "macro", "-"],
                          b"%macro m(a=0); %put &a; %mend;\n%m(A=1) %m(a=2) %M(A=3)\n", 0,
                          "1\n2\n3\n", ""),
    # %eval divides truncating toward zero, with * binding tighter than +
    "eval-arithmetic": (["run", "--lang", "macro", "-"], b"%put %eval(-7/2) %eval(2*(3+4));\n",
                        0, "-3 14\n", ""),
    "eval-division-by-zero": (["run", "--lang", "macro", "-"], b"%put %eval(1/0);\n", 1, "",
                              "<stdin>:1:1: error: division by zero in %eval\n"),
    # an expression that ends where an operand is due names the end in words
    "eval-ends-before-operand": (["run", "--lang", "macro", "-"], b"%put %eval(1+);\n", 1, "",
                                 "<stdin>:1:1: error: expected an integer, found end of"
                                 " expression\n"),
    # a nested call is evaluated inner first, and an un-nested one, in any
    # case and spaced before its '(', where it closes
    "eval-nested": (["run", "--lang", "macro", "-"], b"%put %eval(1+%eval(2*3)) %EVAL (4);\n",
                    0, "7 4\n", ""),
    # calls side by side in one call, and a call inside parentheses, in one walk
    "eval-side-by-side": (["run", "--lang", "macro", "-"],
                          b"%put %eval(%eval(1)+%eval(2)*%eval(3)) %eval((%eval(4)));\n", 0,
                          "7 4\n", ""),
    # an unterminated call is reported before the division inside it runs
    "eval-unterminated": (["run", "--lang", "macro", "-"], b"%put %eval(%eval(1/0) + 1;\n", 1,
                          "", "<stdin>:1:1: error: unterminated %eval(...)\n"),
    "eval-left-open": (["run", "--lang", "macro", "-"], b"%put %eval(1) %eval(2;\n", 1, "",
                       "<stdin>:1:1: error: unterminated %eval(...)\n"),
    # a default's `&` text is split once per session, and its reference is
    # resolved again at each invocation, after the global it reads changed
    "default-reresolved": (["run", "--lang", "macro", "-"],
                           b"%let g=1; %macro m(a=&g); %put &a; %mend; %m() %let g=2; %m()"
                           b" %m(a=&g&g)\n", 0, "1\n2\n22\n", ""),
    # a statement is positioned only when it fails: in a body on its second
    # invocation, from the records scanned on the first, and after a
    # 300-character %let value, more than 256 characters on
    "body-second-invocation": (["run", "--lang", "macro", "-"],
                               b"%macro m(a=x);\n  %put &a;\n%mend;\n%m()\n%m(a=&nope)\n", 1,
                               "", "<stdin>:2:3: error: unresolved reference '&nope'\n"),
    "after-long-let": (["run", "--lang", "macro", "-"],
                       b"%let x=" + b"v" * 300 + b";%put &nope;\n", 1, "",
                       "<stdin>:1:309: error: unresolved reference '&nope'\n"),
    # a call's name in any case, its argument list over lines, and a value
    # holding parentheses and a comma
    "call-over-lines": (["run", "--lang", "macro", "-"],
                        b"%macro m(a=0, b=0); %put &a|&b; %mend;\n%M\n(A=1,\n b = f(2, 3))\n",
                        0, "1|f(2, 3)\n", ""),
    # open code, with its references and %eval, is skipped up to the next statement
    "open-code-skipped": (["run", "--lang", "macro", "-"],
                          b"%let x=1;\nwords &x (2 20 7) %eval(1) %put [&x];\n", 0, "[1]\n", ""),
    # a name without default, and a parenthesised default holding a comma
    "header-defaults": (["run", "--lang", "macro", "-"],
                        b"%macro m(a, b=(1,2)) ; %put &a|&b; %mend;\n%m(a=x)\n", 0,
                        "x|(1,2)\n", ""),
    "stray-ampersand": (["run", "--lang", "macro", "-"], b"%let x=1;\nwords &x\n& 5\n", 1, "",
                        "<stdin>:3:1: error: stray '&'\n"),
}


@pytest.mark.parametrize("argv,stdin,code,out,err", CLI_CASES.values(), ids=CLI_CASES.keys())
def test_cli_case(capsys, monkeypatch, argv, stdin, code, out, err):
    """One row of CLI_CASES through `cli.main`, in-process. `main` returns
    the exit code rather than raising: the in-process form of "stderr holds
    no Traceback"."""
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin)))
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)
