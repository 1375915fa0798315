import re
import sys
import time
import tracemalloc
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings, strategies as st

from lazylab.errors import (
    ArithSyntaxError,
    DepthExceededError,
    DivisionByZeroError,
    DuplicateParamError,
    LazyLabError,
    LexError,
    MacroSyntaxError,
    NumberTooLargeError,
    UnknownMacroError,
    UnknownParamError,
    UnresolvedRefError,
    UnterminatedMacroError,
)
from lazylab import maclang
from lazylab.lab import run_with_metrics
from lazylab.maclang import (
    MacroDef,
    MacroSession,
    SymbolTable,
    eval_arith,
    resolve_text,
    run_session,
    scan,
)
from lazylab.trace import EventKind, TraceSink

from conftest import count, global_table, of_kind

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402  (bench/workloads.py)


def _table(entries, label="global"):
    return SymbolTable(label.partition("#")[0], dict(entries), label)


class TestScanner:
    def test_let_statement(self):
        assert _positioned_scan("%let x=2;") == [("let", 1, 1, "x", "2")]

    def test_empty_source(self):
        assert scan("") == []

    def test_reference_fragment(self):
        # open code, references in it too, makes no record
        assert scan("&x*10") == []

    def test_put_keeps_eval_text_raw(self):
        assert _positioned_scan("%put (&x %eval(&y));") == [("put", 1, 1, "(&x %eval(&y))", None)]

    def test_put_without_semicolon_stops_at_next_statement(self):
        assert _positioned_scan("%put _user_\n%let x=2;") == [("put", 1, 1, "_user_", None),
                                                              ("let", 2, 1, "x", "2")]

    def test_macro_definition_tokens(self):
        [(kind, line, col, d, _)] = _positioned_scan(
            "%macro lazy(x=5,y=&x*10,z=&a+&b);\n%let x=2;\n%mend;")
        assert (kind, line, col) == ("macro", 1, 1)
        assert list(d.params.items()) == [("x", "5"), ("y", "&x*10"), ("z", "&a+&b")]
        assert (d.body_text, d.body_line, d.body_col) == ("\n%let x=2;\n", 1, 34)

    def test_comments_stripped(self):
        assert _positioned_scan("%let x=2; /* a comment ; %let y=3; */") == \
            [("let", 1, 1, "x", "2")]

    def test_unterminated_comment(self):
        with pytest.raises(LexError) as exc:
            scan("%let x=2; /* never closed")
        assert (exc.value.line, exc.value.col) == (1, 11)

    def test_stray_percent_and_ampersand(self):
        with pytest.raises(LexError):
            scan("% 5")
        with pytest.raises(LexError):
            scan("& 5")
        with pytest.raises(LexError) as exc:  # after open code, at its own position
            scan("%let x=1;\nwords &x %eval(1)\n  %1")
        assert (exc.value.message, exc.value.line, exc.value.col) == ("stray '%'", 3, 3)

    def test_token_positions(self):
        put = _positioned_scan("%let x=2;\n%put &x;")[1]
        assert put[:3] == ("put", 2, 1)

    @pytest.mark.parametrize("source", [
        "%put " + "x " * 40000,
        "%macro m(); " + "x " * 40000,
        "%m(" + ", ".join(f"a{i}=x" for i in range(20000)),
    ])
    def test_unterminated_statements_scan_in_linear_time(self, source):
        start = time.perf_counter()
        if source.startswith("%m("):  # a call never closed raises where it ends
            with pytest.raises(MacroSyntaxError) as exc:
                scan(source)
            assert (exc.value.message, exc.value.line, exc.value.col) == \
                ("unterminated parameter list", 1, len(source) + 1)
        else:
            scan(source)
        assert time.perf_counter() - start < 1.0

    def test_unterminated_comments_fail_in_linear_time(self):
        start = time.perf_counter()
        with pytest.raises(LexError) as exc:
            scan("/* " * 40000)
        assert time.perf_counter() - start < 1.0
        assert (exc.value.line, exc.value.col) == (1, 1)

    def test_a_session_that_raises_nothing_positions_no_statement(self, monkeypatch):
        """Only each `%macro` body's start is worked out as a (line, col):
        a statement is positioned only when it fails."""
        positioned = []
        position = maclang._Scanner._pos

        def counting_pos(scanner, i):
            positioned.append(i)
            return position(scanner, i)

        monkeypatch.setattr(maclang._Scanner, "_pos", counting_pos)
        for w in ("macro_store", "macro_invoke"):
            for case in workloads.build(w, 1)[:2]:
                positioned.clear()
                assert run_session(case.source).log_lines == case.expected
                assert len(positioned) == case.source.count("%macro "), w

    def test_only_a_call_that_passes_arguments_reads_a_list(self, monkeypatch):
        """The head match reads an argument list that closes at once, so only
        a header's parameters and a call's arguments reach `_list`."""
        lists = []
        read_list = maclang._Scanner._list

        def counting_list(scanner, what, optional):
            lists.append(what)
            return read_list(scanner, what, optional)

        monkeypatch.setattr(maclang._Scanner, "_list", counting_list)
        for case in workloads.build("macro_invoke", 1)[:2]:
            lists.clear()
            assert run_session(case.source).log_lines == case.expected
            calls = re.findall(r"^%\w+\((.*)\)$", case.source, re.M)
            with_arguments = sum(map(bool, calls))
            assert 0 < with_arguments < len(calls)
            assert lists.count("macro argument list") == with_arguments
            assert len(lists) == with_arguments + case.source.count("%macro ")

    def test_body_scanned_once_across_invocations(self, monkeypatch):
        scanned = []

        def counting_scan(source, line=1, col=1):
            scanned.append(source)
            return scan(source, line, col)

        monkeypatch.setattr(maclang, "scan", counting_scan)
        out = run_session("%macro m(); %put x; %mend;\n" + "%m()\n" * 5)
        assert out.log_lines == ["x"] * 5
        assert scanned[1:] == [" %put x; "]

    def test_malformed_body_raises_only_when_invoked(self):
        sink = TraceSink()
        session = MacroSession(sink)
        session.run("%macro m();\n%put ok;\n  % 5\n%mend;")
        with pytest.raises(LexError) as exc:
            session.run("%m()")
        assert (exc.value.line, exc.value.col) == (3, 3)
        events = sink.events
        assert count(events, EventKind.TABLE_CREATED) == count(events, EventKind.TABLE_DELETED) == 1


class TestEvalArith:
    @pytest.mark.parametrize("text,expected", [
        ("2*10", 20),
        ("3+4", 7),
        ("7/2", 3),
        ("0-7/2", -3),
        ("(1+2)*3", 9),
        ("-4/3", -1),
        ("2 * 10", 20),
        ("--3", 3),
    ])
    def test_values(self, text, expected):
        assert eval_arith(text) == expected

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            eval_arith("1/0")

    @pytest.mark.parametrize("bad", ["", "2.5", "abc", "1+", "(1", "1 2", "²+1"])
    def test_syntax_errors(self, bad):
        with pytest.raises(ArithSyntaxError):
            eval_arith(bad)


def _reference_tokens(text: str) -> list:
    """%eval's tokens read one character at a time: ints and operator
    characters, with blanks dropped.  The first character that is none of
    these, or the first number too long to convert, raises, in text order."""
    toks: list = []
    i = 0
    while i < len(text):
        j = i
        while j < len(text) and text[j].isdecimal():
            j += 1
        if j > i:
            try:
                toks.append(int(text[i:j]))
            except ValueError:
                raise NumberTooLargeError(
                    f"integer of {j - i} digits is too long for %eval") from None
            i = j
            continue
        if text[i] in "+-*/()":
            toks.append(text[i])
        elif text[i] not in " \t\r\n":
            raise ArithSyntaxError(f"unexpected {text[i]!r} in integer expression")
        i += 1
    return toks


def _recursive_eval_arith(text: str) -> int:
    """A recursive-descent %eval with its own tokenizer, kept as the reference
    for the one-pass `eval_arith`: the same value, or the same error at the
    same point."""
    toks = _reference_tokens(text)
    if not toks:
        raise ArithSyntaxError("empty integer expression")
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr() -> int:
        value = term()
        while peek() in ("+", "-"):
            value = value + term() if take() == "+" else value - term()
        return value

    def term() -> int:
        value = unary()
        while peek() in ("*", "/"):
            if take() == "*":
                value *= unary()
                continue
            divisor = unary()
            if divisor == 0:
                raise DivisionByZeroError("division by zero in %eval")
            quot, rem = divmod(value, divisor)
            value = quot + 1 if rem != 0 and (value < 0) != (divisor < 0) else quot
        return value

    def unary() -> int:
        sign = 1
        while peek() == "-":
            take()
            sign = -sign
        return sign * atom()

    def atom() -> int:
        tok = take() if pos < len(toks) else None
        if isinstance(tok, int):
            return tok
        if tok == "(":
            value = expr()
            if peek() != ")":
                raise ArithSyntaxError("missing ')' in integer expression")
            take()
            return value
        found = "end of expression" if tok is None else repr(tok)
        raise ArithSyntaxError(f"expected an integer, found {found}")

    value = expr()
    if pos != len(toks):
        raise ArithSyntaxError(f"trailing {toks[pos]!r} in integer expression")
    return value


def _outcome(evaluate, text):
    try:
        return evaluate(text)
    except LazyLabError as err:
        return type(err), err.message


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789+-*/() \t\r\nx\f²٣", max_size=24))
@example("1/0 (2)")
@example("9" * 5000 + " x")
@example("x " + "9" * 5000)
@example("1/0 " + "9" * 5000)
@example("--(1/(2-2))")
@example("2*(3+4)/0 +")
# either side of 640 characters, where the search starts to look for digit runs
@example("1+" * 319 + "1x")
@example("1+" * 320 + "x")
@example("9" * 640 + "x")
@example("9" * 641 + "x")
@example("1+" * 400 + "٣" * 700)
@example("1+" * 400 + "²")
@example("1+" * 400 + "\f1")
def test_eval_arith_matches_recursive_reference(text):
    assert _outcome(eval_arith, text) == _outcome(_recursive_eval_arith, text)


class TestResolveText:
    def test_chained_reference_rescans(self):
        tables = [_table({"x": "2", "y": "&x*10"}, "lazy#1")]
        sink = TraceSink()
        assert resolve_text("&y", tables, sink) == "2*10"
        assert [(ev.subject, ev.table) for ev in sink.events] == \
            [("y", "lazy#1"), ("x", "lazy#1")]

    def test_plain_text_passes_through(self):
        assert resolve_text("plain", [_table({})], TraceSink()) == "plain"

    def test_innermost_table_wins(self):
        inner = _table({"v": "inner"}, "m#1")
        outer = _table({"v": "outer"})
        assert resolve_text("&v", [inner, outer], TraceSink()) == "inner"
        assert resolve_text("&v", [outer], TraceSink()) == "outer"

    def test_unresolved_reference(self):
        with pytest.raises(UnresolvedRefError) as exc:
            resolve_text("&ghost", [_table({})], TraceSink())
        assert exc.value.message == "unresolved reference '&ghost'"

    def test_self_reference_exceeds_depth(self):
        with pytest.raises(DepthExceededError):
            resolve_text("&a", [_table({"a": "&a"})], TraceSink())

    def test_rescan_bound_at_its_edge(self):
        def chain(last: int) -> str:
            """Defaults a0=&a1, ..., a{last}=x; &a{k} is resolved at rescan depth k."""
            params = "".join(f"a{i}=&a{i + 1}, " for i in range(last)) + f"a{last}=x"
            return f"%macro m({params});\n%put &a0;\n%mend;\n%m()\n"

        assert run_session(chain(63)).log_lines == ["x"]
        with pytest.raises(DepthExceededError) as exc:  # although &a64's entry holds no `&`
            run_session(chain(64))
        assert exc.value.message == \
            "resolving '&a64' exceeded 64 rescans (self-referential value?)"
        assert (exc.value.line, exc.value.col) == (2, 1)

    def test_spacing_preserved(self):
        tables = [_table({"x": "2"})]
        assert resolve_text("( &x  *  3 )", tables, TraceSink()) == "( 2  *  3 )"

    def test_resolution_is_pure_and_uncached(self):
        table = _table({"x": "2", "y": "&x*10"})
        assert resolve_text("&y", [table], TraceSink()) == "2*10"
        table.entries["x"] = "10"
        assert resolve_text("&y", [table], TraceSink()) == "10*10"


class TestDefinitions:
    def test_paper_shaped_defaults_stored_raw(self):
        session = MacroSession()
        session.run("%macro lazy(x=5,y=&x*10,z=&a+&b);\n%mend;")
        d = session.macros["lazy"]
        assert list(d.params.items()) == [("x", "5"), ("y", "&x*10"), ("z", "&a+&b")]

    def test_empty_macro(self):
        session = MacroSession()
        session.run("%macro m(); %mend;")
        d = session.macros["m"]
        assert list(d.params.items()) == []
        assert d.body_text.strip() == ""

    def test_duplicate_parameter(self):
        with pytest.raises(DuplicateParamError):
            run_session("%macro m(a=1,a=2); %mend;")

    def test_duplicate_parameter_fires_after_earlier_statements(self):
        with pytest.raises(DuplicateParamError) as exc:
            run_with_metrics("%put a; %macro m(a=1,a=2); %mend;", "macro")
        assert (exc.value.line, exc.value.col) == (1, 22)
        assert [(ev.kind, ev.text) for ev in exc.value.partial_trace] == [
            (EventKind.OUTPUT_LINE, "a")]

    def test_redefinition_runs_the_new_body(self):
        src = "%macro m(); %put a; %mend; %m() %macro m(); %put b; %mend; %m()"
        assert run_session(src).log_lines == ["a", "b"]

    def test_unterminated_macro(self):
        with pytest.raises(UnterminatedMacroError):
            run_session("%macro m();\n%put lost;")

    def test_mend_without_macro(self):
        with pytest.raises(MacroSyntaxError):
            run_session("%mend;")

    @pytest.mark.parametrize("source,message", [
        ("%m(a)", "macro argument list entries are written name=value"),
        ("%m(a=1", "unterminated parameter list"),
        ("%macro m() %put x;", "expected ';' after %macro header"),
        ("%macro m(a b); %mend;", "expected ',' or ')' in macro parameter list"),
    ])
    def test_malformed_header_or_argument_list(self, source, message):
        with pytest.raises(MacroSyntaxError) as exc:
            run_session(source)
        assert exc.value.message == message

    def test_parameters_without_defaults_are_empty(self):
        session = MacroSession()
        session.run("%macro m(a, b); %put a=&a b=&b; %mend;\n%m(b=2)")
        assert list(session.macros["m"].params.items()) == [("a", ""), ("b", "")]
        assert session.log == ["a= b=2"]

    @pytest.mark.parametrize("name", ["eval", "let", "put", "macro", "mend", "EVAL", "Let",
                                      "PUT", "Macro", "mEnD"])
    def test_a_keyword_cannot_name_a_macro(self, name):
        # `%eval` and the statements are read before any call, so such a
        # macro could never be invoked
        with pytest.raises(MacroSyntaxError) as exc:
            run_session(f"%put a;\n%macro  {name}(x=1); %put in; %mend;\n%{name}()\n")
        assert (exc.value.message, exc.value.line, exc.value.col) == \
            (f"a macro cannot be named '{name}'", 2, 9)

    def test_a_keyword_cannot_name_a_macro_in_a_body(self):
        session = MacroSession()
        session.run("%macro outer;\n  %macro Put; %put in; %mend;\n%mend;\n")
        with pytest.raises(MacroSyntaxError) as exc:
            session.run("%outer\n")
        assert (exc.value.message, exc.value.line, exc.value.col) == \
            ("a macro cannot be named 'Put'", 2, 10)

    def test_a_keyword_prefix_can_name_a_macro(self):
        src = "%macro evals; %put e; %mend; %macro lets(); %put l; %mend;\n%evals %lets()"
        assert run_session(src).log_lines == ["e", "l"]

    def test_macro_defined_in_a_body_runs(self):
        src = "%macro outer(); %macro inner(); %put in; %mend; %inner() %mend;\n%outer()\n%inner()"
        assert run_session(src).log_lines == ["in", "in"]


class TestInvocation:
    def test_unknown_macro(self):
        with pytest.raises(UnknownMacroError):
            run_session("%nope()")

    def test_unknown_override(self):
        with pytest.raises(UnknownParamError):
            run_session("%macro m(a=1); %mend;\n%m(b=2)")

    @pytest.mark.parametrize("args", ["a=2, a=3", "A=2, a=3"])
    def test_duplicate_argument(self, args):
        session = MacroSession()
        with pytest.raises(DuplicateParamError) as exc:
            session.run(f"%macro m(a=1); %put &a; %mend;\n%put before;\n%m({args})")
        assert ((exc.value.message, exc.value.line, exc.value.col)
                == ("duplicate parameter 'a'", 3, 9))
        assert session.log == ["before"]

    @pytest.mark.parametrize("args,value", [
        ("a=f(1,2)", "f(1,2)"),  # parentheses nest inside a value
        ("a=1 b=2", "1 b=2"),    # a value runs to a top-level ',' or ')'
    ])
    def test_argument_value_is_raw_text(self, args, value):
        assert run_session(f"%macro m(a=0); %put &a; %mend;\n%m({args})").log_lines == [value]

    def test_override_beats_default(self):
        out = run_session("%macro lazy(x=5,y=&x*10);\n%put %eval(&y);\n%mend;\n%lazy(x=7)")
        assert out.log_lines == ["70"]

    def test_body_errors_carry_source_positions(self):
        with pytest.raises(UnresolvedRefError) as exc:
            run_session("%macro m(); %put &ghost; %mend;\n%m()")
        assert (exc.value.line, exc.value.col) == (1, 13)

    @pytest.mark.parametrize("depth", [maclang.MACRO_DEPTH_LIMIT, maclang.MACRO_DEPTH_LIMIT + 1])
    def test_nested_invocations_are_bounded(self, depth):
        """m0 calls m1 ... calls m{depth-1}: the limit itself runs, one more
        raises at the innermost call, and every table is deleted."""
        macros = "".join(f"%macro m{i}(); %m{i + 1}() %mend;\n" for i in range(depth - 1))
        source = f"{macros}%macro m{depth - 1}(); %put deep; %mend;\n%m0()\n"
        sink = TraceSink()
        if depth <= maclang.MACRO_DEPTH_LIMIT:
            assert run_session(source, sink).log_lines == ["deep"]
        else:
            with pytest.raises(DepthExceededError) as exc:
                run_session(source, sink)
            caller = f"%macro m{depth - 2}(); "  # line depth - 1 calls m{depth - 1}
            assert (exc.value.line, exc.value.col) == (depth - 1, len(caller) + 1)
            assert f"exceeded {maclang.MACRO_DEPTH_LIMIT} nested" in exc.value.message
        events = sink.events
        assert count(events, EventKind.TABLE_CREATED) == count(events, EventKind.TABLE_DELETED)

    def test_table_deleted_even_on_error(self):
        sink = TraceSink()
        session = MacroSession(sink)
        with pytest.raises(UnresolvedRefError):
            session.run("%macro m(); %put &ghost; %mend;\n%m()")
        events = sink.events
        assert count(events, EventKind.TABLE_CREATED) == count(events, EventKind.TABLE_DELETED) == 1

    def test_invoke_returns_only_its_own_lines(self):
        """`invoke` appends the body's lines to `session.log`, after the lines
        already there, and returns nothing."""
        session = MacroSession()
        session.run("%macro m(); %put inner; %mend;")
        session.put("before")
        assert session.invoke("m") is None
        assert session.log == ["before", "inner"]


class TestLetAndPut:
    @pytest.mark.parametrize("source,lines", [
        ("%macro m(x=5);\n%let x=2;\n%put _user_;\n%mend;\n%m()", ["M X 2"]),
        # the owner of o is the enclosing macro's table, not inner's
        ("%macro inner(); %let o=9; %mend;\n"
         "%macro outer(); %let o=2; %inner() %put &o; %mend;\n%outer()", ["9"]),
    ], ids=["own-table", "enclosing-table"])
    def test_let_updates_innermost_table_defining_the_name(self, source, lines):
        assert run_session(source).log_lines == lines

    def test_let_creates_in_innermost_live_table(self):
        out = run_session("%macro m();\n%let a=3;\n%put _user_;\n%mend;\n%m()")
        assert out.log_lines == ["M A 3"]

    def test_let_at_top_level_goes_global(self):
        session = MacroSession()
        session.run("%let g=1;")
        assert global_table(session).entries == {"g": "1"}

    def test_let_resolves_before_storing(self):
        session = MacroSession()
        session.run("%let x=2;\n%let a=&x;\n%let x=9;")
        assert global_table(session).entries["a"] == "2"

    def test_put_unterminated_eval(self):
        with pytest.raises(ArithSyntaxError) as exc:
            run_session("%put %eval(1+2;")
        assert exc.value.message == "unterminated %eval(...)"

    def test_nested_evals_run_inner_first(self):
        sink = TraceSink()
        out = MacroSession(sink).run("%put %eval(%eval(1+%eval(2*3)) * %EVAL (4)) (x);")
        assert out.log_lines == ["28 (x)"]
        assert [(ev.subject, ev.text) for ev in of_kind(sink.events, EventKind.ARITH_EVAL)] == [
            ("2*3", "6"), ("1+6", "7"), ("4", "4"), ("7 * 4", "28")]

    def test_unterminated_eval_runs_nothing_inside_it(self):
        # the first call runs; the division inside the unterminated one does not
        sink = TraceSink()
        with pytest.raises(ArithSyntaxError) as exc:
            MacroSession(sink).run("%put %eval(1) %eval(%eval(1/0) + 1;")
        assert exc.value.message == "unterminated %eval(...)"
        assert [ev.text for ev in of_kind(sink.events, EventKind.ARITH_EVAL)] == ["1"]

    def test_put_keeps_an_ampersand_before_a_digit(self):
        assert run_session("%put x&1;").log_lines == ["x&1"]

    def test_put_plain_text(self):
        assert run_session("%put hello;").log_lines == ["hello"]

    def test_put_user_lists_parameter_storage(self):
        out = run_session(
            "%macro lazy(x=5,y=&x*10,z=&a+&b);\n%put _user_;\n%mend;\n%lazy()"
        )
        assert out.log_lines == ["LAZY X 5", "LAZY Y &x*10", "LAZY Z &a+&b"]

    def test_put_user_spans_the_table_stack(self):
        src = (
            "%let g=7;\n"
            "%macro inner();\n%let i=1;\n%put _user_;\n%mend;\n"
            "%macro outer();\n%let o=2;\n%inner()\n%mend;\n"
            "%outer()"
        )
        out = run_session(src)
        assert out.log_lines == ["INNER I 1", "OUTER O 2", "GLOBAL G 7"]

    def test_put_user_is_the_whole_text_in_any_case(self):
        session = MacroSession()
        session.run("%let g=7;")
        for text in (" _User_ ", "\xa0_USER_\t", "a_user_", "_user_x"):
            session.put(text)
        assert session.log == ["GLOBAL G 7", "GLOBAL G 7", "a_user_", "_user_x"]

    def test_put_eval_after_a_capital_dotted_i(self):
        # "İ".lower() is two characters long; %eval is still found
        assert run_session("%put İ %eval(1+1);").log_lines == ["İ 2"]

    def test_put_golden_composite_line(self):
        src = (
            "%macro lazy(x=5,y=&x*10,z=&a+&b);\n"
            "%let x=2;\n%let a=3;\n%let b=4;\n"
            "%put (&x %eval(&y) %eval(&z));\n"
            "%mend;\n%lazy()"
        )
        assert run_session(src).log_lines == ["(2 20 7)"]


class TestSessions:
    def test_full_defaulted_parameters_listing(self, sas_prog1_listing):
        out = run_session(sas_prog1_listing)
        assert out.log_lines == [
            "LAZY X 5",
            "LAZY Y &x*10",
            "LAZY Z &a+&b",
            "(2 20 7)",
        ]
        assert out.log_lines[-1] == "(2 20 7)"

    def test_reassignment_listing_reevaluates(self, sas_prog2_listing):
        assert run_session(sas_prog2_listing).log_lines == ["20", "100"]

    def test_resolution_counts_for_reassignment_listing(self, sas_prog2_listing):
        sink = TraceSink()
        MacroSession(sink).run(sas_prog2_listing)
        resolved = [ev.subject for ev in of_kind(sink.events, EventKind.VAR_RESOLVED)]
        assert resolved.count("y") == 2
        assert resolved.count("x") == 2
        assert count(sink.events, EventKind.ARITH_EVAL) == 2

    def test_empty_session(self):
        assert run_session("").log_lines == []

    def test_non_macro_tokens_go_to_the_compiler_stream(self, sas_prog1_listing):
        # a stray result line in the source must not disturb the log
        session = MacroSession()
        out = session.run(sas_prog1_listing + "(2 20 7)\n")
        assert out.log_lines[-1] == "(2 20 7)"
        assert out.log_lines.count("(2 20 7)") == 1
        # open-code words leave no event: the trace is the listing's alone
        with_words, alone = TraceSink(), TraceSink()
        MacroSession(with_words).run(sas_prog1_listing + "(2 20 7)\n")
        MacroSession(alone).run(sas_prog1_listing)
        assert with_words.events == alone.events

    def test_global_table_survives_whole_session(self):
        sink = TraceSink()
        session = MacroSession(sink)
        session.run("%let g=1;\n%macro m(); %put &g; %mend;\n%m()")
        assert session.run("%put &g;").log_lines == ["1", "1"]
        deleted = [ev.subject for ev in of_kind(sink.events, EventKind.TABLE_DELETED)]
        assert "global" not in deleted

    def test_store_as_text_byte_for_byte(self):
        sink = TraceSink()
        MacroSession(sink).run(
            "%macro lazy(x=5,y=&x*10,z=&a+&b);\n%mend;\n%lazy()"
        )
        stored = {
            ev.subject: ev.text
            for ev in of_kind(sink.events, EventKind.VAR_STORED)
        }
        assert stored == {"x": "5", "y": "&x*10", "z": "&a+&b"}

    def test_nested_invocations_nest_tables(self):
        sink = TraceSink()
        src = (
            "%macro inner();\n%put deep;\n%mend;\n"
            "%macro outer();\n%inner()\n%mend;\n"
            "%outer()"
        )
        run_session(src)  # smoke: no table errors
        session = MacroSession(sink)
        session.run(src)
        created = [ev.subject for ev in of_kind(sink.events, EventKind.TABLE_CREATED)]
        deleted = [ev.subject for ev in of_kind(sink.events, EventKind.TABLE_DELETED)]
        assert created == ["outer#1", "inner#1"]
        assert deleted == ["inner#1", "outer#1"]

    def test_stored_bytes_peak(self, sas_prog1_listing):
        # params 5/&x*10/&a+&b (11 bytes), then x->2, a->3, b->4 (13 bytes)
        assert run_with_metrics(sas_prog1_listing, "macro")[1].stored_text_bytes == 13

    def test_macro_names_are_case_insensitive(self):
        out = run_session("%macro M(A=1); %put &a; %mend;\n%m(a=9)")
        assert out.log_lines == ["9"]

    def test_first_error_carries_position(self):
        with pytest.raises(UnresolvedRefError) as exc:
            run_session("%put ok;\n%put &ghost;")
        assert (exc.value.line, exc.value.col) == (2, 1)


class TestSplitTexts:
    """A macro's `&` texts are split once per session, at its body's first
    scan; every reference is still resolved at every use."""

    @pytest.mark.parametrize("source,lines", [
        # a default read again after its global changed, and an override
        ("%let g=1; %macro m(a=&g); %put &a; %mend; %m() %let g=2; %m() %m(a=&g&g)",
         ["1", "2", "22"]),
        # a default that reads a global the body keeps rewriting
        ("%let x=1; %macro m(p=&x); %let x=&p+1; %put &x; %mend; %m() %m() %m()",
         ["1+1", "1+1+1", "1+1+1+1"]),
        # a `&` that does not start a name stays in the text
        ("%macro m(a=&1x &g); %put &a; %mend; %let g=5; %m() %m()", ["&1x 5", "&1x 5"]),
        # a reference made only at run time
        ("%let a=&; %let b=y; %let y=7; %let c=&a&b; %macro m(); %put &c; %mend; %m()",
         ["7"]),
    ])
    def test_values_are_not_cached(self, source, lines):
        assert run_session(source).log_lines == lines

    @pytest.mark.parametrize("source,error,col,message", [
        ("%macro m(a=&Nope); %put [&a]; %mend; %m()",
         UnresolvedRefError, 20, "unresolved reference '&Nope'"),
        ("%macro m(a=&A); %put &a; %mend; %m()",
         DepthExceededError, 17, "resolving '&A' exceeded 64 rescans (self-referential value?)"),
    ])
    def test_errors_name_the_reference_as_written(self, source, error, col, message):
        with pytest.raises(error) as exc:
            run_session(source)
        assert (exc.value.line, exc.value.col, exc.value.message) == (1, col, message)

    @pytest.fixture
    def splits(self, monkeypatch):
        """The texts passed to `maclang._template`, in order."""
        texts, template = [], maclang._template

        def counted(text):
            texts.append(text)
            return template(text)

        monkeypatch.setattr(maclang, "_template", counted)
        return texts

    def test_each_text_is_split_once(self, splits):
        session = MacroSession()
        out = session.run("%let g=1;\n%macro m(a=&g, b=&a+&g, c=&b*2);\n"
                          "%let t=&c-1;\n%put &t &a;\n%mend;\n" + "%m()\n" * 40)
        assert out.log_lines == ["1+1*2-1 1"] * 40
        texts = ["&g", "&a+&g", "&b*2", "&c-1", "&t &a"]
        assert splits == texts
        assert list(session._templates) == texts

    def test_top_level_statements_store_no_split(self, splits):
        session = MacroSession()
        assert session.run("%let a=1; %let b=&a; %put &b &a;").log_lines == ["1 1"]
        assert splits == ["&a", "&b &a"]
        assert session._templates == {}

    def test_a_growing_value_is_not_kept(self):
        session = MacroSession()
        session.run("%let x=; %macro m(); %let x=&1 &x; %mend;\n" + "%m()\n" * 20)
        assert global_table(session).entries["x"] == "&1 " * 20
        assert list(session._templates) == ["&1 &x"]


class TestWhatASessionKeeps:
    """A session keeps its tables, its macros with their bodies' records,
    the `&` templates and the log; its source's records go as they run."""

    @pytest.fixture
    def scanned(self, monkeypatch):
        """Each list `maclang.scan` returned, and a copy of it as returned."""
        lists, scan = [], maclang.scan

        def kept(*args):
            records = scan(*args)
            lists.append((records, list(records)))
            return records

        monkeypatch.setattr(maclang, "scan", kept)
        return lists

    def test_the_source_records_are_dropped(self, scanned):
        session = MacroSession()
        out = session.run("%macro m(); %put in; %mend;\n%m() %m()")
        assert out.log_lines == ["in", "in"]
        (source, _), (body, body_records) = scanned
        assert source == []
        assert body is session.macros["m"].body
        assert body == body_records == [("put", 1, "in", None)]

    def test_the_key_is_the_record_string(self, scanned):
        session = MacroSession()
        session.run("%let Ab=1;")
        [(_, [record])] = scanned
        [key] = global_table(session).entries
        assert record[2] == "ab"
        assert key is record[2]

    def test_calls_without_arguments_share_one_empty_mapping(self):
        records = scan("%m %m() %M ( )")
        assert [kind for kind, *_ in records] == ["call"] * 3
        empty = records[0][3]
        assert isinstance(empty, MappingProxyType) and len(empty) == 0
        assert all(record[3] is empty for record in records)
        with pytest.raises(TypeError):
            empty["a"] = "1"

    @pytest.mark.parametrize("name", ["a", "ab"])
    def test_argument_keys_share_one_string_per_spelling(self, name):
        """Every record keys a name on one lowercased string, whatever the
        spelling: the calls' arguments and the macro's parameter."""
        upper = name.upper()
        source = (f"%macro m({name}=0); %put &{name}; %mend;\n"
                  f"%m({upper}=1) %m({name}=2) %M({upper}=3)")
        macro, *calls = scan(source)
        keys = [*macro[2].params] + [key for *_, args in calls for key in args]
        assert keys == [name] * 4
        assert all(key is keys[0] for key in keys)
        assert run_session(source).log_lines == ["1", "2", "3"]

    def test_peak_stays_near_the_global_table(self):
        """The peak of a session of 2,000 stores is within 1.25 times what
        its global table holds at the end: keys, values and the dict."""
        source = "".join(f"%let v_{i}=x_{i};\n" for i in range(2000))
        run_session(source)  # warm up
        session = MacroSession()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            session.run(source)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        entries = global_table(session).entries
        assert len(entries) == 2000
        held = sys.getsizeof(entries) + sum(
            sys.getsizeof(key) + sys.getsizeof(value) for key, value in entries.items())
        assert peak <= 1.25 * held, f"peak {peak} is {peak / held:.2f} times {held}"


_SOUP_WORDS = [
    "%let ", "%put ", "%macro ", "%mend", "%eval(", "%m", "%", "&", "&x", "x", "=", ";",
    "(", ")", ",", " ", "\n", "\t", "/*", "*/", "1", "+", "²", "İ", "_user_",
]
_SOUP = st.sampled_from(_SOUP_WORDS)


@settings(max_examples=300, deadline=None)
@given(st.lists(_SOUP, max_size=30).map("".join) | st.text(max_size=30),
       st.integers(1, 5), st.integers(1, 5))
@example("²", 1, 1)
def test_scan_records_point_at_their_statements(source, line, col):
    try:
        records = _positioned_scan(source, line, col)
    except LazyLabError:
        return
    line_starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
    for kind, rec_line, rec_col, a, b in records:
        k = rec_line - line
        at = line_starts[k] + rec_col - (col if k == 0 else 1)
        if kind == "error" and a is DuplicateParamError:
            assert source.startswith(b, at)
        else:
            assert source[at] == "%"


def _next_non_space(source, i):
    while i < len(source) and source[i].isspace():
        i += 1
    return i


def _line_col(source, i):
    return source.count("\n", 0, i) + 1, i - source.rfind("\n", 0, i)


def _positioned_scan(source, line=1, col=1):
    """`scan`'s records as (kind, line, col, a, b): each record's delta is
    summed into its offset in source, which starts at (line, col), and that
    offset is positioned with `_line_col`."""
    records, at = [], 0
    for kind, delta, a, b in scan(source, line, col):
        at += delta
        rec_line, rec_col = _line_col(source, at)
        records.append((kind, line + rec_line - 1,
                        rec_col + col - 1 if rec_line == 1 else rec_col, a, b))
    return records


_EARLIER_LINE = st.sampled_from(["", " \t", "/* c */", "%put a;", "x", "%let w=0;"])
_NAME_CHARS = "aZ_1\u00e9\u00b2\u00bd\u0663"  # a Z _ 1 é ² ½ ٣
_NAME = st.text(_NAME_CHARS, max_size=4) | st.builds(
    str.__add__, st.sampled_from("aZ_\u00e9"), st.text(_NAME_CHARS, max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.lists(_EARLIER_LINE, max_size=4), st.text(" \t", max_size=3),
       st.lists(st.booleans(), min_size=3, max_size=3),
       st.text(" \t\r\n", min_size=1, max_size=3), _NAME,
       st.text(" \t\r\n", max_size=3), st.booleans(),
       st.text(" \t\r\na1\u00e9=%&(),", max_size=8), st.booleans())
def test_let_gives_its_record_or_a_positioned_error(
        earlier, indent, upper, space, name, space_after, equals, value, semicolon):
    """Oracle: after the keyword and whitespace, the name is the longest run
    of `str.isalnum()` characters and `_`, and it must start with a letter or
    `_`; then whitespace, `=`, and the value up to `;` or the end.  Anything
    else raises at the next non-space character."""
    keyword = "".join(c.upper() if up else c for c, up in zip("let", upper))
    prefix = "".join(line + "\n" for line in earlier) + indent
    source = (prefix + "%" + keyword + space + name + space_after
              + "=" * equals + value + ";" * semicolon)
    earlier_records = sum(line in ("%put a;", "%let w=0;") for line in earlier)
    start = _next_non_space(source, len(prefix) + 4)
    end = start
    while end < len(source) and (source[end].isalnum() or source[end] == "_"):
        end += 1
    at = _next_non_space(source, end)
    if start == end or not (source[start].isalpha() or source[start] == "_"):
        expected = ("expected a name after %let", *_line_col(source, start))
    elif not source.startswith("=", at):
        expected = ("expected '=' in %let", *_line_col(source, at))
    else:
        stored = source[at + 1:].split(";", 1)[0].strip()
        records = _positioned_scan(source)
        assert len(records) == earlier_records + 1
        assert records[-1] == ("let", *_line_col(source, len(prefix)),
                               source[start:end].lower(), stored)
        return
    with pytest.raises(MacroSyntaxError) as exc:
        scan(source)
    assert (exc.value.message, exc.value.line, exc.value.col) == expected


_GAP = st.text(" \n", max_size=2)
_ENTRY = st.tuples(
    _GAP, st.sampled_from(["a", "A", "b", "_c", "1a", "²"]), _GAP, st.booleans(),
    st.lists(st.sampled_from(["1", "x", " ", "\n", "=", "&a", "(1)", "f(1, (2))"]),
             max_size=4).map("".join))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["", "%put a;\n", "  "]), st.sampled_from(["m", "M", "mAc_1"]), _GAP,
       st.lists(_ENTRY, max_size=3), st.booleans(), _GAP, st.booleans())
@example("", "m", "", [("", "a", "", True, "f(1, (2))")], False, "", True)
def test_call_gives_its_record_or_a_positioned_error(
        prefix, name, gap, entries, trailing_comma, space_before_close, closed):
    """Oracle: entries are `name = value` separated by ',', with an optional
    trailing ','; a name starts with a letter or `_`, a value runs to a
    top-level ',' or ')' and is stripped, and names compare lowercased.  The
    first repeated name gives an ERROR record, unless a syntax error follows;
    a syntax error raises at the next non-space character."""
    source = prefix + "%" + name + gap + "("
    parsed = []  # (offset of the name, name, offset after it and its space, value or None)
    for k, (lead, key, space, equals, value) in enumerate(entries):
        source += lead
        at = len(source)
        source += key + space
        parsed.append((at, key, len(source), value.strip() if equals else None))
        source += "=" + value if equals else ""
        if k < len(entries) - 1:
            source += ","
    if entries and trailing_comma:
        source += ","
    source += space_before_close + ")" * closed
    args, duplicate, error = {}, None, None
    for k, (at, key, after, value) in enumerate(parsed):
        if not (key[0].isalpha() or key[0] == "_"):
            error = ("expected a name in macro argument list", at)
            break
        if key.lower() in args and duplicate is None:
            duplicate = ("error", *_line_col(source, at), DuplicateParamError, key)
        if value is None:
            error = ("macro argument list entries are written name=value",
                     _next_non_space(source, after))
            break
        args[key.lower()] = value
        last = k == len(parsed) - 1
        if not closed and last and not trailing_comma:
            error = ("unterminated parameter list", len(source))
            break
    else:
        if not closed:
            error = ("expected a name in macro argument list", len(source))
    if error is not None:
        with pytest.raises(MacroSyntaxError) as exc:
            scan(source)
        assert (exc.value.message, exc.value.line, exc.value.col) == \
            (error[0], *_line_col(source, error[1]))
        return
    records = _positioned_scan(source)
    assert len(records) == (prefix.strip() != "") + 1
    assert records[-1] == duplicate or \
        (duplicate is None and records[-1] == ("call", *_line_col(source, len(prefix)), name, args))


_PARAM = st.tuples(
    _GAP, st.sampled_from(["a", "A", "b", "_c", "1a", "²"]), _GAP, st.booleans(),
    st.lists(st.sampled_from(["1", "x", " ", "\n", "=", "&a", "(1,2)", "f(1, (2))"]),
             max_size=4).map("".join))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["", "%put a;\n", "  "]), st.sampled_from(["m", "M", "mAc_1"]), _GAP,
       st.none() | st.lists(_PARAM, max_size=3), st.booleans(), _GAP, st.booleans(),
       st.booleans())
@example("", "m", "", [("", "a", "", True, "(1,2)"), (" ", "b", "", False, "")],
         True, "", True, True)
@example("", "m", "", [("", "a", "", True, "1"), ("", "A", "", False, "")], False, "", True, True)
@example("", "m", "", [("", "a", "", True, "f(1, (2))")], False, "", False, True)
@example("", "m", "", [("", "a", " ", False, "")], False, "", False, True)
@example("", "m", "", [("", "²", "", True, "1")], False, "", True, True)
@example("", "m", " ", [], False, "", True, False)
def test_macro_header_gives_its_record_or_a_positioned_error(
        prefix, name, gap, params, trailing_comma, space_before_close, closed, semicolon):
    """Oracle: `%macro name`, optionally `(` and entries `name[=value]`
    separated by ',' with an optional trailing ',' and `)`, then `;`.  A name
    starts with a letter or `_`, a value runs to a top-level ',' or ')' and is
    stripped, a name without `=` defaults to '', and names compare lowercased.
    The first repeated name gives an ERROR record, unless a syntax error
    follows; a syntax error raises at the next non-space character."""
    source = prefix + "%macro " + name + gap
    parsed = []  # (offset of the name, name, offset after it and its space, value or None)
    if params is not None:
        source += "("
        for k, (lead, key, space, equals, value) in enumerate(params):
            source += lead
            at = len(source)
            source += key + space
            parsed.append((at, key, len(source), value.strip() if equals else None))
            source += "=" + value if equals else ""
            if k < len(params) - 1:
                source += ","
        if params and trailing_comma:
            source += ","
        source += space_before_close + ")" * closed
    header_end = len(source)
    source += ";" * semicolon
    body_start = len(source)
    source += "\n%put &a;\n%mend;"
    defaults, duplicate, error = {}, None, None
    for k, (at, key, after, value) in enumerate(parsed):
        if not (key[0].isalpha() or key[0] == "_"):
            error = ("expected a name in macro parameter list", at)
            break
        if key.lower() in defaults and duplicate is None:
            duplicate = ("error", *_line_col(source, at), DuplicateParamError, key)
        defaults[key.lower()] = "" if value is None else value
        if not closed and k == len(parsed) - 1 and not trailing_comma:
            error = (("unterminated parameter list", len(source)) if value is not None else
                     ("expected ',' or ')' in macro parameter list", _next_non_space(source, after)))
            break
    else:
        if params is not None and not closed:
            error = ("expected a name in macro parameter list", _next_non_space(source, header_end))
        elif not semicolon:
            error = ("expected ';' after %macro header", _next_non_space(source, header_end))
    if error is not None:
        with pytest.raises(MacroSyntaxError) as exc:
            scan(source)
        assert (exc.value.message, exc.value.line, exc.value.col) == \
            (error[0], *_line_col(source, error[1]))
        return
    records = _positioned_scan(source)
    assert len(records) == (prefix.strip() != "") + 1
    if duplicate is not None:
        assert records[-1] == duplicate
        return
    kind, line, col, definition, _ = records[-1]
    assert (kind, line, col) == ("macro", *_line_col(source, len(prefix)))
    assert (definition.name, list(definition.params.items()), definition.body_text,
            definition.body_line, definition.body_col) == \
        (name.lower(), list(defaults.items()), "\n%put &a;\n", *_line_col(source, body_start))


_TABLES = [_table({"a": "&b.", "ab": "1", "a²": "&1"}, "m#1"),
           _table({"a": "0", "b": "&a1 2", "a1": "x", "_": "&_", "b_": "&ab&ab", "bb": "&a &b"})]


def _search_loop_resolve(text, tables, trace, _depth=0):
    """`resolve_text` as one `_REF.search` loop per level, kept as a reference
    for the split: text between references is copied as it is found."""
    if "&" not in text:
        return text
    pieces, i, pos = [], 0, 0
    while (ref := maclang._REF.search(text, pos)) is not None:
        pos = ref.end()
        name = ref.group(1)
        if not (name[0].isalpha() or name[0] == "_"):
            continue
        key = name.lower()
        owner = next((t for t in tables if key in t.entries), None)
        if owner is None:
            raise UnresolvedRefError(name)
        if _depth >= maclang.RESCAN_LIMIT:
            raise DepthExceededError(f"resolving '&{name}'", maclang.RESCAN_LIMIT,
                                     "rescans (self-referential value?)")
        entry = owner.entries[key]
        trace.emit(EventKind.VAR_RESOLVED, key, entry, owner.trace_label)
        pieces.append(text[i:ref.start()])
        pieces.append(_search_loop_resolve(entry, tables, trace, _depth + 1))
        i = pos
    pieces.append(text[i:])
    return "".join(pieces)


@settings(max_examples=300, deadline=None)
@given(st.text("&ab1_ .²", max_size=20))
@example("&a&B &ab.&1&²&bb")
@example("x&_")
def test_resolve_text_matches_the_search_loop(text):
    def resolved(resolve):
        sink = TraceSink()
        outcome = _outcome(lambda t: resolve(t, _TABLES, sink), text)
        return outcome, [(ev.subject, ev.table, ev.text)
                         for ev in of_kind(sink.events, EventKind.VAR_RESOLVED)]

    texts = [text] + [entry for table in _TABLES for entry in table.entries.values()]
    templates = {t: maclang._template(t) for t in texts if "&" in t}
    split = dict(templates)

    def templated(t, tables, sink):
        return resolve_text(t, tables, sink, templates)

    expected = resolved(_search_loop_resolve)
    assert resolved(resolve_text) == expected
    assert resolved(templated) == expected
    assert resolved(templated) == expected
    assert templates == split


_EVAL_OR_CLOSE = re.compile(r"%eval[ \t]*\(|\)", re.I)


def _stack_loop_apply_evals(text, trace):
    """`_apply_evals` as one stack loop over every call, kept as a reference
    for the walk that evaluates an un-nested call where it closes."""
    out, stack, closed = [], [], []
    i = pos = 0
    while (tok := (_EVAL_OR_CLOSE if stack else maclang._EVAL).search(text, pos)) \
            is not None:
        hit = tok.start()
        if stack:
            stack[-1][1] += text.count("(", pos, hit)
        pos = tok.end()
        if text[hit] == "%":
            (stack[-1][0] if stack else out).append(text[i:hit])
            stack.append([[], 0])
            i = pos
        elif stack[-1][1]:
            stack[-1][1] -= 1
        else:
            pieces = stack.pop()[0]
            pieces.append(text[i:hit])
            i = pos
            closed.append(pieces)
            if stack:
                stack[-1][0].append(len(closed) - 1)
                continue
            results = []
            for call in closed:
                inner = "".join(p if isinstance(p, str) else results[p] for p in call)
                results.append(str(eval_arith(inner)))
                trace.emit(EventKind.ARITH_EVAL, inner.strip(), results[-1])
            out.append(results[-1])
            closed.clear()
    if stack:
        raise ArithSyntaxError("unterminated %eval(...)")
    out.append(text[i:])
    return "".join(out)


_EVAL_OPEN = st.sampled_from(["%eval(", "%EVAL (", "%eval\t(", "%Eval \t("])
_EVAL_OPERAND = st.sampled_from(["1", "2", "0", "3+4", "2*(3)", "((1)", "1/0", "-5", "(", ")", " ", "x"])
_EVAL_CALLS = st.recursive(
    _EVAL_OPERAND,
    lambda inner: st.builds(lambda open_, parts, close: open_ + "".join(parts) + close,
                            _EVAL_OPEN, st.lists(inner, max_size=3), st.sampled_from([")", ")", ""])),
    max_leaves=8)


@settings(max_examples=400, deadline=None)
@given(st.lists(_EVAL_CALLS | st.sampled_from(["(", ")", " w ", "%eval("]), max_size=5).map("".join))
@example("%eval(1) %eval(")
@example("%eval(1/0) %eval(")
@example("%eval(1 %eval(2)")
@example("%eval(2*(3)) )")
@example("%eval(((1)) + 2) w")
@example("x %eval(%eval(1)+%eval(2)) %eval(4)")
@example("%eval(%eval(1)+%eval(2)*%eval(3))")
@example("%eval((%eval((1))+2)*(3))")
@example("%eval(%eval(%eval(1)) %eval(2)")
@example("w %eval(1) %eval(%eval(2)+%eval(3)) %eval(4)")
def test_apply_evals_matches_the_stack_loop(text):
    outcomes = []
    for apply in (maclang._apply_evals, _stack_loop_apply_evals):
        sink = TraceSink()
        outcome = _outcome(lambda t: apply(t, sink), text)
        outcomes.append((outcome, [(ev.subject, ev.text)
                                   for ev in of_kind(sink.events, EventKind.ARITH_EVAL)]))
    assert outcomes[0] == outcomes[1]


# --- the scanner against a reference: the earlier scanner, kept verbatim, which
# made a TEXT record for each open-code word, read a call whose values hold no
# '(', ')' or ',' with one pattern and every other list through step helpers

LET, PUT, CALL, MACRO, TEXT, ERROR = "let", "put", "call", "macro", "text", "error"

_COMMENT = re.compile(r"/\*.*?(\*/|\Z)", re.S)  # an unclosed comment runs to the end
_NOT_NEWLINE = re.compile(r"[^\n]")
_SPACE = re.compile(r"\s*")
_WORD = re.compile(r"\w+")
_OPEN_CODE = re.compile(r"\d+|[-+*/()=;,]|[^\s%&+\-*/()=;,]+")
# a whole `%let` statement: its '%', name, '=' and value to ';'
_LET_STATEMENT = re.compile(r"\s*(%)let(?!\w)\s*(\w+)\s*=([^;]*);?", re.I)
# a whole macro call whose values hold no '(', ')' or ',': its '%', name and
# `name=value` entries, each ended by ',' but the last
_CALL_STATEMENT = re.compile(
    r"\s*(%)(\w+)\s*\(((?:\s*\w+\s*=[^(),]*,)*(?:\s*\w+\s*=[^(),]*)?)\s*\)")
_CALL_ENTRY = re.compile(r"(\w+)\s*=([^,]*)")
_KEYWORDS = frozenset(("let", "put", "macro", "mend", "eval"))  # never a call
_PUT_END = re.compile(r";|(?=%(?:let|put|macro|mend)(?!\w))", re.I)
_NESTING = re.compile(r"%(?:(macro)|mend)(?!\w)", re.I)
_VALUE_END = re.compile(r"[(),]")
# The loops call `pattern.search`, not `finditer`: on CPython 3.11 every
# `finditer` call leaves a fresh "search" string in the interpreter's method
# cache, which the benchmark's peak memory counted.



def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _call_args(entries: str) -> dict[str, str] | None:
    """{lowercased name: stripped value} of the entries `_CALL_STATEMENT`
    read, or None when a name does not start as a name or repeats."""
    args: dict[str, str] = {}
    for name, value in _CALL_ENTRY.findall(entries):
        if not _is_ident_start(name[0]) or (key := name.lower()) in args:
            return None
        args[key] = value.strip()
    return args


class _ReferenceScanner:
    """Single pass over offsets; `%let`, `%put`, `%macro`, and macro calls
    capture raw text so stored values keep their source spelling."""

    def __init__(self, source: str, line: int = 1, col: int = 1):
        self._mark, self._line, self._col = 0, line, col
        # _pos reads the source while comments are blanked; blanking moves
        # no offset and keeps every line break
        self.src = source
        self.src = _COMMENT.sub(self._blank, source)
        self.i = 0
        self.stmts: list[tuple] = []

    def _blank(self, comment: re.Match) -> str:
        if not comment.group(1):
            raise LexError("unterminated comment", *self._pos(comment.start()))
        return _NOT_NEWLINE.sub(" ", comment.group())

    def _pos(self, i: int) -> tuple[int, int]:
        """(line, col) of offset i; the offsets asked for never decrease."""
        newlines = self.src.count("\n", self._mark, i)
        if newlines:
            self._line += newlines
            self._col = i - self.src.rindex("\n", self._mark, i)
        else:
            self._col += i - self._mark
        self._mark = i
        return self._line, self._col

    def _error(self, message: str) -> MacroSyntaxError:
        return MacroSyntaxError(message, *self._pos(_SPACE.match(self.src, self.i).end()))

    def _ident_at(self, i: int) -> str:
        """The identifier starting at offset i, or ''."""
        if i < len(self.src) and _is_ident_start(self.src[i]):
            return _WORD.match(self.src, i).group()
        return ""

    def _skip_space(self):
        self.i = _SPACE.match(self.src, self.i).end()

    def _peek(self, ch: str) -> bool:
        """Skip whitespace; whether the next character is ch."""
        self._skip_space()
        return self.src.startswith(ch, self.i)

    def _take(self, ch: str) -> bool:
        if self._peek(ch):
            self.i += 1
            return True
        return False

    def _expect_name(self, message: str) -> str:
        self._skip_space()
        name = self._ident_at(self.i)
        if not name:
            raise self._error(message)
        self.i += len(name)
        return name

    def scan(self) -> list[tuple]:
        src = self.src
        while True:
            if (let := _LET_STATEMENT.match(src, self.i)) and _is_ident_start(let[2][0]):
                self.stmts.append((LET, *self._pos(let.start(1)), let[2].lower(),
                                   let[3].strip()))
                self.i = let.end()
                continue
            if ((call := _CALL_STATEMENT.match(src, self.i)) and _is_ident_start(call[2][0])
                    and call[2].lower() not in _KEYWORDS
                    and (args := _call_args(call[3])) is not None):
                self.stmts.append((CALL, *self._pos(call.start(1)), call[2], args))
                self.i = call.end()
                continue
            if (start := _SPACE.match(src, self.i).end()) == len(src):
                return self.stmts
            line, col = self._pos(start)
            ch = src[start]
            if ch in "%&":
                name = self._ident_at(start + 1)
                if not name:
                    raise LexError(f"stray {ch!r}", line, col)
                self.i = start + 1 + len(name)
                if ch == "&":
                    self.stmts.append((TEXT, line, col, name, None))
                else:
                    self._statement(name, line, col)
            else:
                word = self._ident_at(start) or _OPEN_CODE.match(src, start).group()
                self.i = start + len(word)
                self.stmts.append((TEXT, line, col, word, None))

    def _statement(self, name: str, line: int, col: int):
        kw = name.lower()
        if kw == "macro":
            self._macro(line, col)
        elif kw == "mend":
            self.stmts.append((ERROR, line, col, MacroSyntaxError, "%mend without %macro"))
        elif kw == "let":  # the loop head read every well-formed %let
            self._expect_name("expected a name after %let")
            raise self._error("expected '=' in %let")
        elif kw == "put":
            # raw text to ';'; a following macro statement keyword also ends
            # it, so a missing semicolon does not swallow the next statement
            end = _PUT_END.search(self.src, self.i)
            stop = end.start() if end else len(self.src)
            self.stmts.append((PUT, line, col, self.src[self.i:stop].strip(), None))
            self.i = end.end() if end else stop
        elif kw == "eval":
            self.stmts.append((TEXT, line, col, "%" + name, None))
        else:
            args, duplicate = {}, None
            if self._peek("("):
                args, duplicate = self._param_list("macro argument list", values_optional=False)
            self.stmts.append(duplicate or (CALL, line, col, name, args))

    def _param_list(self, what: str, values_optional: bool) -> tuple[dict, tuple | None]:
        """Read `(name[=value], ...)` into {lowercased name: raw value}.  The
        first repeated name comes back as an ERROR record for the caller."""
        self.i += 1
        entries: dict[str, str] = {}
        duplicate = None
        while not self._take(")"):
            name = self._expect_name(f"expected a name in {what}")
            key = name.lower()
            if key in entries and duplicate is None:
                duplicate = (ERROR, *self._pos(self.i - len(name)), DuplicateParamError, name)
            if self._take("="):
                entries[key] = self._raw_value()
            elif values_optional:
                entries[key] = ""
            else:
                raise self._error(f"{what} entries are written name=value")
            if not self._take(",") and not self._peek(")"):
                raise self._error(f"expected ',' or ')' in {what}")
        return entries, duplicate

    def _raw_value(self) -> str:
        """Capture a parameter/argument value up to a top-level ',' or ')'."""
        depth, end = 0, self.i
        while (stop := _VALUE_END.search(self.src, end)) is not None:
            end = stop.end()
            if stop.group() == "(":
                depth += 1
            elif depth == 0:
                value = self.src[self.i:stop.start()].strip()
                self.i = stop.start()
                return value
            elif stop.group() == ")":
                depth -= 1
        self.i = len(self.src)
        raise self._error("unterminated parameter list")

    def _macro(self, line: int, col: int):
        name = self._expect_name("expected a macro name after %macro")
        params, duplicate = {}, None
        if self._peek("("):
            params, duplicate = self._param_list("macro parameter list", values_optional=True)
        if not self._take(";"):
            raise self._error("expected ';' after %macro header")
        body_line, body_col = self._pos(self.i)
        body = self._body()
        if duplicate is not None:
            self.stmts.append(duplicate)
        elif body is None:
            self.stmts.append((ERROR, line, col, UnterminatedMacroError, name))
        else:
            self.stmts.append((MACRO, line, col, MacroDef(
                name.lower(), params, body, body_line, body_col), None))

    def _body(self) -> str | None:
        """Capture the body verbatim up to the matching %mend and consume
        `%mend [name] [;]`; None when the source ends first."""
        start, depth = self.i, 0
        while (keyword := _NESTING.search(self.src, self.i)) is not None:
            self.i = keyword.end()
            if keyword.group(1):
                depth += 1
            elif depth:
                depth -= 1
            else:
                self._skip_space()
                self.i += len(self._ident_at(self.i))
                self._take(";")
                return self.src[start:keyword.start()]
        self.i = len(self.src)
        return None


# no run of these words names a macro after a keyword, which `scan` rejects
# and the reference accepts
_SCAN_WORDS = st.sampled_from(_SOUP_WORDS + [
    "%macro m(", "%MACRO m", "%macro m;", "%macro m()", "a", "A", "b=", "=1", " = x", "(1,2)",
    "f(1, (2))", "1a", "%m(", "%M (", "%m()", "a=1", "a=1,", "a,", ");", ")\n", "%mend;",
    "%mend m ;", "%put x;", "&a", "%eval(1)", "%LET x=", "%let a b", "%Mend", "&1", "%1",
])


def _records(records):
    """Records with each mapping as its item list and each MacroDef as its
    fields, so that the order of names is compared too."""
    def plain(field):
        if isinstance(field, Mapping):
            return list(field.items())
        if isinstance(field, MacroDef):
            return (field.name, list(field.params.items()), field.body_text,
                    field.body_line, field.body_col)
        return field
    return [tuple(plain(field) for field in record) for record in records]


def _scan_outcome(scanner, source, line, col):
    try:
        return _records(scanner(source, line, col))
    except LazyLabError as err:
        return type(err), err.message, err.line, err.col


@settings(max_examples=500, deadline=None)
@given(st.lists(_SCAN_WORDS, max_size=30).map("".join) | st.text(max_size=30),
       st.integers(1, 3), st.integers(1, 3))
@example("%let x=1;\nwords &x (2 20 7) %eval(1) %put [&x];\n", 1, 1)
@example("%macro m(a, b=(1,2)) ; %put &a|&b; %mend m;\n%m(a=x) %M (A=f(1, (2)),)", 2, 3)
@example("%m(a=1, A=2) %m(a b) %m(1a=2)", 1, 1)
@example("%m(\n a )", 1, 1)
@example("%put a;\n  %m() %M ( ) %m(\n) %m(\t \r\n ) %put b;", 1, 1)
@example("%macro m(a b); %mend;", 1, 1)
@example("%macro m(a=1,a=2 %mend;", 1, 1)
def test_scan_matches_the_reference(source, line, col):
    """The same records, with the reference's TEXT records dropped, or the
    same error class, message, line and column."""
    def reference(text, line, col):
        return [r for r in _ReferenceScanner(text, line, col).scan() if r[0] != TEXT]

    assert _scan_outcome(_positioned_scan, source, line, col) == \
        _scan_outcome(reference, source, line, col)
