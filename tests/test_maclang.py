import time

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
    UnknownMacroError,
    UnknownParamError,
    UnresolvedRefError,
    UnterminatedMacroError,
)
from lazylab import maclang
from lazylab.lab import run_with_metrics
from lazylab.maclang import (
    MacroSession,
    SymbolTable,
    eval_arith,
    resolve_text,
    run_session,
    scan,
)
from lazylab.trace import EventKind, TraceSink


def _table(entries, label="global", scope="GLOBAL"):
    return SymbolTable(label, scope, dict(entries))


class TestScanner:
    def test_let_statement(self):
        assert scan("%let x=2;") == [("let", 1, 1, "x", "2")]

    def test_empty_source(self):
        assert scan("") == []

    def test_reference_fragment(self):
        assert scan("&x*10") == [("text", 1, 1, "x", None), ("text", 1, 3, "*", None),
                                 ("text", 1, 4, "10", None)]

    def test_put_keeps_eval_text_raw(self):
        assert scan("%put (&x %eval(&y));") == [("put", 1, 1, "(&x %eval(&y))", None)]

    def test_put_without_semicolon_stops_at_next_statement(self):
        assert scan("%put _user_\n%let x=2;") == [("put", 1, 1, "_user_", None),
                                                  ("let", 2, 1, "x", "2")]

    def test_macro_definition_tokens(self):
        [(kind, line, col, d, _)] = scan("%macro lazy(x=5,y=&x*10,z=&a+&b);\n%let x=2;\n%mend;")
        assert (kind, line, col) == ("macro", 1, 1)
        assert d.params == [("x", "5"), ("y", "&x*10"), ("z", "&a+&b")]
        assert (d.body_text, d.body_line, d.body_col) == ("\n%let x=2;\n", 1, 34)

    def test_comments_stripped(self):
        assert scan("%let x=2; /* a comment ; %let y=3; */") == [("let", 1, 1, "x", "2")]

    def test_unterminated_comment(self):
        with pytest.raises(LexError) as exc:
            scan("%let x=2; /* never closed")
        assert (exc.value.line, exc.value.col) == (1, 11)

    def test_stray_percent_and_ampersand(self):
        with pytest.raises(LexError):
            scan("% 5")
        with pytest.raises(LexError):
            scan("& 5")

    def test_token_positions(self):
        put = scan("%let x=2;\n%put &x;")[1]
        assert put[:3] == ("put", 2, 1)

    @pytest.mark.parametrize("source", [
        "%put " + "x " * 40000,
        "%macro m(); " + "x " * 40000,
    ])
    def test_unterminated_statements_scan_in_linear_time(self, source):
        start = time.perf_counter()
        scan(source)
        assert time.perf_counter() - start < 1.0

    def test_unterminated_comments_fail_in_linear_time(self):
        start = time.perf_counter()
        with pytest.raises(LexError) as exc:
            scan("/* " * 40000)
        assert time.perf_counter() - start < 1.0
        assert (exc.value.line, exc.value.col) == (1, 1)

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
        assert sink.count(EventKind.TABLE_CREATED) == sink.count(EventKind.TABLE_DELETED) == 1


class TestEvalArith:
    @pytest.mark.parametrize("text,expected", [
        ("2*10", 20),
        ("3+4", 7),
        ("7/2", 3),
        ("0-7/2", -3),
        ("(1+2)*3", 9),
        ("-4/3", -1),
        ("2 * 10", 20),
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


class TestResolveText:
    def test_chained_reference_rescans(self):
        tables = [_table({"x": "2", "y": "&x*10"}, "lazy#1", "LAZY")]
        sink = TraceSink()
        assert resolve_text("&y", tables, sink) == "2*10"
        assert [(ev.subject, ev.table) for ev in sink.events] == \
            [("y", "lazy#1"), ("x", "lazy#1")]

    def test_plain_text_passes_through(self):
        assert resolve_text("plain", [_table({})], TraceSink()) == "plain"

    def test_innermost_table_wins(self):
        inner = _table({"v": "inner"}, "m#1", "M")
        outer = _table({"v": "outer"})
        assert resolve_text("&v", [inner, outer], TraceSink()) == "inner"
        assert resolve_text("&v", [outer], TraceSink()) == "outer"

    def test_unresolved_reference(self):
        with pytest.raises(UnresolvedRefError) as exc:
            resolve_text("&ghost", [_table({})], TraceSink())
        assert exc.value.name == "ghost"

    def test_self_reference_exceeds_depth(self):
        with pytest.raises(DepthExceededError):
            resolve_text("&a", [_table({"a": "&a"})], TraceSink())

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
        assert d.params == [("x", "5"), ("y", "&x*10"), ("z", "&a+&b")]

    def test_empty_macro(self):
        session = MacroSession()
        session.run("%macro m(); %mend;")
        d = session.macros["m"]
        assert d.params == []
        assert d.body_text.strip() == ""

    def test_duplicate_parameter(self):
        with pytest.raises(DuplicateParamError):
            run_session("%macro m(a=1,a=2); %mend;")

    def test_duplicate_parameter_fires_after_earlier_statements(self):
        with pytest.raises(DuplicateParamError) as exc:
            run_with_metrics("%put a; %macro m(a=1,a=2); %mend;", "macro")
        assert (exc.value.line, exc.value.col) == (1, 22)
        assert [(ev.kind, ev.detail) for ev in exc.value.partial_trace] == [
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
        assert (exc.value.name, exc.value.line, exc.value.col) == ("a", 3, 9)
        assert session.log == ["before"]

    def test_override_beats_default(self):
        out = run_session("%macro lazy(x=5,y=&x*10);\n%put %eval(&y);\n%mend;\n%lazy(x=7)")
        assert out.log_lines == ["70"]

    def test_body_errors_carry_source_positions(self):
        with pytest.raises(UnresolvedRefError) as exc:
            run_session("%macro m(); %put &ghost; %mend;\n%m()")
        assert (exc.value.line, exc.value.col) == (1, 13)

    def test_table_deleted_even_on_error(self):
        sink = TraceSink()
        session = MacroSession(sink)
        with pytest.raises(UnresolvedRefError):
            session.run("%macro m(); %put &ghost; %mend;\n%m()")
        assert sink.count(EventKind.TABLE_CREATED) == sink.count(EventKind.TABLE_DELETED) == 1

    def test_invoke_returns_only_its_own_lines(self):
        session = MacroSession()
        session.run("%macro m(); %put inner; %mend;")
        session.put("before")
        session.invoke("m")
        assert session.log == ["before", "inner"]


class TestLetAndPut:
    def test_let_updates_innermost_table_defining_the_name(self):
        out = run_session(
            "%macro m(x=5);\n%let x=2;\n%put _user_;\n%mend;\n%m()"
        )
        assert out.log_lines == ["M X 2"]

    def test_let_creates_in_innermost_live_table(self):
        out = run_session("%macro m();\n%let a=3;\n%put _user_;\n%mend;\n%m()")
        assert out.log_lines == ["M A 3"]

    def test_let_at_top_level_goes_global(self):
        session = MacroSession()
        session.run("%let g=1;")
        assert session.global_table.entries == {"g": "1"}

    def test_let_resolves_before_storing(self):
        session = MacroSession()
        session.run("%let x=2;\n%let a=&x;\n%let x=9;")
        assert session.global_table.entries["a"] == "2"

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
        resolved = [ev.subject for ev in sink.of_kind(EventKind.VAR_RESOLVED)]
        assert resolved.count("y") == 2
        assert resolved.count("x") == 2
        assert sink.count(EventKind.ARITH_EVAL) == 2

    def test_empty_session(self):
        assert run_session("").log_lines == []

    def test_non_macro_tokens_go_to_the_compiler_stream(self, sas_prog1_listing):
        # a stray result line in the source must not disturb the log
        session = MacroSession()
        out = session.run(sas_prog1_listing + "(2 20 7)\n")
        assert out.log_lines[-1] == "(2 20 7)"
        assert out.log_lines.count("(2 20 7)") == 1
        assert "20" in session.compiler_stream

    def test_global_table_survives_whole_session(self):
        sink = TraceSink()
        session = MacroSession(sink)
        session.run("%let g=1;\n%macro m(); %put &g; %mend;\n%m()")
        assert session.run("%put &g;").log_lines == ["1", "1"]
        deleted = [ev.subject for ev in sink.of_kind(EventKind.TABLE_DELETED)]
        assert "global" not in deleted

    def test_store_as_text_byte_for_byte(self):
        sink = TraceSink()
        MacroSession(sink).run(
            "%macro lazy(x=5,y=&x*10,z=&a+&b);\n%mend;\n%lazy()"
        )
        stored = {
            ev.subject: ev.detail.split("text=", 1)[1]
            for ev in sink.of_kind(EventKind.VAR_STORED)
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
        created = [ev.subject for ev in sink.of_kind(EventKind.TABLE_CREATED)]
        deleted = [ev.subject for ev in sink.of_kind(EventKind.TABLE_DELETED)]
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


_SOUP = st.sampled_from([
    "%let ", "%put ", "%macro ", "%mend", "%eval(", "%m", "%", "&", "&x", "x", "=", ";",
    "(", ")", ",", " ", "\n", "\t", "/*", "*/", "1", "+", "²", "İ", "_user_",
])


@settings(max_examples=300, deadline=None)
@given(st.lists(_SOUP, max_size=30).map("".join) | st.text(max_size=30),
       st.integers(1, 5), st.integers(1, 5))
@example("²", 1, 1)
def test_scan_records_point_at_their_statements(source, line, col):
    try:
        records = scan(source, line, col)
    except LazyLabError:
        return
    line_starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
    for kind, rec_line, rec_col, a, b in records:
        k = rec_line - line
        at = line_starts[k] + rec_col - (col if k == 0 else 1)
        if kind == "text":
            assert source.startswith(a, at) or source.startswith("&" + a, at)
        elif kind == "error" and a is DuplicateParamError:
            assert source.startswith(b, at)
        else:
            assert source[at] == "%"
