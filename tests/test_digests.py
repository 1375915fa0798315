"""Differential digests: every run's trace, pinned by a SHA-256 per input.

For each input below, the digest covers the `trace_jsonl(events, metrics)`
lines of a traced run or, when the run raises a `LazyLabError`, the partial
trace plus `type|message|line|col`.  tests/golden/digests.json holds the
first 16 hex digits of each.  A change that alters any trace, output or
error position fails here and names the first input that differs; a change
that means to alter them rewrites the manifest and says why:

    PYTHONPATH=src python tests/test_digests.py
"""

import hashlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lazylab.cli import _read_input
from lazylab.errors import LazyLabError
from lazylab.lab import CELLS, run, run_with_metrics, trace_jsonl
from lazylab.syntax import NESTING_LIMIT

from conftest import STRATEGIES, cell_runs

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden" / "digests.json"
sys.path.append(str(ROOT / "bench"))

import workloads  # noqa: E402  (bench/workloads.py)

# Each error program raises a LazyLabError; funclang ones run under every
# strategy.  The "-chain" ones fail inside a chain of binary operators.
FUNC_ERRORS = {
    "unbound-in-chain": "x <- 1 + 2 + y + 4\n",
    "closure-in-chain": "f <- function(a) { a }\nx <- 1 + f + 2\n",
    "closure-last-in-chain": "f <- function(a) { a }\nx <- 1 * 2 * f\n",
    "vector-in-chain": "v <- c(1, 2)\nx <- 3 - 1 - v - 4\n",
    "division-by-zero-in-chain": "x <- 2 * 3 / (1 - 1) + 4\n",
    "overflow-in-chain": (
        "a <- 100000000000000000000000000000000000000000000000000\n"
        + "".join(f"a <- a * a * {k}\n" for k in range(1, 17))
    ),
    "unbound-after-forces-in-chain": "f <- function(a, b) { a + b + a + zz }\nprint(f(1, 2))\n",
    "unbound-in-print-chain": "print(1 + 2 * (3 - q))\n",
    "unbound-in-default-chain": "f <- function(a, b = a + 1 + c0) { b }\nf(1)\n",
    "vector-element-closure": "f <- function(a) { a }\nx <- c(1, f)\n",
    "call-of-number": "x <- 5\nx(1)\n",
    "too-many-arguments": "f <- function(a) { a }\nf(1, 2)\n",
    "unknown-named-argument": "f <- function(a) { a }\nf(b = 1)\n",
    "missing-argument": "f <- function(a) { a + 1 }\nf()\n",
    "self-default": "f <- function(x = x) { x }\nf()\n",
    "division-by-zero-default": "f <- function(a = 1 / 0) { a }\nf()\n",
    "nested-call": (
        "g <- function(b) { b + zz }\n"
        "f <- function(a) { g(a) * 2 }\n"
        "print(f(1))\n"
    ),
    "escaped-closure": (
        "mk <- function(a) { function(b) { a + b } }\n"
        "h <- mk(1)\n"
        "h(2)\n"
    ),
    "parse-error": "x <- 1 + 2 +\n",
    "lex-error": "x <- 1 $ 2\n",
    "vector-trailing-comma": "x <- c(1, )\n",
    "arguments-without-comma": "f <- function(a, b) { a }\nf(1 2)\n",
    "duplicate-named-argument": "f <- function(a) { a }\nf(a = 1, a = 2)\n",
    "duplicate-parameter": "f <- function(a, a) { a }\n",
    "empty-default": "f <- function(a = ) { a }\n",
    "parameters-without-comma": "f <- function(a b) { a }\n",
    "operator-without-operand": "x <- 1 * * 2\n",
    "unclosed-parenthesis": "x <- (1 + 2\n",
    "operand-missing-in-parentheses": "x <- 2 * (3 - )\n",
    "print-two-arguments": "print(1, 2)\n",
    "division-by-zero-mid-chain": "x <- 1 - 2 / 0 * 3\n",
}

# a macro whose calls the call spellings below read
_TWO_PARAMS = "%macro m(a=0, b=0); %put &a|&b; %mend;\n"

MACRO_ERRORS = {
    "unresolved": "%let a=1;\n%put &a &ghost;\n",
    "unknown-param": "%macro m(a); %put &a; %mend;\n%m(b=1)\n",
    "unknown-macro": "%put before;\n%nope()\n",
    "unterminated-macro": "%macro m(); %put x;\n",
    "eval-division-by-zero": "%let z=0;\n%put %eval(1 + 2 / &z);\n",
    "eval-syntax": "%put %eval(1+);\n",
    "eval-name": "%let a=2;\n%put %eval(&a + x);\n",
    "self-reference": "%macro m(a=&a); %put &a; %mend;\n%m()\n",
    "duplicate-param": "%macro m(a, a); %mend;\n",
    "nested-invocation": (
        "%macro inner(); %put &nope; %mend;\n"
        "%macro outer(); %put out; %inner() %mend;\n"
        "%outer()\n"
    ),
    "unterminated-eval": "%put %eval(1+2;\n",
    "eval-adjacent-group": "%put %eval((1 2));\n",
    "eval-adjacent-integers": "%put %eval(1 2);\n",
    "eval-empty": "%put %eval();\n",
    "eval-lone-minus": "%put %eval(-);\n",
    "eval-operand-missing-in-group": "%put %eval(1+(2*)3);\n",
    "eval-division-by-zero-in-group": "%put %eval(--(1/(2-2)));\n",
    "eval-division-by-zero-before-group": "%put %eval(1/0 (2));\n",
    "eval-trailing-plus": "%put %eval(2*(3+4)/0 +);\n",
    "eval-unary-plus": "%put %eval(+1);\n",
    "let-without-equals": "%let x 1;\n",
    "let-without-equals-on-next-line": "%let x\n  1;\n",
    "let-without-name": "%let =1;\n",
    "let-name-starts-with-digit": "%let 1x=2;\n",
    "let-name-starts-with-superscript": "%let \u00b2=1;\n",
    "let-at-end": "%let",
    "let-joined-to-name": "%letx=1;\n",
    "let-value-over-lines-then-unresolved": "%let x=a\n  b\n  c;\n   %put &nope;\n",
    "let-in-body-then-unresolved": (
        "%macro m();\n"
        "  %let a=1;\n"
        "  %put &zz;\n"
        "%mend;\n"
        "%m()\n"
    ),
    "let-joined-to-digit": "%let2=3;\n",
    "let-name-starts-with-fraction": "%let \u00bd=1;\n",
    "indented-let-unresolved-in-value": "%put a;\n  %let x=&nope;\n",
    "call-entry-without-value": _TWO_PARAMS + "%m(a)\n",
    "call-name-starts-with-digit": _TWO_PARAMS + "%m(1a=2)\n",
    "call-duplicate-in-other-case": _TWO_PARAMS + "%m(A=2, a=3)\n",
    "call-unterminated": _TWO_PARAMS + "%m(a=1\n",
    # a statement's position is worked out only when it fails: from a body's
    # records scanned on an earlier invocation, after a gap of more than 256
    # characters, and in a body that starts on a header's second CRLF line
    "body-fails-on-second-invocation": "%macro m(a=x);\n  %put &a;\n%mend;\n%m()\n%m(a=&nope)\n",
    "put-after-long-let": "%let x=" + "v" * 300 + ";%put &nope;\n",
    "body-after-header-over-crlf-lines": "%macro m(a=1,\n  b=2); %put &zz;\r\n%mend;\r\n%m()\r\n",
}

# Each edge program runs to the end: `%let`, `%put` and macro call spellings
# the scanner reads without an error.
MACRO_EDGES = {
    "let-upper-case-spaced": "%LET X = 1 ;\n",
    "let-tab-and-newlines": "%let\tx\n=\n1;\n",
    "let-without-semicolon-at-end": "%let x=1",
    "let-empty-value": "%let x=;\n",
    "let-comment-in-value": "%let x=a /* c ; */ b;\n",
    "put-ended-by-let": "%put a\n%let y=2;\n",
    "let-mixed-case-keyword": "%LeT x=1;\n%put [&x];\n",
    "let-underscore-name": "%let _x=1; %put &_x;\n",
    "let-non-ascii-name": "%let \u00e9=1; %put &\u00e9;\n",
    "let-statements-without-space": "%let x=1;%let y=2;%put &x&y;\n",
    "let-value-over-crlf": "%let x=a\r\nb;\r\n%put [&x];\n",
    "call-spaced": _TWO_PARAMS + "%m ( a = 1 , b = 2 )\n",
    "call-over-lines-mixed-case": _TWO_PARAMS + "%M\n(A=1,\n b = 3)\n",
    "call-empty-spaced": _TWO_PARAMS + "%m( )\n",
    "call-trailing-comma": _TWO_PARAMS + "%m(a=1,)\n",
    "call-value-with-equals": _TWO_PARAMS + "%m(a=x=y)\n",
    "call-value-with-space": _TWO_PARAMS + "%m(a=1 b=2)\n",
    "call-value-with-parentheses": _TWO_PARAMS + "%m(a=f(1,2))\n",
    "put-written-as-call": _TWO_PARAMS + "%put(a=1)\n",  # prints (a=1): a keyword is never a call
}

BENCH_WORKLOADS = ("call_chain", "macro_invoke", "macro_store")


def _corpus(name, strategies=(*STRATEGIES, None)):
    def inputs():
        for seed, lang, strategy, source in cell_runs(name):
            if strategy in strategies:
                # a bundled program's key is its file name without the suffix
                yield f"{str(seed).partition('.')[0]}/{strategy or '-'}", lang, strategy, source
    return inputs


def _workload(workload):
    def inputs():
        for i, case in enumerate(workloads.build(workload, 1)):
            for strategy in case.strategies:
                yield f"{i}/{strategy}", case.lang, strategy, case.source
    return inputs


def _edges():
    for name, source in MACRO_EDGES.items():
        yield f"{name}/-", "macro", None, source


def _errors():
    for name, source in FUNC_ERRORS.items():
        for strategy in STRATEGIES:
            yield f"{name}/{strategy}", "func", strategy, source
    for name, source in MACRO_ERRORS.items():
        yield f"{name}/-", "macro", None, source


# input set -> its (key, lang, strategy, source) inputs, in manifest order
SETS = {
    "program": _corpus("program"),
    # the contrast that generate_divergent makes
    "divergent": _corpus("divergent", ("need", "name")),
    **{w: _workload(w) for w in BENCH_WORKLOADS},
    "bundled": _corpus("bundled"),
    "edge": _edges,
    "error": _errors,
}


def _digest(lang: str, strategy: str | None, source: str) -> str:
    try:
        _, metrics, events = run_with_metrics(source, lang, strategy)
        lines = trace_jsonl(events, metrics)
    except LazyLabError as err:
        lines = trace_jsonl(err.partial_trace)
        lines.append(f"{type(err).__name__}|{err.message}|{err.line}|{err.col}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def compute(name: str) -> dict[str, str]:
    return {f"{name}/{key}": _digest(lang, strategy, source)
            for key, lang, strategy, source in SETS[name]()}


@pytest.mark.parametrize("name", SETS)
def test_digests_match_manifest(name):
    expected = {k: v for k, v in json.loads(MANIFEST.read_text()).items()
                if k.split("/", 1)[0] == name}
    actual = compute(name)
    assert expected, f"the manifest has no {name!r} inputs"
    for key in [*expected, *actual]:
        assert actual.get(key) == expected.get(key), f"first differing input: {key}"


def _outcome(attempt):
    """The lines a run prints, or the type, message and position of its error."""
    try:
        return attempt()
    except LazyLabError as err:
        return type(err), err.message, err.line, err.col


@pytest.mark.parametrize("name", SETS)
def test_plain_runs_match_traced_runs(name):
    """A run without a sink, which skips every event, prints what a traced
    run prints and fails where it fails."""
    for key, lang, strategy, source in SETS[name]():
        plain = _outcome(lambda: run(source, lang, strategy)[0])
        traced = _outcome(lambda: run_with_metrics(source, lang, strategy)[0])
        assert plain == traced, f"first differing input: {name}/{key}"


# Token soup for both engines: funclang's tokens, maclang's statements and
# references, characters that are not name characters, and runs that nest
# past the parser's NESTING_LIMIT.
_SOUP_WORDS = [
    "a", "x", "c", "print", "function", "f", "7", "2.5", "+", "-", "*", "/",
    "(", ")", "{", "}", ",", "<-", "=", "\n", "\n(", "f(", "c(1, ", "1 + (",
    "f()(", "function(a, b = 1) {", "x <- ", "print(", "%let ", "%put ",
    "%macro ", "%mend", "%eval(", "%m", "%", "&", "&x", ";", "/*", "*/",
    "_user_", "\t", "\r", "\u00b2", "\u0130", "(" * (NESTING_LIMIT + 1), "c(" * 60,
]
_BYTES = st.one_of(
    st.lists(st.sampled_from(_SOUP_WORDS), max_size=30).map(" ".join).map(str.encode),
    st.text(max_size=30).map(lambda text: text.encode("utf-8", "surrogatepass")),
    st.binary(max_size=30),
)


@settings(max_examples=500, deadline=None)
@given(_BYTES)
def test_any_input_prints_or_fails_at_a_position(data):
    """Any bytes, read as the CLI reads a file, end in output or in a
    positioned LazyLabError, the same with and without a trace, in both
    engines and under each strategy."""
    with mock.patch.object(sys, "stdin", SimpleNamespace(buffer=io.BytesIO(data))):
        source = _outcome(lambda: _read_input("-"))
    if not isinstance(source, str):  # not UTF-8: an error at the first bad byte
        assert None not in source[2:]
        return
    for lang, strategy in CELLS:
        plain = _outcome(lambda: run(source, lang, strategy)[0])
        traced = _outcome(lambda: run_with_metrics(source, lang, strategy)[0])
        assert plain == traced, (lang, strategy)
        assert isinstance(plain, list) or None not in plain[2:], (lang, strategy)


def test_error_programs_fail():
    """Every error program raises, so each of its digests pins an error."""
    for key, lang, strategy, source in _errors():
        with pytest.raises(LazyLabError):
            run_with_metrics(source, lang, strategy)


if __name__ == "__main__":
    manifest = {k: v for name in SETS for k, v in compute(name).items()}
    MANIFEST.write_text(json.dumps(manifest, indent=0) + "\n")
    print(f"wrote {MANIFEST}")
