"""Time each construct at a size n and at 4n: linear growth gives a ratio of
about 4, quadratic about 16.  Each n is chosen so that the 4n case takes at
least 20 ms on a 2-vCPU VM with Python 3.11, which keeps timer noise far below
the bound.  A failure here is a super-linear path, not a flaky test: find it,
do not loosen the bound."""

import gc
import time
from decimal import Decimal

import pytest

from lazylab.evaluator import run_program
from lazylab.lab import trace_jsonl
from lazylab.maclang import MacroSession, run_session
from lazylab.syntax import (
    Assign,
    Binary,
    Call,
    ExprStmt,
    FunctionDef,
    Ident,
    NumberLit,
    PrintStmt,
    Program,
    parse_source,
    program_source,
)
from lazylab.trace import TraceSink

BOUND = 8


def growth(run, small, large) -> float:
    """The least process time of three runs on `large` over that on `small`.
    The sizes alternate, so that a slow stretch of a shared machine falls on
    both, and the collector is off, so that a collection that falls into one
    size only does not count."""
    best = [float("inf"), float("inf")]
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            for k, arg in enumerate((small, large)):
                t0 = time.process_time()
                run(arg)
                best[k] = min(best[k], time.process_time() - t0)
    finally:
        gc.enable()
    return best[1] / best[0]


def straight_line(n: int) -> str:
    lines = "".join(f"x{i} <- x{i - 1} * 2 + {i}\n" for i in range(1, n))
    return f"x0 <- 1\n{lines}print(x0)\n"


def vector(n: int) -> str:
    return "v <- c(" + ", ".join(str(i) for i in range(n)) + ")\nprint(c(v, v))\n"


def function_body(n: int) -> str:
    body = "".join(f"  a{i} <- c(p, {i})\n  print(f(a{i}, q = 0 - {i}))\n" for i in range(n))
    return f"g <- function(p, q = p / 2) {{\n{body}  p\n}}\n"


def named_arguments(n: int) -> Program:
    """`f <- function(a0 = 0, ...) { a0 }` then `print(f(a0 = 0 + 1, ...))`,
    built as a tree: parsing it would cost more than the call."""
    params = tuple((f"a{i}", NumberLit(Decimal(i))) for i in range(n))
    args = tuple((f"a{i}", Binary("+", NumberLit(Decimal(i)), NumberLit(Decimal(1))))
                 for i in range(n))
    return Program((Assign("f", FunctionDef(params, (ExprStmt(Ident("a0")),))),
                    PrintStmt(Call(Ident("f"), args))))


def parameters(n: int) -> Program:
    """`f <- function(a0 = 0, ...) { a0 + ... }` then `print(f())`, built as
    a tree like named_arguments."""
    params = tuple((f"a{i}", NumberLit(Decimal(i))) for i in range(n))
    total = Ident("a0")
    for i in range(1, n):
        total = Binary("+", total, Ident(f"a{i}"))
    return Program((Assign("f", FunctionDef(params, (ExprStmt(total),))),
                    PrintStmt(Call(Ident("f"), ()))))


def body_statements(n: int) -> Program:
    """`f <- function() { a0 <- 0; a1 <- a0 + 1; ... }` then `print(f())`,
    built as a tree like named_arguments."""
    body = [Assign("a0", NumberLit(Decimal(0)))]
    body += (Assign(f"a{i}", Binary("+", Ident(f"a{i - 1}"), NumberLit(Decimal(1))))
             for i in range(1, n))
    return Program((Assign("f", FunctionDef((), (*body, ExprStmt(Ident(f"a{n - 1}"))))),
                    PrintStmt(Call(Ident("f"), ()))))


def name_rereads(n: int) -> Program:
    """`f <- function(a = 1, b = a) { b + b + ... }` then `print(f())`, built
    as a tree: under name each read of `b` evaluates its default again, which
    reads `a`.  CALL_DEPTH_LIMIT caps a promise chain's depth, so the number
    of re-reads is what scales."""
    total = Ident("b")
    for _ in range(1, n):
        total = Binary("+", total, Ident("b"))
    params = (("a", NumberLit(Decimal(1))), ("b", Ident("a")))
    return Program((Assign("f", FunctionDef(params, (ExprStmt(total),))),
                    PrintStmt(Call(Ident("f"), ()))))


def macro_arguments(n: int) -> str:
    params = ", ".join(f"p{i}=" for i in range(n))
    args = ", ".join(f"p{i}={i}" for i in range(n))
    return f"%macro m({params});\n%put &p0 &p{n - 1};\n%mend;\n%m({args})\n"


def nested_evals(n: int) -> str:
    return "%put " + "%eval(" * n + "1" + " + 1)" * n + ";\n"


def eval_sum(n: int) -> str:
    return "%put %eval(" + "+".join(["1"] * n) + ");\n"


def global_lets(n: int) -> str:
    return "".join(f"%let v{i}=x{i};\n" for i in range(n))


def macro_body(n: int) -> str:
    return f"%macro m();\n{global_lets(n)}%mend;\n%m()\n"


def macro_definitions(n: int) -> str:
    return "".join(f"%macro m{i}(a=);\n%put &a;\n%mend;\n" for i in range(n))


def traced_lets(n: int) -> list:
    """The events of a traced session of n `%let`s."""
    sink = TraceSink()
    run_session(global_lets(n), sink)
    return sink.events


def references_in_put(n: int) -> str:
    return "%let x=1;\n%put " + "&x " * n + ";\n"


def globals_table(n: int) -> dict[str, str]:
    return dict.fromkeys((f"v{i}" for i in range(n)), "x")


def put_user(entries: dict[str, str]):
    """`%put _user_` in a fresh session holding the entries as its globals,
    stored directly: storing them by `%let` would cost more than listing them."""
    session = MacroSession(TraceSink(keep=False))
    session.global_table.entries = entries
    session.put("_user_")


CASES = {
    # construct: (n, input of size n, what is timed)
    "tokenize-and-parse": (600, straight_line, parse_source),
    "vector-length": (2000, vector, lambda src: run_program(parse_source(src), "need")),
    "print-parse-round-trip": (180, function_body, lambda src: program_source(parse_source(src))),
    "named-arguments": (2500, named_arguments, lambda p: run_program(p, "strict")),
    "parameters": (3000, parameters, lambda p: run_program(p, "need")),
    "macro-arguments": (1400, macro_arguments, run_session),
    "nested-evals": (1200, nested_evals, run_session),
    "global-lets": (1600, global_lets, run_session),
    "references-in-put": (5500, references_in_put, run_session),
    "put-user": (17000, globals_table, put_user),
    "eval-sum": (3000, eval_sum, run_session),
    "macro-body": (1500, macro_body, run_session),
    "macro-definitions": (400, macro_definitions, run_session),
    "body-statements": (1500, body_statements, lambda p: run_program(p, "need")),
    "name-rereads": (1500, name_rereads, lambda p: run_program(p, "name")),
    "trace-jsonl": (6000, traced_lets, trace_jsonl),
}


@pytest.mark.parametrize("construct", CASES)
def test_construct_scales_linearly(construct):
    n, make, run = CASES[construct]
    small, large = make(n), make(4 * n)
    run(large)  # warm-up: the larger input also grows the allocator's arenas
    ratio = growth(run, small, large)
    assert ratio < BOUND, f"{construct}: 4x the size took {ratio:.1f}x the time"
