"""Differential harness: runs, metrics, the v1 JSON-lines trace, output
diffing, paired program comparisons, and deterministic program generation
for property tests. It is the one holder of the v1 trace layout, `DETAIL`'s
`key=value` renderers included; `trace` records the events and renders none.

`run` is the one holder of how an input runs in a cell of the (engine,
strategy) grid and of what `lazylab run` prints; `run_with_metrics` is a
sink, `run` and the fold of the sink's events into `Metrics`. `CELLS` lists
the grid, whose func cells are the CLI's strategy choices, and `CORPORA` the
corpora that the tests loop over.
"""

import json
import random
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .errors import LazyLabError
from .evaluator import Strategy, run_program
from .maclang import run_session
from .syntax import format_value, parse_source
from .trace import (ARITH_EVAL, ENV_CREATED, ENV_DISCARDED, NAME_REEVAL, OUTPUT_LINE,
                    PROMISE_CACHE_HIT, PROMISE_CREATED, PROMISE_FORCED, TABLE_CREATED,
                    TABLE_DELETED, VAR_RESOLVED, VAR_STORED, EventKind, TraceEvent, TraceSink)


class Verdict(str, Enum):
    EQUAL = "EQUAL"
    DIVERGED = "DIVERGED"


class PairName(str, Enum):
    PROGRAM1 = "PROGRAM1"
    PROGRAM2 = "PROGRAM2"
    PROGRAM2_NAME = "PROGRAM2_NAME"


@dataclass
class Metrics:
    """Counters folded from one trace.

    `stored_text_bytes`, like `VAR_STORED`'s `bytes=`, counts the characters
    (code points) of the stored text, not its UTF-8 bytes."""

    arg_evaluations: dict[str, int]
    arg_accesses: dict[str, int]
    var_resolutions: dict[str, int]
    forced_value_slots: int
    stored_text_bytes: int
    output_lines: int

    def to_dict(self) -> dict:
        # a shallow copy: dataclasses.asdict gives the same JSON but took
        # 5 % of a traced run on the corpus workload
        return dict(vars(self))


def metrics_from_events(events: list[TraceEvent]) -> Metrics:
    """Aggregate counters from a trace; a pure function of the event list."""
    evaluations: dict[str, int] = {}
    accesses: dict[str, int] = {}
    resolutions: dict[str, int] = {}
    table_bytes: dict[str, dict[str, int]] = {}  # live table label -> {name: text bytes}
    forced = running = peak = output_lines = 0
    # the most frequent kinds first: maclang traces are mostly resolutions
    # and stores
    for ev in events:
        kind = ev.kind
        if kind is VAR_RESOLVED:
            resolutions[ev.subject] = resolutions.get(ev.subject, 0) + 1
        elif kind is VAR_STORED:
            # not `setdefault(ev.table, {})`, which builds a dict per store
            if (entries := table_bytes.get(ev.table)) is None:
                entries = table_bytes[ev.table] = {}
            nbytes = len(ev.text)
            running += nbytes - entries.get(ev.subject, 0)
            entries[ev.subject] = nbytes
            if running > peak:
                peak = running
        elif kind is PROMISE_FORCED or kind is NAME_REEVAL:
            name = ev.param
            accesses[name] = accesses.get(name, 0) + 1
            evaluations[name] = evaluations.get(name, 0) + 1
            if kind is PROMISE_FORCED:
                forced += 1
        elif kind is PROMISE_CACHE_HIT:
            name = ev.param
            accesses[name] = accesses.get(name, 0) + 1
        elif kind is TABLE_DELETED:
            if (stored := table_bytes.pop(ev.subject, None)) is not None:
                running -= sum(stored.values())
        elif kind is OUTPUT_LINE:
            output_lines += 1
    return Metrics(arg_evaluations=evaluations, arg_accesses=accesses,
                   var_resolutions=resolutions, forced_value_slots=forced,
                   stored_text_bytes=peak, output_lines=output_lines)


# The (engine, strategy) grid. Its strategies are plain str: from Python 3.11
# an f-string formats a (str, Enum) member as `Strategy.NEED`, not `need`.
CELLS = (*(("func", s.value) for s in Strategy), ("macro", None))


def run(source: str, lang: str, strategy: Strategy | str | None = None,
        trace: TraceSink | None = None) -> tuple[list[str], str | None]:
    """Run `source` in one cell of the (engine, strategy) grid: `lang` "func"
    under `strategy`, by default NEED, or "macro", which takes no strategy;
    any other cell is a ValueError. Returns the printed lines and the
    `format_value` of a funclang program's final bare expression, or None;
    `lazylab run` prints the lines, then that result unless it is None.
    `trace` is the sink to record into, or None for an untraced run."""
    if lang == "func":
        strategy = Strategy.NEED if strategy is None else strategy
        out = run_program(parse_source(source), strategy, trace)
        return out.lines, None if out.result is None else format_value(out.result)
    if lang != "macro":
        raise ValueError(f"unknown engine {lang!r}")
    if strategy is not None:
        raise ValueError("strategy applies to the func engine only")
    return run_session(source, trace).log_lines, None


def run_with_metrics(
    source: str,
    engine: str,
    strategy: Strategy | str | None = None,
) -> tuple[list[str], Metrics, list[TraceEvent]]:
    """`run` into a fresh sink, then the metrics folded from its events.
    Engine errors propagate with the partial trace as `err.partial_trace`."""
    sink = TraceSink()
    try:
        lines = run(source, engine, strategy, sink)[0]
    except LazyLabError as err:
        err.partial_trace = sink.events  # nothing else holds the sink
        raise
    return lines, metrics_from_events(sink.events), sink.events


# --- output diffing

@dataclass
class DivergenceReport:
    verdict: Verdict
    first_diff_line: tuple[int, str | None, str | None] | None = None
    metrics_delta: dict | None = None

    def to_dict(self) -> dict:
        d: dict = {"verdict": self.verdict.value}
        if self.first_diff_line is not None:
            index, left, right = self.first_diff_line
            d["first_diff_line"] = {"index": index, "left": left, "right": right}
        if self.metrics_delta is not None:
            d["metrics_delta"] = self.metrics_delta
        return d


def diff_outputs(a: list[str], b: list[str]) -> DivergenceReport:
    """EQUAL iff the line lists are identical; else report the first difference."""
    for i in range(max(len(a), len(b))):
        left = a[i] if i < len(a) else None
        right = b[i] if i < len(b) else None
        if left != right:
            return DivergenceReport(Verdict.DIVERGED, (i, left, right))
    return DivergenceReport(Verdict.EQUAL)


def metrics_delta(left: Metrics, right: Metrics) -> dict:
    return {
        "output_lines": [left.output_lines, right.output_lines],
        "evaluations": [sum(left.arg_evaluations.values()),
                        sum(right.arg_evaluations.values())],
        "resolutions": [sum(left.var_resolutions.values()),
                        sum(right.var_resolutions.values())],
        "forced_value_slots": [left.forced_value_slots, right.forced_value_slots],
        "stored_text_bytes": [left.stored_text_bytes, right.stored_text_bytes],
    }


# --- bundled paired programs

def load_program(name: str) -> str:
    """Read one of the bundled programs (r_prog1.fl, sas_prog2.ml, ...)."""
    return resources.files("lazylab").joinpath("programs", name).read_text(encoding="utf-8")


class Pair(NamedTuple):
    func_program: str
    strategy: Strategy
    macro_program: str
    expected: Verdict
    # sas_prog1 logs its values inside parentheses; strip them before the diff
    unwrap_macro_line: bool = False


# PROGRAM1 compares the defaulted-call programs; PROGRAM2 contrasts
# call-by-need with the macro engine; PROGRAM2_NAME replays the funclang side
# under call-by-name, which matches the macro engine line for line.
PAIRS = {
    PairName.PROGRAM1: Pair("r_prog1.fl", Strategy.NEED, "sas_prog1.ml", Verdict.EQUAL, True),
    PairName.PROGRAM2: Pair("r_prog2.fl", Strategy.NEED, "sas_prog2.ml", Verdict.DIVERGED),
    PairName.PROGRAM2_NAME: Pair("r_prog2.fl", Strategy.NAME, "sas_prog2.ml", Verdict.EQUAL),
}


def paired_run(pair: PairName | str) -> DivergenceReport:
    """Run one of the bundled funclang/maclang pairs and diff the outputs."""
    pair = PAIRS[PairName(pair)]
    left_lines, left_metrics, _ = run_with_metrics(
        load_program(pair.func_program), "func", pair.strategy)
    right_lines, right_metrics, _ = run_with_metrics(load_program(pair.macro_program), "macro")
    if pair.unwrap_macro_line:
        right_lines = [line[1:-1] if line.startswith("(") and line.endswith(")") else line
                       for line in right_lines]
    report = diff_outputs(left_lines, right_lines)
    report.metrics_delta = metrics_delta(left_metrics, right_metrics)
    return report


# --- trace serialization: the v1 JSON-lines layout
#
# json.dumps writes a dict's keys in order with ", " and ": " separators,
# and escapes each string with encode_basestring_ascii under its default
# ensure_ascii. One f-string per event, with each kind's `"kind"` text made
# once below and each string escaped by the same function, gives the same
# line without building a dict per event.

TRACE_FORMAT = "lazylab-trace"
TRACE_VERSION = 1

# the v1 detail renderer of each kind
DETAIL = {
    ENV_CREATED: lambda e: f"parent=env{e.env}",
    ENV_DISCARDED: lambda e: "",
    PROMISE_CREATED: lambda e: f"name={e.param} env=env{e.env} expr={e.text}",
    PROMISE_FORCED: lambda e: f"name={e.param} value={e.text}",
    PROMISE_CACHE_HIT: lambda e: f"name={e.param}",
    NAME_REEVAL: lambda e: f"name={e.param} value={e.text}",
    TABLE_CREATED: lambda e: f"macro={e.text}",
    TABLE_DELETED: lambda e: "",
    VAR_STORED: lambda e: f"{e.table} {e.origin} bytes={len(e.text)} text={e.text}",
    VAR_RESOLVED: lambda e: f"{e.table} text={e.text}",
    ARITH_EVAL: lambda e: e.text,
    OUTPUT_LINE: lambda e: e.text,
}

_HEADER_LINE = json.dumps({"format": TRACE_FORMAT, "version": TRACE_VERSION})
_KIND_SUBJECT = {kind: f', "kind": {json.dumps(kind.value)}, "subject": ' for kind in EventKind}


def trace_jsonl(events: list[TraceEvent], metrics: Metrics | None = None) -> list[str]:
    """JSON-lines form: header record, one record per event, metrics last.

    An event line is `{"ord": 1, "kind": "...", "subject": "...", "detail":
    "..."}`: keys in that order, `", "` and `": "` separators, and ASCII
    only, with `\\uXXXX` escapes and surrogate pairs for astral characters;
    byte for byte what `json.dumps` writes for that dict. `tests/golden/`,
    `tests/golden/digests.json` and properties in `tests/test_lab.py` pin it.
    Each line is one f-string: the ord, the kind's `, "kind": ..., "subject":
    ` text, then the subject and the detail, each escaped by
    `encode_basestring_ascii`. The detail comes from the renderers in
    `DETAIL`, above; every field it shows is already text, printed once when
    the run made it, so a line needs nothing from the lines before it.
    """
    lines = [_HEADER_LINE]
    head, escape, detail = _KIND_SUBJECT, encode_basestring_ascii, DETAIL
    # extend from a generator: a list comprehension's temporary list raised
    # the traced peak
    lines.extend(f'{{"ord": {ev.ord}{head[ev.kind]}{escape(ev.subject)}, '
                 f'"detail": {escape(detail[ev.kind](ev))}}}'
                 for ev in events)
    if metrics is not None:
        lines.append(json.dumps({"metrics": metrics.to_dict()}))
    return lines


# --- program generation
#
# generate_program() emits programs from the strategy-agreement fragment:
# every variable assigned exactly once before any read, one function whose
# parameters all carry defaults and are all read in the body, no division.
# generate_divergent() leaves that fragment on purpose: it reassigns a
# variable between two reads of a lazy parameter, which call-by-need and
# call-by-name order differently.

def _gen_expr(rng: random.Random, names: list[str], depth: int) -> str:
    if depth <= 0 or (names and rng.random() < 0.3) or (not names and depth <= 1):
        if names and rng.random() < 0.65:
            return rng.choice(names)
        return str(rng.randint(0, 9))
    op = rng.choice(["+", "-", "*", "+"])
    left = _gen_expr(rng, names, depth - 1)
    right = _gen_expr(rng, names, depth - 1)
    if op == "*" and rng.random() < 0.5:
        return f"({left} + {right}) * {_gen_expr(rng, names, 0)}"
    return f"{left} {op} {right}"


def generate_program(seed: int, size: int = 12) -> str:
    """Deterministically generate a funclang program on which STRICT, NEED,
    and NAME must agree."""
    rng = random.Random(seed)
    size = max(1, size)
    n_globals = 1 + rng.randint(0, min(2, size // 4))
    n_params = 1 + rng.randint(0, min(2, size // 4))
    n_locals = rng.randint(0, min(2, size // 6))
    depth = 1 + min(2, size // 8)

    lines: list[str] = []
    global_names: list[str] = []
    for i in range(n_globals):
        name = f"g{i}"
        lines.append(f"{name} <- {_gen_expr(rng, global_names, depth)}")
        global_names.append(name)

    params: list[str] = []
    param_decls: list[str] = []
    for i in range(n_params):
        name = f"p{i}"
        default = _gen_expr(rng, params + global_names, depth)
        param_decls.append(f"{name} = {default}")
        params.append(name)

    body: list[str] = []
    local_names: list[str] = []
    for i in range(n_locals):
        name = f"t{i}"
        body.append(f"  {name} <- {_gen_expr(rng, params + global_names + local_names, depth)}")
        local_names.append(name)
    reads = " + ".join(params + local_names)
    if rng.random() < 0.4:
        body.append(f"  print(c({', '.join(params + local_names)}))")
    body.append(f"  print({reads})")
    body.append(f"  {reads}")

    # positional arguments fill a prefix of the parameters; the rest may be
    # supplied by name or left to their defaults
    n_positional = rng.randint(0, n_params)
    args = [_gen_expr(rng, global_names, 1) for _ in range(n_positional)]
    for name in params[n_positional:]:
        if rng.random() < 0.4:
            args.append(f"{name} = {_gen_expr(rng, global_names, 1)}")

    lines.append(f"f <- function({', '.join(param_decls)}) {{")
    lines.extend(body)
    lines.append("}")
    lines.append(f"r <- f({', '.join(args)})")
    lines.append("print(r)")
    return "\n".join(lines) + "\n"


def generate_divergent(seed: int) -> str:
    """Generate a program whose NEED and NAME outputs differ: the body
    reassigns `q` between two reads of the lazy parameter `p`."""
    rng = random.Random(seed)
    first = rng.randint(1, 9)
    second = first + rng.randint(1, 9)
    scale = rng.randint(2, 5)
    op = rng.choice(["*", "+"])
    return (
        f"f <- function(q = {rng.randint(0, 9)}, p = q {op} {scale}) {{\n"
        f"  q = {first}\n"
        f"  print(p)\n"
        f"  q = {second}\n"
        f"  print(p)\n"
        f"}}\n"
        f"f()\n"
    )


# corpus name -> (its default seeds, seed -> (engine, source))
CORPORA = {
    "program": (range(500), lambda seed: ("func", generate_program(seed, 12))),
    "divergent": (range(200), lambda seed: ("func", generate_divergent(seed))),
    "bundled": (("r_prog1.fl", "r_prog2.fl", "sas_prog1.ml", "sas_prog2.ml"),
                lambda name: ({"fl": "func", "ml": "macro"}[name[-2:]], load_program(name))),
}
