"""Differential harness: instrumented runs, metrics, output diffing, paired
program comparisons, and deterministic program generation for property tests.
"""

import json
import random
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

from .errors import LazyLabError
from .evaluator import Strategy, run_program
from .maclang import MacroSession
from .syntax import parse_source
from .trace import EventKind, TraceEvent, TraceSink

TRACE_FORMAT = "lazylab-trace"
TRACE_VERSION = 1


class Verdict(str, Enum):
    EQUAL = "EQUAL"
    DIVERGED = "DIVERGED"


class PairName(str, Enum):
    PROGRAM1 = "PROGRAM1"
    PROGRAM2 = "PROGRAM2"
    PROGRAM2_NAME = "PROGRAM2_NAME"


@dataclass
class Metrics:
    arg_evaluations: dict[str, int] = field(default_factory=dict)
    arg_accesses: dict[str, int] = field(default_factory=dict)
    var_resolutions: dict[str, int] = field(default_factory=dict)
    forced_value_slots: int = 0
    stored_text_bytes: int = 0
    output_lines: int = 0

    def to_dict(self) -> dict:
        # a shallow copy: dataclasses.asdict gives the same JSON but took
        # 5 % of a traced run on the corpus workload
        return dict(vars(self))


def metrics_from_events(events: list[TraceEvent]) -> Metrics:
    """Aggregate counters from a trace; a pure function of the event list."""
    m = Metrics()
    table_bytes: dict[str, dict[str, int]] = {}  # live table label -> {name: text bytes}
    running = 0
    for ev in events:
        if ev.kind in (EventKind.PROMISE_FORCED, EventKind.NAME_REEVAL,
                       EventKind.PROMISE_CACHE_HIT):
            name = ev.param or "_"
            m.arg_accesses[name] = m.arg_accesses.get(name, 0) + 1
            if ev.kind is not EventKind.PROMISE_CACHE_HIT:
                m.arg_evaluations[name] = m.arg_evaluations.get(name, 0) + 1
            if ev.kind is EventKind.PROMISE_FORCED:
                m.forced_value_slots += 1
        elif ev.kind is EventKind.VAR_RESOLVED:
            m.var_resolutions[ev.subject] = m.var_resolutions.get(ev.subject, 0) + 1
        elif ev.kind is EventKind.VAR_STORED:
            entries = table_bytes.setdefault(ev.table, {})
            nbytes = len(ev.text)
            running += nbytes - entries.get(ev.subject, 0)
            entries[ev.subject] = nbytes
            if running > m.stored_text_bytes:
                m.stored_text_bytes = running
        elif ev.kind is EventKind.TABLE_DELETED:
            running -= sum(table_bytes.pop(ev.subject, {}).values())
        elif ev.kind is EventKind.OUTPUT_LINE:
            m.output_lines += 1
    return m


def run_with_metrics(
    source: str,
    engine: str,
    strategy: Strategy | str | None = None,
) -> tuple[list[str], Metrics, list[TraceEvent]]:
    """Run `source` under the chosen engine with a fresh trace sink.

    `engine` is "func" (funclang, with a strategy, default NEED) or "macro".
    Engine errors propagate with the partial trace attached as
    `err.partial_trace`.
    """
    sink = TraceSink()
    try:
        if engine == "func":
            program = parse_source(source)
            out = run_program(program, strategy or Strategy.NEED, sink)
            lines = out.lines
        elif engine == "macro":
            if strategy is not None:
                raise ValueError("strategy applies to the func engine only")
            lines = MacroSession(sink).run(source).log_lines
        else:
            raise ValueError(f"unknown engine {engine!r}")
    except LazyLabError as err:
        err.partial_trace = list(sink.events)
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


def _strip_outer_parens(line: str) -> str:
    if line.startswith("(") and line.endswith(")"):
        return line[1:-1]
    return line


def paired_run(pair: PairName | str) -> DivergenceReport:
    """Run one of the bundled funclang/maclang pairs and diff the outputs.

    PROGRAM1 compares the defaulted-call programs (maclang's parenthesized
    log line is unwrapped before the diff); PROGRAM2 contrasts call-by-need
    with the macro engine; PROGRAM2_NAME replays the funclang side under
    call-by-name, which matches the macro engine line for line.
    """
    pair = PairName(pair)
    if pair is PairName.PROGRAM1:
        func_source, func_strategy, macro_name = load_program("r_prog1.fl"), Strategy.NEED, "sas_prog1.ml"
    elif pair is PairName.PROGRAM2:
        func_source, func_strategy, macro_name = load_program("r_prog2.fl"), Strategy.NEED, "sas_prog2.ml"
    else:
        func_source, func_strategy, macro_name = load_program("r_prog2.fl"), Strategy.NAME, "sas_prog2.ml"
    left_lines, left_metrics, _ = run_with_metrics(func_source, "func", func_strategy)
    right_lines, right_metrics, _ = run_with_metrics(load_program(macro_name), "macro")
    if pair is PairName.PROGRAM1:
        right_lines = [_strip_outer_parens(line) for line in right_lines]
    report = diff_outputs(left_lines, right_lines)
    report.metrics_delta = metrics_delta(left_metrics, right_metrics)
    return report


# --- trace serialization

def trace_jsonl(events: list[TraceEvent], metrics: Metrics | None = None) -> list[str]:
    """JSON-lines form: header record, one record per event, metrics last."""
    lines = [json.dumps({"format": TRACE_FORMAT, "version": TRACE_VERSION})]
    for ev in events:
        lines.append(json.dumps({
            "ord": ev.ord,
            "kind": ev.kind.value,
            "subject": ev.subject,
            "detail": ev.detail,
        }))
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
