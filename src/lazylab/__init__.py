"""lazylab: a side-by-side laboratory for lazy evaluation strategies.

Two engines over one instrumentation layer: funclang, a tiny functional
language whose arguments are passed strictly, by need (memoizing promises),
or by name (re-evaluated per access); and maclang, a macro preprocessor that
defers evaluation through textual substitution over scoped symbol tables.
"""

from .environments import EnvRegistry
from .errors import LazyLabError
from .evaluator import (
    Closure,
    FunclangRun,
    Num,
    Output,
    Strategy,
    Value,
    Vec,
    format_value,
    run_program,
)
from .lab import (
    DivergenceReport,
    Metrics,
    PairName,
    Verdict,
    diff_outputs,
    generate_divergent,
    generate_program,
    load_program,
    metrics_delta,
    metrics_from_events,
    paired_run,
    run_with_metrics,
    trace_jsonl,
)
from .maclang import (
    MacroDef,
    MacroOutput,
    MacroSession,
    SymbolTable,
    eval_arith,
    resolve_text,
    run_session,
    scan,
)
from .promises import Promise, PromiseState, PromiseStore
from .syntax import (
    Program,
    expr_source,
    format_number,
    parse_program,
    parse_source,
    program_source,
    tokenize,
)
from .trace import EventKind, TraceEvent, TraceSink

__version__ = "0.1.0"
