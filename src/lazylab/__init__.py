"""lazylab: a side-by-side laboratory for lazy evaluation strategies.

Two engines over one instrumentation layer: funclang, a tiny functional
language whose arguments are passed strictly, by need (memoizing promises),
or by name (re-evaluated per access); and maclang, a macro preprocessor that
defers evaluation through textual substitution over scoped symbol tables.

The package exports the README's library sketch and `LazyLabError`; every
other name is imported from the module that defines it.
"""

from .errors import LazyLabError
from .evaluator import Strategy, run_program
from .lab import PairName, generate_program, paired_run, run_with_metrics
from .maclang import run_session
from .syntax import parse_source
from .trace import TraceSink
