"""The package's own names are the README's library sketch plus
`LazyLabError`, the sketch runs as written, `lazylab.cli` holds every name
that bench/run.py reads off it, every trace event passes through the
`TraceSink.emit` that bench/spans.py counts, and `trace` is the one module
that names the event kinds."""

import ast
import importlib
import re
import types
from collections import Counter
from pathlib import Path

import lazylab
import lazylab.cli
from lazylab.evaluator import Output
from lazylab.lab import Verdict, run_with_metrics
from lazylab.promises import PromiseState
from lazylab.syntax import TokKind
from lazylab.trace import EventKind as K

README = Path(__file__).resolve().parents[1] / "README.md"
BENCH = README.parent / "bench"
BENCH_RUN = BENCH / "run.py"
PACKAGE = README.parent / "src" / "lazylab"


def library_sketch() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library sketch\n+```python\n(.*?)^```$", text, re.M | re.S)
    assert match, "README.md has no python block under '## Library sketch'"
    return match.group(1)


def test_library_sketch_runs():
    scope = {"source": "f <- function(x, y = x * 2) { y }\nprint(f(3))\n"}
    exec(compile(library_sketch(), "README.md", "exec"), scope)
    assert scope["lines"] == ["6"]
    assert isinstance(scope["out"], Output) and scope["out"].lines == ["6"]
    assert scope["sink"].events
    assert scope["report"].verdict is Verdict.DIVERGED
    assert scope["source"] == lazylab.generate_program(seed=3, size=14)


def test_package_exports_the_sketch_and_the_error():
    imported = re.search(r"from lazylab import \((.*?)\)", library_sketch(), re.S).group(1)
    public = {name for name, value in vars(lazylab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {*re.findall(r"\w+", imported), "LazyLabError"}


def test_cli_holds_every_name_the_benchmark_reads():
    """bench/run.py reads the library off `lazylab.cli`; a name it reads only
    for a program that ends in a bare expression, as `format_value`, is one
    that no workload would miss."""
    names = set(re.findall(r"\bcli\.(\w+)", BENCH_RUN.read_text(encoding="utf-8")))
    assert "format_value" in names
    assert sorted(name for name in names if not hasattr(lazylab.cli, name)) == []


def test_spans_count_every_event_of_the_sinks(monkeypatch):
    """bench/spans.py counts events at `TraceSink.emit`. Around the traced
    runs of each workload at bench/test_bench.py's tiny size, its counts equal
    those of the sinks' own events, so an event site that bypasses `emit`
    fails here."""
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    for workload in workloads.WORKLOADS:
        cases = workloads.build(workload, 5, 0.05)
        kinds = Counter()
        with spans.Recorder().installed() as recorder:
            for case in cases:
                for strategy in case.strategies:
                    kinds.update(ev.kind for ev in run_with_metrics(
                        case.source, case.lang, strategy)[2])
                    recorder.end_run(strategy, 1.0)
        metrics = recorder.metrics()
        assert kinds, workload
        assert {name: metrics[name] for name in (
            "trace.events", "promises.evaluations", "maclang.refs_resolved",
            "maclang.stores")} == {
            "trace.events": sum(kinds.values()),
            "promises.evaluations": kinds[K.PROMISE_FORCED] + kinds[K.NAME_REEVAL],
            "maclang.refs_resolved": kinds[K.VAR_RESOLVED],
            "maclang.stores": kinds[K.VAR_STORED],
        }, workload


def _member_aliases(path: Path, enum: str) -> list[str]:
    """The module-level names that `path` binds to members of `enum`, as
    `X = Enum.X`, `X, Y = Enum.X, Enum.Y` or `X, Y = Enum`."""
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        value = node.value
        unpacks = (isinstance(value, ast.Name) and value.id == enum
                   and any(isinstance(t, ast.Tuple) for t in targets))
        members = value.elts if isinstance(value, ast.Tuple) else [value]
        if unpacks or any(isinstance(m, ast.Attribute) and isinstance(m.value, ast.Name)
                          and m.value.id == enum for m in members):
            names.extend(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_trace_is_the_one_holder_of_the_event_kind_names():
    """Hot code reads an event kind through a module name, not `EventKind.X`
    (the comment under `trace.EventKind`). `trace` binds the twelve names,
    each to its own member, and no other module binds one; the evaluator
    binds no `Strategy` member either, since a run decides what its strategy
    means once, when it is made. `syntax` and `promises` bind `TokKind` and
    `PromiseState` the same way, to private names. Each binds by position in
    one unpacking statement, so a reordered member or name fails here."""
    assert len(K) == 12
    for enum, prefix in ((K, ""), (TokKind, "_"), (PromiseState, "_")):
        module = importlib.import_module(enum.__module__)
        assert [m.name for m in enum if getattr(module, prefix + m.name, None) is not m] == []
        assert sorted(_member_aliases(Path(module.__file__), enum.__name__)) == sorted(
            prefix + m.name for m in enum)
    aliases = {path.name: _member_aliases(path, "EventKind")
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "trace.py"}
    assert len(aliases) >= 9 and {name: a for name, a in aliases.items() if a} == {}
    assert _member_aliases(PACKAGE / "evaluator.py", "Strategy") == []

