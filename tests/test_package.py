"""The package's own names are the README's library sketch plus
`LazyLabError`, the sketch runs as written, `lazylab.cli` holds every name
that bench/run.py reads off it, and every trace event passes through the
`TraceSink.emit` that bench/spans.py counts."""

import importlib
import re
import types
from collections import Counter
from pathlib import Path

import lazylab
import lazylab.cli
from lazylab.evaluator import Output
from lazylab.lab import Verdict, run_with_metrics
from lazylab.trace import EventKind as K

README = Path(__file__).resolve().parents[1] / "README.md"
BENCH = README.parent / "bench"
BENCH_RUN = BENCH / "run.py"


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
