"""Per-layer spans for the benchmark's traced pass.

`Recorder.installed()` wraps the public entry points of each lazylab module
from the outside: module functions are rebound in every lazylab module that
imported them (`from ... import` binds a copy), and methods are replaced on
their class. Each call records a span (name, start, end, parent). The spans
of one program run stay in memory and are folded into per-name self time
when the run ends; a span's self time is its duration minus that of its
child spans. Counts come from the wrappers and from the trace events that
pass through `TraceSink.emit`.
"""

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from lazylab.environments import EnvRegistry
from lazylab.maclang import MacroSession
from lazylab.promises import PromiseStore
from lazylab.trace import EventKind as K
from lazylab.trace import TraceSink


class Recorder:
    """Spans and counts of one pass; install it with `installed()`."""

    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.calls: Counter = Counter()    # wrapper calls by span name
        self.self_s: Counter = Counter()   # folded self seconds by span name
        self.counts: Counter = Counter()   # tokens and bytes seen by wrappers
        self.events: Counter = Counter()   # trace events by kind
        self._run_events: Counter = Counter()
        self._evaluated: set[str] = set()  # promises evaluated in this run
        self.unforced = 0
        self.need_hits = 0
        self.need_forced = 0
        self.let_quarters = [0.0, 0, 0.0, 0]  # first: seconds, stores; last: the same

    # --- wrapping

    def _span(self, name: str, fn, observe=None):
        spans, open_, calls = self.spans, self._open, self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    def _with_callback(self, name: str, method):
        """A promise method whose evaluator callback counts as evaluator time."""
        spanned = self._span(name, method)

        def wrapper(store, pid, evaluator):
            return spanned(store, pid, self._span("evaluator.callback", evaluator))
        return wrapper

    def _tokens(self, args, result):
        self.counts["syntax.tokens"] += len(result)

    def _scanned(self, args, result):
        self.counts["maclang.scanned_bytes"] += len(args[0])

    def _jsonl(self, args, result):
        self.counts["lab.jsonl_bytes"] += sum(len(line) + 1 for line in result)

    def _event(self, args, result):
        kind = args[1]
        self._run_events[kind] += 1
        if kind is K.PROMISE_FORCED or kind is K.NAME_REEVAL:
            self._evaluated.add(args[2])

    @contextmanager
    def installed(self):
        functions = (
            ("lazylab.syntax", "tokenize", "syntax.tokenize", self._tokens),
            ("lazylab.syntax", "parse_program", "syntax.parse", None),
            ("lazylab.evaluator", "run_program", "evaluator.run", None),
            ("lazylab.maclang", "scan", "maclang.scan", self._scanned),
            ("lazylab.maclang", "resolve_text", "maclang.resolve", None),
            ("lazylab.maclang", "eval_arith", "maclang.arith", None),
            ("lazylab.lab", "metrics_from_events", "lab.metrics", None),
            ("lazylab.lab", "trace_jsonl", "lab.jsonl", self._jsonl),
            ("lazylab.lab", "generate_program", "lab.generate", None),
        )
        methods = (
            (PromiseStore, "new", self._span),
            (PromiseStore, "force", self._with_callback),
            (PromiseStore, "evaluate_uncached", self._with_callback),
            (EnvRegistry, "child", self._span),
            (EnvRegistry, "lookup", self._span),
            (EnvRegistry, "define", self._span),
            (EnvRegistry, "discard", self._span),
            (TraceSink, "emit", lambda name, fn: self._span(name, fn, self._event)),
            (MacroSession, "run", self._span),
            (MacroSession, "invoke", self._span),
            (MacroSession, "let", self._span),
        )
        saved = []
        try:
            modules = [m for key, m in list(sys.modules.items())
                       if key == "lazylab" or key.startswith("lazylab.")]
            for module, attr, name, observe in functions:
                original = getattr(sys.modules[module], attr)
                wrapper = self._span(name, original, observe)
                for m in modules:
                    if getattr(m, attr, None) is original:
                        saved.append((m, attr, original))
                        setattr(m, attr, wrapper)
            for cls, attr, wrap in methods:
                original = cls.__dict__[attr]
                layer = cls.__module__.rsplit(".", 1)[1]
                saved.append((cls, attr, original))
                setattr(cls, attr, wrap(f"{layer}.{attr}", original))
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    # --- folding

    def end_run(self, strategy, scale: float) -> None:
        """Fold the spans and events of the run that just ended, with their
        times multiplied by `scale`."""
        spans = self.spans
        own = [end - start for _, start, end, _ in spans]
        for _, start, end, parent in spans:
            if parent >= 0:
                own[parent] -= end - start
        lets = []
        for span, seconds in zip(spans, own):
            seconds *= scale
            self.self_s[span[0]] += seconds
            if span[0] == "maclang.let":
                lets.append(seconds)
        if lets:
            q = max(1, len(lets) // 4)
            self.let_quarters[0] += sum(lets[:q])
            self.let_quarters[1] += q
            self.let_quarters[2] += sum(lets[-q:])
            self.let_quarters[3] += q
        run = self._run_events
        self.events.update(run)
        if strategy == "need":
            self.need_hits += run[K.PROMISE_CACHE_HIT]
            self.need_forced += run[K.PROMISE_FORCED]
        self.unforced += run[K.PROMISE_CREATED] - len(self._evaluated)
        spans.clear()
        run.clear()
        self._evaluated.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything folded so far."""
        s, calls, events = self.self_s, self.calls, self.events

        def layer(prefix: str) -> float:
            return sum(t for name, t in s.items() if name.startswith(prefix))

        def ratio(a, b) -> float:
            return a / b if b else 0.0

        tokens = self.counts["syntax.tokens"]
        created = events[K.PROMISE_CREATED]
        first_s, first_n, last_s, last_n = self.let_quarters
        return {
            "syntax.tokenize_s": s["syntax.tokenize"],
            "syntax.parse_s": s["syntax.parse"],
            "syntax.tokens": tokens,
            "syntax.tokens_per_s": ratio(tokens, s["syntax.tokenize"]),
            "evaluator.self_s": layer("evaluator."),
            "evaluator.calls": events[K.ENV_CREATED],
            "promises.self_s": layer("promises."),
            "promises.created": created,
            "promises.evaluations": events[K.PROMISE_FORCED] + events[K.NAME_REEVAL],
            "promises.cache_hit_ratio": ratio(self.need_hits, self.need_hits + self.need_forced),
            "promises.unforced_ratio": ratio(self.unforced, created),
            "environments.self_s": layer("environments."),
            "environments.lookups": calls["environments.lookup"],
            "environments.frames": calls["environments.child"],
            "trace.emit_s": s["trace.emit"],
            "trace.events": calls["trace.emit"],
            "lab.metrics_s": s["lab.metrics"],
            "lab.jsonl_s": s["lab.jsonl"],
            "lab.jsonl_bytes": self.counts["lab.jsonl_bytes"],
            "lab.generate_s": s["lab.generate"],
            "maclang.scan_s": s["maclang.scan"],
            "maclang.scan_calls": calls["maclang.scan"],
            "maclang.scanned_bytes": self.counts["maclang.scanned_bytes"],
            "maclang.invoke_self_s": s["maclang.invoke"],
            "maclang.invocations": calls["maclang.invoke"],
            "maclang.resolve_s": s["maclang.resolve"],
            "maclang.refs_resolved": events[K.VAR_RESOLVED],
            "maclang.arith_s": s["maclang.arith"],
            "maclang.arith_evals": events[K.ARITH_EVAL],
            "maclang.let_self_s": s["maclang.let"],
            "maclang.stores": events[K.VAR_STORED],
            "maclang.let_us_per_store_q1": ratio(first_s, first_n) * 1e6,
            "maclang.let_us_per_store_q4": ratio(last_s, last_n) * 1e6,
        }
