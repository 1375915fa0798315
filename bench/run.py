"""lazylab benchmark: plain and traced run latency on four workloads.

    python3 bench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

A plain run is what `lazylab run` does: parse (or scan), then execute with
the engine's default sink. A traced run is what `lazylab trace` and the
acceptance suite do: `run_with_metrics`, then `trace_jsonl`. The benchmark is
a closed loop in one process and one thread: the next run starts only after
the previous one returns. Every output is checked against an expected value
that does not come from lazylab (see workloads.py).

With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it wraps each lazylab layer in spans (spans.py) and reports the
per-layer metrics. `--workload all` runs every workload in turn. Each result
is printed as a table, and the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import gc
import json
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path[:0] = [str(SRC), str(BENCH)]
try:
    from lazylab import cli
    from lazylab.errors import LazyLabError
except ImportError as err:
    sys.exit(f"bench: cannot import lazylab from {SRC}: {err}")
if Path(cli.__file__).resolve().parents[1] != SRC:
    sys.exit(f"bench: lazylab was imported from {cli.__file__}, not from {SRC}")

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
MEMORY_CASES = 4

# Other work on a shared machine slows whole stretches of seconds by up to a
# factor of two, and one run of the benchmark can fall entirely inside such a
# stretch. A probe of fixed work is therefore timed every PROBE_EVERY_S: the
# benchmark's own reference evaluator on a fixed program, Python tree-walking
# like lazylab. Each time is rescaled to a machine where the probe takes
# PROBE_S, and a run's latency is the median of its rescaled repetitions.
PROBE_SOURCE = workloads.chain_source(6, list(range(1, 25)))
PROBE_S = 1e-3
PROBE_EVERY_S = 0.05
# Fresh-process set-up: interpreter start, the console script's import, and
# the workload's inputs built from the seed; then the clock, to the parent.
SETUP_CODE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import lazylab.cli, workloads; "
              "workloads.build(sys.argv[3], int(sys.argv[4])); print(time.perf_counter())")


def plain_run(case, strategy) -> list[str]:
    """What `lazylab run` does."""
    if case.lang == "func":
        out = cli.run_program(cli.parse_source(case.source), strategy)
        lines = list(out.lines)
        if out.result is not None:
            lines.append(cli.format_value(out.result))
        return lines
    return cli.run_session(case.source).log_lines


def traced_run(case, strategy) -> list[str]:
    """What `lazylab trace` does."""
    lines, metrics, events = cli.run_with_metrics(case.source, case.lang, strategy)
    cli.trace_jsonl(events, metrics)
    return lines


KINDS = (("plain", plain_run), ("traced", traced_run))


def runs_of(cases) -> list[tuple]:
    return [(case, None if s is None else cli.Strategy(s))
            for case in cases for s in case.strategies]


def timed(fn, case, strategy) -> tuple[float, bool]:
    """Seconds taken by one run, and whether its output was as expected."""
    t0 = perf_counter()
    try:
        lines = fn(case, strategy)
    except LazyLabError:
        lines = None
    seconds = perf_counter() - t0
    return seconds, lines == case.expected


def self_check(runs) -> bool:
    """The output check passes on a real expected output and catches a
    deliberately corrupted one."""
    case, strategy = runs[0]
    expected = case.expected
    wrong = expected[:-1] + [expected[-1] + "0"] if expected else ["0"]
    corrupted = workloads.Case(case.lang, case.source, case.strategies, wrong)
    return (timed(plain_run, case, strategy)[1]
            and not timed(plain_run, corrupted, strategy)[1])


# --- end-to-end

def probe_seconds() -> float:
    """The fastest of three timings of the probe."""
    fastest = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        reference.print_lines(PROBE_SOURCE)
        fastest = min(fastest, perf_counter() - t0)
    return fastest


def setup_seconds(cmd: list[str]) -> float:
    """Time from spawning a fresh process to the end of its set-up: it
    starts Python, imports lazylab.cli, builds the workload's inputs and
    prints the clock, which is the same in every process."""
    t0 = perf_counter()
    done = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
    return float(done.stdout) - t0


def measure(runs, seconds: float, setup_cmd=None) -> tuple[dict, list[float], int, int]:
    """Time each run plain and then traced, pass after pass, until `seconds`
    have passed. Returns each kind's latency per run, as the median of the
    run's rescaled repetitions, the set-up times, and the runs attempted and
    failed.

    With `setup_cmd`, SETUP_REPEATS set-ups are spread evenly over the
    window and rescaled by the median probe of the whole window: start-up
    slows with the machine too, but one probe next to a spawn was too noisy
    to rescale it by."""
    probes = [probe_seconds()]
    rows = []  # (run index, index of the last probe before it, plain s, traced s)
    setups = []
    attempted = failed = 0
    start = probed = perf_counter()
    deadline = start + seconds
    while True:
        for i, (case, strategy) in enumerate(runs):
            if (setup_cmd and len(setups) < SETUP_REPEATS
                    and perf_counter() >= start + len(setups) * seconds / SETUP_REPEATS):
                setups.append(setup_seconds(setup_cmd))
            if perf_counter() - probed > PROBE_EVERY_S:
                probes.append(probe_seconds())
                probed = perf_counter()
            row = [i, len(probes) - 1]
            for _, fn in KINDS:
                took, ok = timed(fn, case, strategy)
                row.append(took)
                attempted += 1
                failed += not ok
            rows.append(row)
        if perf_counter() >= deadline:
            break
    while setup_cmd and len(setups) < SETUP_REPEATS:
        setups.append(setup_seconds(setup_cmd))
    probes.append(probe_seconds())
    setups = [t * PROBE_S / statistics.median(probes) for t in setups]
    # One probe jitters by a few per cent; the median of the probes around a
    # run follows the machine's speed without that jitter.
    level = [statistics.median(probes[max(0, i - 2):i + 4]) for i in range(len(probes))]
    latency = {}
    for k, (kind, _) in enumerate(KINDS, 2):
        reps = [[] for _ in runs]
        for row in rows:
            reps[row[0]].append(row[k] * PROBE_S / level[row[1]])
        latency[kind] = [statistics.median(r) for r in reps]
    return latency, setups, attempted, failed


def peak_kib(runs, fn) -> float:
    """Highest tracemalloc peak of a single run, in KiB above what was
    allocated before it. The first run under tracemalloc also allocates
    caches that outlive it, so it runs once untimed."""
    tracemalloc.start()
    try:
        peak = 0
        for i, (case, strategy) in enumerate([runs[0], *runs]):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                fn(case, strategy)
            except LazyLabError:
                pass  # counted as a failure by the timed runs
            if i:
                peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 1024


def largest(cases, n: int):
    """The runs of the n cases with the longest sources: memory grows with
    the size of a program, and tracing every run would take longer than the
    timed runs themselves."""
    return runs_of(sorted(cases, key=lambda c: len(c.source), reverse=True)[:n])


def end_to_end(workload: str, seed: int, seconds: float, cases) -> tuple[dict, int, int]:
    runs = runs_of(cases)
    setup_cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), workload, str(seed)]
    setup_seconds(setup_cmd)  # warm-up: fills the bytecode caches
    for kind, fn in KINDS:  # warm-up: first parse, lazy imports, caches
        for case, strategy in runs[:20]:
            timed(fn, case, strategy)
    gc.collect()
    latency, setups, attempted, failed = measure(runs, seconds, setup_cmd)
    metrics = {"setup_s": statistics.median(setups)}
    for kind, _ in KINDS:
        lat = latency[kind]
        metrics[f"{kind}_runs_per_s"] = len(lat) / sum(lat)
        metrics[f"{kind}_ms_p50"] = statistics.median(lat) * 1e3
        metrics[f"{kind}_ms_p90"] = statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3
    gc.collect()
    for kind, fn in KINDS:
        metrics[f"{kind}_peak_kib"] = peak_kib(largest(cases, MEMORY_CASES), fn)
    return metrics, attempted, failed


# --- per layer

def layer_pass(workload: str, seed: int, runs, recorder=None) -> tuple[float, int]:
    """One pass: rebuild the inputs, then each run once plain and once traced.
    With a recorder, fold its spans after every run. Returns the pass's
    rescaled time, without the folding, and its failed runs."""
    scale, probed = PROBE_S / probe_seconds(), perf_counter()
    t0 = perf_counter()
    workloads.build(workload, seed)
    total = (perf_counter() - t0) * scale
    if recorder is not None:
        recorder.end_run(None, scale)
    failed = 0
    for _, fn in KINDS:
        for case, strategy in runs:
            if perf_counter() - probed > PROBE_EVERY_S:
                scale, probed = PROBE_S / probe_seconds(), perf_counter()
            took, ok = timed(fn, case, strategy)
            total += took * scale
            failed += not ok
            if recorder is not None:
                recorder.end_run(strategy, scale)
    return total, failed


def per_layer(workload: str, seed: int, seconds: float, cases) -> tuple[dict, int, int]:
    """Pairs of an untraced and a traced pass until `seconds` have passed.
    Times are medians over the traced passes; counts are those of one pass."""
    runs = runs_of(cases)
    layer_pass(workload, seed, runs[:20])  # warm-up
    passes = []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        gc.collect()
        untraced_s, untraced_failed = layer_pass(workload, seed, runs)
        gc.collect()
        with spans.Recorder().installed() as recorder:
            spanned_s, spanned_failed = layer_pass(workload, seed, runs, recorder)
        metrics = recorder.metrics()
        metrics["bench.span_overhead"] = spanned_s / untraced_s
        passes.append(metrics)
        attempted += 4 * len(runs)
        failed += untraced_failed + spanned_failed
    return ({name: statistics.median(p[name] for p in passes) for name in passes[0]},
            attempted, failed)


# --- reporting

def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def report(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cases = workloads.build(workload, seed)
    workloads.attach_expected(cases)
    runs = runs_of(cases)
    checked = self_check(runs)
    gc.collect()
    gc.freeze()  # the inputs live for the whole run; keep them out of GC passes
    try:
        measure_fn = per_layer if trace else end_to_end
        values, attempted, failed = measure_fn(workload, seed, seconds, cases)
    finally:
        gc.unfreeze()
    declared = spec()["per_layer" if trace else "end_to_end"]
    if {m["name"] for m in declared} != set(values):
        raise RuntimeError("computed metrics differ from BENCHMARK.json")
    print(f"{workload} (seed {seed}, {len(cases)} inputs, {len(runs)} runs per pass, "
          f"{'per-layer' if trace else 'end-to-end'})")
    for m in declared:
        print(f"  {m['name']:<30} {values[m['name']]:>14.6g} {m['unit']:<6} "
              f"({m['better']} is better)")
    print(f"  {'error_rate':<30} {failed / attempted:>14.6g} ratio  "
          f"(lower is better; {failed} of {attempted} runs failed)")
    print(f"  {'self_check':<30} {'passed' if checked else 'FAILED':>14}")
    return {
        "correct": checked and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = report(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
