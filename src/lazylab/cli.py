"""Command-line front end.

Commands: run, trace, diff, pairs, gen.  Exit codes: 0 success, 1 program
error, 2 usage error, 3 diff divergence.  Diagnostics go to stderr as
`file:line:col: error: message`; set LAZYLAB_COLOR=0 to disable ANSI color.
"""

import argparse
import codecs
import json
import os
import sys

from .errors import LazyLabError, LexError
# bench/run.py reads Strategy and run_program off this module
from .evaluator import Strategy, run_program  # noqa: F401
from .lab import (
    CELLS,
    PAIRS,
    DivergenceReport,
    Verdict,
    diff_outputs,
    generate_program,
    metrics_delta,
    metrics_from_events,
    paired_run,
    run,
    run_with_metrics,
    trace_jsonl,
)
# bench/run.py reads run_session and format_value off this module
from .maclang import run_session  # noqa: F401
from .syntax import format_value, parse_source  # noqa: F401
from .trace import TraceSink

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lazylab",
        description="Run and compare call-by-need and call-by-name evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    strategies = [strategy for engine, strategy in CELLS if engine == "func"]

    def add_common(p):
        p.add_argument("--lang", choices=["func", "macro"], required=True)
        p.add_argument("--strategy", choices=strategies,
                       help="argument-passing strategy (func only; default: need)")
        p.add_argument("input", help="program file, or '-' for stdin")

    run = sub.add_parser("run", help="run a program and print its output")
    add_common(run)
    run.add_argument("--output", choices=["text", "json"], default="text")
    run.set_defaults(handler=_cmd_run)
    trace = sub.add_parser("trace", help="run a program and emit a JSON-lines trace")
    add_common(trace)
    trace.set_defaults(handler=_cmd_trace)

    diff = sub.add_parser("diff", help="run one funclang program under two strategies")
    diff.add_argument("left", choices=strategies)
    diff.add_argument("right", choices=strategies)
    diff.add_argument("--output", choices=["text", "json"], default="text")
    diff.add_argument("input", help="program file, or '-' for stdin")
    diff.set_defaults(handler=_cmd_diff)

    pairs = sub.add_parser("pairs", help="run the bundled paired programs")
    pairs.add_argument("--output", choices=["text", "json"], default="text")
    pairs.set_defaults(handler=_cmd_pairs)

    gen = sub.add_parser("gen", help="generate a deterministic test program")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--size", type=int, default=12)
    gen.set_defaults(handler=_cmd_gen)
    return parser


def _color() -> bool:
    return sys.stderr.isatty() and os.environ.get("LAZYLAB_COLOR") != "0"


def _diagnose(input_name: str, err: LazyLabError, context: str = "") -> None:
    if input_name == "-":
        input_name = "<stdin>"
    line = err.line if err.line is not None else 1
    col = err.col if err.col is not None else 1
    text = f"{input_name}:{line}:{col}: error: {context}{err.message}"
    if _color():
        text = f"\x1b[31m{text}\x1b[0m"
    print(text, file=sys.stderr)


def _write(lines) -> None:
    """Print each line to stdout.  A reader that stops early (`| head -1`) is
    not an error: stdout is pointed at os.devnull, so that neither the lines
    still to come nor the flush at exit raise again, and the command ends
    with the exit code it would have had."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)


def _read_input(path: str) -> str:
    """The text of a file or of stdin ('-'), decoded strictly as UTF-8 after
    one leading byte-order mark is dropped; CRLF and CR line ends are read as
    LF, as text-mode files read them."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    data = data.removeprefix(codecs.BOM_UTF8).replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        # the column counts characters, as the lexers do
        before = data[:err.start].decode("utf-8")
        raise LexError(f"invalid UTF-8 byte 0x{data[err.start]:02x}",
                       before.count("\n") + 1, len(before) - before.rfind("\n")) from None


def _cmd_run(args) -> int:
    try:
        lines, result = run(_read_input(args.input), args.lang, args.strategy)
    except LazyLabError as err:
        _diagnose(args.input, err)
        return 1
    lines = lines if result is None else [*lines, result]
    _write([json.dumps({"lines": lines, "result": result})] if args.output == "json" else lines)
    return 0


def _cmd_trace(args) -> int:
    try:
        _, metrics, events = run_with_metrics(_read_input(args.input), args.lang, args.strategy)
    except LazyLabError as err:
        _write(trace_jsonl(getattr(err, "partial_trace", [])))
        _diagnose(args.input, err)
        return 1
    _write(trace_jsonl(events, metrics))
    return 0


def _format_report(name: str | None, report: DivergenceReport) -> list[str]:
    prefix = f"{name:<14}" if name else ""
    if report.verdict is Verdict.EQUAL:
        return [f"{prefix}EQUAL"]
    index, left, right = report.first_diff_line
    left_text = "<absent>" if left is None else repr(left)
    right_text = "<absent>" if right is None else repr(right)
    return [f"{prefix}DIVERGED at line {index + 1}: {left_text} vs {right_text}"]


def _cmd_diff(args) -> int:
    runs, context = [], ""
    try:
        # read and parsed once: an input error is no strategy's
        program = parse_source(_read_input(args.input))
        for strategy in (args.left, args.right):
            context = f"{strategy} run: "  # which side fails is part of the contrast
            sink = TraceSink()
            lines = run_program(program, strategy, sink).lines
            runs.append((lines, metrics_from_events(sink.events)))
    except LazyLabError as err:
        _diagnose(args.input, err, context)
        return 1
    (left_lines, left_metrics), (right_lines, right_metrics) = runs
    report = diff_outputs(left_lines, right_lines)
    report.metrics_delta = metrics_delta(left_metrics, right_metrics)
    _write([json.dumps(report.to_dict())] if args.output == "json"
           else _format_report(None, report))
    return 0 if report.verdict is Verdict.EQUAL else 3


def _cmd_pairs(args) -> int:
    results = []
    for pair in PAIRS:
        try:
            results.append((pair, paired_run(pair)))
        except LazyLabError as err:
            _diagnose(f"<pair {pair.value}>", err)
            return 1
    ok = all(report.verdict is PAIRS[pair].expected for pair, report in results)
    if args.output == "json":
        lines = [json.dumps([
            {"pair": pair.value, **report.to_dict()} for pair, report in results
        ])]
    else:
        lines = [line for pair, report in results for line in _format_report(pair.value, report)]
        lines.append(f"verdict pattern: {'expected' if ok else 'UNEXPECTED'}")
    _write(lines)
    return 0 if ok else 1


def _cmd_gen(args) -> int:
    _write(generate_program(args.seed, args.size).splitlines())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    if getattr(args, "lang", None) == "macro" and args.strategy is not None:
        print("lazylab: error: --strategy is only valid with --lang func", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except OSError as ex:
        print(f"lazylab: error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
