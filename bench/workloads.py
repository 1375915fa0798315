"""Seeded inputs for the lazylab benchmark, each with its expected output.

A workload is a list of cases built from a seed. lazylab only ever sees a
case's source. The expected lines come from closed forms computed here, or,
for `corpus`, from the independent evaluator in `reference.py`; never from
lazylab itself.

Every workload draws its constants from the seed but keeps the shape of the
work fixed (how many programs, which depths, how many invocations or
stores), so that two seeds cost about the same and the figures of different
seeds can be compared.
"""

import random
from dataclasses import dataclass

from lazylab import lab

import reference

STRATEGIES = ("strict", "need", "name")
MACRO = (None,)


@dataclass
class Case:
    lang: str                      # "func" or "macro", as `lazylab run --lang`
    source: str
    strategies: tuple              # funclang strategies, or MACRO
    expected: list[str] | None     # None until `attach_expected` fills it


def _count(base: int, scale: float) -> int:
    return max(1, round(base * scale))


# --- corpus: the acceptance suite's traffic

CORPUS_PROGRAMS = 500


def corpus(seed: int, scale: float) -> list[Case]:
    return [Case("func", lab.generate_program(seed + i, 12), STRATEGIES, None)
            for i in range(_count(CORPUS_PROGRAMS, scale))]


# --- call_chain: f_d(x) -> f_{d-1}(x + x) -> ... -> f_0(x) = x
#
# Name re-evaluates the argument 2^d times while need and strict do linear
# work, so the depths stay small enough that name does not take most of the
# pass: with depths 2-6 it took 53 % of the plain and 58 % of the traced
# time on a 2-vCPU Xeon VM, with 2-4 it takes 43 % and 47 %. Each depth
# appears equally often; the seed orders them and draws the arguments.

CHAIN_DEPTHS = (2, 3, 4)
CHAIN_PROGRAMS_PER_DEPTH = 13
CHAIN_CALLS = 6


def chain_source(depth: int, args: list[int]) -> str:
    lines = ["f0 <- function(x, u = x * 0) {", "  x", "}"]
    for i in range(1, depth + 1):
        lines += [f"f{i} <- function(x, u = x * {i}) {{", f"  f{i - 1}(x + x)", "}"]
    lines += [f"print(f{depth}({k}))" for k in args]
    return "\n".join(lines) + "\n"


def call_chain(seed: int, scale: float) -> list[Case]:
    rng = random.Random(seed)
    depths = [d for d in CHAIN_DEPTHS
              for _ in range(_count(CHAIN_PROGRAMS_PER_DEPTH, scale))]
    rng.shuffle(depths)
    cases = []
    for depth in depths:
        args = [rng.randint(1, 99) for _ in range(CHAIN_CALLS)]
        cases.append(Case("func", chain_source(depth, args), STRATEGIES,
                          [str(k << depth) for k in args]))
    return cases


# --- macro_invoke: a few macros whose defaults chain `&` references
#
# Each template is (name, overridable parameter, parameter list, body, closed
# form). The closed form takes the globals and the override, if any, and
# returns the logged value, following maclang's textual substitution: `&m*&n`
# with m = "n+g0" reads as n + g0*n, and `&w*2` doubles only the last term.

def _ma(g, a=None):
    a = g[0] if a is None else a
    return ((a + g[1]) * 2 + g[2]) * 3 + a


def _mb(g, p=None):
    p = g[1] if p is None else p
    return (p * g[2] + 1 - p) * 2


def _mc(g, n=None):
    n = g[2] if n is None else n
    return n + g[0] * n + n + g[0] * 2


MACRO_TEMPLATES = (
    ("ma", "a", "a=&g0, b=(&a+&g1)*2, c=&b+&g2",
     "%let t=(&c)*3;\n%put ma %eval(&t+&a);", _ma),
    ("mb", "p", "p=&g1, q=&p*&g2+1",
     "%let s=(&q)-&p;\n%put mb %eval((&s)*2);", _mb),
    ("mc", "n", "n=&g2, m=&n+&g0, k=&m*&n",
     "%let w=&k+&m;\n%put mc %eval(&w*2);", _mc),
)
MACRO_SESSIONS = 12
MACRO_INVOCATIONS = 120


def macro_invoke(seed: int, scale: float) -> list[Case]:
    """Even sessions define all three macros, odd ones two of them, so every
    seed has the same mix. Each defined macro is invoked equally often, half
    of the time with its first parameter overridden."""
    rng = random.Random(seed)
    cases = []
    for session in range(_count(MACRO_SESSIONS, scale)):
        templates = list(MACRO_TEMPLATES)
        if session % 2:
            del templates[session // 2 % 3]
        g = [rng.randint(1, 9) for _ in range(3)]
        lines = [f"%let g{i}={v};" for i, v in enumerate(g)]
        for name, _, params, body, _ in templates:
            lines += [f"%macro {name}({params});", body, "%mend;"]
        rounds = _count(MACRO_INVOCATIONS, scale) // len(templates)
        calls = [(t, r % 2 == 0) for r in range(rounds) for t in templates]
        rng.shuffle(calls)
        expected = []
        for (name, first, _, _, value), override in calls:
            if override:
                k = rng.randint(0, 20)
                lines.append(f"%{name}({first}={k})")
                expected.append(f"{name} {value(g, k)}")
            else:
                lines.append(f"%{name}()")
                expected.append(f"{name} {value(g)}")
        cases.append(Case("macro", "\n".join(lines) + "\n", MACRO, expected))
    return cases


# --- macro_store: one large global table, written many times, read rarely

STORE_SESSIONS = 12
STORE_LETS = 600
STORE_PUT_EVERY = 100
_ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"


def macro_store(seed: int, scale: float) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for _ in range(_count(STORE_SESSIONS, scale)):
        values: list[str] = []
        lines, expected = [], []
        for i in range(_count(STORE_LETS, scale)):
            values.append("".join(rng.choices(_ALNUM, k=rng.randint(3, 8))))
            lines.append(f"%let v_{i}={values[i]};")
            if i % STORE_PUT_EVERY == STORE_PUT_EVERY - 1:
                j = rng.randrange(i + 1)
                lines.append(f"%put &v_{j};")
                expected.append(values[j])
        cases.append(Case("macro", "\n".join(lines) + "\n", MACRO, expected))
    return cases


WORKLOADS = {
    "corpus": corpus,
    "call_chain": call_chain,
    "macro_invoke": macro_invoke,
    "macro_store": macro_store,
}


def build(workload: str, seed: int, scale: float = 1.0) -> list[Case]:
    """The workload's inputs for `seed`; `scale` shrinks it for tests."""
    return WORKLOADS[workload](seed, scale)


def attach_expected(cases: list[Case]) -> None:
    """Fill the expected lines that have no closed form from the reference."""
    for case in cases:
        if case.expected is None:
            case.expected = reference.print_lines(case.source)
