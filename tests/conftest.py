import sys

import pytest
from hypothesis import strategies as st

from lazylab.lab import CELLS, CORPORA

# funclang's strategies, in the grid's order
STRATEGIES = [strategy for engine, strategy in CELLS if engine == "func"]


def cell_runs(corpus):
    """(seed, engine, strategy, source) for each seed of `lab.CORPORA[corpus]`
    in turn, in each cell of `lab.CELLS` on its engine."""
    seeds, make = CORPORA[corpus]
    for seed in seeds:
        engine, source = make(seed)
        yield from ((seed, engine, strategy, source) for cell, strategy in CELLS if cell == engine)


def sources_of(*corpora):
    """A Hypothesis strategy: the source of any default seed of the corpora."""
    return st.one_of(*(st.sampled_from(CORPORA[c][0]).map(lambda seed, c=c: CORPORA[c][1](seed)[1])
                       for c in corpora))


def of_kind(events, kind):
    """The trace events of one kind, in order."""
    return [ev for ev in events if ev.kind is kind]


def count(events, kind):
    """How many trace events are of one kind."""
    return sum(1 for ev in events if ev.kind is kind)


def bindings_of(envs, env):
    """A copy of one live frame's bindings; a discarded handle raises
    DiscardedEnvError, as every other use of it does."""
    return dict(envs._live(env).bindings)


def stack_depth():
    """How many Python frames are on the stack, the caller's among them: a
    frame-budget test sets the recursion limit to this plus its budget."""
    frame, frames = sys._getframe(1), 0
    while frame is not None:
        frame, frames = frame.f_back, frames + 1
    return frames


def global_table(session):
    """A maclang session's global symbol table."""
    return session._tables[-1]


# Literal transcriptions used by several test modules.

@pytest.fixture
def r_prog1_listing():
    return """\
lazy_eval<-function(x=5,y=x*10,z=a+b){
  x=2
  a=3
  b=4
  c(x,y,z)
}

lazy_eval()
"""


@pytest.fixture
def r_prog2_listing():
    return """\
lazy1<-function(x=5,y=x*10){
x=2
print(y)
x=10
print(y)
}
lazy1()
"""


@pytest.fixture
def sas_prog1_listing():
    return """\
%macro lazy(x=5,y=&x*10,z=&a+&b);
%put _user_
%let x=2;
%let a=3;
%let b=4;
%put (&x %eval(&y) %eval(&z));
%mend;

%lazy()
"""


@pytest.fixture
def sas_prog2_listing():
    return """\
%macro lazy1(x=5,y=&x*10);
%let x=2;
%put %eval(&y);
%let x=10;
%put %eval(&y);

%mend;

%lazy1()
"""


@pytest.fixture
def env_lifecycle_program():
    return """\
y <- 6
h <- function(x=1){
  a <- 2
  x + a
}
z <- h(1)
"""
