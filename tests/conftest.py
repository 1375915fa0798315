import pytest


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
