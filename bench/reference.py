"""Independent reference evaluator for the funclang fragment that
`lazylab.lab.generate_program` emits.

It shares no code with lazylab. It covers integers, `+ - *`, parentheses,
assignment with `<-` or `=`, `c(...)`, `print(...)`, and functions whose
parameters have defaults, called with positional and named arguments. On
this fragment call-by-value, call-by-need and call-by-name agree, so one
eager evaluation gives the output of every strategy.
"""

import re

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(<-|[-+*=(){},]))")


def _tokenize(source: str) -> list[tuple[str, object]]:
    source = source.rstrip()
    toks, pos = [], 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if m is None:
            raise ValueError(f"reference: unsupported text {source[pos:pos + 12]!r}")
        number, name, punct = m.groups()
        if number is not None:
            toks.append(("num", int(number)))
        elif name is not None:
            toks.append(("name", name))
        else:
            toks.append(("op", punct))
        pos = m.end()
    toks.append(("end", None))
    return toks


class _Parser:
    def __init__(self, source: str):
        self.toks = _tokenize(source)
        self.i = 0

    def at(self, kind: str, text=None, ahead: int = 0) -> bool:
        k, v = self.toks[min(self.i + ahead, len(self.toks) - 1)]
        return k == kind and (text is None or v == text)

    def take(self, kind: str, text=None):
        if not self.at(kind, text):
            raise ValueError(f"reference: expected {text or kind}, got {self.toks[self.i]}")
        self.i += 1
        return self.toks[self.i - 1][1]

    def statements(self, end: str) -> list:
        out = []
        while not self.at(*end):
            if self.at("name", "print") and self.at("op", "(", 1):
                self.i += 2
                out.append(("print", self.expr()))
                self.take("op", ")")
            elif self.at("name") and (self.at("op", "<-", 1) or self.at("op", "=", 1)):
                name = self.take("name")
                self.i += 1
                out.append(("assign", name, self.expr()))
            else:
                out.append(("expr", self.expr()))
        return out

    def expr(self):
        e = self.term()
        while self.at("op", "+") or self.at("op", "-"):
            e = ("bin", self.take("op"), e, self.term())
        return e

    def term(self):
        e = self.postfix()
        while self.at("op", "*"):
            self.i += 1
            e = ("bin", "*", e, self.postfix())
        return e

    def postfix(self):
        e = self.primary()
        while self.at("op", "("):
            e = ("call", e, self.items(self.argument))
        return e

    def primary(self):
        if self.at("num"):
            return ("num", self.take("num"))
        if self.at("name", "function"):
            self.i += 1
            params = self.items(self.parameter)
            self.take("op", "{")
            body = self.statements(("op", "}"))
            self.take("op", "}")
            return ("fn", params, body)
        if self.at("name", "c") and self.at("op", "(", 1):
            self.i += 1
            return ("vec", self.items(self.expr))
        if self.at("name"):
            return ("var", self.take("name"))
        self.take("op", "(")
        e = self.expr()
        self.take("op", ")")
        return e

    def items(self, item) -> list:
        """A parenthesized, comma-separated list."""
        self.take("op", "(")
        out = []
        while not self.at("op", ")"):
            out.append(item())
            if not self.at("op", ")"):
                self.take("op", ",")
        self.take("op", ")")
        return out

    def named(self):
        if self.at("name") and self.at("op", "=", 1):
            name = self.take("name")
            self.i += 1
            return name, self.expr()
        return None

    def argument(self):
        return self.named() or (None, self.expr())

    def parameter(self):
        return self.named() or (self.take("name"), None)


class _Closure:
    def __init__(self, params, body, env):
        self.params, self.body, self.env = params, body, env


def _lookup(env: tuple, name: str):
    while env is not None:
        scope, env = env
        if name in scope:
            return scope[name]
    raise ValueError(f"reference: unbound {name!r}")


def _format(v) -> str:
    return " ".join(map(str, v)) if isinstance(v, tuple) else str(v)


class _Run:
    """Eager evaluation; an environment is a (scope dict, parent) pair."""

    def __init__(self):
        self.printed: list[str] = []

    def exec(self, stmt, env):
        value = self.eval(stmt[-1], env)
        if stmt[0] == "assign":
            env[0][stmt[1]] = value
        elif stmt[0] == "print":
            self.printed.append(_format(value))
        return value

    def eval(self, e, env):
        tag = e[0]
        if tag == "num":
            return e[1]
        if tag == "var":
            return _lookup(env, e[1])
        if tag == "bin":
            a, b = self.eval(e[2], env), self.eval(e[3], env)
            return a + b if e[1] == "+" else a - b if e[1] == "-" else a * b
        if tag == "vec":
            out = []
            for el in e[1]:
                v = self.eval(el, env)
                out.extend(v if isinstance(v, tuple) else (v,))
            return tuple(out)
        if tag == "fn":
            return _Closure(e[1], e[2], env)
        return self.call(self.eval(e[1], env), e[2], env)

    def call(self, f: _Closure, args, caller_env):
        """Named arguments bind by name; positional ones fill the remaining
        parameters left to right; defaults are evaluated in the new scope, in
        parameter order."""
        named = {n for n, _ in args if n is not None}
        unfilled = iter(p for p, _ in f.params if p not in named)
        supplied = {}
        for name, expr in args:
            supplied[name if name is not None else next(unfilled)] = self.eval(expr, caller_env)
        env = ({}, f.env)
        for p, default in f.params:
            if p in supplied:
                env[0][p] = supplied[p]
            elif default is not None:
                env[0][p] = self.eval(default, env)
        result = None
        for stmt in f.body:
            result = self.exec(stmt, env)
        return result


def print_lines(source: str) -> list[str]:
    """The lines the program prints."""
    run = _Run()
    env = ({}, None)
    for stmt in _Parser(source).statements(("end", None)):
        run.exec(stmt, env)
    return run.printed
