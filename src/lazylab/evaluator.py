"""Tree-walking evaluator for funclang with pluggable argument passing.

Three strategies share one AST and one runtime:

* STRICT — call-by-value: supplied arguments are evaluated in the caller's
  environment at call time; defaults of unfilled parameters are evaluated in
  the new execution environment, in parameter order.
* NEED — call-by-need: every argument (supplied or default) is wrapped in a
  promise and forced at most once, on first read.
* NAME — call-by-name: arguments are wrapped the same way but re-evaluated
  on every read; nothing is cached.

Supplied-argument promises capture the caller's environment; default
promises capture the execution environment, so defaults see assignments made
earlier in the body.
"""

import decimal
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum

from .environments import EnvRegistry
from .errors import (
    ArityError,
    DivisionByZeroError,
    LazyLabError,
    MissingArgError,
    NumberTooLargeError,
    TypeMismatchError,
)
from .promises import Promise, PromiseStore
from .syntax import (
    Assign,
    Binary,
    Call,
    Expr,
    ExprStmt,
    FunctionDef,
    Ident,
    NumberLit,
    PrintStmt,
    Program,
    Stmt,
    VectorCtor,
    format_number,
)
from .trace import EventKind, TraceSink


class Strategy(str, Enum):
    STRICT = "strict"
    NEED = "need"
    NAME = "name"


@dataclass(frozen=True)
class Num:
    value: Decimal


@dataclass(frozen=True)
class Vec:
    elements: tuple[Decimal, ...]


@dataclass(frozen=True)
class Closure:
    params: tuple[tuple[str, Expr | None], ...]
    body: tuple[Stmt, ...]
    defined_in: int


Value = Num | Vec | Closure


class _MissingArg:
    def __repr__(self):
        return "<missing>"


MISSING = _MissingArg()


@dataclass
class Output:
    lines: list[str] = field(default_factory=list)
    result: Value | None = None


def format_value(v: Value) -> str:
    if isinstance(v, Num):
        return format_number(v.value)
    if isinstance(v, Vec):
        return " ".join(format_number(x) for x in v.elements)
    if isinstance(v, Closure):
        return "<closure>"
    raise TypeError(f"not a value: {v!r}")


# str() of a value is its printed form, which is how trace details show it.
Num.__str__ = Vec.__str__ = Closure.__str__ = format_value


class FunclangRun:
    """One program execution: owns its environments, promises, and trace."""

    def __init__(self, strategy: Strategy | str, trace: TraceSink | None = None):
        self.strategy = Strategy(strategy)
        self.trace = trace if trace is not None else TraceSink()
        self.envs = EnvRegistry(self.trace)
        self.promises = PromiseStore(self.envs, self.trace)
        self.output = Output()

    def run(self, program: Program) -> Output:
        g = self.envs.global_id
        for stmt in program.stmts:
            value = self.exec_stmt(stmt, g)
            if isinstance(stmt, ExprStmt):
                self.output.result = value
        return self.output

    def exec_stmt(self, stmt: Stmt, env: int) -> Value:
        try:
            if isinstance(stmt, Assign):
                value = self.eval_expr(stmt.expr, env)
                self.envs.define(env, stmt.name, value)
                return value
            if isinstance(stmt, PrintStmt):
                value = self.eval_expr(stmt.expr, env)
                line = format_value(value)
                self.output.lines.append(line)
                self.trace.emit(EventKind.OUTPUT_LINE, "stdout", text=line)
                return value
            if isinstance(stmt, ExprStmt):
                return self.eval_expr(stmt.expr, env)
        except LazyLabError as err:
            raise err.at(*stmt.pos)
        raise TypeError(f"not a statement: {stmt!r}")

    def eval_expr(self, e: Expr, env: int) -> Value:
        try:
            return self._eval(e, env)
        except LazyLabError as err:
            raise err.at(*e.pos)

    def _eval(self, e: Expr, env: int) -> Value:
        if isinstance(e, NumberLit):
            return Num(e.value)
        if isinstance(e, Ident):
            return self._read(e.name, env)
        if isinstance(e, Binary):
            return self._binary(e, env)
        if isinstance(e, VectorCtor):
            return self._vector(e, env)
        if isinstance(e, FunctionDef):
            return Closure(e.params, e.body, env)
        if isinstance(e, Call):
            callee = self.eval_expr(e.callee, env)
            if not isinstance(callee, Closure):
                raise TypeMismatchError("call of a non-function value")
            return self.call_closure(callee, e.args, env, e.pos)
        raise TypeError(f"not an expression: {e!r}")

    def _read(self, name: str, env: int) -> Value:
        binding = self.envs.lookup(env, name)
        if isinstance(binding, Promise):
            if self.strategy is Strategy.NAME:
                return self.promises.evaluate_uncached(binding, self.eval_expr)
            return self.promises.force(binding, self.eval_expr)
        if binding is MISSING:
            raise MissingArgError(name)
        return binding

    def _binary(self, e: Binary, env: int) -> Value:
        lhs = self.eval_expr(e.lhs, env)
        rhs = self.eval_expr(e.rhs, env)
        for side in (lhs, rhs):
            if isinstance(side, Closure):
                raise TypeMismatchError("arithmetic on a function")
            if isinstance(side, Vec):
                raise TypeMismatchError("arithmetic on a vector")
        a, b = lhs.value, rhs.value
        try:
            if e.op == "+":
                return Num(a + b)
            if e.op == "-":
                return Num(a - b)
            if e.op == "*":
                return Num(a * b)
            if b == 0:
                raise DivisionByZeroError()
            try:
                return Num(a / b)
            except (decimal.DivisionByZero, decimal.InvalidOperation):
                raise DivisionByZeroError() from None
        except decimal.Overflow:
            raise NumberTooLargeError("arithmetic overflow: exponent out of range") from None

    def _vector(self, e: VectorCtor, env: int) -> Value:
        elements: list[Decimal] = []
        for el in e.elements:
            value = self.eval_expr(el, env)
            if isinstance(value, Num):
                elements.append(value.value)
            elif isinstance(value, Vec):
                elements.extend(value.elements)
            else:
                raise TypeMismatchError("a function cannot be a vector element")
        return Vec(tuple(elements))

    def call_closure(
        self,
        f: Closure,
        args: tuple[tuple[str | None, Expr], ...],
        caller_env: int,
        pos: tuple[int, int],
    ) -> Value:
        exec_env = self.envs.child(f.defined_in)
        try:
            supplied = self._match_args(f.params, args, pos)
            if self.strategy is Strategy.STRICT:
                # Supplied args evaluate in the caller, in source order.
                values = {p: self.eval_expr(expr, caller_env) for p, expr in supplied}
                for p, default in f.params:
                    if p in values:
                        self.envs.define(exec_env, p, values[p])
                    elif default is not None:
                        self.envs.define(exec_env, p, self.eval_expr(default, exec_env))
                    else:
                        self.envs.define(exec_env, p, MISSING)
            else:
                by_name = dict(supplied)
                for p, default in f.params:
                    if p in by_name:
                        promise = self.promises.new(by_name[p], caller_env, label=p)
                    elif default is not None:
                        promise = self.promises.new(default, exec_env, label=p)
                    else:
                        self.envs.define(exec_env, p, MISSING)
                        continue
                    self.envs.define(exec_env, p, promise)
            result: Value | None = None
            for stmt in f.body:
                result = self.exec_stmt(stmt, exec_env)
            assert result is not None  # parser rejects empty bodies
            return result
        finally:
            self.envs.discard(exec_env)

    @staticmethod
    def _match_args(
        params: tuple[tuple[str, Expr | None], ...],
        args: tuple[tuple[str | None, Expr], ...],
        pos: tuple[int, int],
    ) -> list[tuple[str, Expr]]:
        """Resolve each argument to a parameter name, preserving source order.

        Named arguments bind by exact name; remaining positional arguments
        fill the still-unfilled parameters left to right.
        """
        names = [p for p, _ in params]
        named = {}
        for name, _expr in args:
            if name is not None:
                if name not in names:
                    raise ArityError(f"unknown named argument '{name}'", *pos)
                named[name] = True
        unfilled = [p for p in names if p not in named]
        resolved: list[tuple[str, Expr]] = []
        k = 0
        for name, expr in args:
            if name is None:
                if k >= len(unfilled):
                    raise ArityError(
                        f"too many arguments: expected at most {len(names)}", *pos
                    )
                resolved.append((unfilled[k], expr))
                k += 1
            else:
                resolved.append((name, expr))
        return resolved


def run_program(
    program: Program,
    strategy: Strategy | str,
    trace: TraceSink | None = None,
) -> Output:
    """Execute a parsed program in a fresh run under the given strategy."""
    return FunclangRun(strategy, trace).run(program)
