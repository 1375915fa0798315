"""Tree-walking evaluator for funclang with pluggable argument passing.

Three strategies share one AST and one runtime:

* STRICT — call-by-value: supplied arguments are evaluated in the caller's
  environment at call time; defaults of unfilled parameters are evaluated in
  the new execution environment, in parameter order.
* NEED — call-by-need: every argument (supplied or default) is wrapped in a
  promise and forced at most once, on first read.
* NAME — call-by-name: arguments are wrapped the same way but re-evaluated
  on every read; nothing is cached.

A run makes the strategy's two decisions once, when it is made: whether a
call binds its arguments' values or promises, and which `PromiseStore` method
reads a promise, `force` or `evaluate_uncached`.  No call or read tests the
strategy again.

Supplied-argument promises capture the caller's environment; default
promises capture the execution environment, so defaults see assignments made
earlier in the body.

A closure is its `FunctionDef` and the frame it was made in.  Closure calls
and promise evaluations in progress (a cache hit is neither) nest at most
`CALL_DEPTH_LIMIT` levels deep; one more is a positioned `DepthExceededError`.
A call is its `Call.weight`: one more than the `c(` lists, parenthesised
right operands and enclosing chained calls around it, which nest Python
frames that no other level counts (`syntax._Parser.factor`), plus the called
function's `FunctionDef.reads`, the `c(` lists and parenthesised right
operands around the deepest name read in its body.  A promise
evaluation is its argument's or default's weight (`Call.weights`,
`FunctionDef.weights`): one more than the `c(` lists and parenthesised right
operands around the deepest name read in its expression, since a read may
evaluate another promise.
"""

import decimal
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum

from .environments import EnvRegistry
from .errors import (
    ArityError,
    DepthExceededError,
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
    format_value,
)
from .trace import OUTPUT_LINE, TraceSink


class Strategy(str, Enum):
    STRICT = "strict"
    NEED = "need"
    NAME = "name"


# A level nests five to six Python frames.  From a shallow stack on CPython
# 3.10-3.13, the deepest runs at this bound and syntax.NESTING_LIMIT need at
# most 615 of Python's default 1,000 frames; the rest is the callers'.
CALL_DEPTH_LIMIT = 100
_LEVELS = "nested calls and argument evaluations"


# A value is a Decimal, a tuple of Decimals (a vector) or a Closure.  A closure
# is slotted and never mutated after construction, which keeps its hash valid
# (see syntax's docstring).
@dataclass(slots=True, unsafe_hash=True)
class Closure:
    defn: FunctionDef
    defined_in: int


Value = Decimal | tuple[Decimal, ...] | Closure


class _MissingArg:
    def __repr__(self):
        return "<missing>"


MISSING = _MissingArg()


@dataclass
class Output:
    lines: list[str] = field(default_factory=list)
    result: Value | None = None


class FunclangRun:
    """One program execution: owns its environments, promises, and trace."""

    def __init__(self, strategy: Strategy | str, trace: TraceSink | None = None):
        self.strategy = Strategy(strategy)
        self.trace = trace
        self.envs = EnvRegistry(self.trace)
        self.promises = PromiseStore(self.trace)
        # the strategy's two decisions (the module docstring); a bound method
        # in place of the function would add about 64 bytes to a run (CPython 3.11.7)
        self._strict = self.strategy is Strategy.STRICT
        self._read_promise = (PromiseStore.evaluate_uncached
                              if self.strategy is Strategy.NAME else PromiseStore.force)
        self.output = Output()
        self.depth = 0  # levels in progress: call weights and promise evaluations

    def run(self, program: Program) -> Output:
        g = self.envs.global_id
        for stmt in program.stmts:
            value = self.exec_stmt(stmt, g)
            # the result is the value of a bare expression that ends the program
            self.output.result = value if stmt.__class__ is ExprStmt else None
        return self.output

    def exec_stmt(self, stmt: Stmt, env: int) -> Value:
        value = self.eval_expr(stmt.expr, env)
        cls = stmt.__class__
        if cls is Assign:
            self.envs.define(env, stmt.name, value)
        elif cls is PrintStmt:
            line = format_value(value)
            self.output.lines.append(line)
            if self.trace is not None:
                self.trace.emit(OUTPUT_LINE, "stdout", line)
        return value

    def eval_expr(self, e: Expr, env: int) -> Value:
        cls = e.__class__  # compared by identity (the hot-path rule in syntax's docstring)
        if cls is NumberLit:
            return e.value
        try:
            if cls is Ident:
                return self._read(e.name, env)
            if cls is Binary:
                return self._binary(e, env)
            if cls is Call:
                callee = self.eval_expr(e.callee, env)
                if not isinstance(callee, Closure):
                    raise TypeMismatchError("call of a non-function value")
                return self.call_closure(callee, e, env)
            if cls is VectorCtor:
                return self._vector(e, env)
            if cls is FunctionDef:
                return Closure(e, env)
        except LazyLabError as err:
            raise err.at(*e.pos)
        raise TypeError(f"not an expression: {e!r}")

    def _read(self, name: str, env: int) -> Value:
        binding = self.envs.lookup(env, name)
        if isinstance(binding, Promise):
            return self._read_promise(self.promises, binding, self._evaluate)
        if binding is MISSING:
            raise MissingArgError(name)
        return binding

    def _evaluate(self, e: Expr, env: int, weight: int) -> Value:
        """Evaluate a promise's expression, `weight` levels deeper."""
        if self.depth + weight > CALL_DEPTH_LIMIT:
            raise DepthExceededError("evaluating an argument", CALL_DEPTH_LIMIT, _LEVELS)
        self.depth += weight
        try:
            return self.eval_expr(e, env)
        finally:
            self.depth -= weight

    def _binary(self, e: Binary, env: int) -> Value:
        # The parser builds `a + b + c` left-deep: walk its left spine in a
        # loop, so only source nesting (parentheses, calls) nests Python frames.
        chain = [e]
        while isinstance(chain[-1].lhs, Binary):
            chain.append(chain[-1].lhs)
        lhs = self.eval_expr(chain[-1].lhs, env)
        for node in reversed(chain):
            rhs = self.eval_expr(node.rhs, env)
            try:
                if not (isinstance(lhs, Decimal) and isinstance(rhs, Decimal)):
                    bad = rhs if isinstance(lhs, Decimal) else lhs
                    kind = "function" if isinstance(bad, Closure) else "vector"
                    raise TypeMismatchError(f"arithmetic on a {kind}")
                if node.op == "+":
                    lhs = lhs + rhs
                elif node.op == "-":
                    lhs = lhs - rhs
                elif node.op == "*":
                    lhs = lhs * rhs
                elif rhs == 0:
                    raise DivisionByZeroError()
                else:
                    lhs = lhs / rhs
            except decimal.Overflow:
                raise NumberTooLargeError(
                    "arithmetic overflow: exponent out of range", *node.pos) from None
            except LazyLabError as err:
                raise err.at(*node.pos)
        return lhs

    def _vector(self, e: VectorCtor, env: int) -> Value:
        elements: list[Decimal] = []
        for el in e.elements:
            value = self.eval_expr(el, env)
            if isinstance(value, Decimal):
                elements.append(value)
            elif isinstance(value, tuple):
                elements.extend(value)
            else:
                raise TypeMismatchError("a function cannot be a vector element")
        return tuple(elements)

    def call_closure(self, f: Closure, call: Call, caller_env: int) -> Value:
        """Call `f` with the arguments of `call`, `call.weight` levels deeper
        plus the levels open around the deepest name read in `f`'s body."""
        defn = f.defn
        weight = call.weight + defn.reads
        if self.depth + weight > CALL_DEPTH_LIMIT:
            raise DepthExceededError("calling a function", CALL_DEPTH_LIMIT, _LEVELS)
        exec_env = self.envs.child(f.defined_in)
        self.depth += weight
        try:
            args = call.args
            supplied = self._match_args(defn.params, args)
            strict = self._strict
            if strict:
                # Supplied args evaluate in the caller, in source order,
                # before any default.
                values = {p: self.eval_expr(args[j][1], caller_env) for p, j in supplied.items()}
            for k, (p, default) in enumerate(defn.params):
                if p in supplied:
                    if strict:
                        value = values[p]
                    else:
                        j = supplied[p]
                        value = self.promises.new(args[j][1], caller_env, p,
                                                  1 if call.weights is None else call.weights[j])
                elif default is None:
                    value = MISSING
                elif strict:
                    value = self.eval_expr(default, exec_env)
                else:
                    value = self.promises.new(default, exec_env, p,
                                              1 if defn.weights is None else defn.weights[k])
                self.envs.define(exec_env, p, value)
            result: Value | None = None
            for stmt in defn.body:
                result = self.exec_stmt(stmt, exec_env)
            assert result is not None  # parser rejects empty bodies
            return result
        finally:
            self.depth -= weight
            self.envs.discard(exec_env)

    @staticmethod
    def _match_args(
        params: tuple[tuple[str, Expr | None], ...],
        args: tuple[tuple[str | None, Expr], ...],
    ) -> dict[str, int]:
        """Map each parameter given an argument to the argument's index, in
        source order.

        Named arguments bind by exact name; remaining positional arguments
        fill the still-unfilled parameters left to right.
        """
        if len(args) <= len(params):
            for name, _expr in args:
                if name is not None:
                    break
            else:  # positional only: the j-th argument fills the j-th parameter
                matched = {}
                for j in range(len(args)):
                    matched[params[j][0]] = j
                return matched
        names = {p for p, _ in params}
        for name, _expr in args:
            if name is not None and name not in names:
                raise ArityError(f"unknown named argument '{name}'")
        named = {name for name, _expr in args}
        unfilled = iter([p for p, _ in params if p not in named])
        matched: dict[str, int] = {}
        for j, (name, _expr) in enumerate(args):
            name = name or next(unfilled, None)
            if name is None:
                raise ArityError(f"too many arguments: expected at most {len(params)}")
            matched[name] = j
        return matched


def run_program(
    program: Program,
    strategy: Strategy | str,
    trace: TraceSink | None = None,
) -> Output:
    """Execute a parsed program in a fresh run under the given strategy.

    With `trace=None` the run is not traced: it makes no `emit` call and
    keeps no event.  Pass a `TraceSink()` to trace it."""
    return FunclangRun(strategy, trace).run(program)
