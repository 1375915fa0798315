"""Exception types shared by the funclang and maclang engines."""


class LazyLabError(Exception):
    """Base class for every engine error; carries an optional source position."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def at(self, line: int, col: int) -> "LazyLabError":
        """Attach a position, unless one was already recorded closer to the fault."""
        if self.line is None:
            self.line = line
            self.col = col
        return self

    def __str__(self) -> str:
        if self.line is not None:
            return f"{self.message} (line {self.line}, col {self.col})"
        return self.message


# --- resource limits, in both engines

class DepthExceededError(LazyLabError):
    """A nesting deeper than its limit: parentheses and argument lists in the
    funclang parser, calls and argument evaluations in the evaluator, macro
    invocations, or rescans of a macro variable."""

    def __init__(self, action: str, limit: int, levels: str):
        super().__init__(f"{action} exceeded {limit} {levels}")


# --- lexing / parsing

class LexError(LazyLabError):
    pass


class ParseError(LazyLabError):
    pass


# --- environments

class UnboundNameError(LazyLabError):
    def __init__(self, name: str):
        super().__init__(f"unbound name '{name}'")


class DiscardedEnvError(LazyLabError):
    pass


class CannotDiscardGlobalError(LazyLabError):
    pass


# --- promises

class CyclicForceError(LazyLabError):
    def __init__(self, label: str):
        super().__init__(f"cyclic forcing of argument '{label}'")


# --- evaluation

class DivisionByZeroError(LazyLabError):
    def __init__(self, message: str = "division by zero"):
        super().__init__(message)


class NumberTooLargeError(LazyLabError):
    """A number beyond what the engine can compute with or print."""


class TypeMismatchError(LazyLabError):
    pass


class ArityError(LazyLabError):
    pass


class MissingArgError(LazyLabError):
    def __init__(self, name: str):
        super().__init__(f"argument '{name}' is missing, with no default")


# --- macro language

class MacroSyntaxError(LazyLabError):
    pass


class DuplicateParamError(LazyLabError):
    def __init__(self, name: str):
        super().__init__(f"duplicate parameter '{name}'")


class UnterminatedMacroError(LazyLabError):
    def __init__(self, name: str):
        super().__init__(f"macro '{name}' has no matching %mend")


class UnknownMacroError(LazyLabError):
    def __init__(self, name: str):
        super().__init__(f"unknown macro '{name}'")


class UnknownParamError(LazyLabError):
    def __init__(self, macro: str, name: str):
        super().__init__(f"macro '{macro}' has no parameter '{name}'")


class UnresolvedRefError(LazyLabError):
    def __init__(self, name: str):
        super().__init__(f"unresolved reference '&{name}'")


class ArithSyntaxError(LazyLabError):
    pass
