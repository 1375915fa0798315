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


# --- lexing / parsing

class LexError(LazyLabError):
    def __init__(self, message: str, line: int, col: int, char: str | None = None):
        super().__init__(message, line, col)
        self.char = char


class ParseError(LazyLabError):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        super().__init__(message, line, col)
        self.expected = expected


# --- environments

class UnboundNameError(LazyLabError):
    def __init__(self, name: str):
        super().__init__(f"unbound name '{name}'")
        self.name = name


class DiscardedEnvError(LazyLabError):
    pass


class CannotDiscardGlobalError(LazyLabError):
    pass


# --- promises

class CyclicForceError(LazyLabError):
    def __init__(self, promise_id: int, label: str | None = None):
        what = f"argument '{label}'" if label else f"promise {promise_id}"
        super().__init__(f"cyclic forcing of {what}")
        self.promise_id = promise_id


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
        self.name = name


# --- macro language

class MacroSyntaxError(LazyLabError):
    pass


class DuplicateParamError(LazyLabError):
    def __init__(self, name: str, line: int | None = None, col: int | None = None):
        super().__init__(f"duplicate parameter '{name}'", line, col)
        self.name = name


class UnterminatedMacroError(LazyLabError):
    def __init__(self, name: str, line: int | None = None, col: int | None = None):
        super().__init__(f"macro '{name}' has no matching %mend", line, col)
        self.name = name


class UnknownMacroError(LazyLabError):
    def __init__(self, name: str):
        super().__init__(f"unknown macro '{name}'")
        self.name = name


class UnknownParamError(LazyLabError):
    def __init__(self, macro: str, name: str):
        super().__init__(f"macro '{macro}' has no parameter '{name}'")
        self.name = name


class UnresolvedRefError(LazyLabError):
    def __init__(self, name: str):
        super().__init__(f"unresolved reference '&{name}'")
        self.name = name


class DepthExceededError(LazyLabError):
    def __init__(self, name: str, limit: int):
        super().__init__(f"resolving '&{name}' exceeded {limit} rescans (self-referential value?)")
        self.name = name


class ArithSyntaxError(LazyLabError):
    pass
