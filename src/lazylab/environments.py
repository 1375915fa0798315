"""Environment frames with parent links, identified by integer handles.

A registry holds only the live frames of one run.  Discarding a frame drops
it and every binding nothing else references; the trace keeps the record.
Any later use of a discarded handle raises DiscardedEnvError.  The root
(global) frame is created with the registry and cannot be discarded.
"""

from .errors import CannotDiscardGlobalError, DiscardedEnvError, UnboundNameError
from .trace import EventKind, TraceSink


class _Frame:
    __slots__ = ("parent", "bindings")

    def __init__(self, parent: int | None):
        self.parent = parent  # a handle, so frames form no reference cycles
        self.bindings: dict[str, object] = {}  # to a value or a promises.Promise


class EnvRegistry:
    """The live environment frames of a single run.

    The registry hands out sequential integer ids; the global frame is id 0.
    Child creation and discarding of non-global frames are traced.
    """

    def __init__(self, trace: TraceSink | None = None):
        self._trace = trace or TraceSink()
        self._frames: dict[int, _Frame] = {0: _Frame(None)}
        self._next_id = 1

    @property
    def global_id(self) -> int:
        return 0

    def _live(self, env: int) -> _Frame:
        frame = self._frames.get(env)
        if frame is None:
            raise DiscardedEnvError(f"environment env{env} was discarded")
        return frame

    def is_live(self, env: int) -> bool:
        return env in self._frames

    def child(self, parent: int) -> int:
        """Create an empty frame under `parent`."""
        self._live(parent)
        fid = self._next_id
        self._next_id += 1
        self._frames[fid] = _Frame(parent)
        self._trace.emit(EventKind.ENV_CREATED, f"env{fid}", env=parent)
        return fid

    def lookup(self, env: int, name: str) -> object:
        """Find `name` in the nearest frame of the parent chain."""
        frame = self._live(env)
        while name not in frame.bindings:
            parent = frame.parent
            if parent is None:
                raise UnboundNameError(name)
            frame = self._frames.get(parent)
            if frame is None:
                raise DiscardedEnvError(
                    f"lookup of '{name}' crossed discarded frame env{parent}"
                )
        return frame.bindings[name]

    def define(self, env: int, name: str, binding: object) -> None:
        """Create or overwrite `name` in exactly this frame, never a parent."""
        self._live(env).bindings[name] = binding

    def discard(self, env: int) -> None:
        if env == self.global_id:
            raise CannotDiscardGlobalError("the global environment cannot be discarded")
        self._live(env)
        del self._frames[env]
        self._trace.emit(EventKind.ENV_DISCARDED, f"env{env}")

    def bindings_of(self, env: int) -> dict[str, object]:
        return dict(self._live(env).bindings)
