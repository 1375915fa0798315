"""Environment frames with parent links, identified by integer handles.

A registry holds only the live frames of one run.  Discarding a frame drops
it and every binding nothing else references; a keeping trace records it.
Any later use of a discarded handle raises DiscardedEnvError.  The root
(global) frame is created with the registry and cannot be discarded.
"""

from .errors import CannotDiscardGlobalError, DiscardedEnvError, UnboundNameError
from .trace import EventKind, TraceSink

# module names for every call (the hot-path rule in syntax's docstring)
_ENV_CREATED = EventKind.ENV_CREATED
_ENV_DISCARDED = EventKind.ENV_DISCARDED
_UNBOUND = object()  # no binding of the name in a frame


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

    global_id = 0

    def __init__(self, trace: TraceSink):
        self._trace = trace
        self._frames: dict[int, _Frame] = {self.global_id: _Frame(None)}
        self._next_id = self.global_id + 1

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
        if self._trace.events is not None:
            self._trace.emit(_ENV_CREATED, f"env{fid}", env=parent)
        return fid

    def lookup(self, env: int, name: str) -> object:
        """Find `name` in the nearest frame of the parent chain."""
        frames = self._frames
        frame = frames.get(env) or self._live(env)  # a frame is always true
        while (binding := frame.bindings.get(name, _UNBOUND)) is _UNBOUND:
            parent = frame.parent
            if parent is None:
                raise UnboundNameError(name)
            frame = frames.get(parent)
            if frame is None:
                raise DiscardedEnvError(
                    f"lookup of '{name}' crossed discarded frame env{parent}"
                )
        return binding

    def define(self, env: int, name: str, binding: object) -> None:
        """Create or overwrite `name` in exactly this frame, never a parent."""
        self._live(env).bindings[name] = binding

    def discard(self, env: int) -> None:
        if env == self.global_id:
            raise CannotDiscardGlobalError("the global environment cannot be discarded")
        self._live(env)
        del self._frames[env]
        if self._trace.events is not None:
            self._trace.emit(_ENV_DISCARDED, f"env{env}")
