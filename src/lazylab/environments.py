"""Environment frames with parent links, identified by integer handles.

A registry holds only the live frames of one run.  Discarding a frame drops
it and every binding nothing else references; a traced run records it.  A
traced run's frame keeps its name, `env<N>`, made once at `child`: its
ENV_CREATED and ENV_DISCARDED events hold that one string.
Any later use of a discarded handle raises DiscardedEnvError, a promise's
first lookup in it too.  The root (global) frame is created with the
registry and cannot be discarded.
"""

from .errors import CannotDiscardGlobalError, DiscardedEnvError, UnboundNameError
from .trace import ENV_CREATED, ENV_DISCARDED, TraceSink

_UNBOUND = object()  # no binding of the name in a frame


class _Frame:
    __slots__ = ("parent", "bindings", "name")

    def __init__(self, parent: int | None, name: str | None = None):
        self.parent = parent  # a handle, so frames form no reference cycles
        self.bindings: dict[str, object] = {}  # to a value or a promises.Promise
        self.name = name  # a traced run's "env<N>", the subject of its events


class EnvRegistry:
    """The live environment frames of a single run.

    The registry hands out sequential integer ids; the global frame is id 0.
    Child creation and discarding of non-global frames are traced.
    """

    global_id = 0

    def __init__(self, trace: TraceSink | None):
        self._trace = trace
        self._frames: dict[int, _Frame] = {self.global_id: _Frame(None)}
        self._next_id = self.global_id + 1

    def _live(self, env: int) -> _Frame:
        frame = self._frames.get(env)
        if frame is None:
            raise DiscardedEnvError(f"environment env{env} was discarded")
        return frame

    def child(self, parent: int) -> int:
        """Create an empty frame under `parent`."""
        self._live(parent)
        fid = self._next_id
        self._next_id += 1
        if self._trace is None:
            self._frames[fid] = _Frame(parent)
        else:
            name = f"env{fid}"
            self._frames[fid] = _Frame(parent, name)
            self._trace.emit(ENV_CREATED, name, "", None, None, None, parent)
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
        frame = self._live(env)
        del self._frames[env]
        if self._trace is not None:
            self._trace.emit(ENV_DISCARDED, frame.name)
