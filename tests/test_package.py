"""The package's own names are the README's library sketch plus
`LazyLabError`, and the sketch runs as written."""

import re
import types
from pathlib import Path

import lazylab
from lazylab.evaluator import Output
from lazylab.lab import Verdict

README = Path(__file__).resolve().parents[1] / "README.md"


def library_sketch() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library sketch\n+```python\n(.*?)^```$", text, re.M | re.S)
    assert match, "README.md has no python block under '## Library sketch'"
    return match.group(1)


def test_library_sketch_runs():
    scope = {"source": "f <- function(x, y = x * 2) { y }\nprint(f(3))\n"}
    exec(compile(library_sketch(), "README.md", "exec"), scope)
    assert scope["lines"] == ["6"]
    assert isinstance(scope["out"], Output) and scope["out"].lines == ["6"]
    assert scope["sink"].events
    assert scope["report"].verdict is Verdict.DIVERGED
    assert scope["source"] == lazylab.generate_program(seed=3, size=14)


def test_package_exports_the_sketch_and_the_error():
    imported = re.search(r"from lazylab import \((.*?)\)", library_sketch(), re.S).group(1)
    public = {name for name, value in vars(lazylab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {*re.findall(r"\w+", imported), "LazyLabError"}
