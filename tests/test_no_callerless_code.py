"""Every function and class in ``src/`` has a caller that ships.

A name whose definition is its only whole-word occurrence across the
shipped trees is reachable from tests at most, so it is dead weight in
the package.  The check is textual on purpose: a name mentioned in a
docstring, an ``__all__`` list or a ``getattr`` string counts as used.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ("src", "scripts", "benchmarks", "examples", "perfbench")

# Hooks ``http.server`` calls by name on the request handler.
ALLOWED = {"do_GET", "do_POST", "log_message"}


def _sources():
    for tree in SHIPPED:
        for path in sorted((ROOT / tree).rglob("*.py")):
            yield path, path.read_text()


def _definitions(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                yield node.lineno, name


def callerless(sources):
    """``(path, line, name)`` of every definition in ``src/`` whose
    name occurs exactly once across ``sources``."""
    sources = list(sources)
    words = Counter()
    for _, text in sources:
        words.update(re.findall(r"\w+", text))
    src = ROOT / "src"
    return [
        (path.relative_to(ROOT).as_posix(), line, name)
        for path, text in sources
        if path.is_relative_to(src)
        for line, name in _definitions(text)
        if words[name] == 1 and name not in ALLOWED
    ]


def test_every_definition_has_a_shipped_caller():
    assert callerless(_sources()) == []


def test_a_callerless_method_is_caught():
    sources = list(_sources())
    path = ROOT / "src" / "repro" / "geometry" / "rect.py"
    extra = "\n    def union_bbox(self, other):\n        return self\n"
    patched = [(p, text + extra if p == path else text) for p, text in sources]
    assert callerless(patched) == [
        ("src/repro/geometry/rect.py", len(path.read_text().splitlines()) + 2,
         "union_bbox")
    ]
