"""The package keeps no module-level state that its functions rebind,
and one place applies the retry policy.

A `global` statement lets one call change what every later call in the
process sees; per-run values belong to the objects a run creates (the
`Asker` carries the template directory, for one). Every LLM call goes
through `Asker.ask`, so no second retry loop can wrap a client call.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "claimaudit"
MODULES = sorted(SRC.rglob("*.py"))


def test_the_package_has_modules():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_global_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    rebinds = [
        f"line {node.lineno}: global {', '.join(node.names)}" for node in ast.walk(tree) if isinstance(node, ast.Global)
    ]
    assert rebinds == []


def _complete_callers(node, scope=""):
    """The enclosing qualified name of every `.complete(...)` call under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _complete_callers(child, f"{scope}{child.name}.")
            continue
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and child.func.attr == "complete":
            yield scope.rstrip(".")
        yield from _complete_callers(child, scope)


def test_only_the_asker_calls_a_client():
    callers = [
        f"{path.name}:{caller}"
        for path in MODULES
        for caller in _complete_callers(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert callers == ["llm.py:Asker.ask"]
