"""The package keeps no module-level state that its functions rebind.

A `global` statement lets one call change what every later call in the
process sees; per-run values belong to the objects a run creates (the
`Asker` carries the template directory, for one).
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
