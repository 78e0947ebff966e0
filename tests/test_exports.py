"""The package's public names: each listed once, each loaded on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import claimaudit

SRC = Path(__file__).resolve().parent.parent / "src"
EXPORTS = [(module, name) for module, names in claimaudit._EXPORTS.items() for name in names]


def test_all_lists_each_exported_name_once():
    names = [name for _, name in EXPORTS]
    assert len(names) == len(set(names))
    assert claimaudit.__all__ == sorted(names)
    assert set(claimaudit.__all__) <= set(dir(claimaudit))


@pytest.mark.parametrize(("module", "name"), EXPORTS, ids=[name for _, name in EXPORTS])
def test_each_name_is_the_object_its_module_defines(module, name):
    value = getattr(claimaudit, name)
    assert value is getattr(importlib.import_module(f"claimaudit.{module}"), name)
    if callable(value):
        assert value.__module__ == f"claimaudit.{module}"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        claimaudit.nonexistent


def test_submodules_still_import_by_from():
    from claimaudit import _rng, cli

    assert cli.__name__ == "claimaudit.cli"
    assert _rng.__name__ == "claimaudit._rng"


def test_package_import_loads_no_submodule():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = (
        "import sys, claimaudit\n"
        "print(sorted(name for name in sys.modules if name.startswith('claimaudit.')))\n"
        "claimaudit.Claim\n"
        "print('claimaudit.core' in sys.modules, 'claimaudit.evaluation' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "True False"]
