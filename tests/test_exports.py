"""The package's public names: each listed once, each loaded on first use.

A setting that `config` owns is one object under every module that
imports it.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import claimaudit
import claimaudit.cli as cli
import claimaudit.config as config
import claimaudit.evaluation as evaluation
import claimaudit.records as records

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


# Settings records and defaults that `config` owns, under the runner modules
# they are still imported from.
MOVED = [
    ("audit", "DEFAULT_TOKEN_BUDGET"),
    ("calibration", "Grid"),
    ("calibration", "default_grid"),
    ("corpus", "DEFAULT_EMBED_DIM"),
    ("corpus", "DEFAULT_RETRIEVAL_K"),
    ("corpus", "SCENARIO_LABELS"),
    ("evaluation", "ALL_METHODS"),
    ("evaluation", "AblationFlags"),
    ("llm", "DEFAULT_MAX_IN_FLIGHT"),
    ("llm", "DEFAULT_RETRIES"),
    ("llm", "DEFAULT_TIMEOUT_S"),
]


@pytest.mark.parametrize(("module", "name"), MOVED, ids=[f"{module}.{name}" for module, name in MOVED])
def test_a_moved_name_is_the_object_config_defines(module, name):
    assert getattr(importlib.import_module(f"claimaudit.{module}"), name) is getattr(config, name)


# The record layer, under the runner module it is still imported from.
RECORD_LAYER = claimaudit._EXPORTS["records"]


@pytest.mark.parametrize("name", RECORD_LAYER)
def test_a_record_layer_name_is_the_object_records_defines(name):
    assert getattr(evaluation, name) is getattr(records, name)


def test_the_record_layer_imports_no_runner():
    # So `report` loads no `audit`, `baselines`, `llm`, `corpus`, `evaluation`,
    # `calibration`, `redundancy` or `_rng`.
    imported = set()
    for node in ast.walk(ast.parse(Path(records.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [alias.name for alias in node.names]
            imported |= {name.removeprefix("claimaudit.") for name in names}
    package = {path.stem for path in (SRC / "claimaudit").glob("*.py")}
    assert imported & package == {"_files", "core", "scoring"}


def test_all_methods_names_the_method_table_in_order():
    assert config.ALL_METHODS == tuple(evaluation._CELLS)


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


def test_every_name_the_cli_calls_is_a_cli_function_or_public():
    # `cli` resolves `_cli.<name>` only through `claimaudit.__all__`, so a
    # name missing there fails only when its command runs.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    own = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    called = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "_cli"
    }
    assert called
    assert called - own - set(claimaudit.__all__) == set()


@pytest.mark.parametrize("name", ["__path__", "nonexistent"])
def test_cli_has_no_attribute_outside_the_public_names(name):
    with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
        getattr(cli, name)
