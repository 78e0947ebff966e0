"""The package keeps no module-level state that its functions rebind,
one place applies the retry policy, JSON from outside is read by type,
one place decides which audit checks count, and one counts a cell's tokens.

A `global` statement lets one call change what every later call in the
process sees; per-run values belong to the objects a run creates (the
`Asker` carries the template directory, for one). Every LLM call goes
through `Asker.ask`, so no second retry loop can wrap a client call, and
only `Asker.ask` reads a reply's text as a JSON object, so every method
fails a reply without one with the same text. The manifest and LLM reply
readers go through `_files`' typed readers, so a wrong type fails by name
instead of being checked by hand or coerced; a stored record's field
types are read by the codec alone, so its `__post_init__` checks only
values the types admit.
Only `core.py` reads a check's applicability flag, in
`AnalysisDocument.applicable_checks`; every other module reads that tuple.
Only `evaluation._cell` makes a `TokenUsage`: every method records into
the one its cell passes down, so a cell's tokens are counted in one place.
Only the modules that hash long inputs, hold vectors or fit weights import
numpy; the audit cell's scoring and threshold arithmetic is plain floats.
"""

import ast
import importlib
import inspect
import textwrap
from pathlib import Path

import pytest

from claimaudit.corpus import HashEmbedder, embed_chunks
from claimaudit.evaluation import ALL_METHODS, AblationFlags, run_matrix
from claimaudit.scoring import HvParams
from claimaudit.threshold import ThresholdConfig, constant_boldness_model

from test_corpus import make_corpus
from test_files import RECORD_IDS, RECORD_TYPES

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


def _enclosing(node, matches, scope=""):
    """The enclosing qualified name of every node under `node` that `matches`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _enclosing(child, matches, f"{scope}{child.name}.")
            continue
        if matches(child):
            yield scope.rstrip(".")
        yield from _enclosing(child, matches, scope)


def _scopes_in_package(matches):
    return [
        f"{path.name}:{scope}"
        for path in MODULES
        for scope in _enclosing(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), matches)
    ]


def _module_containers():
    """The size of every dict, list, set and bytearray bound at module level in the package."""
    sizes = {}
    for path in MODULES:
        name = ".".join(("claimaudit", *path.relative_to(SRC).with_suffix("").parts)).removesuffix(".__init__")
        for attribute, value in vars(importlib.import_module(name)).items():
            if isinstance(value, (dict, list, set, bytearray)):
                sizes[f"{name}.{attribute}"] = len(value)
    return sizes


def test_a_run_grows_no_module_level_container(tmp_path):
    # A module-level cache (keyed by object id, say) would outlive the corpus
    # whose values it holds; per-document renderings live on the documents.
    corpus = embed_chunks(make_corpus(tmp_path), HashEmbedder())
    before = _module_containers()
    run_matrix(
        corpus, ALL_METHODS, ("TY0", "TY5"), AblationFlags(), HvParams(), constant_boldness_model(),
        ThresholdConfig(), seed=7, mock=True,
    )
    assert _module_containers() == before


def test_only_the_asker_calls_a_client():
    def is_complete_call(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "complete"

    assert _scopes_in_package(is_complete_call) == ["llm.py:Asker.ask"]


def test_only_the_asker_reads_a_reply_as_json():
    def is_extract_call(node):
        return isinstance(node, ast.Call) and "extract_json_object" in _names(node.func)

    assert set(_scopes_in_package(is_extract_call)) == {"llm.py:Asker.ask"}


def _is_token_usage(node):
    return (isinstance(node, ast.Name) and node.id == "TokenUsage") or (
        isinstance(node, ast.Attribute) and node.attr == "TokenUsage"
    )


def test_only_the_cell_makes_a_token_usage():
    def makes_usage(node):
        if isinstance(node, ast.Call):
            return _is_token_usage(node.func)
        return isinstance(node, ast.keyword) and node.arg == "default_factory" and _is_token_usage(node.value)

    assert _scopes_in_package(makes_usage) == ["evaluation.py:_cell"]


# The readers of a manifest and of LLM replies, by module.
_TYPED_READERS = {
    "corpus.py": ("_build_corpus",),
    "baselines.py": ("_read_confidence", "_read_verdict", "_read_probe", "_read_critiques", "_read_flare_initial"),
    "audit.py": ("parse_audit_response",),
}


@pytest.mark.parametrize(
    "module,reader",
    [(module, reader) for module, readers in _TYPED_READERS.items() for reader in readers],
    ids=[f"{module}:{reader}" for module, readers in _TYPED_READERS.items() for reader in readers],
)
def test_outside_json_is_read_by_the_typed_readers(module, reader):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"), filename=module)
    (function,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == reader]
    by_hand = [
        f"line {node.lineno}: {node.func.id}(...)"
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("isinstance", "str")
    ]
    assert by_hand == []


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=RECORD_IDS)
def test_a_stored_record_leaves_its_field_types_to_the_codec(cls):
    source = textwrap.dedent(inspect.getsource(cls.__post_init__)) if "__post_init__" in vars(cls) else ""
    type_checks = [
        f"line {node.lineno}: isinstance(...)"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
    ]
    assert type_checks == []


# Hand readers of stored records that the codec replaced.
_RETIRED_READERS = {"_build_analysis", "_build_document"}


def test_no_module_reads_a_stored_record_by_hand():
    defined = [
        f"{path.name}:{node.lineno}: {node.name}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name in _RETIRED_READERS
    ]
    assert defined == []


# Names of the second statement of applicability this package once kept.
_RETIRED_NAMES = {"ApplicabilityMask", "derive_mask", "validate_audit"}


def _names(node):
    """Every name `node` defines, imports, reads, or spells as a string."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        return {node.name}
    if isinstance(node, ast.alias):
        return {node.name, node.asname}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    return set()


def test_only_core_reads_the_applicability_flag():
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "is_applicable" and path.name != "core.py":
                found.append(f"{path.name}:{node.lineno}: .is_applicable")
            found.extend(f"{path.name}:{node.lineno}: {name}" for name in sorted(_names(node) & _RETIRED_NAMES))
    assert found == []


def _imports_numpy(node):
    if isinstance(node, ast.Import):
        return any(alias.name.partition(".")[0] == "numpy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "numpy"


def test_only_hashing_vectors_and_fitting_import_numpy():
    importers = {scope.partition(":")[0] for scope in _scopes_in_package(_imports_numpy)}
    assert importers == {"_rng.py", "corpus.py", "calibration.py"}
