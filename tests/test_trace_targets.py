"""The benchmark's tracer finds every function it wraps.

`perfbench/tracing.py` wraps functions at the module attributes the
pipeline calls them through and skips a name that no longer exists, so a
rename would make that layer's timings read zero without an error. These
tests fail instead.
"""

import importlib
import importlib.util
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

import claimaudit.audit as audit
import claimaudit.baselines as baselines
import claimaudit.cli as cli
import claimaudit.evaluation as evaluation
from claimaudit.audit import mock_audit, render_audit_response
from claimaudit.llm import Asker, MockLlm, TokenUsage
from claimaudit.records import RunReport

from scripted_llm import ScriptedTranscript, prompt_fingerprint
from test_audit import make_request
from test_baselines import SNIPPETS
from test_core import make_claim

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while it loads.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TARGETS = _load_tracing().TARGETS


@pytest.mark.parametrize(
    ("module_name", "attribute"),
    [(module_name, attribute) for module_name, attribute, _ in TARGETS],
    ids=[f"{module_name}.{attribute}" for module_name, attribute, _ in TARGETS],
)
def test_trace_target_resolves(module_name, attribute):
    assert callable(getattr(importlib.import_module(module_name), attribute, None))


def _spy(monkeypatch, module, attribute):
    calls = []
    original = getattr(module, attribute)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attribute, spy)
    return calls


def test_run_audit_parses_through_the_module_attribute(monkeypatch):
    request = make_request()
    canned = render_audit_response(mock_audit(request, seed=1))
    client = ScriptedTranscript({prompt_fingerprint(audit.build_audit_prompt(request)): canned})
    calls = _spy(monkeypatch, audit, "parse_audit_response")
    audit.run_audit(Asker(client, sleep=lambda _: None), request, TokenUsage())
    assert len(calls) == 1


def test_baselines_load_templates_through_their_module_attribute(monkeypatch):
    calls = _spy(monkeypatch, baselines, "load_template")
    baselines.run_cot(Asker(MockLlm(1), sleep=lambda _: None), make_claim(), SNIPPETS, TokenUsage())
    assert [args[0] for args in calls] == ["cot_verdict"]


def test_verify_runs_the_matrix_and_each_lookup_through_the_traced_attributes(monkeypatch, tmp_path):
    # A lookup made in a forked worker is made in that worker's copy of the
    # spy, so the matrix runs in this process alone.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    runs = _spy(monkeypatch, cli, "run_matrix")
    lookups = _spy(monkeypatch, evaluation, "evidence_for_claim")
    config_path = tmp_path / "config.json"
    paths = {"manifest": str(FIXTURES / "manifest.json"), "output": str(tmp_path / "out")}
    config_path.write_text(json.dumps({"paths": paths}), encoding="utf-8")
    assert cli.main(["--config", str(config_path), "verify", "--mock", "--seed", "7"]) == 0
    assert len(runs) == 1
    claims = json.loads((FIXTURES / "manifest.json").read_text(encoding="utf-8"))["claims"]
    assert [args[1].id for args in lookups] == [claim["id"] for claim in claims]


@pytest.mark.parametrize(
    ("flags", "affinity", "workers"),
    [(["--mock"], {0, 1, 2}, 3), (["--mock"], None, 5), ([], {0, 1, 2}, 1)],
    ids=["mock-affinity", "mock-cpu-count", "live"],
)
def test_verify_passes_one_worker_per_usable_cpu_on_the_mock_path_only(monkeypatch, tmp_path, flags, affinity, workers):
    # The sibling of the test above: the worker count it pins to 1.
    runs = []
    monkeypatch.setattr(cli, "run_matrix", lambda *args, **kwargs: runs.append(kwargs) or RunReport())
    monkeypatch.setattr(cli, "HttpChatClient", lambda **kwargs: None)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    config_path = tmp_path / "config.json"
    paths = {"manifest": str(FIXTURES / "manifest.json"), "output": str(tmp_path / "out")}
    config_path.write_text(json.dumps({"paths": paths}), encoding="utf-8")
    assert cli.main(["--config", str(config_path), "verify", *flags]) == 0
    assert [kwargs["workers"] for kwargs in runs] == [workers]


PIPELINE = ("ingest", "embed", "calibrate", "verify --mock --seed 7", "report")


@pytest.mark.parametrize(
    ("command", "traced"),
    [
        ("ingest", ("ingest", "save_corpus")),
        ("embed", ("load_corpus", "embed_chunks")),
        ("calibrate", ("fit_boldness_model", "grid_search")),
        ("report", ("build_report",)),
    ],
    ids=["ingest", "embed", "calibrate", "report"],
)
def test_each_command_calls_its_traced_names_through_the_cli_module(monkeypatch, tmp_path, command, traced):
    # `cli` resolves these names on first use; a command that imported one
    # directly would bypass a wrapper set on `cli.<name>` without an error.
    shutil.copytree(FIXTURES, tmp_path, dirs_exist_ok=True)
    config = ["--config", str(tmp_path / "config.json")]
    for earlier in PIPELINE[: PIPELINE.index(command)]:
        assert cli.main([*config, *earlier.split()]) == 0
    calls = {name: _spy(monkeypatch, cli, name) for name in traced}
    assert cli.main([*config, command]) == 0
    assert {name: len(made) for name, made in calls.items()} == dict.fromkeys(traced, 1)
