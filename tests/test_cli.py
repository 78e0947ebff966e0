"""Config validation and CLI command tests (in-process, exit-code driven)."""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from claimaudit.audit import load_template
from claimaudit import cli, records
from claimaudit.cli import main
from claimaudit.calibration import default_grid
from claimaudit.config import LlmSettings, RunConfig, load_config
from claimaudit.core import Verdict
from claimaudit.corpus import SCENARIO_LABELS, load_corpus
from claimaudit.evaluation import ALL_METHODS, AblationFlags, VerdictRecord, dump_records, load_records, run_matrix
from claimaudit.scoring import HvParams
from claimaudit.threshold import ConfigError, ThresholdConfig

from test_corpus import make_manifest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

CALIBRATION_LINES = [
    {"specificity": 7, "testability": 8, "required_standard": "RobustStudy", "boldness_target": 0.7,
     "tallies": {"h_support": 1.6, "h_refute": 0.2, "h_neutral": 0.1}, "human_verdict": "Support", "confidence": 80},
    {"specificity": 4, "testability": 5, "required_standard": "PlausibleEvidence", "boldness_target": 0.5,
     "tallies": {"h_support": 0.2, "h_refute": 1.4, "h_neutral": 0.0}, "human_verdict": "Contradict", "confidence": 75},
    {"specificity": 9, "testability": 9, "required_standard": "SettledScience", "boldness_target": 0.8,
     "tallies": {"h_support": 1.1, "h_refute": 0.3, "h_neutral": 0.2}, "human_verdict": "Support", "confidence": 90},
    {"specificity": 5, "testability": 6, "required_standard": "RobustStudy", "boldness_target": 0.6,
     "tallies": {"h_support": 0.4, "h_refute": 0.9, "h_neutral": 0.3}, "human_verdict": "Contradict", "confidence": 70},
]


def setup_workspace(tmp_path, config_extra: dict | None = None) -> Path:
    """Manifest + calibration + config in one directory; returns the config path."""
    (tmp_path / "manifest.json").write_text(json.dumps(make_manifest()), encoding="utf-8")
    (tmp_path / "calibration.jsonl").write_text(
        "\n".join(json.dumps(line) for line in CALIBRATION_LINES) + "\n", encoding="utf-8"
    )
    payload = {
        "paths": {"manifest": "manifest.json", "calibration": "calibration.jsonl", "output": "out"},
        "seed": 0,
    }
    payload.update(config_extra or {})
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(payload), encoding="utf-8")
    return config_path


class TestLoadConfig:
    def test_defaults_and_path_resolution(self, tmp_path):
        cfg = load_config(setup_workspace(tmp_path))
        assert cfg.manifest == tmp_path / "manifest.json"
        assert cfg.output == tmp_path / "out"
        assert cfg.store == tmp_path / "out" / "store"
        assert cfg.params == tmp_path / "out" / "params.json"
        assert cfg.calibration == tmp_path / "calibration.jsonl"
        assert cfg.templates is None
        assert cfg.methods == ALL_METHODS
        assert cfg.scenarios == SCENARIO_LABELS
        assert cfg.retrieval_k == 10 and cfg.seed == 0
        assert cfg.hv.alpha == 0.5 and cfg.hv.lambda_ == 0.1

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError, match="config.json: bad config: Expecting property name"):
            load_config(path)

    def test_manifest_must_exist(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"paths": {"manifest": "missing.json"}}), encoding="utf-8")
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(path)

    @pytest.mark.parametrize(
        "mutation,needle",
        [
            ({"bogus": 1}, "bogus"),
            ({"paths": {"manifest": "manifest.json", "extra": "x"}}, "extra"),
            ({"hv": {"alpha": 0.5, "beta": 1}}, "beta"),
            ({"threshold": {"priors": {"RobustStudy": 0.75}, "smoothing": 1}}, "smoothing"),
            ({"llm": {"hostname": "x"}}, "hostname"),
            ({"embedding": {"dims": 64}}, "dims"),
            ({"run": {"k": 10}}, "'k'"),
            ({"ablations": {"use_turbo": True}}, "use_turbo"),
            ({"ablations": {"use_hv_score": "false"}}, "use_hv_score"),
            ({"llm": {"retries": -1}}, "llm.retries"),
            ({"llm": {"timeout": 0}}, "llm.timeout"),
            ({"llm": {"timeout": -1.5}}, "llm.timeout"),
            ({"llm": {"max_in_flight": 0}}, "llm.max_in_flight"),
            ({"run": {"retrieval_k": 0}}, "run.retrieval_k"),
            ({"run": {"token_budget": 0}}, "run.token_budget"),
            ({"llm": {"retries": True}}, "llm.retries: expected an integer"),
            ({"llm": {"retries": "3"}}, "llm.retries: expected an integer"),
            ({"llm": {"max_in_flight": 2.9}}, "llm.max_in_flight: expected an integer"),
            ({"llm": {"timeout": True}}, "llm.timeout: expected a number"),
            ({"threshold": {"N_base": 10.7}}, "threshold.N_base: expected an integer"),
            ({"hv": {"lambda": True}}, "hv.lambda: expected a number"),
            ({"grid": {"alpha_values": "0123"}}, "grid.alpha_values: expected a list"),
            ({"grid": {"lambda_values": [0.1, True]}}, r"grid.lambda_values\[1\]: expected a number"),
            ({"embedding": {"dim": 0}}, "embedding.dim: must be at least 1"),
            ({"embedding": {"dim": -3}}, "embedding.dim: must be at least 1"),
            ({"seed": True}, "^seed: expected an integer"),
            ({"llm": []}, "^llm: expected an object"),
            ({"paths": "x"}, "^paths: expected an object"),
            ({"ablations": []}, "^ablations: expected an object"),
            ({"threshold": {"priors": [1]}}, "threshold.priors: expected an object"),
            ({"grid": {"gamma": 0}}, "^grid.gamma: must be greater than 0, got 0.0$"),
            ({"grid": {"gamma": -2.5}}, "^grid.gamma: must be greater than 0, got -2.5$"),
            ({"hv": {"alpha": -1}}, "^hv: alpha must be >= 0, got -1.0$"),
            ({"hv": {"lambda": 0}}, "^hv: lambda must be > 0, got 0.0$"),
            ({"threshold": {"C": -1}}, "^threshold: scaling factor C must be >= 0, got -1.0$"),
            ({"threshold": {"clamp": [0.9, 0.5]}}, r"^threshold: clamp bounds must satisfy lo < hi, got \[0.9, 0.5\]$"),
            ({"threshold": {"clamp": [1.2, 1.5]}}, r"^threshold: clamp bounds must lie in \[0, 1\], got \[1.2, 1.5\]"),
            ({"threshold": {"clamp": [-0.1, 0.5]}}, r"^threshold: clamp bounds must lie in \[0, 1\], got \[-0.1, 0"),
            ({"run": {"methods": []}}, r"^run.methods: must hold at least one item, got \[\]$"),
            ({"run": {"scenarios": []}}, r"^run.scenarios: must hold at least one item, got \[\]$"),
            ({"threshold": {"priors": {"RobustStudy": 0.75}}}, "^threshold: missing prior for "),
            ({"grid": {"lambda_values": [0.2, 0.1]}}, "^grid: lambda values must be strictly increasing$"),
            ({"grid": {"alpha_values": [-1.0, 0.0, 0.5]}}, "^grid: alpha must be >= 0, got -1.0$"),
        ],
    )
    def test_unknown_keys_and_bad_values_rejected(self, tmp_path, mutation, needle):
        config_path = setup_workspace(tmp_path)
        payload = json.loads(config_path.read_text(encoding="utf-8"))
        payload.update(mutation)
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ConfigError, match=needle):
            load_config(config_path)

    @pytest.mark.parametrize("command", ["ingest", "embed", "calibrate", "verify --mock", "report"])
    def test_a_range_error_fails_every_command_at_load_time(self, tmp_path, capsys, command):
        config_path = setup_workspace(tmp_path, {"grid": {"gamma": 0}})
        assert main(["--config", str(config_path), *command.split()]) == 1
        assert capsys.readouterr().err == "error: grid.gamma: must be greater than 0, got 0.0\n"
        assert not (tmp_path / "out").exists()

    def test_fixture_config_loads_unchanged(self, monkeypatch):
        for name in ("LLM_API_KEY", "LLM_BASE_URL", "LLM_MODEL"):
            monkeypatch.delenv(name, raising=False)
        expected = RunConfig(
            manifest=FIXTURES / "manifest.json",
            store=FIXTURES / "out" / "store",
            output=FIXTURES / "out",
            params=FIXTURES / "out" / "params.json",
            calibration=FIXTURES / "calibration.jsonl",
            templates=None,
            hv=HvParams(alpha=0.5, lambda_=0.1),
            threshold=ThresholdConfig(),
            grid=default_grid(),
            gamma=1.0,
            llm=LlmSettings(),
            embed_dim=64,
            embed_seed=0,
            retrieval_k=10,
            token_budget=100_000,
            methods=ALL_METHODS,
            scenarios=SCENARIO_LABELS,
            ablations=AblationFlags(),
            seed=0,
        )
        cfg = load_config(FIXTURES / "config.json")
        # repr also tells 10 from 10.0, which == does not.
        assert (cfg, repr(cfg)) == (expected, repr(expected))

    @pytest.mark.parametrize(
        "section,flags",
        [
            ({"use_hv_score": False}, AblationFlags(use_hv_score=False)),
            (
                {"use_hv_score": False, "use_dynamic_threshold": True, "use_redundancy_penalty": False},
                AblationFlags(use_hv_score=False, use_redundancy_penalty=False),
            ),
        ],
        ids=["partial", "all-three"],
    )
    def test_ablations_section_parses(self, tmp_path, section, flags):
        assert load_config(setup_workspace(tmp_path, {"ablations": section})).ablations == flags

    def test_smallest_valid_counts_accepted(self, tmp_path):
        config_path = setup_workspace(
            tmp_path,
            {"llm": {"retries": 0, "max_in_flight": 1, "timeout": 0.5}, "run": {"retrieval_k": 1, "token_budget": 1}},
        )
        cfg = load_config(config_path)
        assert (cfg.llm.retries, cfg.llm.max_in_flight, cfg.llm.timeout) == (0, 1, 0.5)
        assert (cfg.retrieval_k, cfg.token_budget) == (1, 1)

    def test_env_interpolation_resolves_set_variables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CA_TEST_URL", "https://llm.example")
        config_path = setup_workspace(tmp_path, {"llm": {"base_url": "${CA_TEST_URL}", "model": "m-1"}})
        cfg = load_config(config_path)
        assert cfg.llm.base_url == "https://llm.example"
        assert cfg.llm.model == "m-1"

    def test_whole_string_reference_to_unset_variable_becomes_absent(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CA_TEST_KEY", raising=False)
        config_path = setup_workspace(tmp_path, {"llm": {"api_key": "${CA_TEST_KEY}"}})
        assert load_config(config_path).llm.api_key is None

    def test_embedded_reference_to_unset_variable_is_an_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CA_TEST_SUFFIX", raising=False)
        config_path = setup_workspace(tmp_path, {"llm": {"model": "model-${CA_TEST_SUFFIX}"}})
        with pytest.raises(ConfigError, match="CA_TEST_SUFFIX"):
            load_config(config_path)

    def test_threshold_section_parses(self, tmp_path):
        config_path = setup_workspace(
            tmp_path,
            {
                "threshold": {
                    "priors": {"PlausibleEvidence": 0.55, "RobustStudy": 0.7, "SettledScience": 0.85},
                    "C": 0.1,
                    "N_base": 5,
                    "clamp": [0.4, 0.9],
                }
            },
        )
        threshold = load_config(config_path).threshold
        assert threshold.scaling_c == 0.1 and threshold.n_base == 5
        assert threshold.clamp_lo == 0.4 and threshold.clamp_hi == 0.9

    def test_unknown_prior_standard_rejected(self, tmp_path):
        config_path = setup_workspace(tmp_path, {"threshold": {"priors": {"FolkWisdom": 0.5}}})
        with pytest.raises(ConfigError, match="FolkWisdom"):
            load_config(config_path)

    def test_unknown_method_and_scenario_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="oracle"):
            load_config(setup_workspace(tmp_path, {"run": {"methods": ["oracle"]}}))
        with pytest.raises(ConfigError, match="TY9"):
            load_config(setup_workspace(tmp_path, {"run": {"scenarios": ["TY9"]}}))

    def test_grid_override(self, tmp_path):
        config_path = setup_workspace(
            tmp_path, {"grid": {"alpha_values": [0.0, 0.5], "lambda_values": [0.1, 0.2], "gamma": 2.0}}
        )
        cfg = load_config(config_path)
        assert cfg.grid.alpha_values == (0.0, 0.5)
        assert cfg.gamma == 2.0

    def test_bad_grid_axis_rejected(self, tmp_path):
        config_path = setup_workspace(tmp_path, {"grid": {"lambda_values": [0.2, 0.1]}})
        with pytest.raises(ConfigError, match="increasing"):
            load_config(config_path)


class TestTemplateOverride:
    def test_directory_shadows_packaged_templates(self, tmp_path):
        packaged = {name: load_template(name) for name in ("cot_verdict", "batch_audit")}
        assert "CUSTOM" not in packaged["cot_verdict"]
        (tmp_path / "cot_verdict.txt").write_text("CUSTOM {{CLAIM_TEXT}}", encoding="utf-8")
        # Twice: switching back and forth must never serve the other directory's cached text.
        for _ in range(2):
            assert load_template("cot_verdict", tmp_path) == "CUSTOM {{CLAIM_TEXT}}"
            assert load_template("batch_audit", tmp_path) == packaged["batch_audit"]
            assert load_template("cot_verdict") == packaged["cot_verdict"]
            assert load_template("batch_audit") == packaged["batch_audit"]

    def test_each_directory_and_name_is_read_once(self, tmp_path, monkeypatch):
        for name in ("cot_verdict", "batch_audit"):
            (tmp_path / f"{name}.txt").write_text(f"CUSTOM {name}", encoding="utf-8")
        reads: Counter[Path] = Counter()
        read_text = Path.read_text

        def counting_read_text(self, *args, **kwargs):
            reads[self] += 1
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting_read_text)
        for _ in range(3):
            assert load_template("cot_verdict", tmp_path) == "CUSTOM cot_verdict"
            assert load_template("batch_audit", tmp_path) == "CUSTOM batch_audit"
            # Absent from the directory: falls back to the packaged copy.
            assert "CUSTOM" not in load_template("flare_initial", tmp_path)
            load_template("cot_verdict")
        overrides = {path: count for path, count in reads.items() if path.parent == tmp_path}
        assert overrides == {tmp_path / "cot_verdict.txt": 1, tmp_path / "batch_audit.txt": 1}
        assert reads[next(path for path in reads if path.name == "flare_initial.txt")] == 1
        assert set(reads.values()) == {1}


    def test_a_later_config_without_templates_gets_the_packaged_ones(self, tmp_path):
        (tmp_path / "templates").mkdir()
        (tmp_path / "templates" / "cot_verdict.txt").write_text(
            "CUSTOM {{CLAIM_TEXT}}\n{{EVIDENCE_SNIPPETS}}", encoding="utf-8"
        )
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "embed"]) == 0
        payload = json.loads(config_path.read_text(encoding="utf-8"))
        payload["paths"]["store"] = "out/store"

        def verify(name: str, **paths: str) -> bytes:
            config_path = tmp_path / f"{name}.json"
            config = {**payload, "paths": {**payload["paths"], "output": name, **paths}}
            config_path.write_text(json.dumps(config), encoding="utf-8")
            assert main(["--config", str(config_path), "verify", "--mock", "--seed", "7", "--method", "cot"]) == 0
            return (tmp_path / name / "records.jsonl").read_bytes()

        clean = verify("clean")
        assert verify("custom", templates="templates") != clean
        assert verify("after") == clean


class TestUsageErrors:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["audit-everything"])
        assert exc.value.code == 2

    def test_missing_config_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--mock"])
        assert exc.value.code == 2

    def test_unknown_method_exits_2(self, tmp_path):
        config_path = setup_workspace(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(config_path), "verify", "--method", "verirag-turbo"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        ("argv", "named"),
        [
            ("ingest --mock", "unrecognized arguments: --mock"),
            ("embed --seed 3", "unrecognized arguments: --seed 3"),
            ("calibrate --csv", "unrecognized arguments: --csv"),
            # Before the command, the flag's value is read as the command.
            ("--seed 7 verify --mock", "invalid choice: '7'"),
        ],
    )
    def test_a_flag_off_the_command_that_reads_it_exits_2(self, tmp_path, capsys, argv, named):
        config_path = setup_workspace(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(config_path), *argv.split()])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err

    def test_help_lists_a_flag_only_under_its_command(self, capsys):
        def help_text(command):
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            return capsys.readouterr().out

        verify, ingest, report = help_text("verify"), help_text("ingest"), help_text("report")
        assert "--seed" in verify and "--mock" in verify and "--csv" not in verify
        assert "--seed" not in ingest and "--mock" not in ingest and "--csv" not in ingest
        assert "--csv" in report and "--seed" not in report


class TestIngestAndEmbed:
    def test_ingest_writes_store(self, tmp_path, capsys):
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "ingest"]) == 0
        assert "4 documents" in capsys.readouterr().out
        assert (tmp_path / "out" / "store" / "manifest.json").exists()

    def test_ingest_is_idempotent(self, tmp_path):
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "ingest"]) == 0
        first = (tmp_path / "out" / "store" / "manifest.json").read_bytes()
        assert main(["--config", str(config_path), "ingest"]) == 0
        assert (tmp_path / "out" / "store" / "manifest.json").read_bytes() == first

    def test_ingest_integrity_error_exits_1(self, tmp_path, capsys):
        payload = make_manifest()
        payload["evidence_map"]["K01"] = ["GHOST-c0"]
        (tmp_path / "manifest.json").write_text(json.dumps(payload), encoding="utf-8")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"paths": {"manifest": "manifest.json"}}), encoding="utf-8")
        assert main(["--config", str(config_path), "ingest"]) == 1
        assert "GHOST" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spoil,message",
        [
            (lambda m: m["claims"].__setitem__(0, ["not", "an", "object"]),
             "claim payload: expected an object, got ['not', 'an', 'object']"),
            (lambda m: m["scenarios"].update(TY0=5), "scenarios.TY0: expected a list, got 5"),
            (lambda m: m["documents"][0].update(chunks=7), "document 'D01': chunks: expected a list, got 7"),
            (lambda m: m.update(claims="K01"), "claims: expected a list, got 'K01'"),
            (lambda m: m["evidence_map"].update(K01="D01-c0"), "evidence_map.K01: expected a list, got 'D01-c0'"),
        ],
        ids=["list-claim", "int-scenario", "int-chunks", "string-claims", "string-evidence-list"],
    )
    def test_manifest_entry_that_is_not_an_object_exits_1(self, tmp_path, capsys, spoil, message):
        config_path = setup_workspace(tmp_path)
        payload = make_manifest()
        spoil(payload)
        (tmp_path / "manifest.json").write_text(json.dumps(payload), encoding="utf-8")
        assert main(["--config", str(config_path), "ingest"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_embed_populates_embeddings(self, tmp_path):
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "ingest"]) == 0
        assert main(["--config", str(config_path), "embed"]) == 0
        assert (tmp_path / "out" / "store" / "embeddings.jsonl").exists()

    def test_embed_leaves_the_stored_manifest_untouched(self, tmp_path):
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "ingest"]) == 0
        manifest = tmp_path / "out" / "store" / "manifest.json"

        def state():
            stat = manifest.stat()
            return manifest.read_bytes(), stat.st_mtime_ns, stat.st_ino

        before = state()
        assert main(["--config", str(config_path), "embed"]) == 0
        assert state() == before

    def test_embed_without_prior_ingest_starts_from_manifest(self, tmp_path):
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "embed"]) == 0
        assert (tmp_path / "out" / "store" / "embeddings.jsonl").exists()

    def test_reingest_drops_the_vectors_of_the_old_text(self, tmp_path):
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "ingest"]) == 0
        assert main(["--config", str(config_path), "embed"]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        manifest["documents"][0]["chunks"][0]["text"] = "entirely new wording of the first chunk"
        (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["--config", str(config_path), "ingest"]) == 0
        store = tmp_path / "out" / "store"
        assert load_corpus(store).vectors == {}
        assert [path.name for path in store.iterdir()] == ["manifest.json"]


class TestCalibrate:
    def test_writes_params(self, tmp_path, capsys):
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "calibrate"]) == 0
        params_path = tmp_path / "out" / "params.json"
        assert params_path.exists()
        payload = json.loads(params_path.read_text(encoding="utf-8"))
        assert set(payload) == {"alpha", "lambda", "ridge"}
        assert set(payload["ridge"]) == {"weights", "intercept", "gamma"}
        assert "calibrated alpha=" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "calibrate"]) == 0
        first = (tmp_path / "out" / "params.json").read_bytes()
        assert main(["--config", str(config_path), "calibrate"]) == 0
        assert (tmp_path / "out" / "params.json").read_bytes() == first

    def test_no_calibration_path_exits_1(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text(json.dumps(make_manifest()), encoding="utf-8")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"paths": {"manifest": "manifest.json"}}), encoding="utf-8")
        assert main(["--config", str(config_path), "calibrate"]) == 1
        assert "calibration" in capsys.readouterr().err

    def test_empty_calibration_file_exits_1(self, tmp_path, capsys):
        config_path = setup_workspace(tmp_path)
        (tmp_path / "calibration.jsonl").write_text("", encoding="utf-8")
        assert main(["--config", str(config_path), "calibrate"]) == 1
        assert "no calibration records" in capsys.readouterr().err


class TestVerify:
    def test_mock_verify_writes_records(self, tmp_path, capsys):
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "embed"]) == 0
        assert main(["--config", str(config_path), "verify", "--mock", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "verdict records" in out
        records = load_records(tmp_path / "out" / "records.jsonl")
        assert len(records) == 2 * len(ALL_METHODS) * len(SCENARIO_LABELS)

    def test_records_file_equals_dump_records(self, tmp_path, monkeypatch):
        reports = []

        def capturing_run_matrix(*args, **kwargs):
            reports.append(run_matrix(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "run_matrix", capturing_run_matrix)
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "verify", "--mock", "--seed", "7"]) == 0
        written = (tmp_path / "out" / "records.jsonl").read_text(encoding="utf-8")
        assert written == dump_records(reports[0].records)

    def test_mock_verify_retrieves_when_no_evidence_is_pinned(self, tmp_path):
        config_path = setup_workspace(tmp_path)
        manifest = make_manifest()
        manifest["evidence_map"] = {}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["--config", str(config_path), "embed"]) == 0
        assert main(["--config", str(config_path), "verify", "--mock", "--seed", "7"]) == 0
        records = load_records(tmp_path / "out" / "records.jsonl")
        assert len(records) == 2 * len(ALL_METHODS) * len(SCENARIO_LABELS)
        assert {record.retrieval_mode for record in records} == {"retrieval"}
        assert not [record.failure for record in records if record.failure and "evidence lookup" in record.failure]

    def test_mock_verify_is_byte_identical_across_reruns(self, tmp_path):
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "embed"]) == 0
        assert main(["--config", str(config_path), "verify", "--mock", "--seed", "7"]) == 0
        first = (tmp_path / "out" / "records.jsonl").read_bytes()
        assert main(["--config", str(config_path), "verify", "--mock", "--seed", "7"]) == 0
        assert (tmp_path / "out" / "records.jsonl").read_bytes() == first

    def test_seed_changes_records(self, tmp_path):
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "embed"]) == 0
        assert main(["--config", str(config_path), "verify", "--mock", "--seed", "7"]) == 0
        first = (tmp_path / "out" / "records.jsonl").read_bytes()
        assert main(["--config", str(config_path), "verify", "--mock", "--seed", "8"]) == 0
        assert (tmp_path / "out" / "records.jsonl").read_bytes() != first

    def test_method_scenario_and_claim_filters(self, tmp_path):
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "embed"]) == 0
        assert (
            main(
                [
                    "--config", str(config_path), "verify", "--mock",
                    "--method", "audit", "--scenario", "TY0", "--claim-id", "K01",
                ]
            )
            == 0
        )
        records = load_records(tmp_path / "out" / "records.jsonl")
        assert len(records) == 1
        assert records[0].claim_id == "K01"
        assert records[0].method == "audit"
        assert records[0].scenario == "TY0"

    def test_vectors_are_read_only_when_a_claim_retrieves(self, tmp_path, capsys):
        # K01's evidence is pinned and K02's is retrieved.
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "embed"]) == 0
        embeddings = tmp_path / "out" / "store" / "embeddings.jsonl"
        lines = embeddings.read_text(encoding="utf-8").splitlines()
        lines[1] = '{"chunk_id": "D01-c1"}'
        embeddings.write_text("\n".join(lines) + "\n", encoding="utf-8")
        verify = ["--config", str(config_path), "verify", "--mock", "--seed", "7"]
        assert main([*verify, "--claim-id", "K01"]) == 0
        assert {record.claim_id for record in load_records(tmp_path / "out" / "records.jsonl")} == {"K01"}
        assert main(verify) == 1
        assert "embeddings.jsonl:2: bad embedding" in capsys.readouterr().err

    def test_embed_rewrites_a_corrupt_embeddings_file(self, tmp_path):
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "embed"]) == 0
        embeddings = tmp_path / "out" / "store" / "embeddings.jsonl"
        good = embeddings.read_bytes()
        embeddings.write_text("not json\n", encoding="utf-8")
        assert main(["--config", str(config_path), "embed"]) == 0
        assert embeddings.read_bytes() == good

    # Each would write every one of its cells twice.
    @pytest.mark.parametrize(
        ("flags", "run_section", "named"),
        [
            (["--method", "cot", "--method", "cot", "--scenario", "TY0"], None, "duplicated methods: ['cot']"),
            (["--scenario", "TY1", "--scenario", "TY1"], None, "duplicated scenarios: ['TY1']"),
            ([], {"methods": ["cot", "cot"]}, "duplicated methods: ['cot']"),
            ([], {"scenarios": ["TY0", "TY5", "TY0"]}, "duplicated scenarios: ['TY0']"),
        ],
        ids=["method-flag", "scenario-flag", "run-methods", "run-scenarios"],
    )
    def test_duplicated_method_or_scenario_exits_1_before_any_record(self, tmp_path, capsys, flags, run_section, named):
        config_path = setup_workspace(tmp_path, run_section and {"run": run_section})
        assert main(["--config", str(config_path), "embed"]) == 0
        assert main(["--config", str(config_path), "verify", "--mock", *flags]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out" / "records.jsonl").exists()

    @pytest.mark.parametrize("chunk_id", [["D01-c1"], 7], ids=["list-id", "int-id"])
    def test_a_mistyped_embedding_chunk_id_exits_1(self, tmp_path, capsys, chunk_id):
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "embed"]) == 0
        embeddings = tmp_path / "out" / "store" / "embeddings.jsonl"
        lines = embeddings.read_text(encoding="utf-8").splitlines()
        lines[1] = json.dumps({"chunk_id": chunk_id, "embedding": [0.0] * 64})
        embeddings.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["--config", str(config_path), "verify", "--mock", "--seed", "7"]) == 1
        err = capsys.readouterr().err
        assert f"embeddings.jsonl:2: bad embedding: chunk_id: expected a string, got {chunk_id!r}" in err

    @pytest.mark.parametrize("payload", ["x", 5, None, [1]], ids=["string", "number", "null", "list"])
    def test_a_params_file_that_is_not_an_object_exits_1(self, tmp_path, capsys, payload):
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "embed"]) == 0
        (tmp_path / "out" / "params.json").write_text(json.dumps(payload), encoding="utf-8")
        assert main(["--config", str(config_path), "verify", "--mock", "--seed", "7"]) == 1
        assert f"params.json: bad params: params: expected an object, got {payload!r}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "records.jsonl").exists()

    def test_unknown_claim_id_exits_1(self, tmp_path, capsys):
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "verify", "--mock", "--claim-id", "K99"]) == 1
        assert "K99" in capsys.readouterr().err

    def test_uses_calibrated_params_when_present(self, tmp_path):
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "embed"]) == 0
        args = ["--config", str(config_path), "verify", "--mock", "--seed", "7", "--method", "audit"]
        assert main(args) == 0
        before = (tmp_path / "out" / "records.jsonl").read_bytes()
        assert main(["--config", str(config_path), "calibrate"]) == 0
        assert main(args) == 0
        assert (tmp_path / "out" / "records.jsonl").read_bytes() != before

    def test_live_mode_without_api_key_exits_1_before_any_network_call(self, tmp_path, monkeypatch, capsys):
        import requests

        def explode(*args, **kwargs):
            raise AssertionError("a network call was attempted")

        monkeypatch.setattr(requests.Session, "post", explode)
        monkeypatch.setattr(requests.Session, "request", explode)
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        config_path = setup_workspace(
            tmp_path, {"llm": {"base_url": "https://llm.example", "model": "m-1", "api_key": "${LLM_API_KEY}"}}
        )
        assert main(["--config", str(config_path), "verify"]) == 1
        assert "LLM_API_KEY" in capsys.readouterr().err


class TestReport:
    def _verified_workspace(self, tmp_path, capsys):
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "embed"]) == 0
        assert main(["--config", str(config_path), "verify", "--mock", "--seed", "7"]) == 0
        capsys.readouterr()  # drain setup output so tests see only their command
        return config_path

    def test_report_renders_table_and_writes_json(self, tmp_path, capsys):
        config_path = self._verified_workspace(tmp_path, capsys)
        assert main(["--config", str(config_path), "report"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("method")
        assert "TY0" in out and "TY5" in out
        assert "token counts are approximate" in out
        payload = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        assert len(payload["cells"]) == len(ALL_METHODS) * len(SCENARIO_LABELS)

    def test_report_csv_emits_one_row_per_cell(self, tmp_path, capsys):
        config_path = self._verified_workspace(tmp_path, capsys)
        assert main(["--config", str(config_path), "report", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("method,scenario,")
        assert len(lines) == 1 + len(ALL_METHODS) * len(SCENARIO_LABELS)

    def test_report_is_byte_identical_across_reruns(self, tmp_path, capsys):
        config_path = self._verified_workspace(tmp_path, capsys)
        assert main(["--config", str(config_path), "report"]) == 0
        first = (tmp_path / "out" / "report.json").read_bytes()
        assert main(["--config", str(config_path), "report"]) == 0
        assert (tmp_path / "out" / "report.json").read_bytes() == first

    def test_verify_computes_no_metrics_and_report_computes_them_once(self, tmp_path, monkeypatch):
        config = ["--config", str(setup_workspace(tmp_path))]
        computed = []
        cell_metrics = records._cell_metrics
        monkeypatch.setattr(records, "_cell_metrics", lambda rows: computed.append(len(rows)) or cell_metrics(rows))
        assert main([*config, "embed"]) == 0
        assert main([*config, "verify", "--mock", "--seed", "7"]) == 0
        assert computed == []
        assert main([*config, "report"]) == 0
        assert computed == [2 * len(ALL_METHODS) * len(SCENARIO_LABELS)]

    def test_report_without_records_exits_1(self, tmp_path, capsys):
        config_path = setup_workspace(tmp_path)
        assert main(["--config", str(config_path), "report"]) == 1
        assert "run verify first" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda record: ["not", "a", "record"],
            lambda record: {k: v for k, v in record.items() if k != "method"},
            lambda record: {**record, "failure": None, "verdict": "Maybe"},
            lambda record: {**record, "ground_truth": "Maybe"},
            lambda record: {**record, "tau": "0.5"},
            lambda record: {**record, "tokens_in": 1.5},
            lambda record: {**record, "failure": None},
            lambda record: {**record, "verdict": "Valid"},
        ],
        ids=[
            "not-an-object", "missing-field", "unknown-verdict", "unknown-ground-truth", "string-tau",
            "float-tokens", "neither-verdict-nor-failure", "both-verdict-and-failure",
        ],
    )
    def test_malformed_record_names_its_line(self, tmp_path, capsys, spoil):
        config_path = setup_workspace(tmp_path)
        good = VerdictRecord(
            claim_id="C1", method="cot", scenario="TY0", ground_truth=Verdict.VALID, failure="no answer"
        ).to_json()
        (tmp_path / "out").mkdir()
        lines = [json.dumps(good), json.dumps(spoil(good))]
        (tmp_path / "out" / "records.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["--config", str(config_path), "report"]) == 1
        assert "records.jsonl:2: bad verdict record: " in capsys.readouterr().err


def _bad_byte(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:1] + b"\xff" + data[1:])


def _too_deep(path: Path) -> None:
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")


def _bad_byte_on_line_2(path: Path) -> None:
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = b'{"chunk_id": "\xff"}\n'
    path.write_bytes(b"".join(lines))


_VERIFY = ["verify", "--mock", "--seed", "7"]
# (file, what it holds, commands that make it, command that reads it, spoilers and the line they name)
_INPUTS = [
    ("config.json", "config", [], ["report"], [(_bad_byte, ""), (_too_deep, "")]),
    ("manifest.json", "manifest", [], ["ingest"], [(_bad_byte, ""), (_too_deep, "")]),
    ("out/store/manifest.json", "manifest", [["ingest"]], ["embed"], [(_bad_byte, ""), (_too_deep, "")]),
    ("out/params.json", "params", [["calibrate"]], _VERIFY, [(_bad_byte, ""), (_too_deep, "")]),
    ("calibration.jsonl", "calibration record", [], ["calibrate"], [(_bad_byte_on_line_2, ":2")]),
    ("out/records.jsonl", "verdict record", [_VERIFY], ["report"], [(_bad_byte_on_line_2, ":2")]),
    ("out/store/embeddings.jsonl", "embedding", [["embed"]], _VERIFY, [(_bad_byte_on_line_2, ":2")]),
]


class TestUnreadableInput:
    @pytest.mark.parametrize(
        ("name", "what", "setup", "command", "spoil", "line"),
        [(name, what, setup, command, *spoil) for name, what, setup, command, spoils in _INPUTS for spoil in spoils],
        ids=[f"{name}-{spoil.__name__.strip('_')}" for name, _, _, _, spoils in _INPUTS for spoil, _ in spoils],
    )
    def test_a_file_that_is_not_utf8_or_nests_too_deep_is_named(
        self, tmp_path, capsys, name, what, setup, command, spoil, line
    ):
        config_path = setup_workspace(tmp_path)
        for made_by in setup:
            assert main(["--config", str(config_path), *made_by]) == 0
        spoil(tmp_path / name)
        capsys.readouterr()
        assert main(["--config", str(config_path), *command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{tmp_path / name}{line}: bad {what}: " in err

    def test_a_template_that_is_not_utf8_fails_its_cells_by_name(self, tmp_path):
        (tmp_path / "templates").mkdir()
        template = tmp_path / "templates" / "cot_verdict.txt"
        template.write_bytes(b"\xff {{CLAIM_TEXT}}")
        config_path = setup_workspace(tmp_path, {"paths": {
            "manifest": "manifest.json", "calibration": "calibration.jsonl", "output": "out", "templates": "templates"
        }})
        assert main(["--config", str(config_path), "embed"]) == 0
        assert main(["--config", str(config_path), *_VERIFY, "--method", "cot", "--method", "audit"]) == 0
        rows = load_records(tmp_path / "out" / "records.jsonl")
        failures = {row.failure for row in rows if row.method == "cot"}
        assert len(failures) == 1 and next(iter(failures)).startswith(f"{template}: bad template: 'utf-8' codec")
        assert all(row.failure is None for row in rows if row.method == "audit")


class TestStartup:
    def test_cli_import_leaves_requests_unloaded(self):
        env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
        probe = "import sys, claimaudit.cli; print('requests' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_only_calibrate_and_verify_load_numpy(self, tmp_path):
        shutil.copytree(FIXTURES, tmp_path, dirs_exist_ok=True)
        env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
        probe = (
            "import sys, claimaudit, claimaudit.cli\n"
            "codes = [claimaudit.cli.main(['--config', 'config.json', *argv.split()]) for argv in sys.argv[1:]]\n"
            "print(codes, 'numpy' in sys.modules)\n"
        )

        def run(*commands):
            """Exit codes of `commands` in one fresh interpreter, and whether numpy was loaded."""
            result = subprocess.run(
                [sys.executable, "-c", probe, *commands], cwd=tmp_path, env=env, capture_output=True, text=True
            )
            assert result.returncode == 0, result.stderr
            return result.stdout.splitlines()[-1]

        assert run() == "[] False"
        assert run("ingest", "embed") == "[0, 0] False"
        assert run("calibrate", "verify --mock --seed 7") == "[0, 0] True"
        # An audit-only run loads no numpy: tau is plain float arithmetic.
        assert run("verify --mock --seed 7 --method audit") == "[0] False"
        assert run("report") == "[0] False"

    @staticmethod
    def _loaded(directory, *argv):
        """The `claimaudit` submodules a fresh interpreter has loaded after the command `argv` in `directory`."""
        env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
        probe = (
            "import sys, claimaudit.config\n"
            "if sys.argv[1:]:\n"
            "    import claimaudit.cli\n"
            "    assert claimaudit.cli.main(['--config', 'config.json', *sys.argv[1:]]) == 0\n"
            "print(*sorted(name for name in sys.modules if name.startswith('claimaudit.')))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe, *argv], cwd=directory, env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        return {name.removeprefix("claimaudit.") for name in result.stdout.splitlines()[-1].split()}

    def test_setup_commands_load_no_runner_they_do_not_call(self, tmp_path):
        shutil.copytree(FIXTURES, tmp_path, dirs_exist_ok=True)
        config, ingest, embed, calibrate = (
            self._loaded(tmp_path, *argv.split()) for argv in ("", "ingest", "embed", "calibrate")
        )
        for modules in (config, ingest, embed, calibrate):
            assert not modules & {"evaluation", "audit", "baselines", "llm"}
        assert config == {"config", "_files", "core", "scoring", "threshold"}
        assert ingest == embed == config | {"cli", "corpus", "redundancy", "_rng"}
        assert calibrate == config | {"cli", "calibration", "_rng"}

    def test_report_and_verify_load_the_modules_the_readme_lists(self, tmp_path):
        shutil.copytree(FIXTURES, tmp_path, dirs_exist_ok=True)
        verify = ("verify", "--mock", "--seed", "7")
        uncalibrated, report = self._loaded(tmp_path, *verify), self._loaded(tmp_path, "report")
        self._loaded(tmp_path, "calibrate")
        calibrated = self._loaded(tmp_path, *verify)
        assert report == {"cli", "config", "_files", "core", "scoring", "threshold", "records"}
        runner = {"evaluation", "audit", "baselines", "llm", "corpus", "redundancy", "_rng"}
        assert uncalibrated == report | runner
        assert calibrated == report | runner | {"calibration"}


class TestAcrossInterpreters:
    """`ingest`, `embed` and `report` load no numpy, so every supported Python must write the same bytes."""

    @staticmethod
    def _run(python: str, directory: Path, *commands: str) -> None:
        env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
        for command in commands:
            result = subprocess.run(
                [python, "-m", "claimaudit.cli", "--config", "config.json", *command.split()],
                cwd=directory, env=env, capture_output=True, text=True, timeout=300,
            )
            assert result.returncode == 0, f"{python} {command}: {result.stderr}"

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory) -> Path:
        """Every command's files as this interpreter writes them over a copy of the fixtures."""
        directory = tmp_path_factory.mktemp("reference")
        shutil.copytree(FIXTURES, directory, dirs_exist_ok=True)
        self._run(sys.executable, directory, "ingest", "embed", "verify --mock --seed 7", "report")
        return directory / "out"

    @pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
    def test_numpy_free_commands_write_the_same_bytes(self, reference, tmp_path, version):
        python = shutil.which(f"python{version}")
        if python is None or subprocess.run([python, "-c", ""], capture_output=True, timeout=60).returncode != 0:
            pytest.skip(f"no python{version} that starts")
        shutil.copytree(FIXTURES, tmp_path, dirs_exist_ok=True)
        (tmp_path / "out").mkdir()
        shutil.copyfile(reference / "records.jsonl", tmp_path / "out" / "records.jsonl")
        self._run(python, tmp_path, "ingest", "embed", "report")
        for name in ("store/manifest.json", "store/embeddings.jsonl", "report.json"):
            assert (tmp_path / "out" / name).read_bytes() == (reference / name).read_bytes(), name


class TestShippedFixtures:
    def test_generator_reproduces_committed_fixtures(self, tmp_path):
        script = FIXTURES.parent / "demos" / "build_demo_corpus.py"
        env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
        result = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "regen")], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        for name in ("manifest.json", "calibration.jsonl", "config.json"):
            assert (tmp_path / "regen" / name).read_bytes() == (FIXTURES / name).read_bytes(), name

    @staticmethod
    def _fixture_config(directory: Path) -> Path:
        """A config over the shipped fixtures that writes under `directory`/out."""
        directory.mkdir(exist_ok=True)
        config_path = directory / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "paths": {
                        "manifest": str(FIXTURES / "manifest.json"),
                        "calibration": str(FIXTURES / "calibration.jsonl"),
                        "output": str(directory / "out"),
                    },
                    "seed": 0,
                }
            ),
            encoding="utf-8",
        )
        return config_path

    def test_fixture_matrix_runs_clean(self, tmp_path, capsys):
        config_path = self._fixture_config(tmp_path)
        assert main(["--config", str(config_path), "verify", "--mock", "--seed", "7"]) == 0
        records = load_records(tmp_path / "out" / "records.jsonl")
        assert len(records) == 10 * len(ALL_METHODS) * len(SCENARIO_LABELS)
        assert all(record.failure is None for record in records)
        assert main(["--config", str(config_path), "report"]) == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_store_and_manifest_fallback_write_identical_records(self, tmp_path):
        stored = self._fixture_config(tmp_path / "stored")
        store = tmp_path / "stored" / "out" / "store"
        assert main(["--config", str(stored), "ingest"]) == 0
        assert [path.name for path in store.iterdir()] == ["manifest.json"]
        assert main(["--config", str(stored), "embed"]) == 0
        assert sorted(path.name for path in store.iterdir()) == ["embeddings.jsonl", "manifest.json"]
        fallback = self._fixture_config(tmp_path / "fallback")
        for config_path in (stored, fallback):
            assert main(["--config", str(config_path), "verify", "--mock", "--seed", "7"]) == 0
        assert not (tmp_path / "fallback" / "out" / "store").exists()
        records = [(tmp_path / name / "out" / "records.jsonl").read_bytes() for name in ("stored", "fallback")]
        assert records[0] == records[1]
