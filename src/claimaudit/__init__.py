"""Evidence-audited claim verification.

Verifies scientific claims against a document corpus by auditing each
evidence document on 11 methodological checks, discounting redundant
evidence, aggregating quality-weighted stances into a bounded score,
and comparing that score against a dynamic threshold that adapts to
the claim's boldness and the evidence volume. Ships simulation
baselines, calibration, an evaluation matrix over temporal corpus
scenarios, and a command-line pipeline (``claimaudit``).
"""

import importlib

__version__ = "0.1.0"

# Each public name, under the module that defines it. A name is imported
# on first access, so `import claimaudit` loads no submodule.
_EXPORTS = {
    "audit": (
        "AuditRequest", "PaperToAudit", "PromptBudgetError", "build_audit_prompt", "mock_audit",
        "mock_audit_with_usage", "parse_audit_response", "run_audit",
    ),
    "baselines": ("BaselineVerdict", "MassFunction", "run_ciber", "run_cot", "run_flare", "run_selfrag", "wbu_fuse"),
    "calibration": (
        "CalibrationRecord", "fit_boldness_model", "grid_search", "load_calibration_records", "load_params",
        "ridge_fit", "save_params", "simulate_flawed_audit",
    ),
    "config": (
        "ALL_METHODS", "AblationFlags", "Grid", "LlmSettings", "RunConfig", "SCENARIO_LABELS", "default_grid",
        "load_config",
    ),
    "core": (
        "ALL_CHECKS", "AnalysisDocument", "AuditResult", "AuditVector", "CheckId", "Claim", "ClaimType",
        "RequiredStandard", "STANCE_NEUTRAL", "STANCE_REFUTES", "STANCE_SUPPORTS", "SchemaError", "Verdict",
        "map_verdict",
    ),
    "corpus": (
        "Corpus", "CorpusIntegrityError", "Document", "EmbeddingError", "EvidenceChunk", "HashEmbedder", "Scenario",
        "embed_chunks", "evidence_for_claim", "filter_scenario", "ingest", "load_corpus", "load_embeddings", "retrieve",
        "save_corpus", "save_embeddings",
    ),
    "evaluation": ("run_matrix",),
    "llm": ("Asker", "HttpChatClient", "LlmClient", "LlmConfigError", "LlmError", "MockLlm", "TokenUsage"),
    "records": (
        "CellMetrics", "ConfusionMatrix", "RunReport", "VerdictRecord", "build_report", "cohen_kappa", "csv_rows",
        "dump_records", "gwet_ac1", "load_records", "macro_f1", "mcc", "record_line", "render_table",
    ),
    "redundancy": ("chunk_redundancy", "cosine", "document_weight", "redundancy_for_texts", "tfidf_fit"),
    "scoring": (
        "DocumentContribution", "HvParams", "Tallies", "aggregate", "effective_contribution", "hv",
        "intrinsic_quality", "log_odds", "make_contribution",
    ),
    "threshold": (
        "RidgeModel", "ThresholdConfig", "base_threshold", "constant_boldness_model", "encode_features",
        "ridge_predict", "tau_auto", "threshold_for_claim", "verdict",
    ),
}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str) -> object:
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
