"""Metrics, the verify matrix, and report assembly.

Everything reported is recomputable from the VerdictRecords: metrics
never depend on state the records do not carry. All grouping and
floating-point reductions run in deterministic order so a seeded mock
run reproduces its records and report byte for byte.
"""

from __future__ import annotations

import json
import logging
import math
import time
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Hashable, Mapping, Sequence

from ._files import JsonRecord, read_json_lines
from .audit import AuditRequest, PaperToAudit, mock_audit_with_usage, run_audit
from .baselines import run_ciber, run_cot, run_flare, run_selfrag
# `ALL_METHODS` is kept here for the callers that import it from this module.
from .config import ALL_METHODS, DEFAULT_RETRIES, DEFAULT_RETRIEVAL_K, DEFAULT_TOKEN_BUDGET, AblationFlags  # noqa: F401
from .core import Claim, STANCE_REFUTES, STANCE_SUPPORTS, Verdict, map_verdict
from .corpus import (
    Corpus,
    EmbeddingError,
    EvidenceChunk,
    evidence_for_claim,
    filter_scenario,
    n_evidence_docs,
)
from .llm import Asker, LlmClient, LlmError, MockLlm, TokenUsage
from .redundancy import NoVocabularyError, document_weight, redundancy_for_texts
from .scoring import DocumentContribution, HvParams, Tallies, aggregate, hv, intrinsic_quality, make_contribution
from .threshold import RidgeModel, ThresholdConfig, threshold_for_claim
from .threshold import verdict as hv_verdict

logger = logging.getLogger(__name__)

# Threshold used when the dynamic-threshold ablation is switched off:
# the neutral cut of a sigmoid score.
FIXED_TAU = 0.5


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts; the positive class is Valid."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __post_init__(self) -> None:
        for name, value in (("tp", self.tp), ("fp", self.fp), ("fn", self.fn), ("tn", self.tn)):
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @classmethod
    def from_labels(cls, predicted: Sequence[Verdict], actual: Sequence[Verdict]) -> "ConfusionMatrix":
        if len(predicted) != len(actual):
            raise ValueError(f"label lists differ in length: {len(predicted)} vs {len(actual)}")
        tp = fp = fn = tn = 0
        for raw_pred, raw_act in zip(predicted, actual):
            pred = map_verdict(raw_pred) is Verdict.VALID
            act = map_verdict(raw_act) is Verdict.VALID
            if pred and act:
                tp += 1
            elif pred and not act:
                fp += 1
            elif not pred and act:
                fn += 1
            else:
                tn += 1
        return cls(tp=tp, fp=fp, fn=fn, tn=tn)


def _require_nonempty(cm: ConfusionMatrix) -> None:
    if cm.total == 0:
        raise ValueError("confusion matrix is empty")


def _class_f1(tp: int, fp: int, fn: int) -> float:
    # 2tp/(2tp+fp+fn); a class absent from predictions and actuals scores 0.
    denominator = 2 * tp + fp + fn
    return 0.0 if denominator == 0 else 2 * tp / denominator


def macro_f1(cm: ConfusionMatrix) -> float:
    """Unweighted mean of the Valid-class and Invalid-class F1 scores."""
    _require_nonempty(cm)
    f1_valid = _class_f1(cm.tp, cm.fp, cm.fn)
    f1_invalid = _class_f1(cm.tn, cm.fn, cm.fp)
    return (f1_valid + f1_invalid) / 2


def mcc(cm: ConfusionMatrix) -> float:
    """Matthews correlation; a zero denominator is defined as 0."""
    _require_nonempty(cm)
    numerator = cm.tp * cm.tn - cm.fp * cm.fn
    denominator = (cm.tp + cm.fp) * (cm.tp + cm.fn) * (cm.tn + cm.fp) * (cm.tn + cm.fn)
    if denominator == 0:
        return 0.0
    return numerator / math.sqrt(denominator)


def _check_label_pair(labels_a: Sequence[Hashable], labels_b: Sequence[Hashable]) -> None:
    if len(labels_a) != len(labels_b):
        raise ValueError(f"label lists differ in length: {len(labels_a)} vs {len(labels_b)}")
    if not labels_a:
        raise ValueError("label lists must be nonempty")


def _categories(labels_a: Sequence[Hashable], labels_b: Sequence[Hashable]) -> list[Hashable]:
    # Sorted so floating-point accumulation order is run-independent.
    return sorted(set(labels_a) | set(labels_b), key=str)


def cohen_kappa(labels_a: Sequence[Hashable], labels_b: Sequence[Hashable]) -> float:
    """Chance-corrected agreement with marginal-product expectation."""
    _check_label_pair(labels_a, labels_b)
    n = len(labels_a)
    p_observed = sum(1 for a, b in zip(labels_a, labels_b) if a == b) / n
    count_a = Counter(labels_a)
    count_b = Counter(labels_b)
    p_expected = sum((count_a[k] / n) * (count_b[k] / n) for k in _categories(labels_a, labels_b))
    if p_expected == 1.0:
        return 1.0 if p_observed == 1.0 else 0.0
    return (p_observed - p_expected) / (1.0 - p_expected)


def gwet_ac1(labels_a: Sequence[Hashable], labels_b: Sequence[Hashable]) -> float:
    """Gwet's chance-corrected agreement, stabler than kappa on skewed data."""
    _check_label_pair(labels_a, labels_b)
    n = len(labels_a)
    categories = _categories(labels_a, labels_b)
    p_observed = sum(1 for a, b in zip(labels_a, labels_b) if a == b) / n
    if len(categories) == 1:
        return 1.0 if p_observed == 1.0 else 0.0
    count_a = Counter(labels_a)
    count_b = Counter(labels_b)
    p_expected = sum(
        (pi_k := (count_a[k] / n + count_b[k] / n) / 2) * (1.0 - pi_k) for k in categories
    ) / (len(categories) - 1)
    return (p_observed - p_expected) / (1.0 - p_expected)


@dataclass(frozen=True, kw_only=True)
class VerdictRecord(JsonRecord):
    """One (claim, method, scenario) cell of the verify matrix.

    The defaults describe a cell without an answer, so a failure record
    needs only its key, ground truth, mode, doc count and `failure`.
    """

    claim_id: str
    method: str
    scenario: str
    verdict: str | None = None
    ground_truth: str
    hv: float | None = None
    tau: float | None = None
    tallies: Tallies | None = None
    contributions: tuple[DocumentContribution, ...] = ()
    n_evidence_docs: int = 0
    retrieval_mode: str | None = None
    tokens_in: int = 0
    tokens_out: int = 0
    tokens_approximate: bool = False
    failure: str | None = None

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "VerdictRecord":
        record = super().from_json(payload)
        labels = [member.value for member in Verdict]
        for name, label in (("verdict", record.verdict), ("ground_truth", record.ground_truth)):
            if label not in (*labels, None):
                raise ValueError(f"{name}: expected one of {labels}, got {label!r}")
        if (record.verdict is None) == (record.failure is None):
            raise ValueError(
                f"needs exactly one of verdict and failure, got verdict {record.verdict!r}, failure {record.failure!r}"
            )
        return record


def record_line(record: VerdictRecord) -> str:
    """One record as a stable JSON line (byte-identical for equal records)."""
    return json.dumps(record.to_json(), sort_keys=True, separators=(",", ":")) + "\n"


def dump_records(records: Sequence[VerdictRecord]) -> str:
    """Stable JSON-lines serialization: every `record_line`, in order."""
    return "".join(map(record_line, records))


def load_records(path: str | Path) -> list[VerdictRecord]:
    return read_json_lines(path, "verdict record", VerdictRecord.from_json)


def _papers_for(corpus: Corpus, chunks: Sequence[EvidenceChunk]) -> tuple[PaperToAudit, ...]:
    grouped: dict[str, list[str]] = {}
    for chunk in chunks:
        grouped.setdefault(chunk.doc_id, []).append(chunk.text)
    return tuple(
        PaperToAudit(paper_id=doc_id, analysis=corpus.document(doc_id).analysis, chunks=tuple(texts))
        for doc_id, texts in grouped.items()
    )


def _document_weights(
    chunks: Sequence[EvidenceChunk], papers: Sequence[PaperToAudit], use_penalty: bool
) -> dict[str, float]:
    if not use_penalty:
        return {paper.paper_id: 1.0 for paper in papers}
    try:
        rhos = redundancy_for_texts([chunk.text for chunk in chunks])
    except NoVocabularyError:
        # Nothing to compare against; every chunk counts as novel.
        logger.warning("evidence chunks yield no vocabulary; redundancy penalty disabled for this claim")
        rhos = [0.0] * len(chunks)
    rhos_by_doc: dict[str, list[float]] = {}
    for chunk, rho in zip(chunks, rhos):
        rhos_by_doc.setdefault(chunk.doc_id, []).append(rho)
    return {doc_id: document_weight(doc_rhos)[1] for doc_id, doc_rhos in rhos_by_doc.items()}


@dataclass(frozen=True)
class RunContext:
    """Everything a cell needs: fixed for one `run_matrix` call but the asker's memo, the current claim's replies."""

    corpus: Corpus
    flags: AblationFlags
    hv_params: HvParams
    ridge: RidgeModel
    cfg: ThresholdConfig
    seed: int
    mock: bool
    asker: Asker
    token_budget: int


CellFields = dict[str, Any]


def _audit(ctx: RunContext, claim: Claim, chunks: Sequence[EvidenceChunk], usage: TokenUsage) -> CellFields:
    papers = _papers_for(ctx.corpus, chunks)
    request = AuditRequest(claim_text=claim.text, papers=papers)
    if ctx.mock:
        results = mock_audit_with_usage(
            request, ctx.seed, usage, templates=ctx.asker.templates, token_budget=ctx.token_budget
        )
    else:
        results = run_audit(ctx.asker, request, usage, token_budget=ctx.token_budget)

    weights = _document_weights(chunks, papers, ctx.flags.use_redundancy_penalty)
    applicable = {paper.paper_id: paper.analysis.applicable_checks for paper in papers}
    contributions: list[DocumentContribution] = []
    for result in results:
        checks = applicable[result.paper_id]
        if not checks:
            logger.warning("document %s has no applicable checks; it contributes nothing", result.paper_id)
            continue
        quality = intrinsic_quality(result.audit, checks)
        contributions.append(make_contribution(result.paper_id, result.stance, quality, weights[result.paper_id]))
    tallies = aggregate(contributions)
    fields: CellFields = {"tallies": tallies, "contributions": tuple(contributions)}

    if ctx.flags.use_hv_score:
        score = hv(tallies, ctx.hv_params)
        if ctx.flags.use_dynamic_threshold:
            tau = threshold_for_claim(claim, n_evidence_docs(chunks), ctx.cfg, ctx.ridge)
        else:
            tau = FIXED_TAU
        return {**fields, "verdict": hv_verdict(score, tau).value, "hv": score, "tau": tau}
    supports = sum(1 for result in results if result.stance == STANCE_SUPPORTS)
    refutes = sum(1 for result in results if result.stance == STANCE_REFUTES)
    majority = Verdict.VALID if supports > refutes else Verdict.INVALID
    return {**fields, "verdict": majority.value}


def _full_texts(corpus: Corpus, chunks: Sequence[EvidenceChunk]) -> dict[str, str]:
    return {
        doc_id: "\n\n".join(chunk.text for chunk in corpus.document(doc_id).chunks)
        for doc_id in sorted({chunk.doc_id for chunk in chunks})
    }


# One entry per method of `ALL_METHODS`, in its order. Each entry records
# every turn it asks into the cell's `TokenUsage` and names the function
# it runs (`_audit`'s are `mock_audit_with_usage` and `run_audit`) inside
# a function body, so that name is looked up on this module when the cell
# runs and a wrapper installed there (a tracer, a test spy) sees every
# call.
_CELLS: dict[str, Callable[[RunContext, Claim, Sequence[EvidenceChunk], TokenUsage], CellFields]] = {
    "audit": _audit,
    "cot": lambda ctx, claim, chunks, usage: {
        "verdict": run_cot(ctx.asker, claim, chunks, usage).verdict.value
    },
    "selfrag": lambda ctx, claim, chunks, usage: {
        "verdict": run_selfrag(ctx.asker, claim, chunks, usage).verdict.value
    },
    "flare": lambda ctx, claim, chunks, usage: {
        "verdict": run_flare(ctx.asker, claim, chunks, _full_texts(ctx.corpus, chunks), usage).verdict.value
    },
    "ciber": lambda ctx, claim, chunks, usage: {
        "verdict": run_ciber(ctx.asker, claim, chunks, usage).verdict.value
    },
}


def _cell(ctx: RunContext, method: str, claim: Claim, chunks: Sequence[EvidenceChunk]) -> CellFields:
    """The record fields of one nonempty cell; a cell whose method raises is a failure, with no tokens.

    The cell's one `TokenUsage` is made here and counts every turn its
    method asked, memo hits included.
    """
    n_docs = n_evidence_docs(chunks)
    usage = TokenUsage()
    try:
        fields = _CELLS[method](ctx, claim, chunks, usage)
    except (LlmError, ValueError) as exc:
        return {"n_evidence_docs": n_docs, "failure": str(exc)}
    return {
        "n_evidence_docs": n_docs,
        **fields,
        "tokens_in": usage.tokens_in,
        "tokens_out": usage.tokens_out,
        "tokens_approximate": usage.approximate,
    }


def _claim_records(
    ctx: RunContext, claim: Claim, methods: Sequence[str], scenario_labels: Sequence[str], retrieval_k: int
) -> list[VerdictRecord]:
    """One claim's records, in method-then-scenario order; no other code holds a claim's state.

    A failed evidence lookup fails all the claim's cells. A cell never
    reads its scenario label, so scenarios that leave the claim the same
    evidence share one computed cell, a failure included. The cells
    share one reply memo, so a prompt reaches the client at most once
    per claim. The memo is per claim by design, even where two claims
    send the same prompt (a CIBER probe holds no claim text), so one
    worker can run all of a claim's cells without a lock.
    """
    record = partial(VerdictRecord, claim_id=claim.id, ground_truth=claim.ground_truth.value)
    cells = [(method, label) for method in methods for label in scenario_labels]
    try:
        evidence, mode = evidence_for_claim(ctx.corpus, claim, retrieval_k)
    except (EmbeddingError, ValueError) as exc:
        logger.warning("evidence lookup failed for claim %s: %s", claim.id, exc)
        failure = f"evidence lookup failed: {exc}"
        return [record(method=method, scenario=label, failure=failure) for method, label in cells]
    chunks_by_scenario = {label: filter_scenario(evidence, ctx.corpus.scenario(label)) for label in scenario_labels}
    computed: dict[tuple[str, tuple[str, ...]], CellFields] = {}
    claim_ctx = replace(ctx, asker=replace(ctx.asker, memo={}))

    def fields(method: str, label: str) -> CellFields:
        if not (chunks := chunks_by_scenario[label]):
            return {"failure": f"no evidence chunks survive scenario {label}"}
        key = (method, tuple(chunk.id for chunk in chunks))
        if key not in computed:
            computed[key] = _cell(claim_ctx, method, claim, chunks)
        return computed[key]

    return [
        record(method=method, scenario=label, retrieval_mode=mode, **fields(method, label)) for method, label in cells
    ]


def run_matrix(
    corpus: Corpus,
    methods: Sequence[str],
    scenario_labels: Sequence[str],
    flags: AblationFlags,
    hv_params: HvParams,
    ridge: RidgeModel,
    cfg: ThresholdConfig,
    *,
    seed: int = 0,
    mock: bool = True,
    client: LlmClient | None = None,
    retrieval_k: int = DEFAULT_RETRIEVAL_K,
    token_budget: int = DEFAULT_TOKEN_BUDGET,
    retries: int = DEFAULT_RETRIES,
    sleep: Callable[[float], None] = time.sleep,
    templates: Path | None = None,
) -> "RunReport":
    """Produce one VerdictRecord per (claim, method, scenario) cell: each claim's `_claim_records`, in claim order.

    Claim-level failures become records with the failure field set;
    the matrix itself never aborts. An unknown or duplicated method, or a
    duplicated scenario, is rejected before any cell runs. `templates` is
    the directory whose prompt templates shadow the packaged ones.
    """
    if unknown := [method for method in methods if method not in _CELLS]:
        raise ValueError(f"unknown methods: {unknown}")
    for kind, names in (("methods", methods), ("scenarios", scenario_labels)):
        if duplicated := [name for name, count in Counter(names).items() if count > 1]:
            raise ValueError(f"duplicated {kind}: {duplicated}")
    if not mock and client is None:
        raise ValueError("a live run needs an LLM client; pass client= or use mock=True")
    ctx = RunContext(
        corpus=corpus,
        flags=flags,
        hv_params=hv_params,
        ridge=ridge,
        cfg=cfg,
        seed=seed,
        mock=mock,
        asker=Asker(MockLlm(seed) if mock else client, retries, sleep, templates),  # type: ignore[arg-type]
        token_budget=token_budget,
    )
    blocks = (_claim_records(ctx, claim, methods, scenario_labels, retrieval_k) for claim in corpus.claims.values())
    return build_report([record for block in blocks for record in block])


@dataclass(frozen=True)
class CellMetrics(JsonRecord):
    """Aggregates for one (method, scenario) group of records."""

    method: str
    scenario: str
    n: int
    failures: int
    macro_f1: float | None
    mcc: float | None
    avg_tokens_in: float
    avg_tokens_out: float
    tokens_approximate: bool


@dataclass(frozen=True)
class RunReport(JsonRecord):
    _json_keys = {"records": None}

    records: tuple[VerdictRecord, ...] = ()
    cells: tuple[CellMetrics, ...] = ()


def build_report(records: Sequence[VerdictRecord]) -> RunReport:
    """Group records by (method, scenario) and compute each cell's metrics."""
    groups: dict[tuple[str, str], list[VerdictRecord]] = {}
    for record in records:
        groups.setdefault((record.method, record.scenario), []).append(record)
    cells = []
    for (method, scenario), members in groups.items():
        scored = [record for record in members if record.failure is None]
        failures = len(members) - len(scored)
        if scored:
            cm = ConfusionMatrix.from_labels(
                [Verdict(record.verdict) for record in scored],
                [Verdict(record.ground_truth) for record in scored],
            )
            f1_value: float | None = macro_f1(cm)
            mcc_value: float | None = mcc(cm)
            avg_in = sum(record.tokens_in for record in scored) / len(scored)
            avg_out = sum(record.tokens_out for record in scored) / len(scored)
            approximate = any(record.tokens_approximate for record in scored)
        else:
            f1_value = mcc_value = None
            avg_in = avg_out = 0.0
            approximate = False
        cells.append(
            CellMetrics(
                method=method,
                scenario=scenario,
                n=len(scored),
                failures=failures,
                macro_f1=f1_value,
                mcc=mcc_value,
                avg_tokens_in=avg_in,
                avg_tokens_out=avg_out,
                tokens_approximate=approximate,
            )
        )
    return RunReport(records=tuple(records), cells=tuple(cells))


def render_table(report: RunReport) -> str:
    """Plain-text grid: methods down, scenarios across, F1/MCC and "(k failed)" per cell."""
    methods = list(dict.fromkeys(cell.method for cell in report.cells))
    scenarios = list(dict.fromkeys(cell.scenario for cell in report.cells))
    by_key = {(cell.method, cell.scenario): cell for cell in report.cells}
    approximate = any(cell.tokens_approximate for cell in report.cells)

    header = ["method"] + scenarios + ["avg tokens in/out"]
    rows = [header]
    for method in methods:
        row = [method]
        method_cells = [by_key[(method, s)] for s in scenarios if (method, s) in by_key]
        for scenario in scenarios:
            cell = by_key.get((method, scenario))
            if cell is None:
                row.append("-")
                continue
            text = "-" if cell.macro_f1 is None else f"F1 {cell.macro_f1:.3f} MCC {cell.mcc:+.3f}"
            row.append(f"{text} ({cell.failures} failed)" if cell.failures else text)
        total_n = sum(cell.n for cell in method_cells)
        if total_n:
            avg_in = sum(cell.avg_tokens_in * cell.n for cell in method_cells) / total_n
            avg_out = sum(cell.avg_tokens_out * cell.n for cell in method_cells) / total_n
            row.append(f"{avg_in:.0f}/{avg_out:.0f}")
        else:
            row.append("-")
        rows.append(row)

    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(value.ljust(widths[i]) for i, value in enumerate(row)).rstrip() for row in rows]
    if approximate:
        lines.append("token counts are approximate (ceil(bytes/4))")
    return "\n".join(lines) + "\n"


def csv_rows(report: RunReport) -> list[str]:
    """Machine-readable rows, one per (method, scenario) cell."""
    lines = ["method,scenario,n,failures,macro_f1,mcc,avg_tokens_in,avg_tokens_out,tokens_approximate"]
    for cell in report.cells:
        f1_text = "" if cell.macro_f1 is None else f"{cell.macro_f1:.6f}"
        mcc_text = "" if cell.mcc is None else f"{cell.mcc:.6f}"
        lines.append(
            f"{cell.method},{cell.scenario},{cell.n},{cell.failures},"
            f"{f1_text},{mcc_text},{cell.avg_tokens_in:.2f},{cell.avg_tokens_out:.2f},"
            f"{str(cell.tokens_approximate).lower()}"
        )
    return lines
