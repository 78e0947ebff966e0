"""The verify matrix: one VerdictRecord per (claim, method, scenario) cell.

A seeded mock run reproduces its records byte for byte. The records,
their files, metrics and report live in `records`; the names are kept
here for the callers that import them from this module.
"""

from __future__ import annotations

import gc
import logging
import time
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Sequence

from .audit import AuditRequest, PaperToAudit, mock_audit_with_usage, run_audit
from .baselines import run_ciber, run_cot, run_flare, run_selfrag
# `ALL_METHODS` is kept here for the callers that import it from this module.
from .config import ALL_METHODS, DEFAULT_RETRIES, DEFAULT_RETRIEVAL_K, DEFAULT_TOKEN_BUDGET, AblationFlags  # noqa: F401
from .core import Claim, STANCE_REFUTES, STANCE_SUPPORTS, Verdict
from .corpus import (
    Corpus,
    EmbeddingError,
    EvidenceChunk,
    evidence_for_claim,
    filter_scenario,
    n_evidence_docs,
)
from .llm import Asker, LlmClient, LlmError, MockLlm, TokenUsage
from .records import (  # noqa: F401
    CellMetrics, ConfusionMatrix, RunReport, VerdictRecord, build_report, cohen_kappa, csv_rows, dump_records,
    gwet_ac1, load_records, macro_f1, mcc, record_line, render_table,
)
from .redundancy import document_weight, redundancy_for_texts
from .scoring import DocumentContribution, HvParams, aggregate, hv, intrinsic_quality, make_contribution
from .threshold import RidgeModel, ThresholdConfig, threshold_for_claim
from .threshold import verdict as hv_verdict

logger = logging.getLogger(__name__)

# Threshold used when the dynamic-threshold ablation is switched off:
# the neutral cut of a sigmoid score.
FIXED_TAU = 0.5


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
    rhos = redundancy_for_texts([chunk.text for chunk in chunks])
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
        return {**fields, "verdict": hv_verdict(score, tau), "hv": score, "tau": tau}
    supports = sum(1 for result in results if result.stance == STANCE_SUPPORTS)
    refutes = sum(1 for result in results if result.stance == STANCE_REFUTES)
    majority = Verdict.VALID if supports > refutes else Verdict.INVALID
    return {**fields, "verdict": majority}


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
    "cot": lambda ctx, claim, chunks, usage: {"verdict": run_cot(ctx.asker, claim, chunks, usage).verdict},
    "selfrag": lambda ctx, claim, chunks, usage: {"verdict": run_selfrag(ctx.asker, claim, chunks, usage).verdict},
    "flare": lambda ctx, claim, chunks, usage: {
        "verdict": run_flare(ctx.asker, claim, chunks, _full_texts(ctx.corpus, chunks), usage).verdict
    },
    "ciber": lambda ctx, claim, chunks, usage: {"verdict": run_ciber(ctx.asker, claim, chunks, usage).verdict},
}


def _cell(ctx: RunContext, method: str, claim: Claim, chunks: Sequence[EvidenceChunk]) -> CellFields:
    """The record fields of one nonempty cell; a cell whose method raises is a failure.

    The cell's one `TokenUsage` is made here and counts every turn its
    method asked, memo hits included, whether the cell answered or failed.
    """
    usage = TokenUsage()
    try:
        fields = _CELLS[method](ctx, claim, chunks, usage)
    except (LlmError, ValueError) as exc:
        fields = {"failure": str(exc)}
    return {
        "n_evidence_docs": n_evidence_docs(chunks),
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
    record = partial(VerdictRecord, claim_id=claim.id, ground_truth=claim.ground_truth)
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
    workers: int = 1,
) -> RunReport:
    """Produce one VerdictRecord per (claim, method, scenario) cell: each claim's `_claim_records`, in claim order.

    Claim-level failures become records with the failure field set;
    the matrix itself never aborts. An unknown or duplicated method or
    scenario is rejected before any cell runs. `templates` is the
    directory whose prompt templates shadow the packaged ones. The
    report's cells are computed only if read. A mock run with `workers`
    above 1 splits its claims across that many processes
    (`_forked_blocks`) and writes the same records; a live run is serial.
    """
    for kind, names, known in (("methods", methods, _CELLS), ("scenarios", scenario_labels, corpus.scenarios)):
        if unknown := [name for name in names if name not in known]:
            raise ValueError(f"unknown {kind}: {unknown}")
        if duplicated := [name for name, count in Counter(names).items() if count > 1]:
            raise ValueError(f"duplicated {kind}: {duplicated}")
    if not mock and client is None:
        raise ValueError("a live run needs an LLM client; pass client= or use mock=True")
    if not mock and workers > 1:
        raise ValueError(f"a live run is serial; workers={workers} needs mock=True")
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
    claims = tuple(corpus.claims.values())

    def run_claim(claim: Claim) -> list[VerdictRecord]:
        return _claim_records(ctx, claim, methods, scenario_labels, retrieval_k)

    processes = min(workers, len(claims))
    blocks = _forked_blocks(run_claim, claims, processes) if processes > 1 else map(run_claim, claims)
    return RunReport(records=tuple(record for block in blocks for record in block))


def _forked_blocks(
    run_claim: Callable[[Claim], list[VerdictRecord]], claims: Sequence[Claim], processes: int
) -> list[list[VerdictRecord]]:
    """Every claim's `run_claim` block, in claim order, from `processes` contiguous ranges of at least one claim each.

    The first range runs in this process, each other one in a forked
    child that sends its blocks back. The first claim runs before the
    fork, so every child inherits what it loads on first use (numpy, the
    templates, the corpus's chunk index) instead of loading it again, and
    the frozen GC leaves the inherited objects' pages shared. A child
    that raises or dies fails the run, naming its claims and exit code.
    Every child is joined, or terminated, before this returns or raises.
    Without the fork start method the claims run here, one after another.
    """
    # Imported here: a serial run does not pay for loading it.
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return list(map(run_claim, claims))
    context = multiprocessing.get_context("fork")
    bounds = [len(claims) * i // processes for i in range(processes + 1)]
    blocks = [run_claim(claims[0])]
    children = []
    gc.freeze()
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            assigned = claims[start:stop]
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_send_blocks, args=(sender, run_claim, assigned))
            with warnings.catch_warnings():
                # Python 3.12+ warns on a fork while another thread runs. Here
                # that is numpy's OpenBLAS pool, idle between calls, which
                # OpenBLAS's own fork handler stops and starts again.
                warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
                child.start()
            children.append((child, receiver, assigned))
            sender.close()
        blocks.extend(map(run_claim, claims[1 : bounds[1]]))
        for child, receiver, assigned in children:
            try:
                received = receiver.recv()
            except EOFError:
                received = None
            child.join()
            if child.exitcode or received is None:
                raise RuntimeError(
                    f"the worker for claims {assigned[0].id}..{assigned[-1].id} exited with code {child.exitcode}"
                )
            blocks.extend(received)
    finally:
        for child, receiver, _ in children:
            if child.is_alive():
                child.terminate()
            child.join()
            receiver.close()
        gc.unfreeze()
    return blocks


def _send_blocks(sender: Any, run_claim: Callable[[Claim], list[VerdictRecord]], claims: Sequence[Claim]) -> None:
    """A forked child's work: every claim's block, sent as one list; `multiprocessing` then ends it with `os._exit`."""
    sender.send([run_claim(claim) for claim in claims])
