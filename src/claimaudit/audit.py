"""Batch audit assembly: prompt building, response parsing, offline mock.

A claim's evidence papers are audited in one batched request; the
response carries a stance and per-check scores for each paper. Parsing
is strict and retryable, and a seeded mock double makes the whole path
runnable offline.
"""

from __future__ import annotations

import functools
import logging
import re
from dataclasses import dataclass
from functools import cache
from importlib import resources
from json.encoder import encode_basestring_ascii as _string_json
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ._files import json_array, json_optional, json_value
from ._rng import DeterministicStream
from .config import DEFAULT_TOKEN_BUDGET
from .core import (
    AnalysisDocument,
    AuditResult,
    AuditVector,
    CheckId,
    SCORE_LABELS,
    STANCE_LABELS,
)
from .llm import Asker, LlmReply, TokenUsage, approx_token_count

logger = logging.getLogger(__name__)

_PLACEHOLDER = re.compile(r"\{\{([A-Z_]+)\}\}")
_SCORE_NAMES = {value: name for name, value in SCORE_LABELS.items()}
_STANCE_NAMES = {value: name for name, value in STANCE_LABELS.items()}


class PromptBudgetError(ValueError):
    """The serialized prompt exceeds the configured token budget."""


@cache
def load_template(name: str, directory: Path | None = None) -> str:
    """A prompt template: `directory`'s copy if it has one, else the packaged asset.

    Each (name, directory) is read from disk once per process; later
    edits to a template file are not seen by a running process.
    """
    if directory is not None:
        override = directory / f"{name}.txt"
        if override.exists():
            return override.read_text(encoding="utf-8")
    return (resources.files(__package__) / "templates" / f"{name}.txt").read_text(encoding="utf-8")


def render_template(template: str, mapping: Mapping[str, str]) -> str:
    """Fill every {{KEY}} placeholder; unknown or unfilled keys are errors."""

    def substitute(match: re.Match[str]) -> str:
        key = match.group(1)
        if key not in mapping:
            raise ValueError(f"template placeholder {{{{{key}}}}} has no value")
        return mapping[key]

    return _PLACEHOLDER.sub(substitute, template)


@dataclass(frozen=True)
class PaperToAudit:
    paper_id: str
    analysis: AnalysisDocument
    chunks: tuple[str, ...]


@dataclass(frozen=True)
class AuditRequest:
    claim_text: str
    papers: tuple[PaperToAudit, ...]

    def __post_init__(self) -> None:
        if not self.claim_text:
            raise ValueError("audit request needs a nonempty claim text")
        if not self.papers:
            raise ValueError("audit request must contain at least one paper")
        seen: set[str] = set()
        for paper in self.papers:
            if not paper.chunks:
                raise ValueError(f"paper {paper.paper_id!r} has no evidence chunks")
            if paper.paper_id in seen:
                raise ValueError(f"duplicate paper id {paper.paper_id!r} in audit request")
            seen.add(paper.paper_id)


BATCH_AUDIT_SCHEMA: Mapping[str, Any] = {
    "title": "batch_audit_response",
    "type": "object",
    "required": ["all_papers_audit"],
    "properties": {
        "all_papers_audit": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["paper_id", "stance", "checks"],
                "properties": {
                    "paper_id": {"type": "string"},
                    "stance": {"enum": sorted(STANCE_LABELS)},
                    "checks": {"type": "object"},
                },
            },
        }
    },
}


# Indent-2 JSON assembled from the indent-2 JSON of its members, equal to
# `json.dumps(..., indent=2)` of the whole; `_string_json` is the string
# encoder `json.dumps` uses. JSON text never holds a raw newline, so a
# member nested one level deeper is its text with two more spaces after
# each newline.


def _nested(member: str) -> str:
    return member.replace("\n", "\n  ")


def _array_json(members: Sequence[str]) -> str:
    if not members:
        return "[]"
    return "[\n" + ",\n".join("  " + _nested(member) for member in members) + "\n]"


def _object_json(members: Mapping[str, str]) -> str:
    if not members:
        return "{}"
    return "{\n" + ",\n".join(f"  {_string_json(key)}: {_nested(member)}" for key, member in members.items()) + "\n}"


def _paper_json(paper: PaperToAudit) -> str:
    """One paper's entry in the audit prompt, reusing its analysis's rendering."""
    return _object_json(
        {
            "paper_id": _string_json(paper.paper_id),
            "paper_json_content": paper.analysis.indented_json,
            "evidence_text_chunks": _array_json([_string_json(chunk) for chunk in paper.chunks]),
        }
    )


def build_audit_prompt(req: AuditRequest, *, templates: Path | None = None) -> str:
    papers_json = _array_json([_paper_json(paper) for paper in req.papers])
    return render_template(
        load_template("batch_audit", templates),
        {"CLAIM_TEXT": req.claim_text, "PAPERS_TO_AUDIT_JSON": papers_json},
    )


def parse_audit_response(payload: dict[str, Any], req: AuditRequest) -> list[AuditResult]:
    """Validate the reply's JSON object and map labels to numeric scores/stances.

    Every value is read by its JSON type; a wrong type, an unknown label
    or a duplicate paper raises ValueError, so the response is
    unparseable, hence retryable. Unknown paper ids are dropped with a
    warning, and so is a score on a check the paper's analysis marks
    inapplicable: an auditor may over-answer, and such scores do not
    count. Any requested paper left unanswered makes the response
    incomplete, hence retryable too.
    """
    applicable = {paper.paper_id: paper.analysis.applicable_checks for paper in req.papers}
    results: dict[str, AuditResult] = {}
    for i, entry in enumerate(json_array("all_papers_audit", payload.get("all_papers_audit"), dict)):
        at = f"all_papers_audit[{i}]"
        paper_id = json_value(f"{at}.paper_id", entry.get("paper_id"), str)
        if paper_id not in applicable:
            logger.warning("dropping audit for unknown paper id %r", paper_id)
            continue
        if paper_id in results:
            raise ValueError(f"duplicate audit entry for paper {paper_id!r}")
        stance = json_value(f"{at}.stance", entry.get("stance"), str, among=STANCE_LABELS)
        scores: dict[CheckId, float] = {}
        reasoning: dict[CheckId, str] = {}
        for name, cell in json_value(f"{at}.checks", entry.get("checks"), dict).items():
            check = CheckId[json_value(f"{at}.checks", name, str, among=CheckId.__members__)]
            where = f"{at}.checks.{name}"
            json_value(where, cell, dict)
            score = SCORE_LABELS[json_value(f"{where}.score", cell.get("score"), str, among=SCORE_LABELS)]
            why = json_optional(f"{where}.reasoning", cell.get("reasoning"), str, default="")
            if check not in applicable[paper_id]:
                logger.warning("dropping audit score for inapplicable check %s", check.name)
                continue
            scores[check] = score
            reasoning[check] = why
        results[paper_id] = AuditResult(
            paper_id=paper_id, stance=STANCE_LABELS[stance], audit=AuditVector(scores, reasoning)
        )
    missing = sorted(applicable.keys() - results.keys())
    if missing:
        raise ValueError(f"audit response is missing papers: {missing}")
    return list(results.values())


def render_audit_response(results: Sequence[AuditResult]) -> str:
    """Serialize results back into the wire shape (mock replies, tests), as indent-2 JSON."""
    entries = []
    for result in results:
        checks = {
            check.name: _object_json(
                {
                    "score": _string_json(_SCORE_NAMES[score]),
                    "reasoning": _string_json(result.audit.reasoning.get(check, "")),
                }
            )
            for check, score in sorted(result.audit.scores.items())
        }
        entries.append(
            _object_json(
                {
                    "paper_id": _string_json(result.paper_id),
                    "stance": _string_json(_STANCE_NAMES[result.stance]),
                    "checks": _object_json(checks),
                }
            )
        )
    return _object_json({"all_papers_audit": _array_json(entries)})


_MOCK_STANCE_WEIGHTS = (("Supports", 45.0), ("Refutes", 30.0), ("Neutral", 25.0))
_MOCK_SCORE_WEIGHTS = ((1.0, 60.0), (0.5, 20.0), (0.0, 20.0))


def mock_audit(req: AuditRequest, seed: int) -> list[AuditResult]:
    """Deterministic offline auditor; a pure function of seed and ids."""
    results = []
    for paper in req.papers:
        stream = DeterministicStream(seed, "mock-audit", req.claim_text, paper.paper_id)
        stance = STANCE_LABELS[stream.weighted_choice(_MOCK_STANCE_WEIGHTS)]
        scores: dict[CheckId, float] = {}
        reasoning: dict[CheckId, str] = {}
        for check in paper.analysis.applicable_checks:
            scores[check] = stream.weighted_choice(_MOCK_SCORE_WEIGHTS)
            reasoning[check] = f"mock audit of {check.name}"
        results.append(AuditResult(paper_id=paper.paper_id, stance=stance, audit=AuditVector(scores, reasoning)))
    return results


def _audit_batches(
    req: AuditRequest,
    token_budget: int,
    templates: Path | None,
    answer: Callable[[AuditRequest, str], list[AuditResult]],
) -> list[AuditResult]:
    """Audit `req` in one batch, or one batch per paper when its prompt is over `token_budget`.

    `answer(batch, prompt)` answers one batch and records the turn in the
    caller's `usage`, so every sub-batch adds to it. A paper alone over
    the budget raises PromptBudgetError, a claim-level failure.
    """
    prompt = build_audit_prompt(req, templates=templates)
    total = approx_token_count(prompt)
    if total <= token_budget:
        return answer(req, prompt)
    if len(req.papers) == 1:
        paper = req.papers[0]
        raise PromptBudgetError(
            f"single paper exceeds the audit token budget: audit prompt is ~{total} tokens, over the budget of "
            f"{token_budget}; per-paper sizes: {paper.paper_id}: ~{approx_token_count(_paper_json(paper))} tokens"
        )
    logger.warning("splitting oversized audit batch into %d single-paper requests", len(req.papers))
    results = []
    for paper in req.papers:
        single = AuditRequest(claim_text=req.claim_text, papers=(paper,))
        results.extend(_audit_batches(single, token_budget, templates, answer))
    return results


def mock_audit_with_usage(
    req: AuditRequest,
    seed: int,
    usage: TokenUsage,
    *,
    templates: Path | None = None,
    token_budget: int = DEFAULT_TOKEN_BUDGET,
) -> list[AuditResult]:
    """Mock audit recording the approximate tokens of the skipped calls into `usage`, batched as `run_audit` batches."""

    def answer(batch: AuditRequest, prompt: str) -> list[AuditResult]:
        results = mock_audit(batch, seed)
        usage.record(prompt, LlmReply(text=render_audit_response(results)))
        return results

    return _audit_batches(req, token_budget, templates, answer)


def run_audit(
    asker: Asker, req: AuditRequest, usage: TokenUsage, *, token_budget: int = DEFAULT_TOKEN_BUDGET
) -> list[AuditResult]:
    """Audit every paper in the request, splitting batches over budget; every turn is recorded into `usage`.

    `asker` retries unparseable replies and retryable transport errors;
    its error when they run out (named `batch_audit_response`), a client
    error it does not retry, or a PromptBudgetError for a single paper
    that alone exceeds the budget propagates as a claim-level failure.
    """

    def answer(batch: AuditRequest, prompt: str) -> list[AuditResult]:
        return asker.ask(prompt, BATCH_AUDIT_SCHEMA, functools.partial(parse_audit_response, req=batch), usage)

    return _audit_batches(req, token_budget, asker.templates, answer)
