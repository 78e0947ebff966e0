"""The four baseline verification protocols, as prompt-chain drivers.

Each driver runs a fixed chain of turns through the run's `Asker` (its
client, retry policy, reply memo and template directory), records every
turn into the `TokenUsage` it is given, and validates the JSON object
the Asker reads from every structured reply. A required turn that fails
(a client error, or a reply unparseable after the retries) raises the
Asker's own error out of the driver, named by the turn's schema title; a
failed optional turn falls back: a CIBER probe adds vacuous mass, a FLARE
full review keeps the first verdict.

COT     one pass: verdict + justification.
SELFRAG two turns: per-passage critiques feed a synthesis verdict,
        with the synthesis rules re-enforced on our side.
FLARE   two turns: the first may request one paper's full text.
CIBER   one COT turn plus three probe turns, fused by Dempster's rule.

CIBER's COT turn renders the COT prompt byte for byte: given the claim's
reply memo (`llm.Asker.memo`), it reuses the COT method's reply.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Any, Mapping, Protocol, Sequence

from ._files import json_array, json_optional, json_value
from .audit import load_template, render_template
from .core import Claim, Verdict
from .llm import Asker, LlmError, TokenUsage

logger = logging.getLogger(__name__)

RELEVANT = "Relevant"
IRRELEVANT = "Irrelevant"
FULLY_SUPPORTED = "Fully Supported"
PARTIALLY_SUPPORTED = "Partially Supported"
CONTRADICTORY = "Contradictory"
NO_SUPPORT = "No Support"
SUPPORT_LABELS = (FULLY_SUPPORTED, PARTIALLY_SUPPORTED, CONTRADICTORY, NO_SUPPORT)

_MASS_TOLERANCE = 1e-9
_TIE_MARGIN = 1e-9


class EvidenceLike(Protocol):
    doc_id: str
    text: str


class TotalConflictError(ArithmeticError):
    """Dempster combination hit a zero normalizer (complete conflict)."""


@dataclass(frozen=True)
class MassFunction:
    """Belief masses over {support}, {refute}, and the frame theta."""

    support: float
    refute: float
    theta: float

    def __post_init__(self) -> None:
        for name, value in (("support", self.support), ("refute", self.refute), ("theta", self.theta)):
            if value < 0:
                raise ValueError(f"mass {name} must be nonnegative, got {value}")
        total = self.support + self.refute + self.theta
        if abs(total - 1.0) > _MASS_TOLERANCE:
            raise ValueError(f"masses must sum to 1, got {total}")

    @classmethod
    def vacuous(cls) -> "MassFunction":
        return cls(support=0.0, refute=0.0, theta=1.0)

    @classmethod
    def from_verdict(cls, verdict: Verdict, confidence: float) -> "MassFunction":
        """Mass `confidence` on the verdict's hypothesis, remainder on theta."""
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {confidence}")
        if verdict in (Verdict.SUPPORTS, Verdict.VALID):
            return cls(support=confidence, refute=0.0, theta=1.0 - confidence)
        if verdict in (Verdict.REFUTES, Verdict.INVALID):
            return cls(support=0.0, refute=confidence, theta=1.0 - confidence)
        if verdict in (Verdict.NEUTRAL, Verdict.UNVERIFIABLE):
            return cls.vacuous()
        raise ValueError(f"no mass assignment for verdict {verdict!r}")

    def combine(self, other: "MassFunction") -> "MassFunction":
        """Dempster's rule with conflict renormalization."""
        support = self.support * other.support + self.support * other.theta + self.theta * other.support
        refute = self.refute * other.refute + self.refute * other.theta + self.theta * other.refute
        theta = self.theta * other.theta
        norm = support + refute + theta
        if norm <= 0.0:
            raise TotalConflictError("total conflict: all combined mass cancelled")
        return MassFunction(support=support / norm, refute=refute / norm, theta=theta / norm)


def wbu_fuse(verdicts: Sequence[tuple[Verdict, float]]) -> Verdict:
    """Fuse (verdict, confidence) pairs; the winner needs a clear margin.

    Returns Supports, Refutes, or Neutral. Neutral/Unverifiable inputs
    contribute vacuous mass; total conflict collapses to Neutral.
    """
    if not verdicts:
        raise ValueError("wbu_fuse needs at least one verdict")
    fused = MassFunction.vacuous()
    try:
        for verdict, confidence in verdicts:
            fused = fused.combine(MassFunction.from_verdict(verdict, confidence))
    except TotalConflictError:
        return Verdict.NEUTRAL
    if fused.support > fused.refute + _TIE_MARGIN:
        return Verdict.SUPPORTS
    if fused.refute > fused.support + _TIE_MARGIN:
        return Verdict.REFUTES
    return Verdict.NEUTRAL


@dataclass(frozen=True)
class BaselineVerdict:
    verdict: Verdict
    justification: str


@dataclass(frozen=True)
class Critique:
    passage_id: str
    relevance: str
    support: str
    note: str = ""


_BASELINE_VERDICTS: Mapping[str, Verdict] = {
    "Valid": Verdict.VALID,
    "Invalid": Verdict.INVALID,
    "Unverifiable": Verdict.UNVERIFIABLE,
}

_PROBE_VERDICTS: Mapping[str, Verdict] = {
    "Agree": Verdict.SUPPORTS,
    "Disagree": Verdict.REFUTES,
    "Neutral": Verdict.NEUTRAL,
}

_VERDICT_PROPERTIES: Mapping[str, Any] = {
    "verdict": {"enum": list(_BASELINE_VERDICTS)},
    "justification": {"type": "string"},
    "confidence": {"type": "integer", "minimum": 0, "maximum": 100},
}


def _verdict_schema(title: str) -> Mapping[str, Any]:
    """A plain verdict turn's schema; the title alone tells the turns apart."""
    return {
        "title": title,
        "type": "object",
        "required": ["verdict", "justification"],
        "properties": dict(_VERDICT_PROPERTIES),
    }


COT_VERDICT_SCHEMA = _verdict_schema("cot_verdict")

SELFRAG_CRITIQUES_SCHEMA: Mapping[str, Any] = {
    "title": "selfrag_critiques",
    "type": "object",
    "required": ["critiques"],
    "properties": {
        "critiques": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["passage_id", "relevance", "support"],
                "properties": {
                    "passage_id": {"type": "string"},
                    "relevance": {"enum": [RELEVANT, IRRELEVANT]},
                    "support": {"enum": list(SUPPORT_LABELS)},
                    "note": {"type": "string"},
                },
            },
        }
    },
}

SELFRAG_VERDICT_SCHEMA = _verdict_schema("selfrag_verdict")

FLARE_INITIAL_SCHEMA: Mapping[str, Any] = {
    "title": "flare_initial_verdict",
    "type": "object",
    "required": ["verdict", "justification", "request_full_review"],
    "properties": {**_VERDICT_PROPERTIES, "request_full_review": {"type": "string"}},
}

FLARE_FINAL_SCHEMA = _verdict_schema("flare_final_verdict")

CIBER_PROBE_SCHEMA: Mapping[str, Any] = {
    "title": "ciber_probe_verdict",
    "type": "object",
    "required": ["verdict", "justification"],
    "properties": {**_VERDICT_PROPERTIES, "verdict": {"enum": list(_PROBE_VERDICTS)}},
}


def render_snippets(snippets: Sequence[EvidenceLike]) -> str:
    """Number snippets [S1].. and tag each with its source paper id."""
    return "\n".join(
        f"[S{index}] (paper {snippet.doc_id}) {snippet.text}"
        for index, snippet in enumerate(snippets, start=1)
    )


def snippet_paper_ids(snippets: Sequence[EvidenceLike]) -> list[str]:
    """Distinct source paper ids in first-appearance order."""
    return list(dict.fromkeys(snippet.doc_id for snippet in snippets))


def _read_confidence(payload: dict[str, Any]) -> float:
    confidence = json_optional("confidence", payload.get("confidence"), float, default=50.0)
    if not 0 <= confidence <= 100:
        raise ValueError(f"confidence must be in 0..100, got {confidence!r}")
    return confidence / 100.0


def _read_verdict(payload: dict[str, Any]) -> tuple[Verdict, str, float]:
    label = json_value("verdict", payload.get("verdict"), str, among=_BASELINE_VERDICTS)
    justification = json_optional("justification", payload.get("justification"), str, default="")
    return _BASELINE_VERDICTS[label], justification, _read_confidence(payload)


def _read_probe(payload: dict[str, Any]) -> tuple[Verdict, float]:
    label = json_value("verdict", payload.get("verdict"), str, among=_PROBE_VERDICTS)
    return _PROBE_VERDICTS[label], _read_confidence(payload)


def _read_critiques(payload: dict[str, Any]) -> list[Critique]:
    return [
        Critique(
            passage_id=json_optional(f"critiques[{i}].passage_id", entry.get("passage_id"), str, default=""),
            relevance=json_value(
                f"critiques[{i}].relevance", entry.get("relevance"), str, among=(RELEVANT, IRRELEVANT)
            ),
            support=json_value(f"critiques[{i}].support", entry.get("support"), str, among=SUPPORT_LABELS),
            note=json_optional(f"critiques[{i}].note", entry.get("note"), str, default=""),
        )
        for i, entry in enumerate(json_array("critiques", payload.get("critiques"), dict))
    ]


def _read_flare_initial(payload: dict[str, Any]) -> tuple[Verdict, str, float, str]:
    verdict, justification, confidence = _read_verdict(payload)
    request = json_optional("request_full_review", payload.get("request_full_review"), str, default="None")
    return verdict, justification, confidence, request


def _prompt(asker: Asker, name: str, mapping: Mapping[str, str]) -> str:
    """Render the run's copy of template `name`: the one in `asker.templates`, else the packaged one."""
    return render_template(load_template(name, asker.templates), mapping)


def enforce_synthesis_rules(model_verdict: Verdict, critiques: Sequence[Critique]) -> Verdict:
    """Re-apply the synthesis decision rules to the model's verdict.

    Only Relevant critiques count. With none, the claim is
    Unverifiable no matter what the synthesis turn said. A Valid from
    the model is kept only when backed by at least one Fully Supported
    critique and no Contradictory one.
    """
    relevant = [critique for critique in critiques if critique.relevance == RELEVANT]
    if not relevant:
        return Verdict.UNVERIFIABLE
    if model_verdict is Verdict.VALID:
        if any(critique.support == CONTRADICTORY for critique in relevant):
            return Verdict.INVALID
        if not any(critique.support == FULLY_SUPPORTED for critique in relevant):
            return Verdict.UNVERIFIABLE
    return model_verdict


def _require_snippets(snippets: Sequence[EvidenceLike]) -> None:
    if not snippets:
        raise ValueError("baseline run needs at least one evidence snippet")


def _cot_turn(
    asker: Asker, claim: Claim, snippets: Sequence[EvidenceLike], usage: TokenUsage
) -> tuple[Verdict, str, float]:
    prompt = _prompt(asker, "cot_verdict", {"CLAIM_TEXT": claim.text, "EVIDENCE_SNIPPETS": render_snippets(snippets)})
    return asker.ask(prompt, COT_VERDICT_SCHEMA, _read_verdict, usage)


def run_cot(asker: Asker, claim: Claim, snippets: Sequence[EvidenceLike], usage: TokenUsage) -> BaselineVerdict:
    """Single-pass verdict with justification."""
    _require_snippets(snippets)
    verdict, justification, _ = _cot_turn(asker, claim, snippets, usage)
    return BaselineVerdict(verdict, justification)


def run_selfrag(asker: Asker, claim: Claim, snippets: Sequence[EvidenceLike], usage: TokenUsage) -> BaselineVerdict:
    """Critique turn feeding a synthesis turn, with rules re-enforced."""
    _require_snippets(snippets)
    rendered = render_snippets(snippets)
    critique_prompt = _prompt(
        asker, "selfrag_critique", {"CLAIM_TEXT": claim.text, "EVIDENCE_SNIPPETS_WITH_IDS": rendered}
    )
    critiques = asker.ask(critique_prompt, SELFRAG_CRITIQUES_SCHEMA, _read_critiques, usage)
    critiques_json = json.dumps(
        {"critiques": [critique.__dict__ for critique in critiques]}, indent=2
    )
    synthesis_prompt = _prompt(
        asker,
        "selfrag_synthesis",
        {"CLAIM_TEXT": claim.text, "EVIDENCE_SNIPPETS_WITH_IDS": rendered, "CRITIQUES_JSON": critiques_json},
    )
    model_verdict, justification, _ = asker.ask(synthesis_prompt, SELFRAG_VERDICT_SCHEMA, _read_verdict, usage)
    final = enforce_synthesis_rules(model_verdict, critiques)
    if final is not model_verdict:
        justification = f"{justification} [adjusted to {final.value} by the synthesis rules]"
    return BaselineVerdict(final, justification)


def run_flare(
    asker: Asker, claim: Claim, snippets: Sequence[EvidenceLike], full_texts: Mapping[str, str], usage: TokenUsage
) -> BaselineVerdict:
    """Snippet verdict first; optionally one full-text review turn.

    The review request must match a listed paper id exactly; anything
    else (or a paper without stored full text, or a failed review turn)
    keeps the first verdict.
    """
    _require_snippets(snippets)
    rendered = render_snippets(snippets)
    paper_ids = snippet_paper_ids(snippets)
    initial_prompt = _prompt(
        asker,
        "flare_initial",
        {
            "CLAIM_TEXT": claim.text,
            "REQUIRED_STANDARD": claim.required_standard.value,
            "PAPER_IDS": ", ".join(paper_ids),
            "EVIDENCE_SNIPPETS": rendered,
        },
    )
    verdict, justification, _, request = asker.ask(initial_prompt, FLARE_INITIAL_SCHEMA, _read_flare_initial, usage)
    if request == "None":
        return BaselineVerdict(verdict, justification)
    if request not in paper_ids:
        logger.warning("full-review request %r matches no listed paper id; keeping the first verdict", request)
        return BaselineVerdict(verdict, justification)
    full_text = full_texts.get(request)
    if full_text is None:
        logger.warning("paper %r has no stored full text; keeping the first verdict", request)
        return BaselineVerdict(verdict, justification)
    review_prompt = _prompt(
        asker,
        "flare_full_review",
        {
            "PAPER_ID": request,
            "CLAIM_TEXT": claim.text,
            "EVIDENCE_SNIPPETS": rendered,
            "FULL_PAPER_TEXT": full_text,
        },
    )
    try:
        verdict, justification, _ = asker.ask(review_prompt, FLARE_FINAL_SCHEMA, _read_verdict, usage)
    except (LlmError, ValueError) as exc:
        logger.warning("full-review turn failed (%s); keeping the first verdict", exc)
    return BaselineVerdict(verdict, justification)


# Probe order convention: [agreement, conflict, paraphrase]; an "Agree"
# on the conflict probe argues against the claim, so index 1 is flipped.
_CONFLICT_PROBE_INDEX = 1

_FUSED_TO_VERDICT: Mapping[Verdict, Verdict] = {
    Verdict.SUPPORTS: Verdict.VALID,
    Verdict.REFUTES: Verdict.INVALID,
    Verdict.NEUTRAL: Verdict.UNVERIFIABLE,
}

_FLIP: Mapping[Verdict, Verdict] = {
    Verdict.SUPPORTS: Verdict.REFUTES,
    Verdict.REFUTES: Verdict.SUPPORTS,
    Verdict.NEUTRAL: Verdict.NEUTRAL,
}


def run_ciber(asker: Asker, claim: Claim, snippets: Sequence[EvidenceLike], usage: TokenUsage) -> BaselineVerdict:
    """COT turn plus three probe turns, fused by Dempster's rule.

    Failed probes contribute vacuous mass. The fused Supports /
    Refutes / Neutral outcome maps to Valid / Invalid / Unverifiable.
    """
    _require_snippets(snippets)
    rendered = render_snippets(snippets)
    cot_verdict, _, cot_confidence = _cot_turn(asker, claim, snippets, usage)
    pairs: list[tuple[Verdict, float]] = [(cot_verdict, cot_confidence)]
    probe_answers: list[str] = []
    for index, question in enumerate(claim.probe_questions):
        prompt = _prompt(asker, "ciber_probe", {"PROBE_QUESTION": question, "EVIDENCE_SNIPPETS": rendered})
        try:
            probe_verdict, confidence = asker.ask(prompt, CIBER_PROBE_SCHEMA, _read_probe, usage)
        except (LlmError, ValueError) as exc:
            logger.warning("probe %d failed: %s", index + 1, exc)
            probe_answers.append("failed")
            pairs.append((Verdict.NEUTRAL, 0.5))
            continue
        probe_answers.append(probe_verdict.value)
        if index == _CONFLICT_PROBE_INDEX:
            probe_verdict = _FLIP[probe_verdict]
        pairs.append((probe_verdict, confidence))
    fused = wbu_fuse(pairs)
    justification = (
        f"belief fusion of the primary verdict {cot_verdict.value} "
        f"with probe answers [{', '.join(probe_answers)}]"
    )
    return BaselineVerdict(_FUSED_TO_VERDICT[fused], justification)
