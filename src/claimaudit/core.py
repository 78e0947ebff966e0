"""Shared domain model: checks, claims, audits, and verdict vocabulary.

Every other module builds on these types. All of them are immutable
values after construction and safe to share across threads.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping

from ._files import JsonRecord, json_id_path


class SchemaError(ValueError):
    """A claim or document payload violates the expected schema."""


class UncertainGroundTruthError(SchemaError):
    """Raised at ingestion for claims whose ground truth is not binary."""


class CheckId(enum.IntEnum):
    """The 11 methodological audit checks, totally ordered C1 < ... < C11."""

    C1 = 1
    C2 = 2
    C3 = 3
    C4 = 4
    C5 = 5
    C6 = 6
    C7 = 7
    C8 = 8
    C9 = 9
    C10 = 10
    C11 = 11


ALL_CHECKS: tuple[CheckId, ...] = tuple(CheckId)

# Document stance toward a claim. Kept as plain ints because they are
# summed and compared; use the constants, not magic numbers.
STANCE_SUPPORTS = 1
STANCE_NEUTRAL = 0
STANCE_REFUTES = -1
VALID_STANCES = (STANCE_REFUTES, STANCE_NEUTRAL, STANCE_SUPPORTS)

STANCE_LABELS: Mapping[str, int] = {
    "Supports": STANCE_SUPPORTS,
    "Neutral": STANCE_NEUTRAL,
    "Refutes": STANCE_REFUTES,
}

# Audit scores are the only three legal values; anything else is rejected.
AUDIT_SCORE_VALUES = (0.0, 0.5, 1.0)

SCORE_LABELS: Mapping[str, float] = {
    "Pass": 1.0,
    "Uncertain": 0.5,
    "Fail": 0.0,
}


class ClaimType(str, enum.Enum):
    SIMPLE = "simple"
    COMPOSITE = "composite"


class RequiredStandard(str, enum.Enum):
    """Minimum standard of evidence a claim demands."""

    SETTLED_SCIENCE = "SettledScience"
    ROBUST_STUDY = "RobustStudy"
    PLAUSIBLE_EVIDENCE = "PlausibleEvidence"


class Verdict(str, enum.Enum):
    SUPPORTS = "Supports"
    REFUTES = "Refutes"
    NEUTRAL = "Neutral"
    UNVERIFIABLE = "Unverifiable"
    VALID = "Valid"
    INVALID = "Invalid"


@dataclass(frozen=True)
class Claim(JsonRecord):
    """A claim to verify, with its pre-computed features and ground truth."""

    _json_error = SchemaError

    id: str
    text: str
    claim_type: ClaimType
    topic: str
    specificity: int
    testability: int
    required_standard: RequiredStandard
    probe_questions: tuple[str, str, str]
    ground_truth: Verdict

    def __post_init__(self) -> None:
        if not self.text:
            raise SchemaError("text must be nonempty")
        for name, value in (("specificity", self.specificity), ("testability", self.testability)):
            if not 1 <= value <= 10:
                raise SchemaError(f"{name} must be an integer in 1..10, got {value!r}")
        if len(self.probe_questions) != 3:
            raise SchemaError(f"exactly 3 probe questions required, got {len(self.probe_questions)}")
        if self.ground_truth not in (Verdict.VALID, Verdict.INVALID):
            raise SchemaError(f"ground truth must be Valid or Invalid, got {self.ground_truth!r}")

    @classmethod
    def from_json(cls, payload: Any) -> "Claim":
        path = json_id_path("claim", payload, SchemaError)
        if payload.get("ground_truth") == "Uncertain":
            raise UncertainGroundTruthError(f"{path}: Uncertain ground truth is excluded at ingestion")
        return cls._decode(payload, path)


@dataclass(frozen=True)
class GlobalIntegritySignals(JsonRecord):
    funding_transparency: str
    conflict_of_interest: str
    data_availability: str


@dataclass(frozen=True)
class CheckSignal(JsonRecord):
    is_applicable: bool
    objective_analysis: str

    def __post_init__(self) -> None:
        if not self.is_applicable and self.objective_analysis != "N/A":
            raise SchemaError(
                'inapplicable checks must carry objective_analysis "N/A", '
                f"got {self.objective_analysis!r}"
            )


@dataclass(frozen=True)
class AnalysisDocument(JsonRecord):
    """Structured methodological signals for one paper.

    The JSON field names (`global_integrity_signals`,
    `veritable_check_signals`, `is_applicable`, `objective_analysis`)
    are a fixed external contract; do not rename them.
    """

    _json_error = SchemaError

    global_integrity_signals: GlobalIntegritySignals
    veritable_check_signals: Mapping[CheckId, CheckSignal]

    def __post_init__(self) -> None:
        for check in ALL_CHECKS:
            if check not in self.veritable_check_signals:
                raise SchemaError(f"analysis is missing check entry {check.name}")

    @cached_property
    def indented_json(self) -> str:
        """`json.dumps(self.to_json(), indent=2)`, rendered once per document."""
        return json.dumps(self.to_json(), indent=2)

    @cached_property
    def applicable_checks(self) -> tuple[CheckId, ...]:
        """The checks this analysis marks applicable, in check order: the ones a paper's quality averages over."""
        return tuple(check for check in ALL_CHECKS if self.veritable_check_signals[check].is_applicable)


@dataclass(frozen=True)
class AuditVector:
    """Per-document audit scores over the checks, in {0.0, 0.5, 1.0}."""

    scores: Mapping[CheckId, float]
    reasoning: Mapping[CheckId, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for check, score in self.scores.items():
            if not isinstance(check, CheckId):
                raise SchemaError(f"audit score keyed by non-check {check!r}")
            if score not in AUDIT_SCORE_VALUES:
                raise SchemaError(
                    f"audit score for {check.name} must be one of {AUDIT_SCORE_VALUES}, got {score!r}"
                )


@dataclass(frozen=True)
class AuditResult:
    """One document's audited relation to a claim: stance plus audit vector."""

    paper_id: str
    stance: int
    audit: AuditVector

    def __post_init__(self) -> None:
        if self.stance not in VALID_STANCES:
            raise SchemaError(f"stance must be one of {VALID_STANCES}, got {self.stance!r}")


def map_verdict(v: Verdict) -> Verdict:
    """Binarize any verdict: Supports/Valid count as Valid, the rest as Invalid."""
    return Verdict.VALID if v in (Verdict.SUPPORTS, Verdict.VALID) else Verdict.INVALID
