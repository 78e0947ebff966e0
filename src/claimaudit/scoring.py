"""Evidence aggregation: intrinsic quality, tallies, and the hard-to-vary score.

The pipeline per document is

    quality q = mean audit score over applicable checks
    weight  w = 1 - mean chunk redundancy        (redundancy module)
    eta       = q * w                            (effective contribution)

and per claim

    H_support / H_refute / H_neutral = sums of eta by stance
    log_odds = ln((H_support + lambda) / (H_refute + lambda))
               - alpha * ln(1 + H_neutral)
    hv = sigmoid(log_odds)

Natural logarithms throughout. All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from ._files import JsonRecord
from .core import STANCE_NEUTRAL, STANCE_REFUTES, STANCE_SUPPORTS, AuditVector, CheckId


class NoApplicableChecksError(ValueError):
    """Quality is undefined for a document with zero applicable checks."""


@dataclass(frozen=True)
class HvParams(JsonRecord):
    """The two calibratable aggregation scalars.

    ``lambda_`` regularizes the log-odds ratio so it stays defined with
    empty tallies; ``alpha`` sets how hard neutral evidence dampens
    confidence. The trailing underscore only avoids the Python keyword;
    the serialized name is "lambda".
    """

    _json_keys = {"lambda_": "lambda"}

    alpha: float = 0.5
    lambda_: float = 0.1

    def __post_init__(self) -> None:
        if self.lambda_ <= 0:
            raise ValueError(f"lambda must be > 0, got {self.lambda_!r}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha!r}")


@dataclass(frozen=True)
class DocumentContribution(JsonRecord):
    """One document's weighed vote: stance, quality, novelty weight, eta."""

    doc_id: str
    stance: int
    quality: float
    weight: float
    eta: float

    def __post_init__(self) -> None:
        if abs(self.eta - self.quality * self.weight) > 1e-12:
            raise ValueError(
                f"eta {self.eta!r} does not equal quality*weight "
                f"{self.quality * self.weight!r} for doc {self.doc_id!r}"
            )


@dataclass(frozen=True)
class Tallies(JsonRecord):
    """Summed effective contributions by stance."""

    h_support: float = 0.0
    h_refute: float = 0.0
    h_neutral: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (
            ("h_support", self.h_support),
            ("h_refute", self.h_refute),
            ("h_neutral", self.h_neutral),
        ):
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value!r}")


def intrinsic_quality(audit: AuditVector, checks: tuple[CheckId, ...]) -> float:
    """Mean audit score over the applicable `checks`; an unscored check counts 0.

    Raises NoApplicableChecksError when `checks` is empty; the caller
    must exclude such documents from the tallies (and log them).
    """
    if not checks:
        raise NoApplicableChecksError("no applicable checks")
    return sum(audit.scores.get(check, 0.0) for check in checks) / len(checks)


def effective_contribution(q: float, w: float) -> float:
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quality {q!r} outside [0, 1]")
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"weight {w!r} outside [0, 1]")
    return q * w


def make_contribution(doc_id: str, stance: int, quality: float, weight: float) -> DocumentContribution:
    return DocumentContribution(
        doc_id=doc_id,
        stance=stance,
        quality=quality,
        weight=weight,
        eta=effective_contribution(quality, weight),
    )


def aggregate(contribs: Iterable[DocumentContribution]) -> Tallies:
    """Partition effective contributions by stance and sum each side."""
    h_support = h_refute = h_neutral = 0.0
    for contrib in contribs:
        if contrib.stance == STANCE_SUPPORTS:
            h_support += contrib.eta
        elif contrib.stance == STANCE_REFUTES:
            h_refute += contrib.eta
        elif contrib.stance == STANCE_NEUTRAL:
            h_neutral += contrib.eta
        else:
            raise ValueError(f"unknown stance {contrib.stance!r}")
    return Tallies(h_support=h_support, h_refute=h_refute, h_neutral=h_neutral)


def log_odds(t: Tallies, p: HvParams) -> float:
    """Regularized support/refute log-odds, dampened by neutral mass."""
    ratio = math.log((t.h_support + p.lambda_) / (t.h_refute + p.lambda_))
    return ratio - p.alpha * math.log1p(t.h_neutral)


def sigmoid(z: float) -> float:
    # Split on sign so neither branch can overflow exp().
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def hv(t: Tallies, p: HvParams) -> float:
    """The hard-to-vary evidence score: sigmoid of the log-odds, in (0, 1)."""
    return sigmoid(log_odds(t, p))
