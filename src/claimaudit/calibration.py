"""Offline parameter fitting: closed-form ridge and the (alpha, lambda) grid search.

The calibration dataset is a JSON-lines file of human-rated records:
claim features, a boldness target, tallies produced from a simulated
flawed audit, and a human verdict with confidence. Ridge regression
learns the boldness predictor; an exhaustive grid search then picks the
aggregation scalars that best reproduce the binarized human verdicts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ._files import JsonRecord, json_value, read_json, read_json_lines, write_atomic
from ._rng import DeterministicStream
# `default_grid` is kept here for the callers that import it from this module.
from .config import Grid, default_grid  # noqa: F401
from .core import CheckId, AuditVector, RequiredStandard
from .scoring import HvParams, Tallies, sigmoid
from .threshold import RidgeModel, ThresholdConfig, encode_features, threshold_for_claim

if TYPE_CHECKING:
    import numpy as np

HUMAN_VERDICTS = ("Support", "Contradict", "Uncertain")


@dataclass(frozen=True)
class CalibrationRecord(JsonRecord):
    """One human-rated synthetic claim, exactly the fields the raters produce."""

    specificity: int
    testability: int
    required_standard: RequiredStandard
    boldness_target: float
    tallies: Tallies
    human_verdict: str
    confidence: int

    def __post_init__(self) -> None:
        if self.human_verdict not in HUMAN_VERDICTS:
            raise ValueError(f"human_verdict must be one of {HUMAN_VERDICTS}, got {self.human_verdict!r}")
        if not 0 <= self.confidence <= 100:
            raise ValueError(f"confidence must be in 0..100, got {self.confidence!r}")
        if not 0.0 <= self.boldness_target <= 1.0:
            raise ValueError(f"boldness_target must be in [0, 1], got {self.boldness_target!r}")


def load_calibration_records(path: str | Path) -> list[CalibrationRecord]:
    return read_json_lines(path, "calibration record", CalibrationRecord.from_json)


def ridge_fit(X: np.ndarray, y: np.ndarray, gamma: float) -> RidgeModel:
    """Closed-form ridge with an unpenalized intercept.

    Columns and targets are centered, (Xc'Xc + gamma*I) w = Xc'y is
    solved exactly, and the intercept is restored from the means. The
    returned solution satisfies the normal-equations residual bound
    1e-8 * (1 + ||Xc'y||).
    """
    import numpy as np

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0] or X.shape[0] < 1:
        raise ValueError(f"incompatible shapes X{X.shape}, y{y.shape}")
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma!r}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("NaN or infinite values in the training data")

    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    Xc = X - x_mean
    yc = y - y_mean
    gram = Xc.T @ Xc + gamma * np.eye(X.shape[1])
    moment = Xc.T @ yc
    weights = np.linalg.solve(gram, moment)

    residual = float(np.linalg.norm(gram @ weights - moment))
    bound = 1e-8 * (1.0 + float(np.linalg.norm(moment)))
    if residual > bound:
        raise ArithmeticError(f"normal-equations residual {residual:.3e} exceeds bound {bound:.3e}")

    intercept = y_mean - float(np.dot(x_mean, weights))
    return RidgeModel(weights=tuple(float(w) for w in weights), intercept=intercept, gamma=gamma)


def fit_boldness_model(records: Sequence[CalibrationRecord], gamma: float = 1.0) -> RidgeModel:
    """Fit the boldness predictor from calibration records."""
    import numpy as np

    if not records:
        raise ValueError("no calibration records")
    X = np.stack([encode_features(record) for record in records])
    y = np.array([record.boldness_target for record in records], dtype=float)
    return ridge_fit(X, y, gamma)


def grid_search(
    records: Sequence[CalibrationRecord],
    grid: Grid,
    cfg: ThresholdConfig,
    ridge: RidgeModel,
) -> tuple[float, float]:
    """Exhaustively pick the (alpha, lambda) maximizing verdict accuracy.

    A record counts as correct when [hv(tallies) >= tau] matches its
    binarized human verdict (Support is Valid, Contradict is Invalid;
    Uncertain records carry no binary target and are excluded). Ties on
    accuracy break toward the lexicographically smallest (alpha, lambda).
    """
    if not records:
        raise ValueError("no calibration records")
    usable: list[tuple[Tallies, float, bool]] = []
    for record in records:
        if record.human_verdict == "Uncertain":
            continue
        target_valid = record.human_verdict == "Support"
        # Calibration records carry no evidence-volume field, so the volume
        # modifier is evaluated at the baseline (n_ev = n_base, modifier 0).
        usable.append((record.tallies, threshold_for_claim(record, cfg.n_base, cfg, ridge), target_valid))
    if not usable:
        raise ValueError("every calibration record is Uncertain; no binary targets to fit")

    # Each score is hv(tallies, HvParams(alpha, lam)), with the terms of
    # lambda or the record alone computed once.
    dampers = [math.log1p(tallies.h_neutral) for tallies, _, _ in usable]
    ratios = {
        lam: [math.log((tallies.h_support + lam) / (tallies.h_refute + lam)) for tallies, _, _ in usable]
        for lam in grid.lambda_values
    }
    best_correct = -1
    best_cell = (grid.alpha_values[0], grid.lambda_values[0])
    for alpha in grid.alpha_values:
        for lam in grid.lambda_values:
            correct = sum(
                1
                for ratio, damper, (_, tau, target) in zip(ratios[lam], dampers, usable)
                if (sigmoid(ratio - alpha * damper) >= tau) == target
            )
            # Strict improvement only: earlier cells win ties, and both
            # axes ascend, so the winner is the lexicographic minimum.
            if correct > best_correct:
                best_correct = correct
                best_cell = (alpha, lam)
    return best_cell


def simulate_flawed_audit(seed: int, checks: Iterable[CheckId]) -> AuditVector:
    """Deterministically inject 2-4 failures into the applicable checks.

    With fewer than two applicable checks every one of them fails; with
    none, the audit is empty. Identical (seed, checks) always produce
    an identical vector, on any platform.
    """
    applicable = sorted(set(checks))
    if not applicable:
        return AuditVector(scores={}, reasoning={})
    stream = DeterministicStream(seed, "flawed-audit")
    if len(applicable) < 2:
        failing = set(applicable)
    else:
        n_fail = stream.randint(2, min(4, len(applicable)))
        failing = set(stream.sample(applicable, n_fail))
    scores = {check: 0.0 if check in failing else 1.0 for check in applicable}
    reasoning = {
        check: "seeded methodological flaw" if check in failing else "no flaw injected"
        for check in applicable
    }
    return AuditVector(scores=scores, reasoning=reasoning)


def save_params(path: str | Path, params: HvParams, ridge: RidgeModel) -> None:
    """Write the calibrated parameter file (alpha, lambda, ridge model)."""
    payload = {**params.to_json(), "ridge": ridge.to_json()}
    write_atomic(path, (json.dumps(payload, indent=2, sort_keys=True), "\n"))


def load_params(path: str | Path) -> tuple[HvParams, RidgeModel]:
    def read(payload: Any) -> tuple[HvParams, RidgeModel]:
        payload = json_value("params", payload, dict)
        # `ridge` sits beside the scoring params' own keys.
        ridge = RidgeModel.from_json(payload.pop("ridge"))
        return HvParams.from_json(payload), ridge

    return read_json(path, "params", parse=read)
