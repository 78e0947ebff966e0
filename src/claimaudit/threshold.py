"""Dynamic acceptance threshold: prior-blended, regression-informed, volume-raised.

    tau_base = 0.5 * prior(required_standard) + 0.5 * boldness
    tau_auto = clamp(tau_base + C * max(0, n_evidence / n_base - 1), 0.5, 0.95)

where boldness = clip(ridge(features), 0, 1) over the feature encoding
[specificity/10, testability/10, onehot(standard)]. A claim is accepted
iff hv >= tau (ties accept); the calibration objective uses the same
comparison so training and inference cannot skew.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence

from ._files import JsonRecord
from .core import RequiredStandard, Verdict

if TYPE_CHECKING:
    import numpy as np

CLAMP_LO_DEFAULT = 0.5
CLAMP_HI_DEFAULT = 0.95

# One-hot order for required_standard; fixed so fitted weights stay meaningful.
STANDARD_ORDER: tuple[RequiredStandard, ...] = (
    RequiredStandard.SETTLED_SCIENCE,
    RequiredStandard.ROBUST_STUDY,
    RequiredStandard.PLAUSIBLE_EVIDENCE,
)

FEATURE_DIM = 2 + len(STANDARD_ORDER)

DEFAULT_PRIORS: Mapping[RequiredStandard, float] = {
    RequiredStandard.PLAUSIBLE_EVIDENCE: 0.60,
    RequiredStandard.ROBUST_STUDY: 0.75,
    RequiredStandard.SETTLED_SCIENCE: 0.90,
}


class ConfigError(ValueError):
    """A threshold configuration value is out of its legal range."""


@dataclass(frozen=True)
class ThresholdConfig:
    priors: Mapping[RequiredStandard, float] = field(default_factory=lambda: dict(DEFAULT_PRIORS))
    scaling_c: float = 0.05
    n_base: int = 10
    clamp_lo: float = CLAMP_LO_DEFAULT
    clamp_hi: float = CLAMP_HI_DEFAULT

    def __post_init__(self) -> None:
        if self.clamp_lo >= self.clamp_hi:
            raise ConfigError(f"clamp bounds must satisfy lo < hi, got [{self.clamp_lo}, {self.clamp_hi}]")
        if self.clamp_lo < 0 or self.clamp_hi > 1:
            raise ConfigError(f"clamp bounds must lie in [0, 1], got [{self.clamp_lo}, {self.clamp_hi}]")
        if self.scaling_c < 0:
            raise ConfigError(f"scaling factor C must be >= 0, got {self.scaling_c!r}")
        if self.n_base <= 0:
            raise ConfigError(f"n_base must be a positive count, got {self.n_base!r}")
        for standard in RequiredStandard:
            prior = self.priors.get(standard)
            if prior is None:
                raise ConfigError(f"missing prior for {standard.value}")
            if not 0.0 < prior < 1.0:
                raise ConfigError(f"prior for {standard.value} must be in (0, 1), got {prior!r}")

    def prior_for(self, standard: RequiredStandard) -> float:
        return self.priors[standard]


@dataclass(frozen=True)
class RidgeModel(JsonRecord):
    """A fitted linear boldness predictor with its regularization strength."""

    weights: tuple[float, ...]
    intercept: float
    gamma: float

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma!r}")


def constant_boldness_model(value: float = 0.5) -> RidgeModel:
    """A no-information model predicting the same boldness everywhere."""
    return RidgeModel(weights=(0.0,) * FEATURE_DIM, intercept=value, gamma=1.0)


class HasClaimFeatures(Protocol):
    specificity: int
    testability: int
    required_standard: RequiredStandard


def encode_features(claim: HasClaimFeatures) -> np.ndarray:
    """[specificity/10, testability/10, onehot(required_standard)]."""
    import numpy as np

    onehot = [1.0 if claim.required_standard is standard else 0.0 for standard in STANDARD_ORDER]
    return np.array([claim.specificity / 10.0, claim.testability / 10.0, *onehot], dtype=float)


def ridge_predict(model: RidgeModel, features: Sequence[float] | np.ndarray) -> float:
    """Boldness prediction clipped to [0, 1]."""
    import numpy as np

    vector = np.asarray(features, dtype=float)
    if vector.shape != (len(model.weights),):
        raise ValueError(f"feature dimension {vector.shape} does not match model ({len(model.weights)},)")
    raw = float(np.dot(np.asarray(model.weights), vector) + model.intercept)
    return min(1.0, max(0.0, raw))


def base_threshold(prior: float, boldness: float) -> float:
    """Equal-weight blend of the standard-of-evidence prior and boldness."""
    if not 0.0 <= prior <= 1.0 or not 0.0 <= boldness <= 1.0:
        raise ValueError(f"prior and boldness must be in [0, 1], got ({prior!r}, {boldness!r})")
    return 0.5 * prior + 0.5 * boldness


def tau_auto(tau_base: float, n_ev: int, cfg: ThresholdConfig) -> float:
    """Raise the base threshold with evidence volume, then clamp.

    More surviving evidence sets a higher bar: the modifier is
    C * max(0, n_ev/n_base - 1), zero at or below the baseline volume.
    """
    if n_ev < 0:
        raise ValueError(f"n_ev must be >= 0, got {n_ev!r}")
    modifier = cfg.scaling_c * max(0.0, n_ev / cfg.n_base - 1.0)
    return min(cfg.clamp_hi, max(cfg.clamp_lo, tau_base + modifier))


def threshold_for_claim(claim: HasClaimFeatures, n_ev: int, cfg: ThresholdConfig, model: RidgeModel) -> float:
    """Full threshold path: encode, predict boldness, blend, volume-adjust."""
    boldness = ridge_predict(model, encode_features(claim))
    tau_base = base_threshold(cfg.prior_for(claim.required_standard), boldness)
    return tau_auto(tau_base, n_ev, cfg)


def verdict(hv: float, tau: float) -> Verdict:
    """Accept iff the evidence score meets the threshold; ties accept."""
    return Verdict.VALID if hv >= tau else Verdict.INVALID
