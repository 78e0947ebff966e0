"""Threshold arithmetic: feature encoding, blending, volume raise, clamp, verdicts."""

import numpy as np
import pytest

from claimaudit.core import RequiredStandard, Verdict
from claimaudit.threshold import (
    ConfigError,
    RidgeModel,
    ThresholdConfig,
    base_threshold,
    constant_boldness_model,
    encode_features,
    ridge_predict,
    tau_auto,
    threshold_for_claim,
    verdict,
)

from test_core import make_claim


class TestEncodeFeatures:
    def test_max_ratings_settled(self):
        claim = make_claim(specificity=10, testability=10, required_standard=RequiredStandard.SETTLED_SCIENCE)
        assert encode_features(claim) == (1.0, 1.0, 1.0, 0.0, 0.0)

    def test_min_ratings_plausible(self):
        claim = make_claim(specificity=1, testability=1, required_standard=RequiredStandard.PLAUSIBLE_EVIDENCE)
        assert encode_features(claim) == (0.1, 0.1, 0.0, 0.0, 1.0)

    def test_mid_ratings_robust(self):
        claim = make_claim(specificity=5, testability=8, required_standard=RequiredStandard.ROBUST_STUDY)
        assert encode_features(claim) == (0.5, 0.8, 0.0, 1.0, 0.0)


class TestRidgePredict:
    def test_constant_model(self):
        model = constant_boldness_model(0.5)
        for claim in (make_claim(specificity=1), make_claim(specificity=10)):
            assert ridge_predict(model, encode_features(claim)) == 0.5

    def test_prediction_clipped_to_unit_interval(self):
        high = RidgeModel(weights=(0.0,) * 5, intercept=1.7, gamma=1.0)
        low = RidgeModel(weights=(0.0,) * 5, intercept=-0.3, gamma=1.0)
        features = encode_features(make_claim())
        assert ridge_predict(high, features) == 1.0
        assert ridge_predict(low, features) == 0.0

    def test_terms_are_summed_left_to_right_before_the_intercept(self):
        # 1e16 + 1 rounds back to 1e16, so the 1 is lost before -1e16 cancels;
        # an exact sum would keep it and predict 1.5, clipped to 1.0.
        model = RidgeModel(weights=(1e16, 1.0, -1e16, 0.0, 0.0), intercept=0.5, gamma=1.0)
        assert ridge_predict(model, (1.0, 1.0, 1.0, 0.0, 0.0)) == 0.5

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            ridge_predict(constant_boldness_model(), [0.1, 0.2])


class TestBaseThreshold:
    def test_worked_blend(self):
        assert base_threshold(0.8, 0.6) == pytest.approx(0.7, abs=1e-12)

    def test_fixed_point(self):
        for x in (0.0, 0.25, 1.0):
            assert base_threshold(x, x) == pytest.approx(x)

    def test_extremes_average(self):
        assert base_threshold(1.0, 0.0) == pytest.approx(0.5)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a, b = rng.uniform(0, 1, size=2)
            assert base_threshold(a, b) == pytest.approx(base_threshold(b, a), abs=1e-15)


class TestTauAuto:
    def test_baseline_volume_leaves_base_untouched(self):
        cfg = ThresholdConfig()
        assert tau_auto(0.7, cfg.n_base, cfg) == pytest.approx(0.7, abs=1e-12)

    def test_worked_volume_adjustment(self):
        cfg = ThresholdConfig(scaling_c=0.05, n_base=10)
        assert tau_auto(0.7, 20, cfg) == pytest.approx(0.75, abs=1e-12)

    def test_clamp_upper_bound(self):
        cfg = ThresholdConfig(scaling_c=0.1, n_base=10)
        assert tau_auto(0.94, 30, cfg) == pytest.approx(0.95, abs=1e-12)

    def test_clamp_lower_bound(self):
        cfg = ThresholdConfig()
        assert tau_auto(0.1, 0, cfg) == 0.5

    def test_monotone_in_evidence_volume(self):
        rng = np.random.default_rng(42)
        cfg = ThresholdConfig(scaling_c=0.07, n_base=8)
        for _ in range(500):
            tau_base = rng.uniform(0, 1)
            n1 = int(rng.integers(0, 50))
            n2 = n1 + int(rng.integers(0, 50))
            assert tau_auto(tau_base, n2, cfg) >= tau_auto(tau_base, n1, cfg) - 1e-15

    def test_always_inside_clamp_window(self):
        rng = np.random.default_rng(7)
        cfg = ThresholdConfig(scaling_c=0.2, n_base=3)
        for _ in range(500):
            value = tau_auto(rng.uniform(-1, 2), int(rng.integers(0, 100)), cfg)
            assert 0.5 <= value <= 0.95

    def test_zero_n_base_is_a_config_error(self):
        with pytest.raises(ConfigError, match="n_base"):
            ThresholdConfig(n_base=0)


class TestVerdict:
    def test_accepts_above_threshold(self):
        assert verdict(0.80, 0.75) is Verdict.VALID

    def test_rejects_below_threshold(self):
        assert verdict(0.74, 0.75) is Verdict.INVALID

    def test_tie_accepts(self):
        assert verdict(0.75, 0.75) is Verdict.VALID

    def test_monotone_in_hv(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            tau = rng.uniform(0.5, 0.95)
            lo, hi = sorted(rng.uniform(0, 1, size=2))
            if verdict(lo, tau) is Verdict.VALID:
                assert verdict(hi, tau) is Verdict.VALID


class TestThresholdConfig:
    def test_priors_must_cover_every_standard(self):
        with pytest.raises(ConfigError, match="SettledScience"):
            ThresholdConfig(priors={RequiredStandard.ROBUST_STUDY: 0.75, RequiredStandard.PLAUSIBLE_EVIDENCE: 0.6})

    def test_full_claim_path_uses_prior_and_boldness(self):
        cfg = ThresholdConfig()
        claim = make_claim(required_standard=RequiredStandard.SETTLED_SCIENCE)
        tau = threshold_for_claim(claim, n_ev=cfg.n_base, cfg=cfg, model=constant_boldness_model(0.5))
        assert tau == pytest.approx(0.5 * 0.90 + 0.5 * 0.5, abs=1e-12)
