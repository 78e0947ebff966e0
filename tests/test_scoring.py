"""Quality, tallies, log-odds, and hard-to-vary score against high-precision oracles."""

import numpy as np
import pytest

from claimaudit.core import AuditVector, CheckId
from claimaudit.scoring import (
    DocumentContribution,
    HvParams,
    NoApplicableChecksError,
    Tallies,
    aggregate,
    effective_contribution,
    hv,
    intrinsic_quality,
    log_odds,
    make_contribution,
)

from oracles import hv_highprec, log_odds_highprec


class TestIntrinsicQuality:
    def test_all_pass_is_perfect_quality(self):
        checks = (CheckId.C1, CheckId.C2, CheckId.C3)
        audit = AuditVector(scores={c: 1.0 for c in checks})
        assert intrinsic_quality(audit, checks) == 1.0

    def test_mean_over_applicable_checks(self):
        audit = AuditVector(scores={CheckId.C1: 1.0, CheckId.C2: 0.5, CheckId.C3: 0.0})
        assert intrinsic_quality(audit, (CheckId.C1, CheckId.C2, CheckId.C3)) == pytest.approx(0.5)

    def test_mask_excludes_inapplicable_scores(self):
        audit = AuditVector(
            scores={CheckId.C1: 1.0, CheckId.C2: 0.5, CheckId.C3: 0.0, CheckId.C4: 1.0}
        )
        # C4 is not applicable: the extra Pass must not lift the mean.
        q = intrinsic_quality(audit, (CheckId.C1, CheckId.C2, CheckId.C3))
        assert q == pytest.approx(0.5)

    def test_zero_applicable_checks_is_an_error(self):
        with pytest.raises(NoApplicableChecksError, match="no applicable checks"):
            intrinsic_quality(AuditVector(scores={}), ())


class TestEffectiveContribution:
    def test_product_table(self):
        assert effective_contribution(1.0, 1.0) == 1.0
        assert effective_contribution(0.9, 0.0) == 0.0
        assert effective_contribution(0.5, 0.6) == pytest.approx(0.3)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            effective_contribution(1.1, 0.5)

    def test_contribution_invariant_checked(self):
        with pytest.raises(ValueError, match="eta"):
            DocumentContribution(doc_id="D1", stance=1, quality=0.5, weight=0.5, eta=0.9)


class TestAggregate:
    def test_empty_list_gives_zero_tallies(self):
        assert aggregate([]) == Tallies(0.0, 0.0, 0.0)

    def test_single_supporter(self):
        tallies = aggregate([make_contribution("D1", 1, 0.8, 1.0)])
        assert tallies == Tallies(h_support=0.8, h_refute=0.0, h_neutral=0.0)

    def test_partitioned_sums(self):
        contribs = [
            make_contribution("D1", 1, 0.8, 1.0),
            make_contribution("D2", 1, 0.5, 1.0),
            make_contribution("D3", -1, 0.3, 1.0),
            make_contribution("D4", 0, 0.2, 1.0),
        ]
        tallies = aggregate(contribs)
        assert tallies.h_support == pytest.approx(1.3)
        assert tallies.h_refute == pytest.approx(0.3)
        assert tallies.h_neutral == pytest.approx(0.2)


class TestLogOdds:
    def test_symmetric_tallies_are_zero(self):
        for h in (0.0, 0.3, 2.0):
            t = Tallies(h_support=h, h_refute=h, h_neutral=0.0)
            assert log_odds(t, HvParams(alpha=0.7, lambda_=0.4)) == pytest.approx(0.0, abs=1e-15)

    def test_worked_example(self):
        t = Tallies(h_support=2.0, h_refute=0.5, h_neutral=1.0)
        z = log_odds(t, HvParams(alpha=0.5, lambda_=0.1))
        assert z == pytest.approx(0.906189, abs=1e-6)

    def test_single_unit_supporter_at_unit_lambda(self):
        t = Tallies(h_support=1.0, h_refute=0.0, h_neutral=0.0)
        assert log_odds(t, HvParams(alpha=0.5, lambda_=1.0)) == pytest.approx(np.log(2), abs=1e-12)

    def test_matches_highprec_oracle_on_random_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            hs, hr, hn = rng.uniform(0, 20, size=3)
            alpha = rng.uniform(0, 2)
            lam = rng.uniform(0.01, 2)
            mine = log_odds(Tallies(hs, hr, hn), HvParams(alpha=alpha, lambda_=lam))
            want = float(log_odds_highprec(hs, hr, hn, alpha, lam))
            assert mine == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_decomposition_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            hs, hr, hn = rng.uniform(0, 10, size=3)
            alpha = rng.uniform(0, 2)
            lam = rng.uniform(0.05, 2)
            t, p = Tallies(hs, hr, hn), HvParams(alpha=alpha, lambda_=lam)
            bound = abs(np.log((hs + lam) / (hr + lam))) + alpha * np.log1p(hn)
            assert abs(log_odds(t, p)) <= bound + 1e-12


class TestHv:
    def test_symmetric_tallies_score_half(self):
        t = Tallies(h_support=1.5, h_refute=1.5, h_neutral=0.0)
        assert hv(t, HvParams(alpha=1.0, lambda_=0.2)) == pytest.approx(0.5, abs=1e-12)

    def test_worked_example(self):
        t = Tallies(h_support=2.0, h_refute=0.5, h_neutral=1.0)
        assert hv(t, HvParams(alpha=0.5, lambda_=0.1)) == pytest.approx(0.7122, abs=1e-4)

    def test_strong_support_approaches_but_never_reaches_one(self):
        t = Tallies(h_support=50.0, h_refute=0.0, h_neutral=0.0)
        score = hv(t, HvParams(alpha=0.5, lambda_=0.1))
        assert score > 0.99
        assert score < 1.0

    def test_matches_highprec_oracle_on_random_inputs(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            hs, hr, hn = rng.uniform(0, 30, size=3)
            alpha = rng.uniform(0, 2)
            lam = rng.uniform(0.01, 2)
            mine = hv(Tallies(hs, hr, hn), HvParams(alpha=alpha, lambda_=lam))
            want = float(hv_highprec(hs, hr, hn, alpha, lam))
            assert mine == pytest.approx(want, rel=1e-9)


class TestParamsValidation:
    def test_lambda_must_be_positive(self):
        with pytest.raises(ValueError, match="lambda"):
            HvParams(alpha=0.5, lambda_=0.0)

    def test_alpha_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="alpha"):
            HvParams(alpha=-0.1, lambda_=0.1)

    def test_json_round_trip_uses_plain_lambda_key(self):
        params = HvParams(alpha=0.35, lambda_=0.2)
        payload = params.to_json()
        assert set(payload) == {"alpha", "lambda"}
        assert HvParams.from_json(payload) == params

    def test_negative_tallies_rejected(self):
        with pytest.raises(ValueError):
            Tallies(h_support=-0.1)
