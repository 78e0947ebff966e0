"""Domain-model contracts: masks, verdict binarization, audit validation."""

import numpy as np
import pytest

from claimaudit.core import (
    ALL_CHECKS,
    AnalysisDocument,
    ApplicabilityMask,
    AuditResult,
    AuditVector,
    CheckId,
    CheckSignal,
    Claim,
    ClaimType,
    GlobalIntegritySignals,
    RequiredStandard,
    SchemaError,
    UncertainGroundTruthError,
    Verdict,
    derive_mask,
    map_verdict,
    validate_audit,
)


def make_analysis(applicable: set[CheckId]) -> AnalysisDocument:
    return AnalysisDocument(
        global_integrity_signals=GlobalIntegritySignals(
            funding_transparency="declared",
            conflict_of_interest="none reported",
            data_availability="on request",
        ),
        veritable_check_signals={
            check: CheckSignal(
                is_applicable=check in applicable,
                objective_analysis="consistent" if check in applicable else "N/A",
            )
            for check in ALL_CHECKS
        },
    )


def make_claim(**overrides) -> Claim:
    base = dict(
        id="K1",
        text="Drug X reduces symptom Y in adults.",
        claim_type=ClaimType.SIMPLE,
        topic="Therapeutics",
        specificity=6,
        testability=7,
        required_standard=RequiredStandard.ROBUST_STUDY,
        probe_questions=("q1", "q2", "q3"),
        ground_truth=Verdict.VALID,
    )
    base.update(overrides)
    return Claim(**base)


class TestDeriveMask:
    def test_all_applicable_gives_eleven_ones(self):
        mask = derive_mask(make_analysis(set(ALL_CHECKS)))
        assert mask.k == 11
        assert all(mask.bits[c] == 1 for c in ALL_CHECKS)

    def test_none_applicable_gives_zero_mask(self):
        mask = derive_mask(make_analysis(set()))
        assert mask.k == 0

    def test_projection_of_two_bits(self):
        mask = derive_mask(make_analysis({CheckId.C8, CheckId.C10}))
        assert mask.k == 2
        assert mask.applicable_checks() == (CheckId.C8, CheckId.C10)

    def test_popcount_matches_flag_count_on_random_analyses(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            applicable = {c for c in ALL_CHECKS if rng.random() < 0.5}
            mask = derive_mask(make_analysis(applicable))
            assert mask.k == len(applicable)

    def test_missing_check_entry_names_the_check(self):
        payload = make_analysis(set(ALL_CHECKS)).to_json()
        del payload["veritable_check_signals"]["C7"]
        with pytest.raises(SchemaError, match="C7"):
            AnalysisDocument.from_json(payload)


class TestMapVerdict:
    @pytest.mark.parametrize(
        "verdict,expected",
        [
            (Verdict.SUPPORTS, Verdict.VALID),
            (Verdict.VALID, Verdict.VALID),
            (Verdict.REFUTES, Verdict.INVALID),
            (Verdict.NEUTRAL, Verdict.INVALID),
            (Verdict.UNVERIFIABLE, Verdict.INVALID),
            (Verdict.INVALID, Verdict.INVALID),
        ],
    )
    def test_binarization_table(self, verdict, expected):
        assert map_verdict(verdict) is expected

    def test_idempotent(self):
        for verdict in Verdict:
            assert map_verdict(map_verdict(verdict)) is map_verdict(verdict)


class TestValidateAudit:
    def test_masked_out_scores_are_dropped(self):
        audit = AuditVector(scores={CheckId.C1: 1.0, CheckId.C2: 0.5})
        mask = ApplicabilityMask(bits={c: 1 if c is CheckId.C1 else 0 for c in ALL_CHECKS})
        restricted = validate_audit(audit, mask)
        assert restricted.scores == {CheckId.C1: 1.0}

    def test_empty_audit_stays_empty(self):
        mask = derive_mask(make_analysis(set(ALL_CHECKS)))
        assert validate_audit(AuditVector(scores={}), mask).scores == {}

    def test_score_domain_is_closed(self):
        with pytest.raises(SchemaError, match="0.7"):
            AuditVector(scores={CheckId.C3: 0.7})

    def test_accepted_scores_always_in_domain(self):
        rng = np.random.default_rng(7)
        values = [0.0, 0.5, 1.0]
        for _ in range(100):
            scores = {c: values[rng.integers(0, 3)] for c in ALL_CHECKS if rng.random() < 0.6}
            audit = AuditVector(scores=scores)
            mask = ApplicabilityMask(bits={c: int(rng.random() < 0.5) for c in ALL_CHECKS})
            restricted = validate_audit(audit, mask)
            assert all(v in (0.0, 0.5, 1.0) for v in restricted.scores.values())
            assert set(restricted.scores) <= set(mask.applicable_checks())


class TestClaim:
    def test_uncertain_ground_truth_rejected_by_name(self):
        payload = make_claim().to_json()
        payload["ground_truth"] = "Uncertain"
        with pytest.raises(UncertainGroundTruthError):
            Claim.from_json(payload)

    def test_probe_question_count_enforced(self):
        with pytest.raises(SchemaError, match="probe"):
            make_claim(probe_questions=("only", "two"))

    @pytest.mark.parametrize(
        "probes", ["why", ["q1", "q2", 3], {"q1": 1, "q2": 2, "q3": 3}], ids=["string", "non-string-item", "object"]
    )
    def test_probe_questions_must_be_a_list_of_strings(self, probes):
        payload = make_claim().to_json()
        payload["probe_questions"] = probes
        with pytest.raises(SchemaError, match="claim 'K1': probe_questions"):
            Claim.from_json(payload)

    def test_probe_question_count_enforced_on_load(self):
        payload = make_claim().to_json()
        payload["probe_questions"] = ["q1", "q2"]
        with pytest.raises(SchemaError, match="claim 'K1': exactly 3 probe questions"):
            Claim.from_json(payload)

    @pytest.mark.parametrize("field,value", [("specificity", 0), ("specificity", 11), ("testability", -3)])
    def test_rating_bounds(self, field, value):
        with pytest.raises(SchemaError):
            make_claim(**{field: value})

    def test_json_round_trip(self):
        claim = make_claim()
        assert Claim.from_json(claim.to_json()) == claim

    def test_unknown_field_rejected(self):
        payload = make_claim().to_json()
        payload["surprise"] = 1
        with pytest.raises(SchemaError, match="surprise"):
            Claim.from_json(payload)


class TestAnalysisDocument:
    def test_inapplicable_requires_na_marker(self):
        with pytest.raises(SchemaError, match="N/A"):
            CheckSignal(is_applicable=False, objective_analysis="still analyzed")

    def test_json_round_trip_is_exact(self):
        analysis = make_analysis({CheckId.C1, CheckId.C5, CheckId.C9})
        assert AnalysisDocument.from_json(analysis.to_json()).to_json() == analysis.to_json()


class TestAuditResult:
    def test_stance_domain(self):
        audit = AuditVector(scores={CheckId.C1: 1.0})
        for stance in (-1, 0, 1):
            AuditResult(paper_id="D1", stance=stance, audit=audit)
        with pytest.raises(SchemaError):
            AuditResult(paper_id="D1", stance=2, audit=audit)
