"""Domain-model contracts: applicable checks, verdict binarization, audit scores."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from claimaudit.core import (
    ALL_CHECKS,
    AnalysisDocument,
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
    map_verdict,
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


class TestApplicableChecks:
    @given(st.sets(st.sampled_from(ALL_CHECKS)))
    @example(set())
    @example({CheckId.C10, CheckId.C8})
    @example(set(ALL_CHECKS))
    def test_equals_the_applicability_flags_in_check_order(self, applicable):
        analysis = make_analysis(applicable)
        flags = analysis.veritable_check_signals
        assert analysis.applicable_checks == tuple(check for check in ALL_CHECKS if flags[check].is_applicable)
        assert analysis.applicable_checks == tuple(sorted(applicable))

    def test_computed_once_per_document(self):
        analysis = make_analysis({CheckId.C1, CheckId.C2})
        first = analysis.applicable_checks
        # The signals map is a plain dict; a later edit to it is not seen,
        # because the tuple was computed on first access and kept.
        analysis.veritable_check_signals[CheckId.C1] = CheckSignal(is_applicable=False, objective_analysis="N/A")
        assert analysis.applicable_checks is first

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


class TestAuditVector:
    def test_score_domain_is_closed(self):
        with pytest.raises(SchemaError, match="0.7"):
            AuditVector(scores={CheckId.C3: 0.7})


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
        with pytest.raises(SchemaError, match="^claim 'K1': exactly 3 probe questions required, got 2$"):
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
