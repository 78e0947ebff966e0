"""Tests for the baseline drivers and Dempster-Shafer fusion."""

import itertools
import random
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

from claimaudit.audit import load_template, render_template
from claimaudit.baselines import (
    CONTRADICTORY,
    Critique,
    FULLY_SUPPORTED,
    IRRELEVANT,
    MassFunction,
    NO_SUPPORT,
    PARTIALLY_SUPPORTED,
    RELEVANT,
    TotalConflictError,
    enforce_synthesis_rules,
    render_snippets,
    run_ciber,
    run_cot,
    run_flare,
    run_selfrag,
    snippet_paper_ids,
    wbu_fuse,
)
from claimaudit.core import Verdict
from claimaudit.llm import (
    Asker,
    LlmClient,
    LlmReply,
    LlmTransportError,
    MockLlm,
    TokenUsage,
)

from oracles import dempster_pair
from scripted_llm import ScriptedTranscript, prompt_fingerprint
from test_core import make_claim

GOLDEN_DIR = Path(__file__).parent / "golden"


@dataclass(frozen=True)
class Snip:
    doc_id: str
    text: str


SNIPPETS = (
    Snip("D01", "A randomized trial of 500 adults found a 30% symptom reduction."),
    Snip("D02", "No effect was observed in a small observational cohort."),
    Snip("D01", "Follow-up at 12 months confirmed the initial effect."),
)


def golden_cot_prompt():
    """The fixed render behind the reviewed golden prompt file."""
    return render_template(
        load_template("cot_verdict"),
        {"CLAIM_TEXT": make_claim().text, "EVIDENCE_SNIPPETS": render_snippets(SNIPPETS)},
    )


class TestSnippetRendering:
    def test_numbers_and_paper_tags(self):
        rendered = render_snippets(SNIPPETS[:2])
        lines = rendered.splitlines()
        assert lines[0].startswith("[S1] (paper D01) A randomized trial")
        assert lines[1].startswith("[S2] (paper D02) ")

    def test_paper_ids_deduplicated_in_first_appearance_order(self):
        assert snippet_paper_ids(SNIPPETS) == ["D01", "D02"]

    def test_golden_cot_prompt_matches(self):
        golden = (GOLDEN_DIR / "cot_prompt.txt").read_text(encoding="utf-8")
        assert golden_cot_prompt() == golden


class TestMassFunction:
    def test_masses_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MassFunction(support=0.5, refute=0.1, theta=0.1)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            MassFunction(support=-0.1, refute=0.4, theta=0.7)

    @pytest.mark.parametrize(
        "verdict,expected",
        [
            (Verdict.SUPPORTS, (0.8, 0.0, 0.2)),
            (Verdict.VALID, (0.8, 0.0, 0.2)),
            (Verdict.REFUTES, (0.0, 0.8, 0.2)),
            (Verdict.INVALID, (0.0, 0.8, 0.2)),
            (Verdict.NEUTRAL, (0.0, 0.0, 1.0)),
            (Verdict.UNVERIFIABLE, (0.0, 0.0, 1.0)),
        ],
    )
    def test_from_verdict_mass_assignment(self, verdict, expected):
        mass = MassFunction.from_verdict(verdict, 0.8)
        assert (mass.support, mass.refute, mass.theta) == pytest.approx(expected)

    def test_confidence_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="confidence"):
            MassFunction.from_verdict(Verdict.SUPPORTS, 1.2)

    def test_agreeing_pair_hand_case(self):
        a = MassFunction.from_verdict(Verdict.SUPPORTS, 0.8)
        fused = a.combine(a)
        assert fused.support == pytest.approx(0.96, abs=1e-6)
        assert fused.refute == pytest.approx(0.0, abs=1e-6)
        assert fused.theta == pytest.approx(0.04, abs=1e-6)

    def test_symmetric_conflict_hand_case(self):
        support = MassFunction.from_verdict(Verdict.SUPPORTS, 0.8)
        refute = MassFunction.from_verdict(Verdict.REFUTES, 0.8)
        fused = support.combine(refute)
        assert fused.support == pytest.approx(4.0 / 9.0, abs=1e-6)
        assert fused.refute == pytest.approx(4.0 / 9.0, abs=1e-6)
        assert fused.theta == pytest.approx(1.0 / 9.0, abs=1e-6)

    def test_total_conflict_raises(self):
        certain_support = MassFunction.from_verdict(Verdict.SUPPORTS, 1.0)
        certain_refute = MassFunction.from_verdict(Verdict.REFUTES, 1.0)
        with pytest.raises(TotalConflictError):
            certain_support.combine(certain_refute)

    def test_combine_matches_hand_oracle_on_random_pairs(self):
        rng = random.Random(20240816)
        for _ in range(300):
            s1, s2 = rng.random() * 0.6, rng.random() * 0.6
            r1, r2 = rng.random() * (1 - s1), rng.random() * (1 - s2)
            a = MassFunction(support=s1, refute=r1, theta=1 - s1 - r1)
            b = MassFunction(support=s2, refute=r2, theta=1 - s2 - r2)
            fused = a.combine(b)
            expected = dempster_pair((s1, r1, 1 - s1 - r1), (s2, r2, 1 - s2 - r2))
            assert (fused.support, fused.refute, fused.theta) == pytest.approx(expected, abs=1e-12)

    def test_normalized_after_every_step(self):
        rng = random.Random(7)
        fused = MassFunction.vacuous()
        for _ in range(50):
            s = rng.random() * 0.5
            r = rng.random() * (1 - s) * 0.9
            fused = fused.combine(MassFunction(support=s, refute=r, theta=1 - s - r))
            assert abs(fused.support + fused.refute + fused.theta - 1.0) <= 1e-9


class TestWbuFuse:
    def test_single_supporting_verdict(self):
        assert wbu_fuse([(Verdict.SUPPORTS, 0.8)]) is Verdict.SUPPORTS

    def test_agreeing_pair_supports(self):
        assert wbu_fuse([(Verdict.SUPPORTS, 0.8), (Verdict.SUPPORTS, 0.8)]) is Verdict.SUPPORTS

    def test_symmetric_conflict_is_neutral(self):
        assert wbu_fuse([(Verdict.SUPPORTS, 0.8), (Verdict.REFUTES, 0.8)]) is Verdict.NEUTRAL

    def test_total_conflict_is_neutral(self):
        assert wbu_fuse([(Verdict.SUPPORTS, 1.0), (Verdict.REFUTES, 1.0)]) is Verdict.NEUTRAL

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            wbu_fuse([])

    def test_vacuous_failures_leave_lone_signal_standing(self):
        pairs = [(Verdict.NEUTRAL, 0.5)] * 3 + [(Verdict.SUPPORTS, 0.6)]
        assert wbu_fuse(pairs) is Verdict.SUPPORTS

    def test_vacuous_mass_is_a_fusion_identity(self):
        base = MassFunction(support=0.4, refute=0.3, theta=0.3)
        fused = base.combine(MassFunction.vacuous())
        assert abs(fused.support - base.support) < 1e-9
        assert abs(fused.refute - base.refute) < 1e-9
        assert abs(fused.theta - base.theta) < 1e-9

    def test_order_independent_verdicts_and_masses(self):
        rng = random.Random(99)
        verdict_pool = (Verdict.SUPPORTS, Verdict.REFUTES, Verdict.NEUTRAL, Verdict.VALID, Verdict.INVALID)
        for _ in range(60):
            pairs = [
                (rng.choice(verdict_pool), round(rng.random() * 0.95, 3))
                for _ in range(rng.randint(2, 4))
            ]
            verdicts = {wbu_fuse(list(perm)) for perm in itertools.permutations(pairs)}
            assert len(verdicts) == 1

    def test_fused_masses_permutation_stable_within_tolerance(self):
        pairs = [
            MassFunction(support=0.5, refute=0.2, theta=0.3),
            MassFunction(support=0.1, refute=0.6, theta=0.3),
            MassFunction(support=0.3, refute=0.3, theta=0.4),
        ]
        outcomes = []
        for perm in itertools.permutations(pairs):
            fused = MassFunction.vacuous()
            for mass in perm:
                fused = fused.combine(mass)
            outcomes.append(fused)
        for fused in outcomes[1:]:
            assert abs(fused.support - outcomes[0].support) < 1e-9
            assert abs(fused.refute - outcomes[0].refute) < 1e-9
            assert abs(fused.theta - outcomes[0].theta) < 1e-9


def crit(relevance, support):
    return Critique(passage_id="S1", relevance=relevance, support=support)


class TestEnforceSynthesisRules:
    @pytest.mark.parametrize("verdict", [Verdict.VALID, Verdict.INVALID, Verdict.UNVERIFIABLE])
    def test_no_critiques_is_unverifiable(self, verdict):
        assert enforce_synthesis_rules(verdict, []) is Verdict.UNVERIFIABLE

    @pytest.mark.parametrize("verdict", [Verdict.VALID, Verdict.INVALID, Verdict.UNVERIFIABLE])
    def test_all_irrelevant_is_unverifiable(self, verdict):
        critiques = [crit(IRRELEVANT, FULLY_SUPPORTED), crit(IRRELEVANT, CONTRADICTORY)]
        assert enforce_synthesis_rules(verdict, critiques) is Verdict.UNVERIFIABLE

    def test_valid_backed_by_full_support_is_kept(self):
        critiques = [crit(RELEVANT, FULLY_SUPPORTED), crit(RELEVANT, NO_SUPPORT)]
        assert enforce_synthesis_rules(Verdict.VALID, critiques) is Verdict.VALID

    def test_valid_without_full_support_downgrades(self):
        critiques = [crit(RELEVANT, PARTIALLY_SUPPORTED)]
        assert enforce_synthesis_rules(Verdict.VALID, critiques) is Verdict.UNVERIFIABLE

    def test_valid_with_contradiction_flips_to_invalid(self):
        critiques = [crit(RELEVANT, FULLY_SUPPORTED), crit(RELEVANT, CONTRADICTORY)]
        assert enforce_synthesis_rules(Verdict.VALID, critiques) is Verdict.INVALID

    def test_irrelevant_contradiction_does_not_count(self):
        critiques = [crit(RELEVANT, FULLY_SUPPORTED), crit(IRRELEVANT, CONTRADICTORY)]
        assert enforce_synthesis_rules(Verdict.VALID, critiques) is Verdict.VALID

    @pytest.mark.parametrize("verdict", [Verdict.INVALID, Verdict.UNVERIFIABLE])
    def test_non_valid_verdicts_pass_through(self, verdict):
        critiques = [crit(RELEVANT, NO_SUPPORT)]
        assert enforce_synthesis_rules(verdict, critiques) is verdict


def script(*pairs):
    """Build a transcript from (prompt, response) pairs."""
    return ScriptedTranscript({prompt_fingerprint(prompt): response for prompt, response in pairs})


def cot_prompt(claim, snippets):
    return render_template(
        load_template("cot_verdict"),
        {"CLAIM_TEXT": claim.text, "EVIDENCE_SNIPPETS": render_snippets(snippets)},
    )


def critique_prompt(claim, snippets):
    return render_template(
        load_template("selfrag_critique"),
        {"CLAIM_TEXT": claim.text, "EVIDENCE_SNIPPETS_WITH_IDS": render_snippets(snippets)},
    )


def synthesis_prompt(claim, snippets, critiques_json):
    return render_template(
        load_template("selfrag_synthesis"),
        {
            "CLAIM_TEXT": claim.text,
            "EVIDENCE_SNIPPETS_WITH_IDS": render_snippets(snippets),
            "CRITIQUES_JSON": critiques_json,
        },
    )


def flare_prompt(claim, snippets):
    return render_template(
        load_template("flare_initial"),
        {
            "CLAIM_TEXT": claim.text,
            "REQUIRED_STANDARD": claim.required_standard.value,
            "PAPER_IDS": ", ".join(snippet_paper_ids(snippets)),
            "EVIDENCE_SNIPPETS": render_snippets(snippets),
        },
    )


def review_prompt(claim, snippets, paper_id, full_text):
    return render_template(
        load_template("flare_full_review"),
        {
            "PAPER_ID": paper_id,
            "CLAIM_TEXT": claim.text,
            "EVIDENCE_SNIPPETS": render_snippets(snippets),
            "FULL_PAPER_TEXT": full_text,
        },
    )


def probe_prompt(question, snippets):
    return render_template(
        load_template("ciber_probe"),
        {"PROBE_QUESTION": question, "EVIDENCE_SNIPPETS": render_snippets(snippets)},
    )


class _TitleClient(LlmClient):
    """Answers by schema title and records the title of every call."""

    def __init__(self, replies_by_title):
        self.replies_by_title = replies_by_title
        self.titles = []

    def complete(self, prompt, *, schema=None):
        title = (schema or {}).get("title")
        self.titles.append(title)
        return LlmReply(text=self.replies_by_title[title])


class TestRunCot:
    def test_scripted_valid_passes_through(self):
        claim = make_claim()
        client = script(
            (cot_prompt(claim, SNIPPETS), '{"verdict": "Valid", "justification": "trial evidence", "confidence": 88}')
        )
        usage = TokenUsage()
        result = run_cot(Asker(client, sleep=lambda _: None), claim, SNIPPETS, usage)
        assert result.verdict is Verdict.VALID
        assert result.justification == "trial evidence"
        assert usage.tokens_in > 0 and usage.tokens_out > 0
        assert usage.approximate is True

    def test_empty_snippets_rejected(self):
        with pytest.raises(ValueError):
            run_cot(Asker(MockLlm(1), sleep=lambda _: None), make_claim(), [], TokenUsage())

    def test_unparseable_after_retries_raises(self):
        client = _TitleClient({"cot_verdict": "word salad"})
        sleeps = []
        with pytest.raises(ValueError, match="JSON"):
            run_cot(Asker(client, sleep=sleeps.append), make_claim(), SNIPPETS, TokenUsage())
        assert client.titles == ["cot_verdict"] * 4
        assert sleeps == [1.0, 2.0, 4.0]

    @pytest.mark.parametrize(
        "reply,message",
        [
            ('{"verdict": ["Valid"], "confidence": 50}', "verdict: expected a string, got ['Valid']"),
            ('{"verdict": {"Valid": 1}}', "verdict: expected a string, got {'Valid': 1}"),
            ('{"verdict": "Valid", "justification": 5}', "justification: expected a string, got 5"),
            ('{"verdict": "Valid", "confidence": "high"}', "confidence: expected a number, got 'high'"),
            ('{"verdict": "Valid", "confidence": true}', "confidence: expected a number, got True"),
            ('{"verdict": "Valid", "confidence": 1%s}' % ("0" * 400), "confidence: expected a number, got an integer"),
            ("[1, 2]", "reply does not contain a JSON object"),
        ],
        ids=[
            "list-verdict", "object-verdict", "int-justification", "string-confidence", "bool-confidence",
            "huge-confidence", "list",
        ],
    )
    def test_mistyped_reply_is_unparseable_and_retried(self, reply, message):
        client = _TitleClient({"cot_verdict": reply})
        with pytest.raises(ValueError, match=re.escape(f"cot_verdict reply unparseable after 4 attempts: {message}")):
            run_cot(Asker(client, sleep=lambda _: None), make_claim(), SNIPPETS, TokenUsage())
        assert client.titles == ["cot_verdict"] * 4

    @pytest.mark.parametrize("justification", ["null", '""'])
    def test_null_justification_reads_empty(self, justification):
        reply = f'{{"verdict": "Valid", "justification": {justification}}}'
        result = run_cot(Asker(_TitleClient({"cot_verdict": reply}), sleep=None), make_claim(), SNIPPETS, TokenUsage())
        assert (result.verdict, result.justification) == (Verdict.VALID, "")

    def test_scripted_run_is_deterministic(self):
        claim = make_claim()
        client = script(
            (cot_prompt(claim, SNIPPETS), '{"verdict": "Invalid", "justification": "contradicted", "confidence": 70}')
        )
        first = run_cot(Asker(client, sleep=lambda _: None), claim, SNIPPETS, TokenUsage())
        second = run_cot(Asker(client, sleep=lambda _: None), claim, SNIPPETS, TokenUsage())
        assert first == second


CRITIQUES_ALL_IRRELEVANT = (
    '{"critiques": ['
    '{"passage_id": "S1", "relevance": "Irrelevant", "support": "No Support", "note": ""},'
    '{"passage_id": "S2", "relevance": "Irrelevant", "support": "No Support", "note": ""},'
    '{"passage_id": "S3", "relevance": "Irrelevant", "support": "No Support", "note": ""}]}'
)

CRITIQUES_SUPPORTIVE = (
    '{"critiques": ['
    '{"passage_id": "S1", "relevance": "Relevant", "support": "Fully Supported", "note": ""},'
    '{"passage_id": "S2", "relevance": "Irrelevant", "support": "No Support", "note": ""},'
    '{"passage_id": "S3", "relevance": "Relevant", "support": "Partially Supported", "note": ""}]}'
)

CRITIQUES_CONTRADICTORY = (
    '{"critiques": ['
    '{"passage_id": "S1", "relevance": "Relevant", "support": "Contradictory", "note": ""},'
    '{"passage_id": "S2", "relevance": "Relevant", "support": "Fully Supported", "note": ""},'
    '{"passage_id": "S3", "relevance": "Irrelevant", "support": "No Support", "note": ""}]}'
)


def selfrag_script(claim, critiques_raw, synthesis_response):
    import json as _json

    # Rebuild exactly what the driver will send in turn 2.
    parsed = _json.loads(critiques_raw)["critiques"]
    canonical = _json.dumps(
        {
            "critiques": [
                {
                    "passage_id": c["passage_id"],
                    "relevance": c["relevance"],
                    "support": c["support"],
                    "note": c.get("note", ""),
                }
                for c in parsed
            ]
        },
        indent=2,
    )
    return script(
        (critique_prompt(claim, SNIPPETS), critiques_raw),
        (synthesis_prompt(claim, SNIPPETS, canonical), synthesis_response),
    )


class TestRunSelfrag:
    def test_supported_claim_is_valid(self):
        claim = make_claim()
        client = selfrag_script(
            claim, CRITIQUES_SUPPORTIVE, '{"verdict": "Valid", "justification": "fully supported", "confidence": 80}'
        )
        result = run_selfrag(Asker(client, sleep=lambda _: None), claim, SNIPPETS, TokenUsage())
        assert result.verdict is Verdict.VALID

    def test_all_irrelevant_overrides_model_valid(self):
        claim = make_claim()
        client = selfrag_script(
            claim, CRITIQUES_ALL_IRRELEVANT, '{"verdict": "Valid", "justification": "hallucinated", "confidence": 90}'
        )
        result = run_selfrag(Asker(client, sleep=lambda _: None), claim, SNIPPETS, TokenUsage())
        assert result.verdict is Verdict.UNVERIFIABLE
        assert "adjusted" in result.justification

    def test_contradictory_critiques_force_invalid(self):
        claim = make_claim()
        client = selfrag_script(
            claim, CRITIQUES_CONTRADICTORY, '{"verdict": "Valid", "justification": "over-eager", "confidence": 75}'
        )
        result = run_selfrag(Asker(client, sleep=lambda _: None), claim, SNIPPETS, TokenUsage())
        assert result.verdict is Verdict.INVALID

    def test_failed_critique_turn_raises(self):
        client = _TitleClient({"selfrag_critiques": "not json"})
        sleeps = []
        with pytest.raises(ValueError, match="JSON"):
            run_selfrag(Asker(client, sleep=sleeps.append), make_claim(), SNIPPETS, TokenUsage())
        assert client.titles == ["selfrag_critiques"] * 4
        assert sleeps == [1.0, 2.0, 4.0]


FLARE_VALID_NO_REVIEW = (
    '{"verdict": "Valid", "justification": "snippets suffice", "confidence": 82, '
    '"request_full_review": "None"}'
)


class TestRunFlare:
    def test_no_review_keeps_first_verdict(self):
        claim = make_claim()
        client = script((flare_prompt(claim, SNIPPETS), FLARE_VALID_NO_REVIEW))
        result = run_flare(Asker(client, sleep=lambda _: None), claim, SNIPPETS, {}, TokenUsage())
        assert result.verdict is Verdict.VALID

    def test_exact_id_triggers_full_review_turn(self):
        claim = make_claim()
        full_texts = {"D02": "Full text of the observational cohort paper."}
        initial = (
            '{"verdict": "Unverifiable", "justification": "need the methods section", '
            '"confidence": 40, "request_full_review": "D02"}'
        )
        final = '{"verdict": "Invalid", "justification": "methods rule it out", "confidence": 77}'
        client = script(
            (flare_prompt(claim, SNIPPETS), initial),
            (review_prompt(claim, SNIPPETS, "D02", full_texts["D02"]), final),
        )
        result = run_flare(Asker(client, sleep=lambda _: None), claim, SNIPPETS, full_texts, TokenUsage())
        assert result.verdict is Verdict.INVALID
        assert result.justification == "methods rule it out"

    def test_bogus_id_keeps_first_verdict_with_warning(self, caplog):
        claim = make_claim()
        initial = (
            '{"verdict": "Valid", "justification": "looks fine", "confidence": 60, '
            '"request_full_review": "P99"}'
        )
        client = script((flare_prompt(claim, SNIPPETS), initial))
        with caplog.at_level("WARNING"):
            result = run_flare(Asker(client, sleep=lambda _: None), claim, SNIPPETS, {"D02": "text"}, TokenUsage())
        assert result.verdict is Verdict.VALID
        assert "P99" in caplog.text

    # Only null reads as "None"; an empty string is a request that names no listed paper.
    @pytest.mark.parametrize("request_json,warned", [("null", False), ('"None"', False), ('""', True)])
    def test_only_a_null_request_reads_as_none(self, caplog, request_json, warned):
        initial = f'{{"verdict": "Valid", "justification": "x", "request_full_review": {request_json}}}'
        client = _TitleClient({"flare_initial_verdict": initial})
        with caplog.at_level("WARNING"):
            result = run_flare(Asker(client, sleep=None), make_claim(), SNIPPETS, {}, TokenUsage())
        assert (result.verdict, client.titles) == (Verdict.VALID, ["flare_initial_verdict"])
        assert ("matches no listed paper id" in caplog.text) is warned

    def test_listed_id_without_stored_text_keeps_first_verdict(self, caplog):
        claim = make_claim()
        initial = (
            '{"verdict": "Valid", "justification": "probably fine", "confidence": 61, '
            '"request_full_review": "D01"}'
        )
        client = script((flare_prompt(claim, SNIPPETS), initial))
        with caplog.at_level("WARNING"):
            result = run_flare(Asker(client, sleep=lambda _: None), claim, SNIPPETS, {}, TokenUsage())
        assert result.verdict is Verdict.VALID
        assert "full text" in caplog.text

    def test_unparseable_full_review_keeps_first_verdict_with_warning(self, caplog):
        initial = (
            '{"verdict": "Valid", "justification": "snippets lean valid", "confidence": 64, '
            '"request_full_review": "D02"}'
        )
        client = _TitleClient({"flare_initial_verdict": initial, "flare_final_verdict": "word salad"})
        with caplog.at_level("WARNING"):
            result = run_flare(
                Asker(client, sleep=lambda _: None), make_claim(), SNIPPETS, {"D02": "text"}, TokenUsage()
            )
        assert result.verdict is Verdict.VALID
        assert result.justification == "snippets lean valid"
        assert client.titles == ["flare_initial_verdict"] + ["flare_final_verdict"] * 4
        assert "full-review turn failed" in caplog.text


class _CotOnlyClient(LlmClient):
    """Answers the COT turn, then fails every probe in transport."""

    def __init__(self, cot_response):
        self.cot_response = cot_response

    def complete(self, prompt, *, schema=None):
        if (schema or {}).get("title") == "cot_verdict":
            return LlmReply(text=self.cot_response)
        raise LlmTransportError("probe endpoint down")


class TestRunCiber:
    def _script_for(self, claim, cot, probes):
        pairs = [(cot_prompt(claim, SNIPPETS), cot)]
        for question, response in zip(claim.probe_questions, probes):
            pairs.append((probe_prompt(question, SNIPPETS), response))
        return script(*pairs)

    def test_unanimous_support_is_valid(self):
        claim = make_claim()
        agree = '{"verdict": "Agree", "justification": "", "confidence": 90}'
        disagree = '{"verdict": "Disagree", "justification": "", "confidence": 90}'
        client = self._script_for(
            claim,
            '{"verdict": "Valid", "justification": "", "confidence": 90}',
            # The conflict probe (index 1) must DISAGREE for a supported claim.
            [agree, disagree, agree],
        )
        result = run_ciber(Asker(client, sleep=lambda _: None), claim, SNIPPETS, TokenUsage())
        assert result.verdict is Verdict.VALID

    def test_conflict_probe_agreement_counts_against(self):
        claim = make_claim()
        agree = '{"verdict": "Agree", "justification": "", "confidence": 80}'
        neutral = '{"verdict": "Neutral", "justification": "", "confidence": 50}'
        client = self._script_for(
            claim,
            '{"verdict": "Unverifiable", "justification": "", "confidence": 50}',
            # Only the conflict probe fires: its Agree must push toward Invalid.
            [neutral, agree, neutral],
        )
        result = run_ciber(Asker(client, sleep=lambda _: None), claim, SNIPPETS, TokenUsage())
        assert result.verdict is Verdict.INVALID

    def test_symmetric_conflict_is_unverifiable(self):
        claim = make_claim()
        agree = '{"verdict": "Agree", "justification": "", "confidence": 80}'
        neutral = '{"verdict": "Neutral", "justification": "", "confidence": 50}'
        client = self._script_for(
            claim,
            # Vacuous primary turn; the two firing probes cancel exactly.
            '{"verdict": "Unverifiable", "justification": "", "confidence": 80}',
            [agree, agree, neutral],
        )
        result = run_ciber(Asker(client, sleep=lambda _: None), claim, SNIPPETS, TokenUsage())
        assert result.verdict is Verdict.UNVERIFIABLE

    def test_probe_failures_fall_back_to_cot_signal(self):
        claim = make_claim()
        client = _CotOnlyClient('{"verdict": "Valid", "justification": "", "confidence": 60}')
        result = run_ciber(Asker(client, sleep=lambda _: None), claim, SNIPPETS, TokenUsage())
        assert result.verdict is Verdict.VALID
        assert "failed" in result.justification

    def test_unparseable_probes_fall_back_to_cot_signal(self):
        client = _TitleClient(
            {
                "cot_verdict": '{"verdict": "Valid", "justification": "", "confidence": 60}',
                "ciber_probe_verdict": "word salad",
            }
        )
        result = run_ciber(Asker(client, sleep=lambda _: None), make_claim(), SNIPPETS, TokenUsage())
        assert result.verdict is Verdict.VALID
        assert "[failed, failed, failed]" in result.justification


class TestMockDrivers:
    """The offline path every verify --mock run exercises."""

    @pytest.mark.parametrize("runner", [run_cot, run_selfrag, run_ciber])
    def test_mock_runs_are_deterministic(self, runner):
        claim = make_claim()

        def run():
            usage = TokenUsage()
            return runner(Asker(MockLlm(11), sleep=lambda _: None), claim, SNIPPETS, usage), usage

        assert run() == run()

    def test_mock_flare_is_deterministic(self):
        claim = make_claim()
        full_texts = {"D01": "full text", "D02": "full text"}

        def run():
            usage = TokenUsage()
            return run_flare(Asker(MockLlm(11), sleep=lambda _: None), claim, SNIPPETS, full_texts, usage), usage

        assert run() == run()

    def test_mock_runs_produce_positive_token_counts(self):
        usage = TokenUsage()
        run_cot(Asker(MockLlm(5), sleep=lambda _: None), make_claim(), SNIPPETS, usage)
        assert usage.tokens_in > 0 and usage.tokens_out > 0 and usage.approximate
