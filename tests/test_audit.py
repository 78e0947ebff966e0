"""Tests for audit prompt assembly, response parsing, and the mock auditor."""

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from claimaudit.audit import (
    AuditRequest,
    BATCH_AUDIT_SCHEMA,
    PaperToAudit,
    PromptBudgetError,
    build_audit_prompt,
    load_template,
    mock_audit,
    mock_audit_with_usage,
    parse_audit_response,
    render_audit_response,
    render_template,
    run_audit,
)
from claimaudit.config import DEFAULT_TOKEN_BUDGET
from claimaudit.core import (
    ALL_CHECKS,
    AuditResult,
    AuditVector,
    CheckId,
    STANCE_SUPPORTS,
)
from claimaudit.llm import Asker, LlmClient, LlmReply, TokenUsage, approx_token_count

from test_core import make_analysis

GOLDEN_DIR = Path(__file__).parent / "golden"


def make_paper(paper_id="D01", applicable={CheckId.C1, CheckId.C6}, chunks=("Cohort study of 500 adults.",)):
    return PaperToAudit(paper_id=paper_id, analysis=make_analysis(set(applicable)), chunks=tuple(chunks))


def make_request(papers=None, claim_text="Drug X reduces symptom Y in adults."):
    return AuditRequest(claim_text=claim_text, papers=tuple(papers or [make_paper()]))


def golden_request():
    """The fixed request behind the reviewed golden prompt file."""
    return make_request(
        papers=[
            make_paper(
                paper_id="D01",
                applicable={CheckId.C1, CheckId.C6},
                chunks=("Cohort study of 500 adults.", "Symptom scores fell by 30%."),
            )
        ]
    )


class TestRenderTemplate:
    def test_fills_placeholders(self):
        assert render_template("a {{X}} b {{Y_Z}}", {"X": "1", "Y_Z": "2"}) == "a 1 b 2"

    def test_missing_value_raises(self):
        with pytest.raises(ValueError, match="X"):
            render_template("a {{X}}", {})

    def test_values_are_not_rescanned(self):
        # A placeholder-shaped value must not trigger a second substitution.
        assert render_template("{{X}}", {"X": "{{Y}}"}) == "{{Y}}"

    def test_templates_load_as_utf8_assets(self):
        assert "papers_to_audit" in load_template("batch_audit")


class TestAuditRequest:
    def test_zero_papers_rejected(self):
        with pytest.raises(ValueError, match="at least one paper"):
            AuditRequest(claim_text="c", papers=())

    def test_paper_without_chunks_rejected(self):
        paper = PaperToAudit(paper_id="D01", analysis=make_analysis({CheckId.C1}), chunks=())
        with pytest.raises(ValueError, match="no evidence chunks"):
            AuditRequest(claim_text="c", papers=(paper,))

    def test_duplicate_paper_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AuditRequest(claim_text="c", papers=(make_paper(), make_paper()))


def awkward_paper(paper_id, applicable):
    """A paper whose analysis and chunks hold quotes, backslashes, newlines and non-ASCII text."""
    analysis = make_analysis(applicable)
    signals = {
        check: replace(signal, objective_analysis=f'{check.name}: "blinded" \\ n=12\nÄrzte — 効果 ✓')
        if signal.is_applicable
        else signal
        for check, signal in analysis.veritable_check_signals.items()
    }
    integrity = replace(analysis.global_integrity_signals, funding_transparency='"Fonds" \\ société\r\n')
    return PaperToAudit(
        paper_id=paper_id,
        analysis=replace(analysis, global_integrity_signals=integrity, veritable_check_signals=signals),
        chunks=('Line one\nline "two"', "back\\slash\ttab", "naïve café — 結果"),
    )


class TestBuildAuditPrompt:
    def test_paper_id_appears_exactly_once_in_array(self):
        prompt = build_audit_prompt(make_request())
        assert prompt.count('"paper_id": "D01"') == 1

    def test_claim_text_is_embedded(self):
        assert "Drug X reduces symptom Y" in build_audit_prompt(make_request())

    def test_golden_file_matches_byte_for_byte(self):
        golden = (GOLDEN_DIR / "batch_audit_prompt.txt").read_text(encoding="utf-8")
        assert build_audit_prompt(golden_request()) == golden

    def test_equals_plain_indent_2_rendering_for_awkward_text(self):
        papers = [awkward_paper("D01", {CheckId.C1, CheckId.C6}), awkward_paper('D"02\\', {CheckId.C3})]
        request = make_request(papers=papers, claim_text='Drug "X" \\ reduces symptom Y.')
        papers_json = json.dumps(
            [
                {
                    "paper_id": paper.paper_id,
                    "paper_json_content": paper.analysis.to_json(),
                    "evidence_text_chunks": list(paper.chunks),
                }
                for paper in papers
            ],
            indent=2,
        )
        expected = render_template(
            load_template("batch_audit"), {"CLAIM_TEXT": request.claim_text, "PAPERS_TO_AUDIT_JSON": papers_json}
        )
        assert build_audit_prompt(request) == expected
        # A second prompt over the same documents reuses their rendering and reads the same.
        assert build_audit_prompt(request) == expected


class TestRenderAuditResponse:
    def test_equals_plain_indent_2_rendering(self):
        results = [
            AuditResult(
                paper_id='D"01\\',
                stance=STANCE_SUPPORTS,
                audit=AuditVector(
                    {CheckId.C1: 1.0, CheckId.C6: 0.5, CheckId.C10: 0.0},
                    {CheckId.C1: 'said "yes"\nthen — 効果', CheckId.C6: "back\\slash"},
                ),
            ),
            AuditResult(paper_id="D02", stance=0, audit=AuditVector({}, {})),
        ]
        expected = {
            "all_papers_audit": [
                {
                    "paper_id": 'D"01\\',
                    "stance": "Supports",
                    "checks": {
                        "C1": {"score": "Pass", "reasoning": 'said "yes"\nthen — 効果'},
                        "C6": {"score": "Uncertain", "reasoning": "back\\slash"},
                        "C10": {"score": "Fail", "reasoning": ""},
                    },
                },
                {"paper_id": "D02", "stance": "Neutral", "checks": {}},
            ]
        }
        assert render_audit_response(results) == json.dumps(expected, indent=2)

    def test_no_results_render_an_empty_list(self):
        assert render_audit_response([]) == json.dumps({"all_papers_audit": []}, indent=2)


class TestParseAuditResponse:
    def test_round_trip_is_identity_on_scores(self):
        request = make_request(papers=[make_paper("D01"), make_paper("D02", applicable={CheckId.C3})])
        results = mock_audit(request, seed=5)
        parsed = parse_audit_response(json.loads(render_audit_response(results)), request)
        assert parsed == results

    def test_score_and_stance_mapping(self):
        payload = {
            "all_papers_audit": [
                {
                    "paper_id": "D01",
                    "stance": "Supports",
                    "checks": {
                        "C1": {"score": "Pass", "reasoning": "clean"},
                        "C6": {"score": "Fail", "reasoning": "underpowered"},
                    },
                }
            ]
        }
        (result,) = parse_audit_response(payload, make_request())
        assert result.stance == STANCE_SUPPORTS
        assert result.audit.scores == {CheckId.C1: 1.0, CheckId.C6: 0.0}
        assert result.audit.reasoning[CheckId.C6] == "underpowered"

    def test_neutral_stance_maps_to_zero(self):
        payload = {"all_papers_audit": [{"paper_id": "D01", "stance": "Neutral", "checks": {}}]}
        (result,) = parse_audit_response(payload, make_request())
        assert result.stance == 0
        assert result.audit == AuditVector(scores={}, reasoning={})

    def test_scores_on_inapplicable_checks_are_dropped_with_one_warning_each(self, caplog):
        request = make_request(
            papers=[make_paper("D01", applicable={CheckId.C1}), make_paper("D02", applicable=set())]
        )
        payload = {
            "all_papers_audit": [
                {
                    "paper_id": "D01",
                    "stance": "Supports",
                    "checks": {
                        "C1": {"score": "Pass", "reasoning": "ok"},
                        "C2": {"score": "Uncertain", "reasoning": "over-answered"},
                        "C5": {"score": "Fail", "reasoning": "over-answered"},
                    },
                },
                {"paper_id": "D02", "stance": "Neutral", "checks": {"C1": {"score": "Pass"}}},
            ]
        }
        with caplog.at_level("WARNING", logger="claimaudit.audit"):
            first, second = parse_audit_response(payload, request)
        assert first.audit == AuditVector(scores={CheckId.C1: 1.0}, reasoning={CheckId.C1: "ok"})
        assert second.audit == AuditVector(scores={}, reasoning={})
        assert [record.getMessage() for record in caplog.records] == [
            f"dropping audit score for inapplicable check {name}" for name in ("C2", "C5", "C1")
        ]

    @given(
        st.sets(st.sampled_from(ALL_CHECKS)),
        st.dictionaries(st.sampled_from(ALL_CHECKS), st.sampled_from(["Pass", "Uncertain", "Fail"])),
    )
    def test_parsed_scores_are_in_domain_and_applicable(self, applicable, answered):
        request = make_request(papers=[make_paper("D01", applicable=applicable)])
        checks = {check.name: {"score": label} for check, label in answered.items()}
        payload = {"all_papers_audit": [{"paper_id": "D01", "stance": "Neutral", "checks": checks}]}
        (result,) = parse_audit_response(payload, request)
        assert result.audit.scores == {
            check: {"Pass": 1.0, "Uncertain": 0.5, "Fail": 0.0}[label]
            for check, label in answered.items()
            if check in applicable
        }

    def test_unknown_paper_id_dropped_with_warning(self, caplog):
        request = make_request()
        good = json.loads(render_audit_response(mock_audit(request, 1)))
        good["all_papers_audit"].append({"paper_id": "GHOST", "stance": "Neutral", "checks": {}})
        with caplog.at_level("WARNING"):
            parsed = parse_audit_response(good, request)
        assert [r.paper_id for r in parsed] == ["D01"]
        assert "GHOST" in caplog.text

    def test_missing_requested_paper_is_retryable(self):
        request = make_request(papers=[make_paper("D01"), make_paper("D02")])
        partial = json.loads(render_audit_response(mock_audit(make_request(papers=[make_paper("D01")]), 1)))
        with pytest.raises(ValueError, match="D02"):
            parse_audit_response(partial, request)

    @pytest.mark.parametrize(
        "raw",
        [
            '{"wrong_key": []}',
            '{"all_papers_audit": "not an array"}',
            '{"all_papers_audit": [{"paper_id": "D01", "stance": "Maybe", "checks": {}}]}',
            '{"all_papers_audit": [{"paper_id": "D01", "stance": "Supports", "checks": {"C1": {"score": "Meh"}}}]}',
            '{"all_papers_audit": [{"paper_id": "D01", "stance": "Supports", "checks": {"C99": {"score": "Pass"}}}]}',
            '{"all_papers_audit": [{"paper_id": "D01", "stance": "Supports", "checks": {"c1": {"score": "Pass"}}}]}',
            # C2 is not applicable to D01, yet a bad cell there still makes the reply unparseable.
            '{"all_papers_audit": [{"paper_id": "D01", "stance": "Supports", "checks": {"C2": {"score": "Meh"}}}]}',
            '{"all_papers_audit": [{"paper_id": "D01", "stance": "Supports", "checks": {"C2": {"score": "Pass", '
            '"reasoning": 3}}}]}',
            '{"all_papers_audit": [{"paper_id": "D01", "stance": "Supports"}]}',
            '{"all_papers_audit": [{"paper_id": "D01", "stance": ["Supports"], "checks": {}}]}',
            '{"all_papers_audit": [{"paper_id": ["D01"], "stance": "Supports", "checks": {}}]}',
            '{"all_papers_audit": [{"paper_id": "D01", "stance": "Supports", "checks": ["C1"]}]}',
            '{"all_papers_audit": [{"paper_id": "D01", "stance": "Supports", "checks": {"C1": {"score": ["Pass"]}}}]}',
            '{"all_papers_audit": [{"paper_id": "D01", "stance": "Supports", "checks": {"C1": {"score": "Pass", '
            '"reasoning": 3}}}]}',
        ],
    )
    def test_malformed_payloads_raise_value_error(self, raw):
        with pytest.raises(ValueError):
            parse_audit_response(json.loads(raw), make_request())

    def test_duplicate_paper_entry_raises(self):
        request = make_request()
        good = json.loads(render_audit_response(mock_audit(request, 1)))
        good["all_papers_audit"] *= 2
        with pytest.raises(ValueError, match="duplicate"):
            parse_audit_response(good, request)


class TestMockAudit:
    def test_deterministic_for_fixed_inputs(self):
        request = make_request(papers=[make_paper("D01"), make_paper("D02")])
        assert mock_audit(request, seed=7) == mock_audit(request, seed=7)

    def test_seed_changes_output(self):
        request = make_request(papers=[make_paper(f"D{i:02d}") for i in range(1, 9)])
        assert mock_audit(request, seed=1) != mock_audit(request, seed=2)

    def test_inapplicable_checks_never_scored(self):
        request = make_request(papers=[make_paper("D01", applicable={CheckId.C2, CheckId.C9})])
        (result,) = mock_audit(request, seed=3)
        assert set(result.audit.scores) <= {CheckId.C2, CheckId.C9}

    def test_scores_exactly_the_applicable_checks(self):
        request = make_request(papers=[make_paper("D01"), make_paper("D02", applicable={CheckId.C4})])
        for result, paper in zip(mock_audit(request, seed=11), request.papers):
            assert tuple(result.audit.scores) == paper.analysis.applicable_checks
            assert tuple(result.audit.reasoning) == paper.analysis.applicable_checks

    def test_scores_cover_all_three_values_over_many_draws(self):
        seen = set()
        papers = [make_paper(f"D{i:03d}", applicable=set(ALL_CHECKS)) for i in range(1, 41)]
        for seed in range(25):
            for result in mock_audit(make_request(papers=papers), seed=seed):
                seen.update(result.audit.scores.values())
        assert seen == {0.0, 0.5, 1.0}

    def test_usage_variant_counts_both_sides_approximately(self):
        request = make_request()
        usage = TokenUsage()
        results = mock_audit_with_usage(request, 2, usage)
        assert results == mock_audit(request, seed=2)
        assert usage.tokens_in == approx_token_count(build_audit_prompt(request))
        assert usage.tokens_out == approx_token_count(render_audit_response(results))
        assert usage.approximate is True


class _QueueClient(LlmClient):
    """Returns queued replies (or raises queued exceptions) in order."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.prompts = []
        self.schemas = []

    def complete(self, prompt, *, schema=None):
        self.prompts.append(prompt)
        self.schemas.append(schema)
        item = self.replies.pop(0)
        if isinstance(item, Exception):
            raise item
        return LlmReply(text=item)


class _RoutingClient(LlmClient):
    """Answers each single-paper audit prompt with its canned response."""

    def __init__(self, responses_by_marker):
        self.responses_by_marker = responses_by_marker

    def complete(self, prompt, *, schema=None):
        for marker, response in self.responses_by_marker.items():
            if marker in prompt:
                return LlmReply(text=response)
        raise AssertionError("unexpected prompt")


class TestRunAudit:
    def test_happy_path_validates_and_counts_tokens(self):
        request = make_request()
        canned = render_audit_response(mock_audit(request, seed=1))
        client = _QueueClient([canned])
        usage = TokenUsage()
        results = run_audit(Asker(client, sleep=lambda _: None), request, usage)
        assert results == mock_audit(request, seed=1)
        assert usage.tokens_in > 0 and usage.tokens_out > 0
        assert client.schemas == [BATCH_AUDIT_SCHEMA]

    def test_masked_out_scores_are_stripped(self):
        request = make_request(papers=[make_paper("D01", applicable={CheckId.C1})])
        raw = json.dumps(
            {
                "all_papers_audit": [
                    {
                        "paper_id": "D01",
                        "stance": "Supports",
                        "checks": {
                            "C1": {"score": "Pass", "reasoning": "ok"},
                            "C5": {"score": "Fail", "reasoning": "over-answered"},
                        },
                    }
                ]
            }
        )
        (result,) = run_audit(Asker(_QueueClient([raw]), sleep=lambda _: None), request, TokenUsage())
        assert set(result.audit.scores) == {CheckId.C1}

    def test_fenced_reply_is_accepted(self):
        request = make_request()
        fenced = "```json\n" + render_audit_response(mock_audit(request, 1)) + "\n```"
        assert run_audit(Asker(_QueueClient([fenced]), sleep=None), request, TokenUsage()) == mock_audit(request, 1)

    def test_parse_retry_then_success(self):
        request = make_request()
        canned = render_audit_response(mock_audit(request, seed=1))
        client = _QueueClient(["garbage", canned])
        sleeps = []
        results = run_audit(Asker(client, sleep=sleeps.append), request, TokenUsage())
        assert results == mock_audit(request, seed=1)
        assert sleeps == [1.0]
        assert len(client.prompts) == 2

    def test_exhausted_parse_retries_fail_the_claim(self):
        client = _QueueClient(["junk"] * 4)
        sleeps = []
        message = "^batch_audit_response reply unparseable after 4 attempts: reply does not contain a JSON object$"
        with pytest.raises(ValueError, match=message):
            run_audit(Asker(client, sleep=sleeps.append), make_request(), TokenUsage())
        assert sleeps == [1.0, 2.0, 4.0]

    def test_transport_failure_fails_the_claim_immediately(self):
        from claimaudit.llm import LlmTransportError

        error = LlmTransportError("down")
        with pytest.raises(LlmTransportError) as info:
            run_audit(Asker(_QueueClient([error]), sleep=lambda _: None), make_request(), TokenUsage())
        assert info.value is error

    def test_oversized_batch_splits_by_paper(self):
        papers = [make_paper("D01"), make_paper("D02")]
        request = make_request(papers=papers)
        singles = {
            paper.paper_id: AuditRequest(claim_text=request.claim_text, papers=(paper,))
            for paper in papers
        }
        budget = max(
            approx_token_count(build_audit_prompt(single)) for single in singles.values()
        )
        assert approx_token_count(build_audit_prompt(request)) > budget
        client = _RoutingClient(
            {
                f'"paper_id": "{paper_id}"': render_audit_response(mock_audit(single, seed=4))
                for paper_id, single in singles.items()
            }
        )
        usage = TokenUsage()
        results = run_audit(Asker(client, sleep=lambda _: None), request, usage, token_budget=budget)
        assert [r.paper_id for r in results] == ["D01", "D02"]
        assert results == [mock_audit(single, seed=4)[0] for single in singles.values()]
        # Both single-paper turns add to the one usage passed in.
        assert usage.tokens_in == sum(approx_token_count(build_audit_prompt(single)) for single in singles.values())
        assert usage.approximate is True

    def test_single_oversized_paper_is_a_claim_failure(self):
        size = approx_token_count(build_audit_prompt(make_request()))
        expected = (
            f"^single paper exceeds the audit token budget: audit prompt is ~{size} tokens, over the budget of 10; "
            r"per-paper sizes: D01: ~\d+ tokens$"
        )
        with pytest.raises(PromptBudgetError, match=expected):
            run_audit(Asker(_QueueClient([]), sleep=lambda _: None), make_request(), TokenUsage(), token_budget=10)

    @pytest.mark.parametrize("slack,split", [(0, False), (-1, True)], ids=["at-prompt-size", "one-token-less"])
    def test_a_batch_splits_only_when_its_prompt_is_over_budget(self, slack, split):
        request = make_request(papers=[make_paper("D01"), make_paper("D02")])
        budget = approx_token_count(build_audit_prompt(request)) + slack
        batches = [make_request(papers=[paper]) for paper in request.papers] if split else [request]
        client = _QueueClient([render_audit_response(mock_audit(batch, 4)) for batch in batches])
        usage = TokenUsage()
        results = run_audit(Asker(client, sleep=lambda _: None), request, usage, token_budget=budget)
        assert results == mock_audit(request, seed=4)
        assert client.prompts == [build_audit_prompt(batch) for batch in batches]
        # The mock batches as the live audit does and records the same usage.
        mock_usage = TokenUsage()
        assert mock_audit_with_usage(request, 4, mock_usage, token_budget=budget) == results
        assert mock_usage == usage

    @pytest.mark.parametrize("audit", ["live", "mock"])
    def test_the_default_budget_applies_to_both_audits(self, audit):
        request = make_request(papers=[make_paper(chunks=("x" * 4 * DEFAULT_TOKEN_BUDGET,))])
        with pytest.raises(PromptBudgetError, match=f"over the budget of {DEFAULT_TOKEN_BUDGET};"):
            if audit == "live":
                run_audit(Asker(_QueueClient([]), sleep=lambda _: None), request, TokenUsage())
            else:
                mock_audit_with_usage(request, 4, TokenUsage())
