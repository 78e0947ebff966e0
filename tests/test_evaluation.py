"""Evaluation tests: metrics against exact oracles, the verify matrix, reports."""

import dataclasses
import gc
import itertools
import json
import math
import re
import threading
import zlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import claimaudit.evaluation as evaluation
from claimaudit.audit import (
    BATCH_AUDIT_SCHEMA,
    DEFAULT_TOKEN_BUDGET,
    AuditRequest,
    PaperToAudit,
    build_audit_prompt,
    load_template,
    mock_audit,
    render_audit_response,
)
from claimaudit.baselines import run_ciber
from claimaudit.core import AnalysisDocument, CheckId, Verdict
from claimaudit.corpus import (
    DEFAULT_RETRIEVAL_K,
    EVIDENCE_FROM_MAP,
    EVIDENCE_FROM_RETRIEVAL,
    HashEmbedder,
    embed_chunks,
    evidence_for_claim,
    filter_scenario,
    ingest,
    load_corpus,
    save_corpus,
)
from claimaudit.evaluation import (
    ALL_METHODS,
    AblationFlags,
    ConfusionMatrix,
    RunReport,
    VerdictRecord,
    build_report,
    cohen_kappa,
    csv_rows,
    dump_records,
    gwet_ac1,
    load_records,
    macro_f1,
    mcc,
    render_table,
    run_matrix,
)
from claimaudit.llm import Asker, LlmClient, LlmReply, LlmTransportError, MockLlm, TokenUsage, approx_token_count
from claimaudit.scoring import HvParams, Tallies, make_contribution
from claimaudit.threshold import ThresholdConfig, constant_boldness_model

from json_strategies import or_any
from oracles import cohen_kappa_exact, gwet_ac1_exact, macro_f1_exact, mcc_exact
from scripted_llm import ScriptedTranscript
from test_corpus import make_corpus, make_manifest, replicated_fixture_manifest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SCENARIOS = ("TY0", "TY1", "TY3", "TY5")

CFG = ThresholdConfig()
RIDGE = constant_boldness_model()
PARAMS = HvParams()
# The schema title of each method's first required turn.
FIRST_TURNS = {
    "audit": "batch_audit_response",
    "cot": "cot_verdict",
    "selfrag": "selfrag_critiques",
    "flare": "flare_initial_verdict",
    "ciber": "cot_verdict",
}


def run(corpus, methods=("audit",), scenarios=("TY0", "TY5"), flags=AblationFlags(), seed=7, **kwargs):
    return run_matrix(corpus, methods, scenarios, flags, PARAMS, RIDGE, CFG, seed=seed, mock=True, **kwargs)


@pytest.fixture()
def corpus(tmp_path):
    return embed_chunks(make_corpus(tmp_path), HashEmbedder())


class TestConfusionMatrix:
    def test_from_labels_binarizes_via_verdict_mapping(self):
        predicted = [Verdict.VALID, Verdict.UNVERIFIABLE, Verdict.SUPPORTS, Verdict.REFUTES]
        actual = [Verdict.VALID, Verdict.VALID, Verdict.INVALID, Verdict.INVALID]
        cm = ConfusionMatrix.from_labels(predicted, actual)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 1, 1, 1)
        assert cm.total == 4

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length"):
            ConfusionMatrix.from_labels([Verdict.VALID], [])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ConfusionMatrix(tp=-1)


class TestMacroF1AndMcc:
    def test_worked_example(self):
        cm = ConfusionMatrix(tp=3, fp=1, fn=2, tn=4)
        assert macro_f1(cm) == pytest.approx(23 / 33, rel=1e-12)
        assert mcc(cm) == pytest.approx(10 / math.sqrt(600), rel=1e-12)

    def test_absent_class_scores_zero(self):
        cm = ConfusionMatrix(tp=0, fp=0, fn=0, tn=5)
        assert macro_f1(cm) == pytest.approx(0.5)
        assert mcc(cm) == 0.0

    def test_empty_matrix_raises(self):
        with pytest.raises(ValueError, match="empty"):
            macro_f1(ConfusionMatrix())
        with pytest.raises(ValueError, match="empty"):
            mcc(ConfusionMatrix())

    def test_exhaustive_against_exact_oracles(self):
        checked = 0
        for tp, fp, fn, tn in itertools.product(range(13), repeat=4):
            if tp + fp + fn + tn == 0 or tp + fp + fn + tn > 12:
                continue
            cm = ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)
            assert macro_f1(cm) == pytest.approx(float(macro_f1_exact(tp, fp, fn, tn)), abs=1e-12)
            assert mcc(cm) == pytest.approx(mcc_exact(tp, fp, fn, tn), abs=1e-12)
            checked += 1
        assert checked > 1000


class TestAgreementCoefficients:
    def test_worked_example(self):
        a = ["A", "A", "B", "B"]
        b = ["A", "A", "B", "A"]
        assert cohen_kappa(a, b) == pytest.approx(0.5, abs=1e-12)
        assert gwet_ac1(a, b) == pytest.approx(0.52941, abs=1e-5)

    def test_perfect_agreement(self):
        labels = ["A", "B", "A", "C"]
        assert cohen_kappa(labels, labels) == 1.0
        assert gwet_ac1(labels, labels) == 1.0

    def test_single_category_lists(self):
        assert cohen_kappa(["A", "A"], ["A", "A"]) == 1.0
        assert gwet_ac1(["A", "A"], ["A", "A"]) == 1.0

    def test_symmetry(self):
        a = ["A", "B", "A", "B", "C"]
        b = ["A", "A", "B", "B", "C"]
        assert cohen_kappa(a, b) == pytest.approx(cohen_kappa(b, a), abs=1e-15)
        assert gwet_ac1(a, b) == pytest.approx(gwet_ac1(b, a), abs=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="length"):
            cohen_kappa(["A"], ["A", "B"])
        with pytest.raises(ValueError, match="nonempty"):
            gwet_ac1([], [])

    @pytest.mark.parametrize("categories,length", [(("A", "B"), 4), (("A", "B", "C"), 3)])
    def test_exhaustive_against_exact_oracles(self, categories, length):
        for a in itertools.product(categories, repeat=length):
            for b in itertools.product(categories, repeat=length):
                assert cohen_kappa(list(a), list(b)) == pytest.approx(
                    float(cohen_kappa_exact(list(a), list(b))), abs=1e-12
                )
                assert gwet_ac1(list(a), list(b)) == pytest.approx(
                    float(gwet_ac1_exact(list(a), list(b))), abs=1e-12
                )


class TestAblationFlags:
    def test_defaults_enable_everything(self):
        flags = AblationFlags()
        assert flags.use_hv_score and flags.use_dynamic_threshold and flags.use_redundancy_penalty


def _record(**overrides) -> VerdictRecord:
    base = dict(
        claim_id="K01",
        method="audit",
        scenario="TY0",
        verdict=Verdict.VALID,
        ground_truth=Verdict.VALID,
        hv=0.75,
        tau=0.625,
        tallies=Tallies(h_support=1.2, h_refute=0.3, h_neutral=0.0),
        contributions=(make_contribution("D01", 1, 0.9, 0.8),),
        n_evidence_docs=2,
        retrieval_mode=EVIDENCE_FROM_MAP,
        tokens_in=100,
        tokens_out=40,
        tokens_approximate=True,
        failure=None,
    )
    base.update(overrides)
    return VerdictRecord(**base)


class TestVerdictRecord:
    def test_json_round_trip(self):
        record = _record()
        assert VerdictRecord.from_json(record.to_json()) == record

    def test_failure_record_round_trip(self):
        record = _record(
            verdict=None, hv=None, tau=None, tallies=None, contributions=(),
            tokens_in=0, tokens_out=0, tokens_approximate=False, failure="no evidence",
        )
        assert VerdictRecord.from_json(record.to_json()) == record

    def test_dump_and_load_round_trip(self, tmp_path):
        records = [_record(), _record(claim_id="K02", verdict=Verdict.INVALID)]
        path = tmp_path / "records.jsonl"
        path.write_text(dump_records(records), encoding="utf-8")
        assert load_records(path) == records

    def test_dump_is_byte_stable(self):
        records = [_record()]
        assert dump_records(records) == dump_records(records)


class _CountingClient(LlmClient):
    """Keeps the (schema title, prompt) pair of every call; `answer` replies."""

    def __init__(self):
        self.sent = []

    @property
    def calls(self):
        return len(self.sent)

    def titles(self):
        return Counter(title for title, _ in self.sent)

    def complete(self, prompt, *, schema=None):
        self.sent.append((schema["title"], prompt))
        return self.answer(prompt, schema)


class _OutageClient(_CountingClient):
    def __init__(self, retryable=False):
        super().__init__()
        self.retryable = retryable

    def answer(self, prompt, schema):
        raise LlmTransportError("endpoint down", retryable=self.retryable)


class _WordSaladClient(_CountingClient):
    """Answers every turn with the same text, which holds no JSON."""

    def __init__(self, text="word salad"):
        super().__init__()
        self.text = text

    def answer(self, prompt, schema):
        return LlmReply(text=self.text)


class _DeepNestingClient(_CountingClient):
    """Answers every turn with JSON nested deeper than the interpreter's recursion limit."""

    def answer(self, prompt, schema):
        return LlmReply(text="[" * 100_000)


class _LiveDouble(_CountingClient):
    """Answers the baselines as MockLlm does and each audit prompt with a stance drawn from its text."""

    def __init__(self, seed):
        super().__init__()
        self.mock = MockLlm(seed)

    def answer(self, prompt, schema):
        if schema is not BATCH_AUDIT_SCHEMA:
            return self.mock.complete(prompt, schema=schema)
        stances = ("Supports", "Refutes", "Neutral")
        entries = [
            {
                "paper_id": paper_id,
                "stance": stances[zlib.crc32(f"{paper_id}:{prompt}".encode("utf-8")) % 3],
                "checks": {check.name: {"score": "Pass"} for check in CheckId},
            }
            for paper_id in dict.fromkeys(re.findall(r'"paper_id": "([^"]+)"', prompt))
        ]
        return LlmReply(text=json.dumps({"all_papers_audit": entries}))


class _FirstCotOutage(_LiveDouble):
    """A `_LiveDouble` whose first `cot_verdict` call fails in transport."""

    def answer(self, prompt, schema):
        if self.titles()["cot_verdict"] == 1 and schema["title"] == "cot_verdict":
            raise LlmTransportError("endpoint down")
        return super().answer(prompt, schema)


class TestRunMatrix:
    def test_cartesian_count_and_order(self, corpus):
        report = run(corpus, methods=("audit", "cot"), scenarios=("TY0", "TY5"))
        keys = [(r.claim_id, r.method, r.scenario) for r in report.records]
        assert keys == [
            ("K01", "audit", "TY0"),
            ("K01", "audit", "TY5"),
            ("K01", "cot", "TY0"),
            ("K01", "cot", "TY5"),
            ("K02", "audit", "TY0"),
            ("K02", "audit", "TY5"),
            ("K02", "cot", "TY0"),
            ("K02", "cot", "TY5"),
        ]

    def test_records_do_not_depend_on_earlier_loads_in_the_process(self, tmp_path):
        # Renderings kept per document live and die with the loaded corpus, so
        # a store loaded twice, with another load in between that lists the
        # same documents in reverse order, writes the same records each time.
        reversed_manifest = make_manifest()
        reversed_manifest["documents"].reverse()
        (tmp_path / "reversed").mkdir()
        stores = [tmp_path / "store", tmp_path / "reversed" / "store", tmp_path / "store"]
        save_corpus(embed_chunks(make_corpus(tmp_path), HashEmbedder()), stores[0])
        save_corpus(embed_chunks(make_corpus(tmp_path / "reversed", reversed_manifest), HashEmbedder()), stores[1])
        runs = []
        for store in stores:
            loaded = dataclasses.replace(load_corpus(store), embedder=HashEmbedder())
            runs.append(dump_records(run(loaded, methods=ALL_METHODS, scenarios=SCENARIOS).records))
            del loaded
            gc.collect()
        assert runs[0] == runs[1] == runs[2]

    def test_audit_records_carry_full_trace(self, corpus):
        report = run(corpus)
        for record in report.records:
            assert record.failure is None
            assert record.verdict in {"Valid", "Invalid"}
            assert 0.0 <= record.hv <= 1.0
            assert 0.5 <= record.tau <= 0.95
            assert record.tallies is not None
            assert record.contributions
            assert record.n_evidence_docs >= 1
            assert record.tokens_in > 0 and record.tokens_out > 0
            assert record.tokens_approximate
        by_claim = {record.claim_id: record for record in report.records if record.scenario == "TY5"}
        assert by_claim["K01"].retrieval_mode == EVIDENCE_FROM_MAP
        assert by_claim["K02"].retrieval_mode == EVIDENCE_FROM_RETRIEVAL

    def test_all_methods_produce_verdicts(self, corpus):
        report = run(corpus, methods=ALL_METHODS, scenarios=("TY5",))
        assert len(report.records) == 2 * len(ALL_METHODS)
        for record in report.records:
            assert record.failure is None
            assert record.verdict in {"Valid", "Invalid", "Unverifiable"}
            if record.method == "audit":
                assert record.hv is not None and record.contributions
            else:
                assert record.hv is None and record.tau is None
                assert record.tallies is None and record.contributions == ()
            assert record.tokens_in > 0

    def test_mock_run_is_byte_deterministic(self, corpus):
        first = run(corpus, methods=ALL_METHODS)
        second = run(corpus, methods=ALL_METHODS)
        assert dump_records(first.records) == dump_records(second.records)
        assert first == second

    def test_seed_changes_outcomes(self, corpus):
        assert dump_records(run(corpus, seed=7).records) != dump_records(run(corpus, seed=8).records)

    # A duplicated method or scenario would write every one of its cells twice.
    @pytest.mark.parametrize(
        ("methods", "scenarios", "message"),
        [
            (("decider",), ("TY0", "TY5"), r"unknown methods: \['decider'\]"),
            (("cot", "audit", "cot"), ("TY0",), r"duplicated methods: \['cot'\]"),
            (("audit",), ("TY0", "TY5", "TY0", "TY5"), r"duplicated scenarios: \['TY0', 'TY5'\]"),
            (("audit",), ("TY0", "TY9"), r"unknown scenarios: \['TY9'\]"),
        ],
        ids=["unknown", "duplicated-method", "duplicated-scenarios", "unknown-scenario"],
    )
    def test_unknown_method_rejected(self, corpus, monkeypatch, methods, scenarios, message):
        monkeypatch.setattr(evaluation, "evidence_for_claim", None)  # no claim is looked up
        with pytest.raises(ValueError, match=message):
            run(corpus, methods=methods, scenarios=scenarios)

    def test_unknown_scenario_rejected_without_claims(self, corpus):
        with pytest.raises(ValueError, match=r"^unknown scenarios: \['TY9'\]$"):
            run(dataclasses.replace(corpus, claims={}), scenarios=("TY9",))

    def test_live_mode_requires_client(self, corpus):
        with pytest.raises(ValueError, match="client"):
            run_matrix(corpus, ("audit",), ("TY5",), AblationFlags(), PARAMS, RIDGE, CFG, mock=False)

    def test_empty_scenario_evidence_becomes_failure_record(self, tmp_path):
        payload = make_manifest()
        payload["evidence_map"]["K01"] = ["D03-c0"]
        corpus = embed_chunks(make_corpus(tmp_path, payload), HashEmbedder())
        report = run(corpus, scenarios=("TY0",))
        failed = [record for record in report.records if record.claim_id == "K01"]
        assert len(failed) == 1
        assert failed[0].failure is not None and "TY0" in failed[0].failure
        assert failed[0].verdict is None
        cell = report.cells[0]
        assert cell.failures == 1 and cell.n == 1

    def test_unembedded_retrieval_claim_becomes_failure_records(self, tmp_path):
        corpus = make_corpus(tmp_path)
        report = run(corpus, methods=("audit", "cot"))
        by_claim = {}
        for record in report.records:
            by_claim.setdefault(record.claim_id, []).append(record)
        assert all(record.failure is None for record in by_claim["K01"])
        assert all(record.failure is not None for record in by_claim["K02"])
        assert all("evidence lookup failed" in record.failure for record in by_claim["K02"])
        assert len(by_claim["K02"]) == 4

    # The script-miss case keeps the bare method id. A final client error
    # fails with the client's own text; a turn that runs out of attempts
    # names the method's first required turn by its schema title.
    @pytest.mark.parametrize(
        ("method", "client", "failure_start"),
        [
            pytest.param(method, client, start, id=method + suffix)
            for method in ALL_METHODS
            for suffix, client, start in (
                ("", ScriptedTranscript({}), "no scripted response"),
                ("-outage", _OutageClient(), "endpoint down"),
                (
                    "-retryable-outage",
                    _OutageClient(retryable=True),
                    f"{FIRST_TURNS[method]} request failed after 4 attempts: endpoint down",
                ),
                ("-unparseable", _WordSaladClient(), f"{FIRST_TURNS[method]} reply unparseable after 4 attempts: "),
            )
        ],
    )
    def test_client_errors_become_failure_records_for_every_method(self, corpus, method, client, failure_start):
        answered = run(corpus, methods=(method,))
        unanswered = run_matrix(
            corpus, (method,), ("TY0", "TY5"), AblationFlags(), PARAMS, RIDGE, CFG,
            seed=7, mock=False, client=client, sleep=lambda _: None,
        )
        assert len(unanswered.records) == len(answered.records) == 4
        for record, reference in zip(unanswered.records, answered.records):
            assert reference.failure is None
            assert record.failure.startswith(failure_start)
            assert record.verdict is None
            assert record.retrieval_mode == reference.retrieval_mode
            assert record.n_evidence_docs == reference.n_evidence_docs >= 1
        # A failed cell keeps what its turns spent: nothing where the client
        # raised, and four unparseable replies to its first turn's one prompt.
        spent = {(record.tokens_in, record.tokens_out, record.tokens_approximate) for record in unanswered.records}
        if isinstance(client, _WordSaladClient):
            salad = 4 * approx_token_count("word salad")
            assert spent == {(4 * approx_token_count(prompt), salad, True) for _, prompt in client.sent}
        else:
            assert spent == {(0, 0, False)}

    def test_a_reply_without_json_fails_every_method_with_one_text(self, corpus):
        report = run_matrix(
            corpus, ALL_METHODS, ("TY0", "TY5"), AblationFlags(), PARAMS, RIDGE, CFG,
            seed=7, mock=False, client=_WordSaladClient("no JSON here"), retries=2, sleep=lambda _: None,
        )
        assert {(record.method, record.failure) for record in report.records} == {
            (method, f"{FIRST_TURNS[method]} reply unparseable after 3 attempts: reply does not contain a JSON object")
            for method in ALL_METHODS
        }

    def test_document_without_applicable_checks_contributes_nothing(self, tmp_path, caplog):
        payload = make_manifest()
        for check in payload["documents"][3]["analysis"]["veritable_check_signals"].values():
            check["is_applicable"] = False
            check["objective_analysis"] = "N/A"
        corpus = embed_chunks(make_corpus(tmp_path, payload), HashEmbedder())
        with caplog.at_level("WARNING"):
            report = run(corpus, scenarios=("TY0",))
        assert "no applicable checks" in caplog.text
        k01 = next(record for record in report.records if record.claim_id == "K01")
        assert k01.failure is None
        assert "D04" not in {contribution.doc_id for contribution in k01.contributions}
        assert {contribution.doc_id for contribution in k01.contributions} == {"D01"}


_DISPATCHED = (
    ("run_cot", True),
    ("run_selfrag", True),
    ("run_flare", True),
    ("run_ciber", True),
    ("mock_audit_with_usage", True),
    ("run_audit", False),
)


class TestCellDispatch:
    """Each method calls its function through the evaluation module's attribute."""

    @pytest.mark.parametrize(
        "name,mock,shared",
        [pytest.param(name, mock, False, id=f"{name}-{mock}") for name, mock in _DISPATCHED]
        + [pytest.param(name, mock, True, id=f"{name}-{mock}-shared") for name, mock in _DISPATCHED],
    )
    def test_called_once_per_nonempty_cell(self, tmp_path, monkeypatch, name, mock, shared):
        payload = make_manifest()
        if shared:
            # TY1 and TY3 keep all of K01's pins, so K01 has one distinct
            # evidence list for two scenarios; K02's retrieved lists differ.
            scenarios, expected_empty = ("TY1", "TY3"), set()
        else:
            payload["evidence_map"]["K01"] = ["D03-c0"]  # D03 is not in TY0
            scenarios, expected_empty = ("TY0", "TY5"), {("K01", "TY0")}
        corpus = embed_chunks(make_corpus(tmp_path, payload), HashEmbedder())
        original = getattr(evaluation, name)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(evaluation, name, spy)
        report = run_matrix(
            corpus, ALL_METHODS, scenarios, AblationFlags(), PARAMS, RIDGE, CFG,
            seed=7, mock=mock, client=None if mock else ScriptedTranscript({}),
        )
        empty = [record for record in report.records if record.n_evidence_docs == 0]
        assert {(record.claim_id, record.scenario) for record in empty} == expected_empty
        assert len(empty) == len(ALL_METHODS) * len(expected_empty)
        assert len(report.records) - len(empty) == len(ALL_METHODS) * (4 if shared else 3)
        assert len(calls) == 3


def _run_fixtures(
    corpus, scenarios, *, mock, client=None, methods=ALL_METHODS, templates=None, token_budget=DEFAULT_TOKEN_BUDGET
):
    return run_matrix(
        corpus, methods, scenarios, AblationFlags(), PARAMS, RIDGE, CFG,
        seed=7, mock=mock, client=client, sleep=lambda _: None, templates=templates, token_budget=token_budget,
    ).records


class TestSharedCells:
    """Within a claim, scenarios with the same evidence share one cell and methods share parsed replies."""

    @pytest.fixture(scope="class")
    def fixtures_corpus(self):
        corpus = ingest(FIXTURES / "manifest.json")
        repeats = []
        for claim in corpus.claims.values():
            evidence, _ = evidence_for_claim(corpus, claim)
            if filter_scenario(evidence, corpus.scenario("TY3")) == filter_scenario(evidence, corpus.scenario("TY5")):
                repeats.append(claim.id)
        assert len(repeats) == 8  # TY3 and TY5 leave 8 of the 10 claims the same evidence
        return corpus

    # A run of one scenario shares no cell; a run of one method shares no reply.
    @pytest.mark.parametrize(
        ("mock", "split_by"),
        [(True, "scenario"), (False, "scenario"), (True, "method"), (False, "method")],
        ids=["mock", "live", "mock-by-method", "live-by-method"],
    )
    def test_sharing_is_invisible_in_the_records(self, fixtures_corpus, mock, split_by):
        joint_client, split_client = _LiveDouble(7), _LiveDouble(7)
        joint = _run_fixtures(fixtures_corpus, SCENARIOS, mock=mock, client=None if mock else joint_client)
        if split_by == "scenario":
            parts = [((label,), ALL_METHODS) for label in SCENARIOS]
        else:
            parts = [(SCENARIOS, (method,)) for method in ALL_METHODS]
        by_key = {
            (record.claim_id, record.method, record.scenario): record
            for scenarios, methods in parts
            for record in _run_fixtures(
                fixtures_corpus, scenarios, mock=mock, client=None if mock else split_client, methods=methods
            )
        }
        split = [
            by_key[(claim_id, method, label)]
            for claim_id in fixtures_corpus.claims
            for method in ALL_METHODS
            for label in SCENARIOS
        ]
        assert len(joint) == len(split) == 200
        assert dump_records(joint) == dump_records(split)
        if not mock:
            assert all(record.failure is None for record in joint)
            assert 0 < joint_client.calls < split_client.calls

    def test_each_prompt_reaches_the_client_once(self, fixtures_corpus):
        client, ciber_client = _LiveDouble(7), _LiveDouble(7)
        records = _run_fixtures(fixtures_corpus, SCENARIOS, mock=False, client=client)
        assert all(record.failure is None for record in records)
        assert max(Counter(client.sent).values()) == 1
        _run_fixtures(fixtures_corpus, SCENARIOS, mock=False, client=ciber_client, methods=("ciber",))
        cot_prompts = {prompt for title, prompt in client.sent if title == "cot_verdict"}
        assert cot_prompts and cot_prompts == {prompt for title, prompt in ciber_client.sent if title == "cot_verdict"}

    def test_a_failed_turn_is_asked_again_by_the_next_method(self, fixtures_corpus):
        client = _FirstCotOutage(7)
        records = _run_fixtures(fixtures_corpus, ("TY0",), mock=False, client=client, methods=("cot", "ciber"))
        reference = _run_fixtures(
            fixtures_corpus, ("TY0",), mock=False, client=_LiveDouble(7), methods=("cot", "ciber")
        )
        changed = [record for record, expected in zip(records, reference) if record != expected]
        assert [(record.method, record.failure) for record in changed] == [("cot", "endpoint down")]
        cot_prompts = [prompt for title, prompt in client.sent if title == "cot_verdict"]
        assert cot_prompts[0] == cot_prompts[1]

    # Every method's first turn is required; a parse failure asks four times.
    @pytest.mark.parametrize(("client_class", "attempts"), [(_OutageClient, 1), (_WordSaladClient, 4)])
    def test_failed_cell_is_computed_once_and_shared(self, corpus, client_class, attempts):
        client = client_class()
        records = run_matrix(
            corpus, ALL_METHODS, ("TY1", "TY3"), AblationFlags(), PARAMS, RIDGE, CFG,
            seed=7, mock=False, client=client, sleep=lambda _: None,
        ).records
        # K01's pins survive both scenarios; K02's retrieved lists differ.
        assert client.calls == len(ALL_METHODS) * 3 * attempts
        # No failed reply is kept: CIBER asks the COT prompt as often as COT did.
        assert client.titles()["cot_verdict"] == 2 * 3 * attempts
        assert all(record.failure is not None for record in records)
        k01 = [record for record in records if record.claim_id == "K01"]
        for ty1, ty3 in zip(k01[::2], k01[1::2]):
            assert (ty1.scenario, ty3.scenario, ty3.method) == ("TY1", "TY3", ty1.method)
            assert ty1.failure == ty3.failure

    def test_a_reply_nested_past_the_recursion_limit_fails_every_cell(self, corpus):
        records = run_matrix(
            corpus, ALL_METHODS, ("TY0",), AblationFlags(), PARAMS, RIDGE, CFG,
            seed=7, mock=False, client=_DeepNestingClient(), sleep=lambda _: None,
        ).records
        assert [(record.claim_id, record.method) for record in records] == list(
            itertools.product(corpus.claims, ALL_METHODS)
        )
        assert all(record.verdict is None and "unparseable after 4 attempts" in record.failure for record in records)

    def test_the_memo_never_serves_another_claim(self, tmp_path):
        # A CIBER probe prompt holds the probe question and the evidence,
        # not the claim text: K01 and K02 send the same three probe prompts.
        payload = make_manifest()
        payload["evidence_map"]["K02"] = payload["evidence_map"]["K01"]
        corpus = make_corpus(tmp_path, payload)
        assert corpus.claim("K01").probe_questions == corpus.claim("K02").probe_questions
        client = _LiveDouble(7)
        records = _run_fixtures(corpus, ("TY1",), mock=False, client=client, methods=("ciber",))
        assert [record.failure for record in records] == [None, None]
        probes = [prompt for title, prompt in client.sent if title == "ciber_probe_verdict"]
        assert len(probes) == 6 and probes[:3] == probes[3:]
        assert len(set(probes)) == 3

    def test_each_empty_scenario_names_its_own_label(self, tmp_path):
        payload = make_manifest()
        payload["evidence_map"]["K01"] = ["D03-c0"]  # D03 is in neither TY0 nor TY1
        corpus = embed_chunks(make_corpus(tmp_path, payload), HashEmbedder())
        records = run(corpus, methods=ALL_METHODS, scenarios=("TY0", "TY1")).records
        k01 = [record for record in records if record.claim_id == "K01"]
        assert [record.failure for record in k01] == [
            f"no evidence chunks survive scenario {label}" for _ in ALL_METHODS for label in ("TY0", "TY1")
        ]


class TestClaimRecords:
    """`run_matrix` joins one `_claim_records` block per claim, and a block reads no other claim."""

    @staticmethod
    def _corpus(tmp_path, variant):
        payload = json.loads((FIXTURES / "manifest.json").read_text(encoding="utf-8"))
        if variant == "failures":
            del payload["evidence_map"]["K03"]  # no pins and no embedder: the lookup fails
            payload["evidence_map"]["K04"] = ["D13-c0", "D14-c0"]  # neither document is in TY0 or TY1
        return make_corpus(tmp_path, payload)

    @staticmethod
    def _blocks(corpus, claims, mock):
        asker = Asker(MockLlm(7) if mock else _LiveDouble(7), sleep=lambda _: None)
        ctx = evaluation.RunContext(corpus, AblationFlags(), PARAMS, RIDGE, CFG, 7, mock, asker, DEFAULT_TOKEN_BUDGET)
        return {
            claim.id: dump_records(evaluation._claim_records(ctx, claim, ALL_METHODS, SCENARIOS, DEFAULT_RETRIEVAL_K))
            for claim in claims
        }

    @pytest.mark.parametrize("variant", ["fixtures", "failures"])
    @pytest.mark.parametrize("mock", [True, False], ids=["mock", "live"])
    def test_run_matrix_is_the_claim_order_join_of_independent_blocks(self, tmp_path, variant, mock):
        corpus = self._corpus(tmp_path, variant)
        records = _run_fixtures(corpus, SCENARIOS, mock=mock, client=None if mock else _LiveDouble(7))
        failures = Counter(record.failure.split(":")[0] for record in records if record.failure)
        if variant == "failures":
            assert failures == {
                "evidence lookup failed": len(ALL_METHODS) * len(SCENARIOS),
                "no evidence chunks survive scenario TY0": len(ALL_METHODS),
                "no evidence chunks survive scenario TY1": len(ALL_METHODS),
            }
        else:
            assert not failures
        claims = list(corpus.claims.values())
        forward = self._blocks(corpus, claims, mock)
        assert dump_records(records) == "".join(forward[claim.id] for claim in claims)
        assert self._blocks(corpus, reversed(claims), mock) == forward


_BATCH_AUDIT_CLAIM = re.compile(r'### CLAIM TO VERIFY ###\n"(.*?)"\n\n### PAPERS TO AUDIT ###\n', re.DOTALL)


class _MockReplayClient(LlmClient):
    """Answers a live run with the mock path's replies.

    The batch audit is answered with `mock_audit`, rendered to the wire
    format, of the request rebuilt from the prompt, so each paper's
    analysis goes through its JSON codec into the prompt and back. Every
    other turn goes to `MockLlm(seed)`.
    """

    def __init__(self, seed):
        self.seed = seed
        self.mock = MockLlm(seed)

    def complete(self, prompt, *, schema=None):
        if schema is not BATCH_AUDIT_SCHEMA:
            return self.mock.complete(prompt, schema=schema)
        claim = _BATCH_AUDIT_CLAIM.search(prompt)
        papers, _ = json.JSONDecoder().raw_decode(prompt, claim.end())
        request = AuditRequest(
            claim_text=claim.group(1),
            papers=tuple(
                PaperToAudit(
                    paper_id=paper["paper_id"],
                    analysis=AnalysisDocument.from_json(paper["paper_json_content"]),
                    chunks=tuple(paper["evidence_text_chunks"]),
                )
                for paper in papers
            ),
        )
        return LlmReply(text=render_audit_response(mock_audit(request, self.seed)))


class TestLiveEqualsMock:
    # At 2000 tokens some batches split into one request per paper; at 600
    # every paper alone is over the budget, so every audit cell fails.
    @pytest.mark.parametrize(
        "replicas,token_budget",
        [
            pytest.param(2, DEFAULT_TOKEN_BUDGET, id="2"),
            pytest.param(3, DEFAULT_TOKEN_BUDGET, id="3"),
            pytest.param(2, 2000, id="2-budget-2000"),
            pytest.param(2, 600, id="2-budget-600"),
        ],
    )
    def test_live_records_equal_mock_records(self, tmp_path, replicas, token_budget):
        corpus = embed_chunks(make_corpus(tmp_path, replicated_fixture_manifest(replicas)), HashEmbedder())
        mock = _run_fixtures(corpus, SCENARIOS, mock=True, token_budget=token_budget)
        live = _run_fixtures(corpus, SCENARIOS, mock=False, client=_MockReplayClient(7), token_budget=token_budget)
        assert sum(record.failure is None for record in mock) > len(mock) // 2
        audit = [record for record in mock if record.method == "audit"]
        if token_budget == 600:
            assert all(record.verdict is None for record in audit)
        elif token_budget == 2000:
            unsplit = _run_fixtures(corpus, SCENARIOS, mock=True, methods=("audit",))
            assert sum(record.tokens_in for record in audit) > sum(record.tokens_in for record in unsplit)
        assert dump_records(live) == dump_records(mock)


class TestCellTokens:
    """A cell's tokens are the sum of every turn its method asked, memo hits included."""

    @pytest.fixture(scope="class")
    def fixtures_corpus(self):
        return ingest(FIXTURES / "manifest.json")

    @staticmethod
    def _chunks(corpus, claim, label):
        evidence, _ = evidence_for_claim(corpus, claim)
        return filter_scenario(evidence, corpus.scenario(label))

    def test_ciber_counts_the_cot_turn_the_memo_serves(self, fixtures_corpus):
        client = _LiveDouble(7)
        records = _run_fixtures(fixtures_corpus, ("TY0",), mock=False, client=client, methods=("cot", "ciber"))
        # CIBER's CoT prompt is COT's byte for byte, so the client hears it once per claim.
        assert client.titles()["cot_verdict"] == len(fixtures_corpus.claims)
        ciber = [record for record in records if record.method == "ciber"]
        assert len(ciber) == len(fixtures_corpus.claims)
        for record in ciber:
            claim = fixtures_corpus.claim(record.claim_id)
            usage = TokenUsage()
            run_ciber(Asker(MockLlm(7), memo={}), claim, self._chunks(fixtures_corpus, claim, "TY0"), usage)
            assert record.failure is None
            assert (record.tokens_in, record.tokens_out, record.tokens_approximate) == (
                usage.tokens_in, usage.tokens_out, usage.approximate,
            )

    def test_a_split_audit_cell_counts_every_single_paper_batch(self, fixtures_corpus):
        budget = 2000
        records = _run_fixtures(fixtures_corpus, ("TY3",), mock=True, methods=("audit",), token_budget=budget)
        splits = 0
        for record in records:
            claim = fixtures_corpus.claim(record.claim_id)
            chunks = self._chunks(fixtures_corpus, claim, "TY3")
            papers = tuple(
                PaperToAudit(
                    paper_id=doc_id,
                    analysis=fixtures_corpus.document(doc_id).analysis,
                    chunks=tuple(chunk.text for chunk in chunks if chunk.doc_id == doc_id),
                )
                for doc_id in dict.fromkeys(chunk.doc_id for chunk in chunks)
            )
            whole = AuditRequest(claim_text=claim.text, papers=papers)
            batches = [whole]
            if approx_token_count(build_audit_prompt(whole)) > budget:
                batches = [AuditRequest(claim_text=claim.text, papers=(paper,)) for paper in papers]
                splits += 1
            assert record.failure is None
            assert (record.tokens_in, record.tokens_out) == (
                sum(approx_token_count(build_audit_prompt(batch)) for batch in batches),
                sum(approx_token_count(render_audit_response(mock_audit(batch, 7))) for batch in batches),
            )
        assert 0 < splits < len(records)


def _verdict_reply(labels, **extra):
    """A verdict turn's reply: each field a valid value or any JSON value."""
    return st.fixed_dictionaries(
        {
            "verdict": or_any(st.sampled_from(labels)),
            "justification": or_any(st.text(max_size=6)),
            "confidence": or_any(st.integers(0, 100)),
            **extra,
        }
    )


_AUDIT_CHECK = or_any(
    st.fixed_dictionaries(
        {"score": or_any(st.sampled_from(["Pass", "Uncertain", "Fail"])), "reasoning": or_any(st.text(max_size=6))}
    )
)
_CRITIQUE = st.fixed_dictionaries(
    {
        "passage_id": or_any(st.sampled_from(["S1", "S2"])),
        "relevance": or_any(st.sampled_from(["Relevant", "Irrelevant"])),
        "support": or_any(st.sampled_from(["Fully Supported", "Partially Supported", "Contradictory", "No Support"])),
        "note": or_any(st.text(max_size=6)),
    }
)
_DRAWN_REPLIES = {
    "cot_verdict": _verdict_reply(["Valid", "Invalid", "Unverifiable"]),
    "selfrag_verdict": _verdict_reply(["Valid", "Invalid", "Unverifiable"]),
    "flare_final_verdict": _verdict_reply(["Valid", "Invalid", "Unverifiable"]),
    "flare_initial_verdict": _verdict_reply(
        ["Valid", "Invalid", "Unverifiable"], request_full_review=or_any(st.sampled_from(["None", "D01", "P999"]))
    ),
    "ciber_probe_verdict": _verdict_reply(["Agree", "Disagree", "Neutral"]),
    "selfrag_critiques": st.fixed_dictionaries({"critiques": or_any(st.lists(_CRITIQUE, max_size=3))}),
}


class _DrawnReplies(LlmClient):
    """Answers each turn with a reply drawn for its schema, any field of it possibly of the wrong JSON type."""

    def __init__(self, data):
        self.data = data

    def complete(self, prompt, *, schema=None):
        title = schema["title"]
        if title == "batch_audit_response":
            entry = st.fixed_dictionaries(
                {
                    "paper_id": or_any(st.sampled_from(re.findall(r'"paper_id": "([^"]+)"', prompt))),
                    "stance": or_any(st.sampled_from(["Supports", "Refutes", "Neutral"])),
                    "checks": or_any(st.dictionaries(st.sampled_from([check.name for check in CheckId]), _AUDIT_CHECK)),
                }
            )
            reply = st.fixed_dictionaries({"all_papers_audit": or_any(st.lists(entry, max_size=3))})
        else:
            reply = _DRAWN_REPLIES[title]
        return LlmReply(text=self.data.draw(or_any(reply).map(json.dumps) | st.text(max_size=6), label=title))


class TestDrawnReplies:
    @pytest.fixture(scope="class")
    def corpora(self, tmp_path_factory):
        """A one-claim corpus (K01, pinned evidence) and a two-claim one (K02 retrieves)."""
        one_claim, two_claims = make_manifest(), make_manifest()
        del one_claim["claims"][1]
        return [
            embed_chunks(make_corpus(tmp_path_factory.mktemp("drawn"), payload), HashEmbedder())
            for payload in (one_claim, two_claims)
        ]

    # Many turns draw from one example, so an example can run past Hypothesis's data budget.
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.data_too_large, HealthCheck.too_slow])
    @given(data=st.data())
    def test_every_cell_is_a_verdict_or_a_failure(self, corpora, data):
        corpus = data.draw(st.sampled_from(corpora), label="corpus")
        scenarios = ("TY0", "TY3")
        records = run_matrix(
            corpus, ALL_METHODS, scenarios, AblationFlags(), PARAMS, RIDGE, CFG,
            seed=7, mock=False, client=_DrawnReplies(data), retries=1, sleep=lambda _: None,
        ).records
        assert [(record.claim_id, record.method, record.scenario) for record in records] == list(
            itertools.product(corpus.claims, ALL_METHODS, scenarios)
        )
        assert all((record.verdict is None) != (record.failure is None) for record in records)


# Every template a run renders, and the schema title of the turn it asks.
_TEMPLATE_TITLES = {
    "batch_audit": "batch_audit_response",
    "cot_verdict": "cot_verdict",
    "selfrag_critique": "selfrag_critiques",
    "selfrag_synthesis": "selfrag_verdict",
    "flare_initial": "flare_initial_verdict",
    "flare_full_review": "flare_final_verdict",
    "ciber_probe": "ciber_probe_verdict",
}


def _marked_templates(directory, label):
    """Copies of every used template, each led by a 24-byte marker line naming `label`."""
    marker = f"<<template override {label}>>"
    directory.mkdir()
    for name in _TEMPLATE_TITLES:
        (directory / f"{name}.txt").write_text(f"{marker}\n{load_template(name)}", encoding="utf-8")
    return marker


class _BarrierDouble(_LiveDouble):
    """A `_LiveDouble` whose first call waits until the other run has made its first call too."""

    def __init__(self, seed, barrier):
        super().__init__(seed)
        self.barrier = barrier

    def answer(self, prompt, schema):
        if self.calls == 1:
            self.barrier.wait()
        return super().answer(prompt, schema)


class TestTemplateDirectory:
    """`run_matrix(templates=...)` reaches every prompt of its own run and no other."""

    @pytest.fixture(scope="class")
    def fixtures_corpus(self):
        return ingest(FIXTURES / "manifest.json")

    def test_every_prompt_of_every_method_carries_the_override(self, fixtures_corpus, tmp_path):
        marker = _marked_templates(tmp_path / "a", "A")
        client = _LiveDouble(7)
        records = _run_fixtures(fixtures_corpus, SCENARIOS, mock=False, client=client, templates=tmp_path / "a")
        assert all(record.failure is None for record in records)
        assert set(client.titles()) == set(_TEMPLATE_TITLES.values())
        assert all(prompt.startswith(marker + "\n") for _, prompt in client.sent)

    def test_mock_audit_tokens_follow_the_override(self, fixtures_corpus, tmp_path):
        marker = _marked_templates(tmp_path / "a", "A")
        plain = _run_fixtures(fixtures_corpus, SCENARIOS, mock=True, methods=("audit",))
        marked = _run_fixtures(fixtures_corpus, SCENARIOS, mock=True, methods=("audit",), templates=tmp_path / "a")
        assert len(plain) == len(marked) == 40
        extra_tokens = len(marker + "\n") // 4  # ceil(bytes / 4) grows by exactly this for a 24-byte line
        for before, after in zip(plain, marked):
            assert after.failure is None
            assert after.tokens_in == before.tokens_in + extra_tokens
            assert dataclasses.replace(after, tokens_in=before.tokens_in) == before

    def test_concurrent_runs_keep_their_own_templates(self, fixtures_corpus, tmp_path):
        labels = ("A", "B")
        markers = [_marked_templates(tmp_path / label, label) for label in labels]
        alone = [
            _run_fixtures(fixtures_corpus, SCENARIOS, mock=False, client=_LiveDouble(7), templates=tmp_path / label)
            for label in labels
        ]
        assert dump_records(alone[0]) != dump_records(alone[1])
        barrier = threading.Barrier(2, timeout=30)
        clients = [_BarrierDouble(7, barrier), _BarrierDouble(7, barrier)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(
                    _run_fixtures, fixtures_corpus, SCENARIOS, mock=False, client=client, templates=tmp_path / label
                )
                for client, label in zip(clients, labels)
            ]
            together = [future.result(timeout=120) for future in futures]
        for client, marker, records, reference in zip(clients, markers, together, alone):
            assert client.calls > 0
            assert all(prompt.startswith(marker + "\n") for _, prompt in client.sent)
            assert dump_records(records) == dump_records(reference)


class TestAblationSemantics:
    def _audit_pairs(self, base, variant):
        paired = list(zip(base.records, variant.records))
        assert all(
            (a.claim_id, a.method, a.scenario) == (b.claim_id, b.method, b.scenario) for a, b in paired
        )
        return [(a, b) for a, b in paired if a.method == "audit" and a.failure is None]

    def test_redundancy_toggle_changes_only_weights(self, corpus):
        base = run(corpus)
        off = run(corpus, flags=AblationFlags(use_redundancy_penalty=False))
        pairs = self._audit_pairs(base, off)
        assert pairs
        for a, b in pairs:
            assert a.tau == b.tau
            assert (a.tokens_in, a.tokens_out) == (b.tokens_in, b.tokens_out)
            assert [c.doc_id for c in a.contributions] == [c.doc_id for c in b.contributions]
            for ca, cb in zip(a.contributions, b.contributions):
                assert ca.stance == cb.stance
                assert ca.quality == cb.quality
                assert cb.weight == 1.0
        assert any(c.weight < 1.0 for a, _ in pairs for c in a.contributions)

    def test_tokenless_evidence_keeps_every_weight_at_one(self, tmp_path):
        # No chunk holds a token of two or more characters, so with the
        # penalty on no chunk is redundant to another, equal texts included.
        manifest = make_manifest()
        for document in manifest["documents"]:
            for chunk in document["chunks"]:
                chunk["text"] = "- ! a"
        corpus = embed_chunks(make_corpus(tmp_path, manifest), HashEmbedder())
        audited = [record for record in run(corpus, scenarios=("TY3",)).records if record.failure is None]
        assert any(len(record.contributions) > 1 for record in audited)
        assert all(c.weight == 1.0 for record in audited for c in record.contributions)

    def test_threshold_toggle_changes_only_tau(self, corpus):
        base = run(corpus)
        off = run(corpus, flags=AblationFlags(use_dynamic_threshold=False))
        pairs = self._audit_pairs(base, off)
        assert pairs
        for a, b in pairs:
            assert b.tau == 0.5
            assert a.tau != 0.5
            assert a.hv == b.hv
            assert a.tallies == b.tallies
            assert a.contributions == b.contributions

    def test_hv_toggle_switches_to_unweighted_majority(self, corpus):
        base = run(corpus)
        off = run(corpus, flags=AblationFlags(use_hv_score=False))
        pairs = self._audit_pairs(base, off)
        assert pairs
        for a, b in pairs:
            assert b.hv is None and b.tau is None
            assert a.tallies == b.tallies
            assert a.contributions == b.contributions
            supports = sum(1 for c in b.contributions if c.stance == 1)
            refutes = sum(1 for c in b.contributions if c.stance == -1)
            expected = "Valid" if supports > refutes else "Invalid"
            assert b.verdict == expected


class TestReports:
    def test_metrics_recompute_from_records(self, corpus):
        report = run(corpus, methods=("audit", "ciber"))
        assert build_report(report.records).cells == report.cells

    def test_run_matrix_leaves_the_cells_to_the_first_read_and_build_report_computes_them(self, corpus):
        report = run(corpus)
        assert "cells" not in vars(report)
        assert "cells" in vars(build_report(report.records))

    def test_cell_metrics_match_hand_recount(self, corpus):
        report = run(corpus, scenarios=("TY5",))
        cell = report.cells[0]
        scored = [record for record in report.records if record.failure is None]
        cm = ConfusionMatrix.from_labels(
            [Verdict(record.verdict) for record in scored],
            [Verdict(record.ground_truth) for record in scored],
        )
        assert cell.macro_f1 == macro_f1(cm)
        assert cell.mcc == mcc(cm)
        assert cell.avg_tokens_in == sum(r.tokens_in for r in scored) / len(scored)

    def test_group_with_only_failures_reports_none(self):
        record = _record(
            verdict=None, hv=None, tau=None, tallies=None, contributions=(),
            tokens_in=0, tokens_out=0, tokens_approximate=False, failure="no evidence",
        )
        report = build_report([record])
        cell = report.cells[0]
        assert cell.n == 0 and cell.failures == 1
        assert cell.macro_f1 is None and cell.mcc is None

    def test_csv_shape(self, corpus):
        report = run(corpus, methods=("audit", "cot"))
        rows = csv_rows(report)
        assert rows[0].startswith("method,scenario,n,failures,macro_f1")
        assert len(rows) == 1 + len(report.cells)
        assert all(len(row.split(",")) == 9 for row in rows)

    def test_csv_leaves_missing_metrics_empty(self):
        record = _record(
            verdict=None, hv=None, tau=None, tallies=None, contributions=(),
            tokens_in=0, tokens_out=0, tokens_approximate=False, failure="no evidence",
        )
        row = csv_rows(build_report([record]))[1]
        assert ",,," in row or row.split(",")[4] == ""

    def test_render_table_layout(self, corpus):
        report = run(corpus, methods=("audit", "flare"))
        table = render_table(report)
        lines = table.splitlines()
        assert lines[0].startswith("method")
        assert "TY0" in lines[0] and "TY5" in lines[0]
        assert any(line.startswith("audit") for line in lines)
        assert any(line.startswith("flare") for line in lines)
        assert "token counts are approximate" in table
        assert "failed" not in table

    def test_render_table_counts_failed_records(self, corpus):
        answered = run(corpus, methods=("cot",), scenarios=("TY0",)).records
        failed = [dataclasses.replace(answered[0], verdict=None, failure="endpoint down")]
        only_failed = [dataclasses.replace(record, scenario="TY5", verdict=None, failure="down") for record in answered]
        table = render_table(build_report(failed + list(answered[1:]) + only_failed))
        row = next(line for line in table.splitlines() if line.startswith("cot"))
        assert len(answered) >= 2
        assert re.search(r"F1 \S+ MCC \S+ \(1 failed\)", row)
        assert f"- ({len(answered)} failed)" in row

    def test_report_json_mirrors_cells(self, corpus):
        report = run(corpus)
        payload = report.to_json()
        assert len(payload["cells"]) == len(report.cells)
        assert payload["cells"][0]["method"] == report.cells[0].method
