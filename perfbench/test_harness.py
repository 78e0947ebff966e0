"""Smoke tests of the benchmark harness: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import corpusgen  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
from claimaudit.audit import AuditRequest, PaperToAudit, build_audit_prompt  # noqa: E402
from claimaudit.corpus import HashEmbedder, embed_chunks, ingest, retrieve  # noqa: E402
from claimaudit.evaluation import dump_records  # noqa: E402
from claimaudit.threshold import constant_boldness_model  # noqa: E402
from fakellm import FakeLatencyClient, request_from_prompt  # noqa: E402

FIXTURE = json.loads((harness.FIXTURES / "manifest.json").read_text(encoding="utf-8"))


def load(manifest, tmp_path):
    path = tmp_path / "manifest.json"
    corpusgen.write_manifest(manifest, path)
    return ingest(path)


def test_generator_is_deterministic_in_its_seed():
    def build(seed):
        manifest = corpusgen.build_manifest(FIXTURE, scale=5, n_claims=20, seed=seed, pinned=True)
        return corpusgen.manifest_bytes(manifest)

    assert build(3) == build(3)
    assert build(3) != build(4)


def test_replica_zero_keeps_the_fixture_and_ids_stay_unique(tmp_path):
    manifest = corpusgen.build_manifest(FIXTURE, scale=3, n_claims=30, seed=0, pinned=True)
    texts = {chunk["id"]: chunk["text"] for doc in manifest["documents"] for chunk in doc["chunks"]}
    for doc in FIXTURE["documents"]:
        for chunk in doc["chunks"]:
            assert texts[chunk["id"] + "_r0"] == chunk["text"]
            assert texts[chunk["id"] + "_r1"] != chunk["text"]
    assert len(texts) == 3 * sum(len(doc["chunks"]) for doc in FIXTURE["documents"])
    corpus = load(manifest, tmp_path)
    assert len(corpus.claims) == 30 and len(corpus.evidence_map) == 30


def test_replicas_do_not_tie_in_retrieval(tmp_path):
    manifest = corpusgen.build_manifest(FIXTURE, scale=20, n_claims=10, seed=1, pinned=False)
    corpus = embed_chunks(load(manifest, tmp_path), HashEmbedder(dim=64, seed=0))
    for claim in corpus.claims.values():
        top = retrieve(claim, corpus, 10)
        assert len({chunk.text for chunk in top}) >= 9


def test_fake_client_rebuilds_the_audit_request():
    doc = ingest(harness.FIXTURES / "manifest.json").document("D01")
    req = AuditRequest(
        claim_text='A claim with "quotes" in it.',
        papers=(PaperToAudit(paper_id="D01", analysis=doc.analysis, chunks=tuple(c.text for c in doc.chunks)),),
    )
    assert request_from_prompt(build_audit_prompt(req)) == req


def test_live_path_with_fake_client_equals_mock_path(tmp_path):
    corpus = load(corpusgen.build_manifest(FIXTURE, scale=1, n_claims=10, seed=2, pinned=True), tmp_path)
    cfg = harness.fixture_config()
    ridge = constant_boldness_model()
    client = FakeLatencyClient(2, 0.0)
    mock = harness.verify(corpus, cfg.hv, ridge, cfg, 2, None)
    live = harness.verify(corpus, cfg.hv, ridge, cfg, 2, client)
    assert dump_records(live.records) == dump_records(mock.records)
    assert client.calls["batch_audit_response"] == 40


def test_output_checks_reject_a_verdict_against_the_threshold():
    corpus = ingest(harness.FIXTURES / "manifest.json")
    cfg = harness.fixture_config()
    records = harness.verify(corpus, cfg.hv, constant_boldness_model(), cfg, 7, None).records
    claim_ids = list(corpus.claims)
    assert harness.check_records(records, claim_ids, frozenset()) == 0
    audit = next(i for i, r in enumerate(records) if r.method == "audit" and r.hv is not None)
    flipped = "Invalid" if records[audit].verdict == "Valid" else "Valid"
    tampered = records[:audit] + (replace(records[audit], verdict=flipped),) + records[audit + 1 :]
    with pytest.raises(harness.CheckFailed):
        harness.check_records(tampered, claim_ids, frozenset())
    with pytest.raises(harness.CheckFailed):
        harness.check_records(records[1:], claim_ids, frozenset())


def test_shipped_fixtures_keep_their_output_bytes(tmp_path):
    name, seed = harness.FIXTURE_REFERENCE
    assert harness.fixture_digests(tmp_path / "fixtures") == harness.stored_reference(name, seed)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        tracing.Span("root", 0.0, 10.0, None, None),
        tracing.Span("a", 1.0, 3.0, 0, None),
        tracing.Span("b", 2.0, 4.0, 0, None),  # overlaps a: the union is 1..4
        tracing.Span("leaf", 2.5, 3.5, 2, None),
        tracing.Span("c", 6.0, 7.0, 0, None),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.0])
    stats = tracing.summarize(spans)
    assert stats["root"].total_s == pytest.approx(10.0)
    assert stats["b"].self_s == pytest.approx(1.0)


def test_wrapped_calls_nest_and_inherit_the_claim_id():
    tracer = tracing.Tracer()
    claim = next(iter(ingest(harness.FIXTURES / "manifest.json").claims.values()))
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda _claim: inner(), "outer")
    outer(claim)
    assert [(s.name, s.parent, s.claim_id) for s in tracer.spans] == [
        ("outer", None, claim.id),
        ("inner", 0, claim.id),
    ]
    own = tracing.self_times(tracer.spans)
    assert own[0] == pytest.approx(tracer.spans[0].end - tracer.spans[0].start - own[1])
