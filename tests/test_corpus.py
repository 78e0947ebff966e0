"""Corpus store tests: ingestion integrity, embedding, retrieval, persistence."""

import json
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

from claimaudit._rng import fnv1a64
from claimaudit import corpus as corpus_module
from claimaudit.core import CheckId, SchemaError, UncertainGroundTruthError, Verdict
from claimaudit.corpus import (
    Corpus,
    CorpusIntegrityError,
    EmbeddingError,
    EVIDENCE_FROM_MAP,
    EVIDENCE_FROM_RETRIEVAL,
    HashEmbedder,
    SCENARIO_LABELS,
    embed_chunks,
    evidence_for_claim,
    filter_scenario,
    ingest,
    load_corpus,
    load_embeddings,
    n_evidence_docs,
    retrieve,
    save_corpus,
)
from claimaudit.redundancy import tokenize

from oracles import rank_by_cosine
from test_core import make_analysis, make_claim

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DUPLICATE_TEXT = "Duplicate summary of the antipyretic trial."


def _doc(doc_id: str, texts: list[str], applicable: set[CheckId], retracted: bool = False) -> dict:
    return {
        "id": doc_id,
        "title": f"Title of {doc_id}",
        "source_uri": f"https://example.org/{doc_id}",
        "retracted": retracted,
        "analysis": make_analysis(applicable).to_json(),
        "chunks": [
            {"id": f"{doc_id}-c{i}", "ordinal": i, "text": text} for i, text in enumerate(texts)
        ],
    }


def make_manifest() -> dict:
    """Small four-document corpus shared by the store and matrix tests."""
    return {
        "documents": [
            _doc(
                "D01",
                ["Aspirin reduces fever in adults within hours.", DUPLICATE_TEXT],
                {CheckId.C1, CheckId.C6},
            ),
            _doc(
                "D02",
                [DUPLICATE_TEXT, "A randomized trial measured aspirin and fever."],
                {CheckId.C1, CheckId.C2, CheckId.C6},
            ),
            _doc(
                "D03",
                ["Zebra migration patterns across the savanna.", "Rainfall shapes grazing routes for herds."],
                {CheckId.C6},
            ),
            _doc(
                "D04",
                ["Retracted report on aspirin dosing.", "Withdrawn after data concerns emerged."],
                {CheckId.C1},
                retracted=True,
            ),
        ],
        "claims": [
            make_claim(id="K01", text="Aspirin reduces fever in adults.", ground_truth=Verdict.VALID).to_json(),
            make_claim(
                id="K02",
                text="Aspirin lowers body temperature during fever.",
                ground_truth=Verdict.INVALID,
            ).to_json(),
        ],
        "scenarios": {
            "TY0": ["D01", "D04"],
            "TY1": ["D01", "D02", "D04"],
            "TY3": ["D01", "D02", "D03", "D04"],
            "TY5": ["D01", "D02", "D03"],
        },
        "evidence_map": {"K01": ["D01-c0", "D02-c1", "D04-c0"]},
    }


def write_manifest(tmp_path, payload: dict | None = None):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(payload if payload is not None else make_manifest()), encoding="utf-8")
    return path


def make_corpus(tmp_path, payload: dict | None = None):
    return ingest(write_manifest(tmp_path, payload))


class TestIngest:
    def test_counts_and_accessors(self, tmp_path):
        corpus = make_corpus(tmp_path)
        assert len(corpus.documents) == 4
        assert len(corpus.all_chunks()) == 8
        assert len(corpus.claims) == 2
        assert set(corpus.scenarios) == set(SCENARIO_LABELS)
        assert corpus.document("D01").title == "Title of D01"
        assert corpus.claim("K02").ground_truth is Verdict.INVALID
        assert corpus.scenario("TY0").member_doc_ids == frozenset({"D01", "D04"})
        assert corpus.chunk("D02-c1").ordinal == 1

    def test_unknown_ids_raise(self, tmp_path):
        corpus = make_corpus(tmp_path)
        with pytest.raises(CorpusIntegrityError, match="D99"):
            corpus.document("D99")
        with pytest.raises(CorpusIntegrityError, match="K99"):
            corpus.claim("K99")
        with pytest.raises(CorpusIntegrityError, match="TY9"):
            corpus.scenario("TY9")
        with pytest.raises(CorpusIntegrityError, match="c9"):
            corpus.chunk("D01-c9")

    def test_ingest_is_idempotent(self, tmp_path):
        path = write_manifest(tmp_path)
        assert ingest(path) == ingest(path)

    def test_invalid_json_names_path(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CorpusIntegrityError, match="manifest.json"):
            ingest(path)

    def test_missing_and_unknown_manifest_keys(self, tmp_path):
        payload = make_manifest()
        del payload["claims"]
        with pytest.raises(CorpusIntegrityError, match="claims"):
            make_corpus(tmp_path, payload)
        payload = make_manifest()
        payload["extra"] = []
        with pytest.raises(CorpusIntegrityError, match="extra"):
            make_corpus(tmp_path, payload)

    def test_duplicate_document_id(self, tmp_path):
        payload = make_manifest()
        payload["documents"].append(payload["documents"][0])
        with pytest.raises(CorpusIntegrityError, match="duplicate document"):
            make_corpus(tmp_path, payload)

    def test_duplicate_chunk_id(self, tmp_path):
        payload = make_manifest()
        payload["documents"][1]["chunks"][0]["id"] = "D01-c0"
        with pytest.raises(CorpusIntegrityError, match="duplicate chunk"):
            make_corpus(tmp_path, payload)

    def test_duplicate_claim_id(self, tmp_path):
        payload = make_manifest()
        payload["claims"].append(payload["claims"][0])
        with pytest.raises(CorpusIntegrityError, match="duplicate claim"):
            make_corpus(tmp_path, payload)

    def test_non_dense_ordinals(self, tmp_path):
        payload = make_manifest()
        payload["documents"][0]["chunks"][1]["ordinal"] = 2
        with pytest.raises(CorpusIntegrityError, match="dense"):
            make_corpus(tmp_path, payload)

    @pytest.mark.parametrize(
        "spoil,needle",
        [
            (lambda m: m["documents"][0]["analysis"]["veritable_check_signals"]["C1"].update(is_applicable="false"),
             "veritable_check_signals: C1: is_applicable: expected true or false, got 'false'"),
            (lambda m: m["documents"][0].update(retracted="false"),
             "document 'D01': retracted: expected true or false, got 'false'"),
            (lambda m: m["documents"][0]["chunks"][0].update(ordinal=0.0),
             r"document 'D01': chunks\[0\]: ordinal: expected an integer, got 0.0"),
            (lambda m: m["documents"][0]["chunks"][0].update(ordinal=False),
             r"document 'D01': chunks\[0\]: ordinal: expected an integer, got False"),
            (lambda m: m["documents"][0]["chunks"][0].update(ordinal=-1),
             r"document 'D01': chunks\[0\]: ordinal must be nonnegative, got -1"),
            (lambda m: m["claims"][0].update(specificity=7.9), "claim 'K01': specificity: expected an integer, got 7.9"),
            (lambda m: m["claims"][0].update(testability=True), "claim 'K01': testability: expected an integer, got True"),
            (lambda m: m["documents"][0].update(id=7), "document id: expected a string, got 7"),
            (lambda m: m["documents"][0].update(title=None), "'D01': title: expected a string, got None"),
            (lambda m: m["documents"][0].update(source_uri=5), "'D01': source_uri: expected a string, got 5"),
            (lambda m: m["documents"][0]["chunks"][0].update(id=3), r"'D01': chunks\[0\]: id: expected a string, got 3"),
            (lambda m: m["documents"][0]["chunks"][0].update(text=123),
             r"'D01': chunks\[0\]: text: expected a string, got 123"),
            (lambda m: m["claims"][0].update(id=9), "claim id: expected a string, got 9"),
            (lambda m: m["claims"][0].update(text=5), "'K01': text: expected a string, got 5"),
            (lambda m: m["claims"][0].update(topic=None), "'K01': topic: expected a string, got None"),
            (lambda m: m["claims"][0].update(claim_type=5), "'K01': claim_type: expected a string, got 5"),
            (lambda m: m["claims"][0].update(required_standard="Weak"), "'K01': required_standard: expected one of"),
            (lambda m: m["claims"][0].update(ground_truth="Maybe"), "'K01': ground_truth: expected one of"),
            (lambda m: m["documents"][0]["analysis"]["veritable_check_signals"]["C1"].update(objective_analysis=None),
             "C1: objective_analysis: expected a string, got None"),
            (lambda m: m["documents"][0]["analysis"]["global_integrity_signals"].update(data_availability=7),
             "data_availability: expected a string, got 7"),
            (lambda m: m["claims"].__setitem__(0, ["not", "an", "object"]),
             r"claim payload: expected an object, got \['not', 'an', 'object'\]"),
            (lambda m: m["documents"].__setitem__(0, ["D01"]), r"document payload: expected an object, got \['D01'\]"),
            (lambda m: m["documents"][0]["chunks"].__setitem__(0, "D01-c0"),
             r"document 'D01': chunks\[0\]: expected an object, got 'D01-c0'"),
            (lambda m: m.update(scenarios=list(SCENARIO_LABELS)), "scenarios: expected an object, got"),
            (lambda m: m.update(evidence_map=[]), r"evidence_map: expected an object, got \[\]"),
            (lambda m: m["scenarios"].update(TY0=5), "scenarios.TY0: expected a list, got 5"),
            (lambda m: m["documents"][0].update(chunks=7), "document 'D01': chunks: expected a list, got 7"),
            (lambda m: m["evidence_map"].update(K01=3), "evidence_map.K01: expected a list, got 3"),
            (lambda m: m.update(documents={}), r"documents: expected a list, got \{\}"),
            (lambda m: m["scenarios"]["TY3"].append(1), r"scenarios.TY3\[\d+\]: expected a string, got 1"),
        ],
        ids=[
            "is_applicable", "retracted", "float-ordinal", "bool-ordinal", "negative-ordinal", "float-specificity",
            "bool-testability",
            "int-document-id", "null-title", "int-source-uri", "int-chunk-id", "int-chunk-text", "int-claim-id",
            "int-claim-text", "null-topic", "int-claim-type", "unknown-standard", "unknown-ground-truth",
            "null-objective-analysis", "int-data-availability", "list-claim", "list-document", "string-chunk",
            "list-scenarios", "list-evidence-map", "int-scenario", "int-chunks", "int-evidence-list",
            "object-documents", "int-scenario-member",
        ],
    )
    def test_mistyped_field_is_rejected_by_name(self, tmp_path, spoil, needle):
        payload = make_manifest()
        spoil(payload)
        with pytest.raises(ValueError, match=needle):
            make_corpus(tmp_path, payload)

    # In a store of many documents, an error inside one's analysis is found only by its id.
    @pytest.mark.parametrize(
        ("spoil", "message"),
        [
            (lambda a: a["global_integrity_signals"].pop("data_availability"),
             ": global_integrity_signals: data_availability: missing"),
            (lambda a: a["veritable_check_signals"]["C2"].update(is_applicable="yes"),
             ": veritable_check_signals: C2: is_applicable: expected true or false, got 'yes'"),
            (lambda a: a.update(extra=1), " has unknown fields: ['extra']"),
            (lambda a: a["veritable_check_signals"]["C5"].update(is_applicable=False, objective_analysis="weak"),
             ": veritable_check_signals: C5: inapplicable checks must carry objective_analysis \"N/A\", got 'weak'"),
        ],
        ids=["missing-field", "string-applicability", "unknown-key", "own-check"],
    )
    def test_an_analysis_error_names_its_document(self, tmp_path, spoil, message):
        payload = make_manifest()
        document = next(document for document in payload["documents"] if document["id"] == "D04")
        spoil(document["analysis"])
        with pytest.raises(CorpusIntegrityError, match="^" + re.escape("document 'D04': analysis" + message) + "$"):
            make_corpus(tmp_path, payload)

    def test_scenario_unknown_document(self, tmp_path):
        payload = make_manifest()
        payload["scenarios"]["TY3"].append("D99")
        with pytest.raises(CorpusIntegrityError, match="D99"):
            make_corpus(tmp_path, payload)

    def test_missing_scenario_label(self, tmp_path):
        payload = make_manifest()
        del payload["scenarios"]["TY5"]
        with pytest.raises(CorpusIntegrityError, match="TY5"):
            make_corpus(tmp_path, payload)

    def test_extra_scenario_label(self, tmp_path):
        payload = make_manifest()
        payload["scenarios"]["TY9"] = []
        with pytest.raises(CorpusIntegrityError, match="TY9"):
            make_corpus(tmp_path, payload)

    def test_nesting_invariant_ty0_in_ty1(self, tmp_path):
        payload = make_manifest()
        payload["scenarios"]["TY0"] = ["D01", "D02", "D04"]
        payload["scenarios"]["TY1"] = ["D01", "D04"]
        with pytest.raises(CorpusIntegrityError, match="TY0.*TY1.*D02"):
            make_corpus(tmp_path, payload)

    def test_nesting_invariant_ty1_in_ty3(self, tmp_path):
        payload = make_manifest()
        payload["scenarios"]["TY3"] = ["D01", "D02"]
        with pytest.raises(CorpusIntegrityError, match="TY1.*TY3"):
            make_corpus(tmp_path, payload)

    def test_ty5_excludes_retracted_ty0_documents(self, tmp_path):
        payload = make_manifest()
        payload["scenarios"]["TY5"] = ["D01", "D02", "D03", "D04"]
        with pytest.raises(CorpusIntegrityError, match="D04"):
            make_corpus(tmp_path, payload)

    def test_evidence_map_unknown_claim(self, tmp_path):
        payload = make_manifest()
        payload["evidence_map"]["K99"] = ["D01-c0"]
        with pytest.raises(CorpusIntegrityError, match="K99"):
            make_corpus(tmp_path, payload)

    def test_evidence_map_unknown_chunk(self, tmp_path):
        payload = make_manifest()
        payload["evidence_map"]["K01"] = ["D01-c7"]
        with pytest.raises(CorpusIntegrityError, match="D01-c7"):
            make_corpus(tmp_path, payload)

    def test_evidence_map_chunk_pinned_twice(self, tmp_path):
        payload = make_manifest()
        payload["evidence_map"]["K01"].append("D01-c0")
        with pytest.raises(CorpusIntegrityError, match="^evidence_map.K01: chunk 'D01-c0' is pinned twice$"):
            make_corpus(tmp_path, payload)


class TestHashEmbedder:
    def test_deterministic_across_instances(self):
        a = HashEmbedder().embed("aspirin reduces fever")
        b = HashEmbedder().embed("aspirin reduces fever")
        assert a == b

    def test_unit_norm_for_token_bearing_text(self):
        vector = HashEmbedder().embed("aspirin reduces fever in adults")
        assert math.isclose(math.hypot(*vector), 1.0, abs_tol=1e-12)

    def test_dimension_is_respected(self):
        assert len(HashEmbedder(dim=16).embed("aspirin")) == 16

    def test_tokenless_text_embeds_to_zero(self):
        assert HashEmbedder().embed("") == (0.0,) * 64
        assert HashEmbedder().embed("a") == (0.0,) * 64

    def test_seed_changes_vectors(self):
        assert HashEmbedder(seed=0).embed("aspirin") != HashEmbedder(seed=1).embed("aspirin")

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError, match="positive"):
            HashEmbedder(dim=0)

    @pytest.mark.parametrize(("dim", "seed"), [(64, 0), (16, 5)])
    def test_reused_instance_matches_fresh_instances_and_the_hash_reference(self, dim, seed):
        def reference(text):
            values = [0.0] * dim
            for token in tokenize(text):
                token_hash = fnv1a64(f"{seed}\x1f{token}")
                values[token_hash % dim] += 1.0 if token_hash >> 63 == 0 else -1.0
            norm = math.sqrt(sum(value * value for value in values))
            return tuple(values) if norm == 0.0 else tuple(value / norm for value in values)

        texts = ["aspirin reduces fever", "fever fever in adults", "", "adults given aspirin reduces fever twice"]
        embedder = HashEmbedder(dim=dim, seed=seed)
        for order in (texts, texts[::-1]):
            reused = [embedder.embed(text) for text in order]
            assert reused == [HashEmbedder(dim=dim, seed=seed).embed(text) for text in order]
            assert reused == [reference(text) for text in order]


class _WrongDimEmbedder:
    dim = 8

    def embed(self, text):
        return (1.0,) * 4


class _FailingEmbedder:
    dim = 4

    def embed(self, text):
        raise RuntimeError("backend down")


class _NonFiniteEmbedder:
    dim = 4

    def embed(self, text):
        return (0.5, math.inf, 0.0, 0.0) if "savanna" in text else (1.0, 0.0, 0.0, 0.0)


class TestEmbedChunks:
    def test_returns_new_embedded_corpus(self, tmp_path):
        corpus = make_corpus(tmp_path)
        embedded = embed_chunks(corpus, HashEmbedder())
        assert corpus.vectors == {}
        assert list(embedded.vectors) == [chunk.id for chunk in corpus.all_chunks()]
        assert all(len(vector) == 64 for vector in embedded.vectors.values())
        assert embedded.embedder is not None

    def test_vectors_attach_without_rebuilding_documents(self, tmp_path):
        corpus = make_corpus(tmp_path)
        embedded = embed_chunks(corpus, HashEmbedder())
        assert embedded.documents is corpus.documents
        save_corpus(embedded, tmp_path / "store")
        bare = load_corpus(tmp_path / "store", embeddings=False)
        assert bare.vectors == {}
        assert load_embeddings(bare, tmp_path / "store").documents is bare.documents

    def test_embedding_twice_is_stable(self, tmp_path):
        corpus = make_corpus(tmp_path)
        assert embed_chunks(corpus, HashEmbedder()) == embed_chunks(corpus, HashEmbedder())

    def test_dimension_mismatch_raises(self, tmp_path):
        with pytest.raises(EmbeddingError, match="dimension"):
            embed_chunks(make_corpus(tmp_path), _WrongDimEmbedder())

    def test_failed_chunks_are_collected(self, tmp_path):
        with pytest.raises(EmbeddingError, match="D01-c0"):
            embed_chunks(make_corpus(tmp_path), _FailingEmbedder())

    def test_non_finite_entry_fails_its_chunk(self, tmp_path, caplog):
        with pytest.raises(EmbeddingError, match=r"failed to embed chunks: \['D03-c0'\]"):
            embed_chunks(make_corpus(tmp_path), _NonFiniteEmbedder())
        assert "expected finite numbers, got inf" in caplog.text

    def test_tokenless_chunk_warns_and_keeps_zero_vector(self, tmp_path, caplog):
        payload = make_manifest()
        payload["documents"][2]["chunks"][1]["text"] = "?"
        corpus = make_corpus(tmp_path, payload)
        with caplog.at_level("WARNING"):
            embedded = embed_chunks(corpus, HashEmbedder())
        assert "zero embedding" in caplog.text
        assert list(embedded.vectors["D03-c1"]) == [0.0] * 64


def replicated_fixture_manifest(replicas: int) -> dict:
    """The shipped fixture corpus `replicas` times over, for retrieval tests.

    Replica r suffixes every document and chunk id with `_r<r>` and keeps
    the texts, so every chunk text has exact duplicates. One chunk and one
    extra claim are tokenless, so their embeddings are zero vectors. The
    evidence map is empty: every claim takes the retrieval path.
    """
    fixture = json.loads((FIXTURES / "manifest.json").read_text(encoding="utf-8"))
    documents = [
        {
            **doc,
            "id": f"{doc['id']}_r{replica}",
            "chunks": [{**chunk, "id": f"{chunk['id']}_r{replica}"} for chunk in doc["chunks"]],
        }
        for replica in range(replicas)
        for doc in fixture["documents"]
    ]
    documents[-1]["chunks"][0]["text"] = "?"
    tokenless_claim = {**fixture["claims"][0], "id": "K_TOKENLESS", "text": "?"}
    scenarios = {
        label: [f"{doc_id}_r{replica}" for replica in range(replicas) for doc_id in members]
        for label, members in fixture["scenarios"].items()
    }
    return {
        "documents": documents,
        "claims": [*fixture["claims"], tokenless_claim],
        "scenarios": scenarios,
        "evidence_map": {},
    }


class TestRetrieve:
    @pytest.fixture()
    def embedded(self, tmp_path):
        return embed_chunks(make_corpus(tmp_path), HashEmbedder())

    def test_requires_embeddings(self, tmp_path):
        corpus = make_corpus(tmp_path)
        claim = corpus.claim("K02")
        with pytest.raises(EmbeddingError, match="embedder"):
            retrieve(claim, corpus)

    def test_rejects_nonpositive_k(self, embedded):
        with pytest.raises(ValueError, match="positive"):
            retrieve(embedded.claim("K02"), embedded, k=0)

    def test_deterministic(self, embedded):
        first = retrieve(embedded.claim("K02"), embedded, k=5)
        second = retrieve(embedded.claim("K02"), embedded, k=5)
        assert [c.id for c in first] == [c.id for c in second]

    def test_requires_every_chunk_embedded(self, tmp_path):
        corpus = replace(make_corpus(tmp_path), embedder=HashEmbedder())
        with pytest.raises(EmbeddingError, match="missing embeddings"):
            retrieve(corpus.claim("K02"), corpus)

    def test_a_chunk_without_a_vector_fails_retrieval(self, embedded):
        partial = replace(embedded, vectors={k: v for k, v in embedded.vectors.items() if k != "D02-c1"})
        with pytest.raises(EmbeddingError, match=r"chunks are missing embeddings: \['D02-c1'\]"):
            retrieve(partial.claim("K02"), partial)

    def test_query_dimension_mismatch_names_both_dimensions(self, embedded):
        reconfigured = replace(embedded, embedder=HashEmbedder(dim=32))
        with pytest.raises(EmbeddingError, match="dimension 32 .* dimension 64"):
            retrieve(reconfigured.claim("K02"), reconfigured)

    def test_mixed_chunk_dimensions_in_a_store_are_rejected(self, embedded, tmp_path):
        save_corpus(embedded, tmp_path / "store")
        path = tmp_path / "store" / "embeddings.jsonl"
        first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(first)
        record["embedding"] = record["embedding"][:32]
        path.write_text(json.dumps(record) + "\n" + "".join(rest), encoding="utf-8")
        loaded = replace(load_corpus(tmp_path / "store"), embedder=HashEmbedder())
        with pytest.raises(EmbeddingError, match=r"mixed dimensions \[32, 64\]"):
            retrieve(loaded.claim("K02"), loaded)

    def test_matches_bruteforce_ranking(self, embedded):
        claim = embedded.claim("K02")
        expected = rank_by_cosine(HashEmbedder().embed(claim.text), embedded.all_chunks(), embedded.vectors)
        got = retrieve(claim, embedded, k=5)
        assert [c.id for c in got] == [chunk_id for chunk_id, _ in expected[:5]]

    def test_full_ranking_is_bit_identical_to_the_oracle(self, tmp_path):
        corpus = embed_chunks(make_corpus(tmp_path, replicated_fixture_manifest(4)), HashEmbedder())
        chunks = corpus.all_chunks()
        assert sum(1 for vector in corpus.vectors.values() if not any(vector)) == 1
        matrix = corpus._chunk_matrix
        for claim in corpus.claims.values():
            query = HashEmbedder().embed(claim.text)
            scores = dict(zip((chunk.id for chunk in matrix.chunks), matrix.cosine(query)))
            got = [(chunk.id, scores[chunk.id].hex()) for chunk in retrieve(claim, corpus, k=len(chunks))]
            expected = rank_by_cosine(query, chunks, corpus.vectors)
            assert got == [(chunk_id, score.hex()) for chunk_id, score in expected], claim.id

    def test_matrix_is_built_once_per_handle(self, embedded, monkeypatch):
        calls = _count_all_chunks(monkeypatch)
        for _ in range(5):
            retrieve(embedded.claim("K02"), embedded, k=3)
        assert len(calls) == 1

    def test_identical_texts_tie_break_by_doc_then_ordinal(self, embedded):
        claim = make_claim(id="KQ", text=DUPLICATE_TEXT)
        got = retrieve(claim, embedded, k=2)
        assert [c.id for c in got] == ["D01-c1", "D02-c0"]

    def test_k_saturates_at_corpus_size(self, embedded):
        got = retrieve(embedded.claim("K02"), embedded, k=100)
        assert len(got) == 8
        assert len({c.id for c in got}) == 8

    def test_exact_overlap_ranks_first(self, embedded):
        claim = make_claim(id="KQ", text="Aspirin reduces fever in adults within hours.")
        got = retrieve(claim, embedded, k=1)
        assert got[0].id == "D01-c0"


def _count_all_chunks(monkeypatch) -> list[None]:
    """Record one entry per Corpus.all_chunks call from here on."""
    calls: list[None] = []
    original = Corpus.all_chunks

    def counting(self):
        calls.append(None)
        return original(self)

    monkeypatch.setattr(Corpus, "all_chunks", counting)
    return calls


class TestChunkLookup:
    def test_index_is_built_once_per_handle(self, tmp_path, monkeypatch):
        corpus = make_corpus(tmp_path)
        ids = [chunk.id for chunk in corpus.all_chunks()]
        calls = _count_all_chunks(monkeypatch)
        for _ in range(3):
            assert [corpus.chunk(chunk_id).id for chunk_id in ids] == ids
        with pytest.raises(CorpusIntegrityError, match="GHOST"):
            corpus.chunk("GHOST")
        assert len(calls) == 1


class TestEvidenceForClaim:
    def test_pinned_claim_uses_evidence_map(self, tmp_path):
        corpus = make_corpus(tmp_path)
        chunks, mode = evidence_for_claim(corpus, corpus.claim("K01"))
        assert mode == EVIDENCE_FROM_MAP
        assert [c.id for c in chunks] == ["D01-c0", "D02-c1", "D04-c0"]

    def test_unpinned_claim_falls_back_to_retrieval(self, tmp_path):
        corpus = embed_chunks(make_corpus(tmp_path), HashEmbedder())
        chunks, mode = evidence_for_claim(corpus, corpus.claim("K02"), k=3)
        assert mode == EVIDENCE_FROM_RETRIEVAL
        assert len(chunks) == 3

    def test_n_evidence_docs_counts_distinct_documents(self, tmp_path):
        corpus = make_corpus(tmp_path)
        chunks, _ = evidence_for_claim(corpus, corpus.claim("K01"))
        assert n_evidence_docs(chunks) == len({c.doc_id for c in chunks}) == 3
        assert n_evidence_docs([]) == 0


class TestFilterScenario:
    def test_keeps_members_in_order(self, tmp_path):
        corpus = make_corpus(tmp_path)
        chunks, _ = evidence_for_claim(corpus, corpus.claim("K01"))
        kept = filter_scenario(chunks, corpus.scenario("TY0"))
        assert [c.id for c in kept] == ["D01-c0", "D04-c0"]

    def test_full_scenario_keeps_everything(self, tmp_path):
        corpus = make_corpus(tmp_path)
        chunks = corpus.all_chunks()
        assert filter_scenario(chunks, corpus.scenario("TY3")) == list(chunks)
        assert [c.doc_id for c in filter_scenario(chunks, corpus.scenario("TY5"))] == [
            "D01",
            "D01",
            "D02",
            "D02",
            "D03",
            "D03",
        ]


class TestSaveLoad:
    def test_round_trip_without_embeddings(self, tmp_path):
        corpus = make_corpus(tmp_path)
        save_corpus(corpus, tmp_path / "store")
        assert load_corpus(tmp_path / "store") == corpus
        assert [path.name for path in (tmp_path / "store").iterdir()] == ["manifest.json"]

    def test_store_manifest_is_an_ingestible_manifest(self, tmp_path):
        save_corpus(make_corpus(tmp_path), tmp_path / "store")
        assert ingest(tmp_path / "store" / "manifest.json") == load_corpus(tmp_path / "store")

    def test_round_trip_preserves_embeddings(self, tmp_path):
        corpus = embed_chunks(make_corpus(tmp_path), HashEmbedder())
        save_corpus(corpus, tmp_path / "store")
        loaded = load_corpus(tmp_path / "store")
        assert loaded == corpus
        assert loaded.vectors["D01-c0"] == corpus.vectors["D01-c0"]
        assert sorted(path.name for path in (tmp_path / "store").iterdir()) == ["embeddings.jsonl", "manifest.json"]

    def test_a_failed_vector_write_leaves_the_earlier_store_whole(self, tmp_path, monkeypatch):
        store = tmp_path / "store"
        save_corpus(embed_chunks(make_corpus(tmp_path), HashEmbedder()), store)
        before = {path.name: path.read_bytes() for path in store.iterdir()}
        payload = make_manifest()
        payload["documents"][0]["chunks"][0]["text"] = "Aspirin changes nothing."
        changed = embed_chunks(make_corpus(tmp_path, payload), HashEmbedder())

        def fail(corpus, directory):
            raise OSError("disk full")

        monkeypatch.setattr(corpus_module, "save_embeddings", fail)
        with pytest.raises(OSError, match="disk full"):
            save_corpus(changed, store)
        assert {path.name: path.read_bytes() for path in store.iterdir()} == before

    def test_store_files_equal_the_whole_payload_dumps(self, tmp_path):
        corpus = embed_chunks(ingest(FIXTURES / "manifest.json"), HashEmbedder())
        save_corpus(corpus, tmp_path / "store")
        manifest = {
            "documents": [
                {
                    "id": doc.id,
                    "title": doc.title,
                    "source_uri": doc.source_uri,
                    "retracted": doc.retracted,
                    "analysis": doc.analysis.to_json(),
                    "chunks": [{"id": c.id, "ordinal": c.ordinal, "text": c.text} for c in doc.chunks],
                }
                for doc in corpus.documents.values()
            ],
            "claims": [claim.to_json() for claim in corpus.claims.values()],
            "scenarios": {label: sorted(corpus.scenarios[label].member_doc_ids) for label in SCENARIO_LABELS},
            "evidence_map": {claim_id: list(ids) for claim_id, ids in corpus.evidence_map.items()},
        }
        embeddings = "".join(
            json.dumps({"chunk_id": chunk.id, "embedding": list(corpus.vectors[chunk.id])}, sort_keys=True) + "\n"
            for chunk in corpus.all_chunks()
        )
        assert (tmp_path / "store" / "manifest.json").read_text(encoding="utf-8") == json.dumps(
            manifest, sort_keys=True, separators=(",", ":")
        )
        assert (tmp_path / "store" / "embeddings.jsonl").read_text(encoding="utf-8") == embeddings

    def test_vectors_are_read_only_and_equal_by_value(self, tmp_path):
        corpus = make_corpus(tmp_path)
        embedded = embed_chunks(corpus, HashEmbedder())
        save_corpus(embedded, tmp_path / "store")
        loaded = load_corpus(tmp_path / "store")
        for vector in (embedded.vectors["D01-c0"], loaded.vectors["D01-c0"]):
            assert list(vector) == list(HashEmbedder().embed(corpus.chunk("D01-c0").text))
            with pytest.raises(TypeError):
                vector[0] = 1.0
        assert loaded.vectors["D01-c0"] == embedded.vectors["D01-c0"]
        assert loaded.vectors["D01-c0"] != loaded.vectors["D01-c1"]

    def test_load_keeps_file_order_and_ignores_unknown_chunk_ids(self, tmp_path):
        corpus = embed_chunks(make_corpus(tmp_path), HashEmbedder())
        save_corpus(corpus, tmp_path / "store")
        path = tmp_path / "store" / "embeddings.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        ghost = json.dumps({"chunk_id": "GHOST-c0", "embedding": [1.0] * 64}) + "\n"
        path.write_text("".join([lines[-1], ghost, *lines[:-1]]), encoding="utf-8")
        loaded = load_corpus(tmp_path / "store")
        ids = [chunk.id for chunk in corpus.all_chunks()]
        assert list(loaded.vectors) == [ids[-1], *ids[:-1]]
        assert loaded.vectors == corpus.vectors

    def test_blank_embedding_line_is_skipped(self, tmp_path):
        corpus = embed_chunks(make_corpus(tmp_path), HashEmbedder())
        save_corpus(corpus, tmp_path / "store")
        path = tmp_path / "store" / "embeddings.jsonl"
        first, rest = path.read_text(encoding="utf-8").split("\n", 1)
        path.write_text(f"{first}\n\n{rest}", encoding="utf-8")
        assert load_corpus(tmp_path / "store") == corpus

    @pytest.mark.parametrize(
        "line",
        [
            {"chunk_id": "D01-c1"},
            {"chunk_id": "D01-c1", "embedding": 5},
            {"chunk_id": "D01-c1", "embedding": ["0.5"] + [0.0] * 63},
            {"chunk_id": "D01-c1", "embedding": [True] + [0.0] * 63},
            {"chunk_id": "D01-c1", "embedding": [10**400] + [0.0] * 63},
            {"chunk_id": "D01-c1", "embedding": [math.nan] + [0.0] * 63},
            {"chunk_id": "D01-c1", "embedding": [0.0] * 63 + [-math.inf]},
        ],
        ids=["no-embedding", "not-a-list", "string-entry", "bool-entry", "too-large-entry", "nan-entry", "inf-entry"],
    )
    def test_malformed_embedding_line_is_named(self, tmp_path, line):
        save_corpus(embed_chunks(make_corpus(tmp_path), HashEmbedder()), tmp_path / "store")
        path = tmp_path / "store" / "embeddings.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = json.dumps(line)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="embeddings.jsonl:2: bad embedding"):
            load_corpus(tmp_path / "store")

    def test_a_chunk_id_on_two_lines_is_named(self, tmp_path):
        # A dict of the lines would keep the later vector for the first chunk and none for the second.
        save_corpus(embed_chunks(make_corpus(tmp_path), HashEmbedder()), tmp_path / "store")
        path = tmp_path / "store" / "embeddings.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])["chunk_id"]
        lines[2] = json.dumps({**json.loads(lines[2]), "chunk_id": first})
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = f"embeddings.jsonl:3: bad embedding: chunk_id: {first!r} has an embedding on an earlier line"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_corpus(tmp_path / "store")

    @pytest.mark.parametrize("chunk_id", [["D01-c1"], 7], ids=["list-id", "int-id"])
    def test_mistyped_chunk_id_is_named(self, tmp_path, chunk_id):
        save_corpus(embed_chunks(make_corpus(tmp_path), HashEmbedder()), tmp_path / "store")
        path = tmp_path / "store" / "embeddings.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = json.dumps({"chunk_id": chunk_id, "embedding": [0.0] * 64})
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = f"embeddings.jsonl:2: bad embedding: chunk_id: expected a string, got {chunk_id!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_corpus(tmp_path / "store")

    def test_load_reruns_integrity_checks(self, tmp_path):
        corpus = make_corpus(tmp_path)
        save_corpus(corpus, tmp_path / "store")
        manifest_path = tmp_path / "store" / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["scenarios"]["TY5"] = ["D01", "D02", "D03", "D04"]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(CorpusIntegrityError, match="D04"):
            load_corpus(tmp_path / "store")

    @pytest.mark.parametrize(
        ("spoil", "error", "message"),
        [
            (lambda m: m["claims"][0].update(topic=None), SchemaError, "claim 'K01': topic: expected a string, got None"),
            (lambda m: m["claims"][0].update(ground_truth="Uncertain"), UncertainGroundTruthError,
             "claim 'K01': Uncertain ground truth is excluded at ingestion"),
            (lambda m: m["documents"][0]["analysis"]["global_integrity_signals"].pop("data_availability"),
             CorpusIntegrityError, "document 'D01': analysis: global_integrity_signals: data_availability: missing"),
        ],
        ids=["claim-field", "uncertain-claim", "analysis-field"],
    )
    def test_a_stored_manifest_error_names_the_store(self, tmp_path, spoil, error, message):
        store = tmp_path / "store"
        save_corpus(make_corpus(tmp_path), store)
        manifest = json.loads((store / "manifest.json").read_text(encoding="utf-8"))
        spoil(manifest)
        (store / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        expected = f"store {store}: {message}; run `claimaudit ingest` again to rebuild it"
        with pytest.raises(error, match=f"^{re.escape(expected)}$"):
            load_corpus(store)

    def test_old_layout_store_asks_for_a_new_ingest(self, tmp_path):
        store = tmp_path / "store"
        manifest = make_manifest()
        (store / "analyses").mkdir(parents=True)
        chunk_lines = []
        for doc in manifest["documents"]:
            (store / "analyses" / f"{doc['id']}.json").write_text(json.dumps(doc.pop("analysis")), encoding="utf-8")
            chunk_lines += [json.dumps({**chunk, "doc_id": doc["id"]}) + "\n" for chunk in doc.pop("chunks")]
        (store / "chunks.jsonl").write_text("".join(chunk_lines), encoding="utf-8")
        (store / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(CorpusIntegrityError, match="run `claimaudit ingest` again"):
            load_corpus(store)
