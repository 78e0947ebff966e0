"""Corpus store: manifest ingestion, embeddings, retrieval, scenarios.

The corpus is an immutable value after ingestion; embedding returns a
new handle. The store is a directory of two plain files: the corpus as a
manifest in the ingest schema, read back by the same parser and checks as
any manifest, and a JSON-lines embedding file once chunks are embedded.
Both are written one document or one vector at a time. The vectors live
on the corpus, one packed, read-only float64 buffer per chunk id.
"""

from __future__ import annotations

import json
import logging
import math
import operator
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Protocol, Sequence

from ._files import (
    JsonRecord, json_array, json_id_path, json_object, json_value, read_json, read_json_lines, write_atomic
)
from ._rng import fnv1a64
from .config import DEFAULT_EMBED_DIM, DEFAULT_RETRIEVAL_K, SCENARIO_LABELS
from .core import AnalysisDocument, Claim, SchemaError
from .redundancy import tokenize

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)

EVIDENCE_FROM_MAP = "evidence_map"
EVIDENCE_FROM_RETRIEVAL = "retrieval"


class CorpusIntegrityError(ValueError):
    """The manifest or store violates referential integrity."""


class EmbeddingError(RuntimeError):
    """One or more chunks could not be embedded."""


def _packed(values: Iterable[float]) -> memoryview:
    """`values` as a read-only float64 buffer: 8 bytes an entry, and `==` compares the entries.

    Raises ValueError unless every entry is a finite float.
    """
    try:
        vector = array("d", values)
    except OverflowError as exc:
        raise ValueError(f"embedding: {exc}") from None
    if not all(map(math.isfinite, vector)):
        bad = next(entry for entry in vector if not math.isfinite(entry))
        raise ValueError(f"embedding: expected finite numbers, got {bad!r}")
    return memoryview(vector).toreadonly()


@dataclass(frozen=True)
class EvidenceChunk(JsonRecord):
    """A passage of a document; `doc_id` is not stored, the document that holds the chunk sets it."""

    _json_error = CorpusIntegrityError

    id: str
    doc_id: str = field(init=False, default="")
    ordinal: int
    text: str

    def __post_init__(self) -> None:
        if self.ordinal < 0:
            raise CorpusIntegrityError(f"ordinal must be nonnegative, got {self.ordinal}")


@dataclass(frozen=True)
class Document(JsonRecord):
    """A source document as the manifest holds it: its analysis and its chunks inline."""

    _json_error = CorpusIntegrityError

    id: str
    title: str
    source_uri: str
    retracted: bool
    analysis: AnalysisDocument
    chunks: tuple[EvidenceChunk, ...]

    def __post_init__(self) -> None:
        ordinals = [chunk.ordinal for chunk in self.chunks]
        if sorted(ordinals) != list(range(len(self.chunks))):
            raise CorpusIntegrityError(f"chunk ordinals must be dense 0..n-1, got {ordinals}")
        for chunk in self.chunks:
            object.__setattr__(chunk, "doc_id", self.id)

    @classmethod
    def from_json(cls, payload: Any) -> Document:
        return cls._decode(payload, json_id_path("document", payload, cls._json_error))


@dataclass(frozen=True)
class Scenario:
    label: str
    member_doc_ids: frozenset[str]


class Embedder(Protocol):
    dim: int

    def embed(self, text: str) -> Sequence[float]: ...


@dataclass(frozen=True)
class Corpus:
    """Immutable handle over documents, claims, scenarios, evidence, and each embedded chunk's vector."""

    documents: Mapping[str, Document]
    claims: Mapping[str, Claim]
    scenarios: Mapping[str, Scenario]
    evidence_map: Mapping[str, tuple[str, ...]]
    embedder: Embedder | None = field(default=None, compare=False)
    vectors: Mapping[str, memoryview] = field(default_factory=dict)  # chunk id -> `_packed` vector

    def document(self, doc_id: str) -> Document:
        try:
            return self.documents[doc_id]
        except KeyError:
            raise CorpusIntegrityError(f"unknown document id {doc_id!r}") from None

    def claim(self, claim_id: str) -> Claim:
        try:
            return self.claims[claim_id]
        except KeyError:
            raise CorpusIntegrityError(f"unknown claim id {claim_id!r}") from None

    def scenario(self, label: str) -> Scenario:
        try:
            return self.scenarios[label]
        except KeyError:
            raise CorpusIntegrityError(f"unknown scenario {label!r}") from None

    def all_chunks(self) -> tuple[EvidenceChunk, ...]:
        """Every chunk, in document manifest order then ordinal order."""
        return tuple(chunk for doc in self.documents.values() for chunk in doc.chunks)

    def chunk(self, chunk_id: str) -> EvidenceChunk:
        chunk = self._chunk_index.get(chunk_id)
        if chunk is None:
            raise CorpusIntegrityError(f"unknown chunk id {chunk_id!r}")
        return chunk

    # Lookup structures are built on first use and live as long as the
    # handle; a corpus with other chunks is a new handle with its own.

    @cached_property
    def _chunk_index(self) -> dict[str, EvidenceChunk]:
        return {chunk.id: chunk for chunk in self.all_chunks()}

    @cached_property
    def _chunk_matrix(self) -> _ChunkMatrix:
        return _ChunkMatrix(self.all_chunks(), self.vectors)


class _ChunkMatrix:
    """Chunk embeddings as one (N, dim) float64 matrix, for cosine scoring.

    Rows are in (doc_id, ordinal) order, so a stable sort on descending
    score applies the retrieval tie-break. Every sum is accumulated one
    column at a time, left to right, so each score is bit-identical to a
    plain loop over the vector entries; `matrix @ query` and `np.sum`
    add in another order and can flip near-ties in the last ulp.
    """

    def __init__(self, chunks: Iterable[EvidenceChunk], vectors: Mapping[str, memoryview]) -> None:
        import numpy as np

        self.chunks = tuple(sorted(chunks, key=lambda chunk: (chunk.doc_id, chunk.ordinal)))
        missing = [chunk.id for chunk in self.chunks if chunk.id not in vectors]
        if missing:
            raise EmbeddingError(f"chunks are missing embeddings: {missing[:5]}")
        rows = [vectors[chunk.id] for chunk in self.chunks]
        dims = sorted(set(map(len, rows)))
        if len(dims) > 1:
            raise EmbeddingError(f"chunk embeddings have mixed dimensions {dims}")
        self.dim = dims[0] if dims else 0
        matrix = np.array(rows, dtype=np.float64)
        # Column-major, so each column the sums walk is contiguous.
        self.vectors = np.asfortranarray(matrix.reshape(len(self.chunks), self.dim))
        squares = np.zeros(len(self.chunks))
        for column in self.vectors.T:
            squares += column * column
        self.norms = np.sqrt(squares)

    def cosine(self, query: Sequence[float]) -> np.ndarray:
        """Cosine of every row to `query`; 0.0 where either norm is 0."""
        import numpy as np

        if self.chunks and len(query) != self.dim:
            raise EmbeddingError(
                f"query embedding has dimension {len(query)} but the chunk embeddings have dimension "
                f"{self.dim}; re-embed the corpus with the current embedder"
            )
        dots = np.zeros(len(self.chunks))
        query_square = 0.0
        for column, value in zip(self.vectors.T, query):
            dots += column * value
            query_square += value * value
        query_norm = math.sqrt(query_square)
        scores = np.zeros(len(self.chunks))
        if query_norm != 0.0:
            np.divide(dots, query_norm * self.norms, out=scores, where=self.norms != 0.0)
        return scores


def _check_scenarios(scenarios: Mapping[str, Scenario], documents: Mapping[str, Document]) -> None:
    ty0 = scenarios["TY0"].member_doc_ids
    ty1 = scenarios["TY1"].member_doc_ids
    ty3 = scenarios["TY3"].member_doc_ids
    ty5 = scenarios["TY5"].member_doc_ids
    if not ty0 <= ty1:
        raise CorpusIntegrityError(f"TY0 must be a subset of TY1; outside: {sorted(ty0 - ty1)}")
    if not ty1 <= ty3:
        raise CorpusIntegrityError(f"TY1 must be a subset of TY3; outside: {sorted(ty1 - ty3)}")
    retracted_ty0 = {doc_id for doc_id in ty0 if documents[doc_id].retracted}
    overlap = ty5 & retracted_ty0
    if overlap:
        raise CorpusIntegrityError(f"TY5 must exclude retracted TY0 documents: {sorted(overlap)}")


def _by_id(what: str, items: Iterable[Any]) -> dict[str, Any]:
    """`items` keyed by their `id`, in order; an id that repeats is an integrity error."""
    by_id: dict[str, Any] = {}
    for item in items:
        if by_id.setdefault(item.id, item) is not item:
            raise CorpusIntegrityError(f"duplicate {what} id {item.id!r}")
    return by_id


def _build_corpus(payload: Any) -> Corpus:
    error = CorpusIntegrityError
    json_object("manifest", payload, {"documents", "claims", "scenarios", "evidence_map"}, error)
    documents = _by_id("document", map(Document.from_json, json_value("documents", payload["documents"], list, error)))
    chunks = _by_id("chunk", (chunk for document in documents.values() for chunk in document.chunks))
    claims = _by_id("claim", map(Claim.from_json, json_value("claims", payload["claims"], list, error)))

    raw_scenarios = json_object("scenarios", payload["scenarios"], set(SCENARIO_LABELS), error)
    scenarios = {
        label: Scenario(
            label=label,
            member_doc_ids=frozenset(json_array(f"scenarios.{label}", raw_scenarios[label], str, error, documents)),
        )
        for label in SCENARIO_LABELS
    }
    _check_scenarios(scenarios, documents)

    evidence_map = {}
    for claim_id, chunk_ids in json_value("evidence_map", payload["evidence_map"], dict, error).items():
        json_value("evidence_map claim", claim_id, str, error, claims)
        pinned = evidence_map[claim_id] = json_array(f"evidence_map.{claim_id}", chunk_ids, str, error, chunks)
        if len(set(pinned)) < len(pinned):
            repeated = next(chunk_id for i, chunk_id in enumerate(pinned) if chunk_id in pinned[:i])
            raise error(f"evidence_map.{claim_id}: chunk {repeated!r} is pinned twice")
    return Corpus(documents=documents, claims=claims, scenarios=scenarios, evidence_map=evidence_map)


def ingest(manifest_path: str | Path) -> Corpus:
    """Load and integrity-check a corpus manifest."""
    corpus = _build_corpus(read_json(manifest_path, "manifest", CorpusIntegrityError))
    logger.info(
        "ingested %d documents (%d chunks), %d claims, %d scenarios",
        len(corpus.documents),
        len(corpus.all_chunks()),
        len(corpus.claims),
        len(corpus.scenarios),
    )
    return corpus


class HashEmbedder:
    """Deterministic local embedder: token-hash projection with sign bits.

    Purely integer-hash driven, so vectors are byte-identical across
    platforms and runs. Not semantically meaningful; it exists to make
    retrieval reproducible offline. Each distinct token is hashed once
    per instance; the memo grows with the vocabulary of the embedded texts.
    """

    def __init__(self, dim: int = DEFAULT_EMBED_DIM, seed: int = 0) -> None:
        if dim <= 0:
            raise ValueError(f"embedding dimension must be positive, got {dim}")
        self.dim = dim
        self.seed = seed
        # token -> (vector index, sign)
        self._slots: dict[str, tuple[int, float]] = {}

    def embed(self, text: str) -> tuple[float, ...]:
        values = [0.0] * self.dim
        for token in tokenize(text):
            slot = self._slots.get(token)
            if slot is None:
                token_hash = fnv1a64(f"{self.seed}\x1f{token}")
                slot = self._slots[token] = (token_hash % self.dim, 1.0 if (token_hash >> 63) == 0 else -1.0)
            values[slot[0]] += slot[1]
        norm = math.sqrt(sum(map(operator.mul, values, values)))
        if norm == 0.0:
            return tuple(values)
        return tuple(value / norm for value in values)


def embed_chunks(corpus: Corpus, embedder: Embedder) -> Corpus:
    """Return the corpus with a vector for every chunk, in chunk order, and the embedder that made them."""
    failed: list[str] = []
    vectors: dict[str, memoryview] = {}
    for chunk in corpus.all_chunks():
        try:
            vector = _packed(embedder.embed(chunk.text))
        except Exception as exc:
            logger.warning("embedding failed for chunk %s: %s", chunk.id, exc)
            failed.append(chunk.id)
            continue
        if len(vector) != embedder.dim:
            raise EmbeddingError(
                f"embedder returned dimension {len(vector)} for chunk {chunk.id!r}, expected {embedder.dim}"
            )
        if not any(vector):
            logger.warning("chunk %s has no tokens; flagged with a zero embedding", chunk.id)
        vectors[chunk.id] = vector
    if failed:
        raise EmbeddingError(f"failed to embed chunks: {failed}")
    return replace(corpus, vectors=vectors, embedder=embedder)


def retrieve(claim: Claim, corpus: Corpus, k: int = DEFAULT_RETRIEVAL_K) -> list[EvidenceChunk]:
    """Top-k chunks by exact cosine to the claim embedding; ties by (doc_id, ordinal)."""
    if k <= 0:
        raise ValueError(f"retrieval depth k must be positive, got {k}")
    if corpus.embedder is None:
        raise EmbeddingError("corpus has no embedder; run embed_chunks first")
    import numpy as np

    matrix = corpus._chunk_matrix
    claim_vector = tuple(float(x) for x in corpus.embedder.embed(claim.text))
    order = np.argsort(-matrix.cosine(claim_vector), kind="stable")
    return [matrix.chunks[i] for i in order[:k]]


def filter_scenario(chunks: Iterable[EvidenceChunk], scenario: Scenario) -> list[EvidenceChunk]:
    """Keep chunks whose source document is in the scenario, preserving order."""
    return [chunk for chunk in chunks if chunk.doc_id in scenario.member_doc_ids]


def evidence_for_claim(
    corpus: Corpus, claim: Claim, k: int = DEFAULT_RETRIEVAL_K
) -> tuple[list[EvidenceChunk], str]:
    """Evidence chunks plus the mode used to obtain them.

    A pre-computed evidence_map entry wins over live retrieval so all
    methods share identical evidence when the manifest pins it.
    """
    pinned = corpus.evidence_map.get(claim.id)
    if pinned is not None:
        return [corpus.chunk(chunk_id) for chunk_id in pinned], EVIDENCE_FROM_MAP
    return retrieve(claim, corpus, k), EVIDENCE_FROM_RETRIEVAL


def n_evidence_docs(chunks: Iterable[EvidenceChunk]) -> int:
    """Distinct source documents backing the given chunks."""
    return len({chunk.doc_id for chunk in chunks})


def _compact(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _compact_array(items: Iterable[Any]) -> Iterator[str]:
    """`_compact(list(items))`, one item's text at a time."""
    yield "["
    separator = ""
    for item in items:
        yield separator
        yield _compact(item)
        separator = ","
    yield "]"


def _manifest_parts(corpus: Corpus) -> Iterator[str]:
    """The store's manifest as `_compact` of the whole would write it, one claim or document at a time.

    The top-level keys come in sorted order, as `sort_keys` puts them.
    """
    yield '{"claims":'
    yield from _compact_array(claim.to_json() for claim in corpus.claims.values())
    yield ',"documents":'
    yield from _compact_array(doc.to_json() for doc in corpus.documents.values())
    yield ',"evidence_map":'
    yield _compact({claim_id: list(chunk_ids) for claim_id, chunk_ids in corpus.evidence_map.items()})
    yield ',"scenarios":'
    yield _compact({label: sorted(corpus.scenarios[label].member_doc_ids) for label in SCENARIO_LABELS})
    yield "}"


def save_corpus(corpus: Corpus, directory: str | Path) -> None:
    """Write the store: one ingest-schema manifest, plus embeddings if present.

    `manifest.json` holds every document with its analysis and chunks
    inline, so `load_corpus` is `ingest` plus the `embeddings.jsonl` merge.
    Both files are streamed, one document or one vector at a time. The
    vectors are written (or removed) first, so a failure between the two
    writes never leaves a new manifest beside an earlier corpus's vectors.
    """
    save_embeddings(corpus, directory)
    write_atomic(Path(directory) / "manifest.json", _manifest_parts(corpus))


def save_embeddings(corpus: Corpus, directory: str | Path) -> None:
    """Write `corpus.vectors`, in order, as the store's `embeddings.jsonl`.

    A corpus without vectors removes the file, so vectors of an earlier
    corpus never attach to re-ingested chunks.
    """
    path = Path(directory) / "embeddings.jsonl"
    if not corpus.vectors:
        path.unlink(missing_ok=True)
        return
    write_atomic(
        path,
        # Each line is `json.dumps` of {"chunk_id", "embedding"} with sorted
        # keys; every entry is finite, so `repr` writes it as `json` does.
        (
            f'{{"chunk_id": {encode_basestring_ascii(chunk_id)}, "embedding": {vector.tolist()!r}}}\n'
            for chunk_id, vector in corpus.vectors.items()
        ),
    )


def load_corpus(directory: str | Path, *, embeddings: bool = True) -> Corpus:
    """Rebuild a corpus from `save_corpus` output, re-running all checks.

    With `embeddings=False` the store's `embeddings.jsonl` is not read,
    and the corpus comes back without vectors.
    """
    root = Path(directory)
    try:
        corpus = ingest(root / "manifest.json")
    except (CorpusIntegrityError, SchemaError) as exc:
        raise type(exc)(f"store {root}: {exc}; run `claimaudit ingest` again to rebuild it") from None
    return load_embeddings(corpus, root) if embeddings else corpus


def _vector_line(seen: set[str], line: Mapping[str, Any]) -> tuple[str, memoryview]:
    """One `embeddings.jsonl` line as (chunk id, packed vector); the id must be a new string, every entry a number.

    `seen` holds the ids of the earlier lines, and the line adds its own.
    """
    entries = json_value("embedding", line["embedding"], list)
    # One pass over the entry types; `array` would take a bool as a number.
    if not set(map(type, entries)) <= {int, float}:
        bad = next(entry for entry in entries if type(entry) not in (int, float))
        raise ValueError(f"embedding: expected numbers, got {bad!r}")
    chunk_id = json_value("chunk_id", line["chunk_id"], str)
    if chunk_id in seen:
        raise ValueError(f"chunk_id: {chunk_id!r} has an embedding on an earlier line")
    seen.add(chunk_id)
    return chunk_id, _packed(entries)


def load_embeddings(corpus: Corpus, directory: str | Path) -> Corpus:
    """`corpus` with the store's `embeddings.jsonl` vectors in file order, skipping ids the corpus lacks."""
    embeddings_path = Path(directory) / "embeddings.jsonl"
    if not embeddings_path.exists():
        return corpus
    chunks = corpus._chunk_index
    lines = read_json_lines(embeddings_path, "embedding", partial(_vector_line, set()))
    return replace(corpus, vectors={chunk_id: vector for chunk_id, vector in lines if chunk_id in chunks})
