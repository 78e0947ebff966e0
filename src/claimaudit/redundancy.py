"""Lexical redundancy scoring and document information-gain weights.

A chunk's redundancy is its highest TF-IDF cosine similarity to any
chunk that precedes it in retrieval order; a document's weight is one
minus the mean redundancy of its chunks. The TF-IDF convention is fixed
so that results are reproducible from this code alone:

  * tokens: lowercased runs of alphanumerics, shorter than
    ``MIN_TOKEN_LENGTH`` (2) dropped, no stemming or stop list
  * tf: raw in-chunk counts
  * idf(t) = ln((1 + N) / (1 + df(t))) + 1
  * vectors L2-normalized

The model is fit per claim over that claim's retrieved chunks only,
never over the whole corpus. A chunk without tokens scores 0.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

# A sparse L2-normalized vector: term index -> weight.
SparseVector = dict[int, float]

_TOKEN_RUNS = re.compile(r"[0-9a-z]+")
MIN_TOKEN_LENGTH = 2


def tokenize(text: str) -> list[str]:
    return [tok for tok in _TOKEN_RUNS.findall(text.lower()) if len(tok) >= MIN_TOKEN_LENGTH]


@dataclass(frozen=True)
class TfIdfModel:
    """A fitted TF-IDF vectorizer over one ordered chunk list."""

    vocabulary: Mapping[str, int]
    document_frequency: Mapping[str, int]
    corpus_size: int

    def idf(self, term: str) -> float:
        df = self.document_frequency.get(term, 0)
        return math.log((1 + self.corpus_size) / (1 + df)) + 1.0

    def transform(self, text: str) -> SparseVector:
        """Vectorize one chunk; unknown terms are ignored."""
        counts: dict[str, int] = {}
        for token in tokenize(text):
            if token in self.vocabulary:
                counts[token] = counts.get(token, 0) + 1
        vector = {self.vocabulary[term]: count * self.idf(term) for term, count in counts.items()}
        norm = math.sqrt(sum(weight * weight for weight in vector.values()))
        if norm == 0.0:
            return {}
        return {index: weight / norm for index, weight in vector.items()}


def tfidf_fit(chunks: Sequence[str]) -> TfIdfModel:
    """Fit the vectorizer over an ordered chunk list; chunks without tokens fit an empty vocabulary."""
    if not chunks:
        raise ValueError("chunk list must be nonempty")
    document_frequency: dict[str, int] = {}
    vocabulary: dict[str, int] = {}
    for chunk in chunks:
        seen = set(tokenize(chunk))
        for token in sorted(seen):
            document_frequency[token] = document_frequency.get(token, 0) + 1
            if token not in vocabulary:
                vocabulary[token] = len(vocabulary)
    return TfIdfModel(vocabulary=vocabulary, document_frequency=document_frequency, corpus_size=len(chunks))


def cosine(u: SparseVector, v: SparseVector) -> float:
    """Dot product of two L2-normalized sparse vectors; empty input scores 0."""
    if not u or not v:
        return 0.0
    if len(v) < len(u):
        u, v = v, u
    return sum(weight * v[index] for index, weight in u.items() if index in v)


def chunk_redundancy(chunks: Sequence[SparseVector]) -> list[float]:
    """Per-chunk max cosine similarity to any preceding chunk.

    The list order must be the claim's evidence-retrieval order; the
    first chunk has no predecessor and scores 0.
    """
    rhos: list[float] = []
    for j, vector in enumerate(chunks):
        best = 0.0
        for i in range(j):
            sim = cosine(chunks[i], vector)
            if sim > best:
                best = sim
        rhos.append(min(best, 1.0))
    return rhos


def document_weight(doc_chunk_rhos: Sequence[float]) -> tuple[float, float]:
    """Mean chunk redundancy and the information-gain weight (rho, w = 1 - rho)."""
    if not doc_chunk_rhos:
        raise ValueError("a document with no retrieved chunks contributes nothing; skip it")
    for rho in doc_chunk_rhos:
        if not 0.0 <= rho <= 1.0:
            raise ValueError(f"chunk redundancy {rho!r} outside [0, 1]")
    mean_rho = sum(doc_chunk_rhos) / len(doc_chunk_rhos)
    return mean_rho, 1.0 - mean_rho


def redundancy_for_texts(chunk_texts: Sequence[str]) -> list[float]:
    """Convenience path: fit, vectorize, and score one ordered chunk list."""
    model = tfidf_fit(chunk_texts)
    vectors = [model.transform(text) for text in chunk_texts]
    return chunk_redundancy(vectors)
