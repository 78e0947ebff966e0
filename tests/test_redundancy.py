"""TF-IDF convention, cosine, redundancy ordering, and document weights.

The worked 2-chunk corpus uses 2-character tokens ("ab cd" / "ab ef"):
the pinned numbers depend only on the tf/df structure, and the
tokenizer's minimum token length of 2 would silently drop 1-character
stand-ins.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimaudit.redundancy import (
    chunk_redundancy,
    cosine,
    document_weight,
    redundancy_for_texts,
    tfidf_fit,
    tokenize,
)

mp.mp.dps = 50


def highprec_shared_term_weight() -> mp.mpf:
    """Weight of the shared term in either chunk of the worked corpus.

    Corpus: two chunks, one shared term (df 2) and one unique term
    (df 1) each, all tf 1. idf(shared) = ln(3/3)+1 = 1,
    idf(unique) = ln(3/2)+1; the normalized shared weight follows.
    """
    idf_shared = mp.log(mp.mpf(3) / 3) + 1
    idf_unique = mp.log(mp.mpf(3) / 2) + 1
    return idf_shared / mp.sqrt(idf_shared**2 + idf_unique**2)


class TestTokenizer:
    def test_lowercase_split_on_nonalnum_runs(self):
        assert tokenize("Alpha-beta_GAMMA 42!") == ["alpha", "beta", "gamma", "42"]

    def test_short_tokens_dropped(self):
        assert tokenize("a bb c dd") == ["bb", "dd"]


class TestTfIdfFit:
    def test_document_frequencies_counted_directly(self):
        model = tfidf_fit(["ab cd", "ab ef"])
        assert model.corpus_size == 2
        assert model.document_frequency == {"ab": 2, "cd": 1, "ef": 1}

    def test_raw_term_counts(self):
        model = tfidf_fit(["xx xx yy"])
        vec = model.transform("xx xx yy")
        # tf(xx)=2 dominates tf(yy)=1 at equal idf.
        w_xx = vec[model.vocabulary["xx"]]
        w_yy = vec[model.vocabulary["yy"]]
        assert w_xx == pytest.approx(2 * w_yy)

    def test_worked_corpus_normalized_weight(self):
        model = tfidf_fit(["ab cd", "ab ef"])
        vec = model.transform("ab cd")
        w_shared = vec[model.vocabulary["ab"]]
        assert w_shared == pytest.approx(0.5797, abs=5e-5)
        assert w_shared == pytest.approx(float(highprec_shared_term_weight()), abs=1e-12)

    def test_a_tokenless_chunk_list_fits_an_empty_vocabulary(self):
        chunks = ["", "  ", "! ?", "a b"]
        model = tfidf_fit(chunks)
        assert (model.vocabulary, model.document_frequency) == ({}, {})
        assert [model.transform(chunk) for chunk in chunks] == [{}, {}, {}, {}]
        assert redundancy_for_texts(chunks) == [0.0, 0.0, 0.0, 0.0]
        # Among chunks with tokens, a tokenless one is redundant to nothing.
        assert redundancy_for_texts(["ab cd", "", "ab cd"]) == [0.0, 0.0, pytest.approx(1.0)]

    def test_an_empty_chunk_list_is_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            tfidf_fit([])

    def test_vectors_are_unit_norm_or_empty(self):
        chunks = ["ab cd ef", "cd cd gh", "zz", ""]
        model = tfidf_fit(chunks)
        for chunk in chunks:
            vec = model.transform(chunk)
            if vec:
                norm = math.sqrt(sum(w * w for w in vec.values()))
                assert norm == pytest.approx(1.0, abs=1e-9)


class TestCosine:
    def test_identical_chunks_score_one(self):
        model = tfidf_fit(["ab cd ef", "gh ij"])
        u = model.transform("ab cd ef")
        assert cosine(u, u) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_vocabulary_scores_zero(self):
        model = tfidf_fit(["ab cd", "ef gh"])
        assert cosine(model.transform("ab cd"), model.transform("ef gh")) == 0.0

    def test_worked_corpus_cosine(self):
        model = tfidf_fit(["ab cd", "ab ef"])
        sim = cosine(model.transform("ab cd"), model.transform("ab ef"))
        assert sim == pytest.approx(0.3361, abs=5e-5)
        assert sim == pytest.approx(float(highprec_shared_term_weight() ** 2), abs=1e-12)

    def test_empty_vector_scores_zero_against_anything(self):
        model = tfidf_fit(["ab cd"])
        assert cosine({}, model.transform("ab cd")) == 0.0
        assert cosine({}, {}) == 0.0


class TestChunkRedundancy:
    def test_single_chunk_has_no_predecessor(self):
        assert redundancy_for_texts(["ab cd"]) == [0.0]

    def test_exact_duplicate_is_fully_redundant(self):
        rhos = redundancy_for_texts(["ab cd", "ab cd"])
        assert rhos[0] == 0.0
        assert rhos[1] >= 1.0 - 1e-9

    def test_max_over_predecessors(self):
        rhos = redundancy_for_texts(["ab cd", "ef gh", "ab cd"])
        assert rhos[0] == 0.0
        assert rhos[1] == 0.0
        assert rhos[2] >= 1.0 - 1e-9

    def test_first_chunk_always_zero_and_range_bounded(self):
        rng = np.random.default_rng(42)
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        for _ in range(100):
            n = rng.integers(1, 5)
            chunks = [
                " ".join(rng.choice(words, size=rng.integers(1, 6)))
                for _ in range(n)
            ]
            rhos = redundancy_for_texts(chunks)
            assert rhos[0] == 0.0
            assert all(0.0 <= r <= 1.0 for r in rhos)

    @given(
        st.lists(
            st.lists(st.sampled_from(["ab", "cd", "ef", "gh", "ij"]), min_size=1, max_size=5).map(" ".join),
            min_size=1,
            max_size=5,
        ),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_appending_a_copy_is_fully_redundant(self, chunks, pick):
        copied = chunks[pick % len(chunks)]
        rhos = redundancy_for_texts(chunks + [copied])
        assert rhos[-1] >= 1.0 - 1e-9


class TestDocumentWeight:
    @pytest.mark.parametrize(
        "rhos,expected",
        [([0.0, 0.0], (0.0, 1.0)), ([1.0, 1.0], (1.0, 0.0)), ([0.2, 0.6], (0.4, 0.6))],
    )
    def test_mean_and_complement(self, rhos, expected):
        rho, w = document_weight(rhos)
        assert rho == pytest.approx(expected[0])
        assert w == pytest.approx(expected[1])

    def test_empty_document_is_a_caller_error(self):
        with pytest.raises(ValueError, match="skip"):
            document_weight([])

    def test_out_of_range_rho_rejected(self):
        with pytest.raises(ValueError):
            document_weight([1.2])
