"""Independent oracles used by the unit and acceptance tests.

These deliberately avoid the package's own code paths: the score
formulas are recomputed with 50-digit mpmath arithmetic, the metric
formulas with exact Fraction arithmetic, the grid search by a
separate exhaustive enumerator, and the retrieval ranking by a plain
cosine loop. If an implementation shortcut ever
drifts from the written formulas, these disagree loudly.
"""

from __future__ import annotations

from fractions import Fraction
from math import sqrt

import mpmath as mp

mp.mp.dps = 50


def log_odds_highprec(h_support: float, h_refute: float, h_neutral: float, alpha: float, lam: float) -> mp.mpf:
    ratio = mp.log((mp.mpf(h_support) + mp.mpf(lam)) / (mp.mpf(h_refute) + mp.mpf(lam)))
    return ratio - mp.mpf(alpha) * mp.log(1 + mp.mpf(h_neutral))


def hv_highprec(h_support: float, h_refute: float, h_neutral: float, alpha: float, lam: float) -> mp.mpf:
    z = log_odds_highprec(h_support, h_refute, h_neutral, alpha, lam)
    return 1 / (1 + mp.e ** (-z))


def per_class_f1(tp: int, fp: int, fn: int) -> Fraction:
    """Exact F1 for one class; the 0/0 convention is F1 = 0."""
    if 2 * tp + fp + fn == 0:
        return Fraction(0)
    return Fraction(2 * tp, 2 * tp + fp + fn)


def macro_f1_exact(tp: int, fp: int, fn: int, tn: int) -> Fraction:
    # Invalid is the positive class of the mirrored matrix.
    f1_valid = per_class_f1(tp, fp, fn)
    f1_invalid = per_class_f1(tn, fn, fp)
    return (f1_valid + f1_invalid) / 2


def mcc_exact(tp: int, fp: int, fn: int, tn: int) -> float:
    denom_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom_sq == 0:
        return 0.0
    return (tp * tn - fp * fn) / sqrt(denom_sq)


def cohen_kappa_exact(labels_a: list, labels_b: list) -> Fraction | float:
    n = len(labels_a)
    categories = sorted(set(labels_a) | set(labels_b))
    p_o = Fraction(sum(1 for a, b in zip(labels_a, labels_b) if a == b), n)
    p_e = Fraction(0)
    for cat in categories:
        p_e += Fraction(labels_a.count(cat), n) * Fraction(labels_b.count(cat), n)
    if p_e == 1:
        return Fraction(1) if p_o == 1 else Fraction(0)
    return (p_o - p_e) / (1 - p_e)


def gwet_ac1_exact(labels_a: list, labels_b: list) -> Fraction | float:
    n = len(labels_a)
    categories = sorted(set(labels_a) | set(labels_b))
    k = len(categories)
    p_o = Fraction(sum(1 for a, b in zip(labels_a, labels_b) if a == b), n)
    if k == 1:
        return Fraction(1) if p_o == 1 else Fraction(0)
    p_e = Fraction(0)
    for cat in categories:
        pi = (Fraction(labels_a.count(cat), n) + Fraction(labels_b.count(cat), n)) / 2
        p_e += pi * (1 - pi) / (k - 1)
    if p_e == 1:
        return Fraction(1) if p_o == 1 else Fraction(0)
    return (p_o - p_e) / (1 - p_e)


def grid_search_bruteforce(records, grid, cfg, ridge):
    """Re-enumerate every cell independently of the package's search loop."""
    from claimaudit.scoring import HvParams, hv
    from claimaudit.threshold import threshold_for_claim

    usable = [
        (r.tallies, threshold_for_claim(r, cfg.n_base, cfg, ridge), r.human_verdict == "Support")
        for r in records
        if r.human_verdict != "Uncertain"
    ]
    cells = []
    for alpha in grid.alpha_values:
        for lam in grid.lambda_values:
            params = HvParams(alpha=alpha, lambda_=lam)
            correct = sum(1 for t, tau, target in usable if (hv(t, params) >= tau) == target)
            cells.append((correct, alpha, lam))
    best_correct = max(c for c, _, _ in cells)
    winners = sorted((alpha, lam) for c, alpha, lam in cells if c == best_correct)
    return winners[0]


def dempster_pair(m1: tuple[float, float, float], m2: tuple[float, float, float]) -> tuple[float, float, float]:
    """Hand-applied Dempster combination over ({S}, {R}, Theta)."""
    s1, r1, t1 = m1
    s2, r2, t2 = m2
    conflict = s1 * r2 + r1 * s2
    norm = 1.0 - conflict
    if norm <= 0:
        raise ZeroDivisionError("total conflict")
    s = (s1 * s2 + s1 * t2 + t1 * s2) / norm
    r = (r1 * r2 + r1 * t2 + t1 * r2) / norm
    t = (t1 * t2) / norm
    return s, r, t


def cosine_left_to_right(a, b) -> float:
    """Cosine with every sum added strictly left to right; 0.0 if a norm is 0.

    An explicit loop, not `sum()`: from Python 3.12 `sum()` compensates
    float rounding, which would change the last ulp.
    """
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    dot = norm_a_sq = norm_b_sq = 0.0
    for x, y in zip(a, b):
        dot += x * y
        norm_a_sq += x * x
        norm_b_sq += y * y
    norm_a, norm_b = sqrt(norm_a_sq), sqrt(norm_b_sq)
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def rank_by_cosine(query, chunks, vectors) -> list[tuple[str, float]]:
    """Every chunk as (id, cosine of `vectors[id]` to query), by (-cosine, doc_id, ordinal)."""
    scored = [(chunk, cosine_left_to_right(query, vectors[chunk.id])) for chunk in chunks]
    scored.sort(key=lambda pair: (-pair[1], pair[0].doc_id, pair[0].ordinal))
    return [(chunk.id, score) for chunk, score in scored]
