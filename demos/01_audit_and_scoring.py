"""Audit one claim's evidence and turn the per-document checks into a score.

Walks the core scoring path end to end on the shipped demo corpus:
mock-audit each evidence document against the 11 methodological checks,
convert the check scores into an intrinsic quality q, tally the
quality-weighted stances, and squash the support/refute log-odds into
the final evidence score in (0, 1).
"""

from pathlib import Path

from claimaudit.audit import AuditRequest, PaperToAudit, mock_audit_with_usage
from claimaudit.core import STANCE_REFUTES, STANCE_SUPPORTS
from claimaudit.corpus import evidence_for_claim, ingest
from claimaudit.llm import TokenUsage
from claimaudit.scoring import HvParams, aggregate, hv, intrinsic_quality, log_odds, make_contribution

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

STANCE_NAMES = {STANCE_SUPPORTS: "supports", STANCE_REFUTES: "refutes", 0: "neutral"}


def main() -> None:
    corpus = ingest(FIXTURES / "manifest.json")
    claim = corpus.claim("K01")
    chunks, mode = evidence_for_claim(corpus, claim)

    print(f"claim {claim.id}: {claim.text}")
    print(f"evidence: {len(chunks)} chunks via {mode}\n")

    # Group the evidence chunks into per-document audit units, keeping
    # first-appearance order so reruns stay deterministic.
    papers: dict[str, list[str]] = {}
    for chunk in chunks:
        papers.setdefault(chunk.doc_id, []).append(chunk.text)
    request = AuditRequest(
        claim_text=claim.text,
        papers=tuple(
            PaperToAudit(paper_id=doc_id, analysis=corpus.document(doc_id).analysis, chunks=tuple(texts))
            for doc_id, texts in papers.items()
        ),
    )

    usage = TokenUsage()
    results = mock_audit_with_usage(request, 7, usage)
    print(f"audited {len(results)} documents "
          f"(~{usage.tokens_in} tokens in / ~{usage.tokens_out} out if this were a live call)\n")

    contributions = []
    for result in results:
        checks = corpus.document(result.paper_id).analysis.applicable_checks
        quality = intrinsic_quality(result.audit, checks)
        scores = ", ".join(f"{check.name}={score:g}" for check, score in sorted(result.audit.scores.items()))
        print(f"  {result.paper_id}: {STANCE_NAMES[result.stance]:8s} "
              f"q={quality:.3f} over {len(checks)} applicable checks ({scores})")
        # Redundancy weighting is covered in demo 02; treat every document
        # as fresh evidence here.
        contributions.append(make_contribution(result.paper_id, result.stance, quality, weight=1.0))

    tallies = aggregate(contributions)
    params = HvParams(alpha=0.5, lambda_=0.1)
    print(f"\ntallies: support={tallies.h_support:.3f} "
          f"refute={tallies.h_refute:.3f} neutral={tallies.h_neutral:.3f}")
    print(f"log-odds (alpha={params.alpha}, lambda={params.lambda_}): {log_odds(tallies, params):+.4f}")
    print(f"evidence score: {hv(tallies, params):.4f}  (0.5 means perfectly balanced evidence)")


if __name__ == "__main__":
    main()
