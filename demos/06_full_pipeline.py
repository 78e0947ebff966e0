"""Run the whole verification matrix offline and render the report.

Ingests the shipped demo corpus, embeds its chunks with the local hash
embedder, runs the audit method plus two baselines across all four
temporal scenarios with the seeded mock model, and prints the same
methods-by-scenarios table the command line's `report` emits. The CLI
equivalent is:

    claimaudit --config fixtures/config.json verify --mock --seed 7
    claimaudit --config fixtures/config.json report
"""

from pathlib import Path

from claimaudit.corpus import SCENARIO_LABELS, HashEmbedder, embed_chunks, ingest
from claimaudit.evaluation import AblationFlags, render_table, run_matrix
from claimaudit.scoring import HvParams
from claimaudit.threshold import ThresholdConfig, constant_boldness_model

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main() -> None:
    corpus = embed_chunks(ingest(FIXTURES / "manifest.json"), HashEmbedder(dim=64, seed=0))
    print(f"corpus: {len(corpus.documents)} documents, {len(corpus.claims)} claims, "
          f"scenarios {', '.join(SCENARIO_LABELS)}\n")

    report = run_matrix(
        corpus,
        methods=("audit", "cot", "ciber"),
        scenario_labels=SCENARIO_LABELS,
        flags=AblationFlags(),
        hv_params=HvParams(alpha=0.5, lambda_=0.1),
        ridge=constant_boldness_model(),
        cfg=ThresholdConfig(),
        seed=7,
        mock=True,
    )

    failures = sum(1 for record in report.records if record.failure is not None)
    print(f"ran {len(report.records)} claim-method-scenario cells ({failures} failures)\n")
    print(render_table(report), end="")

    sample = next(record for record in report.records if record.method == "audit")
    print(f"\none audit record in detail ({sample.claim_id} under {sample.scenario}):")
    print(f"  verdict={sample.verdict.value} (truth: {sample.ground_truth.value}), "
          f"score={sample.hv:.4f} vs threshold={sample.tau:.4f}")
    stance_names = {1: "supports", 0: "neutral", -1: "refutes"}
    for contribution in sample.contributions:
        print(f"  {contribution.doc_id}: {stance_names[contribution.stance]:8s} "
              f"q={contribution.quality:.3f} w={contribution.weight:.3f}")


if __name__ == "__main__":
    main()
