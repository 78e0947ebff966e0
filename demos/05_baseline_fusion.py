"""Combine several uncertain verdicts into one by belief-mass fusion.

The strongest comparison baseline asks the model for a primary verdict
plus three probe answers, then fuses them with Dempster's rule: each
answer places its confidence on its own hypothesis and the rest on
"could be either". Agreement compounds, disagreement cancels, and a
dead heat stays Neutral rather than picking a side.
"""

from pathlib import Path

from claimaudit.baselines import MassFunction, run_ciber, wbu_fuse
from claimaudit.core import Verdict
from claimaudit.corpus import evidence_for_claim, ingest
from claimaudit.llm import Asker, MockLlm, TokenUsage

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def show(label: str, pairs: list[tuple[Verdict, float]]) -> None:
    mass = MassFunction.vacuous()
    for verdict, confidence in pairs:
        mass = mass.combine(MassFunction.from_verdict(verdict, confidence))
    fused = wbu_fuse(pairs)
    inputs = " + ".join(f"{verdict.value}@{confidence:.0%}" for verdict, confidence in pairs)
    print(f"  {label}: {inputs}")
    print(f"    masses: support={mass.support:.4f} refute={mass.refute:.4f} undecided={mass.theta:.4f}"
          f" -> {fused.value}")


def main() -> None:
    print("hand-sized fusion cases:")
    show("two agreeing answers amplify", [(Verdict.SUPPORTS, 0.8), (Verdict.SUPPORTS, 0.8)])
    show("head-on conflict cancels", [(Verdict.SUPPORTS, 0.8), (Verdict.REFUTES, 0.8)])
    show("a hedge barely moves the needle", [(Verdict.SUPPORTS, 0.8), (Verdict.NEUTRAL, 0.9)])
    show(
        "two against two stays undecided",
        [(Verdict.SUPPORTS, 0.8), (Verdict.SUPPORTS, 0.8), (Verdict.REFUTES, 0.8), (Verdict.REFUTES, 0.8)],
    )

    print("\nfull probe-and-fuse baseline on the demo corpus (offline mock):")
    corpus = ingest(FIXTURES / "manifest.json")
    claim = corpus.claim("K02")
    chunks, _ = evidence_for_claim(corpus, claim)
    usage = TokenUsage()
    result = run_ciber(Asker(MockLlm(seed=7)), claim, chunks, usage)
    print(f"  claim {claim.id}: {claim.text}")
    print(f"  verdict: {result.verdict.value}")
    print(f"  how: {result.justification}")
    print(f"  token cost: ~{usage.tokens_in} in / ~{usage.tokens_out} out")


if __name__ == "__main__":
    main()
