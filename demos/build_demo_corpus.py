"""Regenerate the shipped fixtures: manifest, calibration records, config.

Everything is derived from DeterministicStream, so rerunning this script
produces byte-identical files on any platform. A consistency test compares
the committed fixtures against a fresh run.

Usage: python3 demos/build_demo_corpus.py [output_dir]   (default: fixtures/)
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from claimaudit._rng import DeterministicStream
from claimaudit.calibration import simulate_flawed_audit
from claimaudit.core import ALL_CHECKS
from claimaudit.corpus import ingest
from claimaudit.scoring import intrinsic_quality

SEED = 2024

# Six claim topics cycle over ten claims; each topic names the TY0 "home"
# document its claim pins first.
TOPICS = [
    ("aspirin", "fever", "adults"),
    ("statins", "cholesterol", "older patients"),
    ("metformin", "blood sugar", "diabetics"),
    ("exercise", "blood pressure", "hypertensive adults"),
    ("vitamin D", "bone fractures", "the elderly"),
    ("meditation", "anxiety scores", "college students"),
    ("probiotics", "gut inflammation", "IBS patients"),
    ("caffeine", "reaction time", "shift workers"),
    ("zinc", "cold duration", "children"),
    ("fiber intake", "heart disease", "middle-aged men"),
]

BOILERPLATE = "Standard methodology: double blind randomization with preregistered endpoints."

FUNDING = ["declared in full", "industry sponsored", "public grant", "not reported"]
CONFLICTS = ["none reported", "advisory fees disclosed", "equity interest disclosed"]
DATA = ["openly archived", "available on request", "not shared"]

STANDARDS = ["SettledScience", "RobustStudy", "PlausibleEvidence"]
VALID_CLAIMS = {0, 3, 5, 8}  # four Valid, six Invalid


def doc_id(n: int) -> str:
    return f"D{n:02d}"


def claim_id(n: int) -> str:
    return f"K{n:02d}"


def build_documents() -> list[dict]:
    documents = []
    for n in range(1, 21):
        stream = DeterministicStream(SEED, "doc", n)
        intervention, outcome, population = TOPICS[(n - 1) % len(TOPICS)]
        retracted = n in (7, 8)
        texts = [
            f"Study of {intervention} and {outcome}: randomized controlled evaluation in {population}.",
            f"Results: {intervention} changed {outcome} by {stream.randint(5, 40)} percent in {population}.",
        ]
        if n <= 8:
            # Every TY0 document shares one verbatim boilerplate chunk, so
            # pinned evidence can contain exact duplicates across documents.
            texts.append(BOILERPLATE)
        n_applicable = stream.randint(4, 9)
        applicable = set(stream.sample(list(ALL_CHECKS), n_applicable))
        signals = {}
        for check in ALL_CHECKS:
            if check in applicable:
                signals[check.name] = {
                    "is_applicable": True,
                    "objective_analysis": f"{check.name} reviewed: {stream.choice(['consistent', 'adequate', 'weakly supported'])}",
                }
            else:
                signals[check.name] = {"is_applicable": False, "objective_analysis": "N/A"}
        documents.append(
            {
                "id": doc_id(n),
                "title": f"{intervention.capitalize()} and {outcome}: study {n}",
                "source_uri": f"https://example.org/studies/{doc_id(n)}",
                "retracted": retracted,
                "analysis": {
                    "global_integrity_signals": {
                        "funding_transparency": stream.choice(FUNDING),
                        "conflict_of_interest": stream.choice(CONFLICTS),
                        "data_availability": stream.choice(DATA),
                    },
                    "veritable_check_signals": signals,
                },
                "chunks": [
                    {"id": f"{doc_id(n)}-c{i}", "ordinal": i, "text": text} for i, text in enumerate(texts)
                ],
            }
        )
    return documents


def build_claims() -> list[dict]:
    claims = []
    for i in range(10):
        stream = DeterministicStream(SEED, "claim", i)
        intervention, outcome, population = TOPICS[i]
        claims.append(
            {
                "id": claim_id(i + 1),
                "text": f"The use of {intervention} reduces {outcome} in {population}.",
                "claim_type": "composite" if i % 4 == 0 else "simple",
                "topic": intervention,
                "specificity": stream.randint(3, 9),
                "testability": stream.randint(3, 9),
                "required_standard": STANDARDS[i % 3],
                "probe_questions": [
                    f"Does the strongest evidence about {intervention} come from randomized trials?",
                    f"Would the observed effect on {outcome} disappear without {intervention}?",
                    f"Is the claimed effect of {intervention} on {outcome} in {population} overstated?",
                ],
                "ground_truth": "Valid" if i in VALID_CLAIMS else "Invalid",
            }
        )
    return claims


def build_evidence_map() -> dict[str, list[str]]:
    """Curated pinned evidence guaranteeing every scenario keeps a chunk.

    Per claim: two TY0 documents, one TY1-only, one TY3-only. Every even
    claim also pins both boilerplate duplicates so the redundancy penalty
    has something to bite on.
    """
    evidence_map = {}
    for i in range(10):
        a = (i % 6) + 1              # non-retracted TY0 document
        b = ((i + 3) % 8) + 1        # any TY0 document (may be retracted)
        if b == a:
            b = (b % 8) + 1
        c = (i % 4) + 9              # TY1-only document
        d = (i % 8) + 13             # TY3-only document
        chunk_ids = [
            f"{doc_id(a)}-c0",
            f"{doc_id(b)}-c1",
            f"{doc_id(c)}-c0",
            f"{doc_id(d)}-c0",
            f"{doc_id(d)}-c1",
        ]
        if i % 2 == 0:
            chunk_ids += [f"{doc_id(a)}-c2", f"{doc_id(b)}-c2"]
        evidence_map[claim_id(i + 1)] = chunk_ids
    return evidence_map


def build_manifest() -> dict:
    return {
        "documents": build_documents(),
        "claims": build_claims(),
        "scenarios": {
            "TY0": [doc_id(n) for n in range(1, 9)],
            "TY1": [doc_id(n) for n in range(1, 13)],
            "TY3": [doc_id(n) for n in range(1, 21)],
            "TY5": [doc_id(n) for n in range(1, 21) if n not in (7, 8)],
        },
        "evidence_map": build_evidence_map(),
    }


def build_calibration_records() -> list[dict]:
    """Sixty rater records with tallies backed by simulated flawed audits."""
    records = []
    for i in range(60):
        stream = DeterministicStream(SEED, "calibration", i)
        verdict = "Uncertain" if i % 10 == 7 else ("Support" if i % 2 == 0 else "Contradict")
        h_support = h_refute = h_neutral = 0.0
        for j in range(stream.randint(2, 4)):
            checks = stream.sample(list(ALL_CHECKS), stream.randint(3, 8))
            audit = simulate_flawed_audit(SEED * 1000 + i * 10 + j, checks)
            quality = intrinsic_quality(audit, tuple(sorted(checks)))
            if verdict == "Support":
                stance = stream.weighted_choice([(1, 70), (-1, 15), (0, 15)])
            elif verdict == "Contradict":
                stance = stream.weighted_choice([(1, 15), (-1, 70), (0, 15)])
            else:
                stance = stream.weighted_choice([(1, 34), (-1, 33), (0, 33)])
            if stance == 1:
                h_support += quality
            elif stance == -1:
                h_refute += quality
            else:
                h_neutral += quality
        records.append(
            {
                "specificity": stream.randint(1, 10),
                "testability": stream.randint(1, 10),
                "required_standard": STANDARDS[i % 3],
                "boldness_target": round(0.2 + 0.7 * stream.random(), 4),
                "tallies": {
                    "h_support": round(h_support, 6),
                    "h_refute": round(h_refute, 6),
                    "h_neutral": round(h_neutral, 6),
                },
                "human_verdict": verdict,
                "confidence": stream.randint(30, 60) if verdict == "Uncertain" else stream.randint(55, 95),
            }
        )
    return records


def build_config() -> dict:
    return {
        "paths": {
            "manifest": "manifest.json",
            "calibration": "calibration.jsonl",
            "output": "out",
            "store": "out/store",
            "params": "out/params.json",
        },
        "hv": {"alpha": 0.5, "lambda": 0.1},
        "threshold": {
            "priors": {"PlausibleEvidence": 0.6, "RobustStudy": 0.75, "SettledScience": 0.9},
            "C": 0.05,
            "N_base": 10,
            "clamp": [0.5, 0.95],
        },
        "llm": {"base_url": "${LLM_BASE_URL}", "model": "${LLM_MODEL}", "api_key": "${LLM_API_KEY}"},
        "embedding": {"dim": 64, "seed": 0},
        "run": {"retrieval_k": 10},
        "seed": 0,
    }


def check_invariants(manifest_path: Path) -> None:
    """Fail loudly if the generated fixture would not support a full matrix."""
    corpus = ingest(manifest_path)
    assert len(corpus.documents) == 20 and len(corpus.claims) == 10
    retracted_ty0 = [
        d for d in corpus.scenarios["TY0"].member_doc_ids if corpus.document(d).retracted
    ]
    assert sorted(retracted_ty0) == ["D07", "D08"]
    for doc in corpus.documents.values():
        assert doc.analysis.applicable_checks, f"{doc.id} has no applicable checks"
    for cid, chunk_ids in corpus.evidence_map.items():
        chunks = [corpus.chunk(chunk_id) for chunk_id in chunk_ids]
        for label, scenario in corpus.scenarios.items():
            kept = [c for c in chunks if c.doc_id in scenario.member_doc_ids]
            assert kept, f"claim {cid} has no evidence in scenario {label}"
    assert set(corpus.evidence_map) == set(corpus.claims), "every claim must be pinned"


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "fixtures"
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest = build_manifest()
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    lines = [json.dumps(record, sort_keys=True) for record in build_calibration_records()]
    (out_dir / "calibration.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out_dir / "config.json").write_text(json.dumps(build_config(), indent=2, sort_keys=True) + "\n", encoding="utf-8")

    check_invariants(out_dir / "manifest.json")
    print(f"wrote manifest.json, calibration.jsonl, config.json to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
