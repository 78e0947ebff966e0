"""Replicated corpus manifests built from the shipped fixtures.

Replica r of every document, chunk and claim gets the id suffix `_r<r>`.
Replica 0 keeps the fixture text. Every later replica appends a few
vocabulary tokens, drawn from a stream seeded by (seed, replica), to each
chunk and claim text. Without them all replicas of a chunk share one
embedding, every retrieved top-10 is ten copies of one text, and the
redundancy penalty zeroes nine of them.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path
from typing import Any

EXTRA_TOKENS = 3
_WORD = re.compile(r"[a-z]{3,}")


def vocabulary(fixture: dict[str, Any]) -> list[str]:
    """Sorted distinct lowercase words of the fixture chunk texts."""
    words = {
        word
        for doc in fixture["documents"]
        for chunk in doc["chunks"]
        for word in _WORD.findall(chunk["text"].lower())
    }
    return sorted(words)


def build_manifest(fixture: dict[str, Any], *, scale: int, n_claims: int, seed: int, pinned: bool) -> dict[str, Any]:
    """`scale` replicas of the fixture corpus with `n_claims` sampled claims.

    The same arguments always give the same manifest. Claims keep
    replica-major fixture order. With `pinned` false the evidence map is
    empty, so every claim takes the retrieval path.
    """
    if scale < 1:
        raise ValueError(f"scale must be at least 1, got {scale}")
    words = vocabulary(fixture)
    documents: list[dict[str, Any]] = []
    claims: list[dict[str, Any]] = []
    for replica in range(scale):
        stream = random.Random(f"claimaudit-perfbench/{seed}/{replica}")

        def vary(text: str) -> str:
            if replica == 0:
                return text
            return text + " " + " ".join(stream.sample(words, EXTRA_TOKENS))

        suffix = f"_r{replica}"
        for doc in fixture["documents"]:
            documents.append(
                {
                    **doc,
                    "id": doc["id"] + suffix,
                    "title": doc["title"] + suffix,
                    "source_uri": doc["source_uri"] + suffix,
                    "chunks": [
                        {**chunk, "id": chunk["id"] + suffix, "text": vary(chunk["text"])} for chunk in doc["chunks"]
                    ],
                }
            )
        for claim in fixture["claims"]:
            claims.append({**claim, "id": claim["id"] + suffix, "text": vary(claim["text"])})

    # Stratified: every fixture claim gets the same number of replicas, so
    # the claim mix (evidence size, scenario coverage) is the same for
    # every seed and only the replicas picked and their text vary.
    per_claim, remainder = divmod(n_claims, len(fixture["claims"]))
    if remainder or not 1 <= per_claim <= scale:
        raise ValueError(f"n_claims must be a multiple of {len(fixture['claims'])} up to {len(claims)}, got {n_claims}")
    stream = random.Random(f"claimaudit-perfbench/{seed}/claims")
    picked = sorted(
        replica * len(fixture["claims"]) + index
        for index in range(len(fixture["claims"]))
        for replica in stream.sample(range(scale), per_claim)
    )
    claims = [claims[index] for index in picked]

    evidence_map: dict[str, list[str]] = {}
    if pinned:
        for claim in claims:
            base, _, replica = claim["id"].rpartition("_r")
            evidence_map[claim["id"]] = [f"{chunk_id}_r{replica}" for chunk_id in fixture["evidence_map"][base]]
    scenarios = {
        label: [f"{doc_id}_r{replica}" for replica in range(scale) for doc_id in members]
        for label, members in fixture["scenarios"].items()
    }
    return {"documents": documents, "claims": claims, "scenarios": scenarios, "evidence_map": evidence_map}


def manifest_bytes(manifest: dict[str, Any]) -> bytes:
    return json.dumps(manifest, sort_keys=True, indent=1).encode("utf-8")


def write_manifest(manifest: dict[str, Any], path: Path) -> None:
    path.write_bytes(manifest_bytes(manifest))
