"""Seeded runs write the bytes the benchmark's references hold.

`perfbench/references.json` keeps the sha256 of `records.jsonl` and
`report.json` for each benchmark input. Three runs are checked against it:

- the shipped fixtures through the five `claimaudit` commands, with
  `verify --mock --seed 7`;
- the seed-3 `cli-pinned` inputs (50 replicas of the fixtures, 100 claims
  with pinned evidence) through the library, on the mock path;
- the seed-3 `live-retrieval` inputs (50 replicas, 40 claims that
  retrieve) through the live path, with a fake client that does not wait.

Each run goes through the benchmark's own pipeline, so the store it writes
and reads back is the one the benchmark times.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402

SEED = 3


def test_the_shipped_fixtures_keep_their_output_bytes(tmp_path):
    name, seed = harness.FIXTURE_REFERENCE
    assert harness.fixture_digests(tmp_path / "fixtures") == harness.stored_reference(name, seed)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_a_benchmark_input_keeps_its_output_bytes(tmp_path, monkeypatch, name):
    # The live workload's client answers at once; its replies do not depend on the wait.
    monkeypatch.setattr(harness, "LIVE_WAIT_S", 0.0)
    workload = harness.WORKLOADS[name]
    manifest, claim_ids = harness.write_inputs(workload, SEED, tmp_path)
    rep = harness.in_process_rep(
        workload, manifest, claim_ids, harness.fixture_config(), tmp_path / "out", SEED, True, None
    )
    assert rep.digests == harness.stored_reference(name, SEED)
