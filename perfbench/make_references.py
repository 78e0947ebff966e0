"""Record the output digests that the benchmark's runs are checked against.

    python3 perfbench/make_references.py FIRST_SEED LAST_SEED

For every workload and every seed in the range, runs the pipeline once,
untimed, and stores the sha256 of the records and report bytes in
references.json, together with the digests of the shipped fixtures run
through the CLI with seed 7. A live workload's digests come from the
mock path, which every benchmark run checks is byte-identical. Record
again only with a change that is meant to alter the program's output
bytes, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import harness  # noqa: E402


def digests(workload: harness.Workload, seed: int, work: Path) -> dict[str, str]:
    manifest, claim_ids = harness.write_inputs(workload, seed, work)
    if workload.via_cli:
        return harness.cli_rep(workload, manifest, claim_ids, work / "out", seed, True, None).digests
    mock = replace(workload, live=False)
    cfg = harness.fixture_config()
    return harness.in_process_rep(mock, manifest, claim_ids, cfg, work / "out", seed, True, None).digests


def main(first: int, last: int) -> None:
    references = json.loads(harness.REFERENCES.read_text(encoding="utf-8"))
    work = BENCH.parent / ".perfbench_work" / "references"
    work.mkdir(parents=True, exist_ok=True)

    def store(workload: str, seed: int, value: dict[str, str]) -> None:
        references.setdefault(workload, {})[str(seed)] = value
        harness.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(workload, seed, flush=True)

    try:
        name, seed = harness.FIXTURE_REFERENCE
        store(name, seed, harness.fixture_digests(work / "fixtures"))
        for workload in harness.WORKLOADS.values():
            for seed in range(first, last + 1):
                store(workload.name, seed, digests(workload, seed, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
