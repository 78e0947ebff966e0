"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload mock-pinned --seed 1 --seconds 20 --trace 0

`--workload all` runs every workload in turn, each in its own process,
and exits 1 if any of them fails. Run from the root of a checkout; the
package is imported from `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. A run whose
output check fails prints `correct: false` with no metrics and exits 1;
a checkout without the package or its fixtures exits 2 without a result.
Scratch files go to `.perfbench_work/` in the checkout and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".perfbench_work"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import harness
    except ImportError as exc:
        print(f"error: cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(harness.ca_corpus.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: claimaudit was imported from outside {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (harness.FIXTURES / "manifest.json").is_file():
        print(f"error: no fixtures under {harness.FIXTURES}", file=sys.stderr)
        return 2
    if args.workload == "all":
        own = [sys.executable, __file__, f"--seed={args.seed}", f"--seconds={args.seconds}", f"--trace={args.trace}"]
        return max(subprocess.run([*own, f"--workload={name}"]).returncode for name in harness.WORKLOADS)
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from all, {', '.join(harness.WORKLOADS)}")

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outcome = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except harness.CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        print(json.dumps(harness.Outcome(False, 1, 1).to_json()))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    for name, (value, unit) in outcome.metrics.items():
        print(f"{args.workload:15} {name:32} {value:14.6f} {unit}")
    print(f"{args.workload:15} {'src_lines (context, not gated)':32} {harness.src_line_count():14d}")
    print(json.dumps(outcome.to_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
