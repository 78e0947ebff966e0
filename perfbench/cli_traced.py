"""Run one `claimaudit` command with the tracer installed.

    python3 perfbench/cli_traced.py TRACE_OUT --config CONFIG COMMAND [ARGS]

Writes the import time of `claimaudit.cli`, the spans and the boundary
counts as JSON to TRACE_OUT, and exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    start = time.perf_counter()
    from claimaudit import cli

    import_s = time.perf_counter() - start
    from claimaudit.llm import MockLlm

    import tracing

    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer, MockLlm)
    try:
        code = cli.main(argv[1:])
    finally:
        restore()
    out.write_text(
        json.dumps(
            {
                "import_s": import_s,
                "spans": [span.to_json() for span in tracer.spans],
                "counts": dict(tracer.counts),
                "distinct": sorted([title, digest.hex()] for title, digest in tracer.distinct_prompts),
            }
        ),
        encoding="utf-8",
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
