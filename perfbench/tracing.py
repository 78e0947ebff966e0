"""In-memory span tracer that wraps the package's functions from outside.

`instrument` replaces each listed function at the name the pipeline calls
it through (a module attribute, or a client class's `complete`) with a
wrapper that records a span: name, start, end, parent span and claim id.
Spans stay in memory until the run ends. Self time is a span's duration
minus the part of it that its child spans cover. Only traced runs call
`instrument`; untraced runs execute the package unmodified.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from claimaudit.core import Claim


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    claim_id: str | None

    def to_json(self) -> list[Any]:
        return [self.name, self.start, self.end, self.parent, self.claim_id]


@dataclass
class LayerStats:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        # Counts taken at span boundaries: LLM calls by schema title,
        # chunks handed to the redundancy layer.
        self.counts: Counter[str] = Counter()
        self.distinct_prompts: set[tuple[str, bytes]] = set()

    def begin(self, name: str, claim_id: str | None = None) -> int:
        parent = self._open[-1] if self._open else None
        if claim_id is None and parent is not None:
            claim_id = self.spans[parent].claim_id
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, claim_id))
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def wrap(self, fn: Callable[..., Any], name: str, on_call: Callable[..., None] | None = None) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if on_call is not None:
                on_call(*args, **kwargs)
            claim_id = next((arg.id for arg in args if isinstance(arg, Claim)), None)
            index = self.begin(name, claim_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def count_llm_call(self, _client: Any, prompt: str, *, schema: Any = None) -> None:
        title = str((schema or {}).get("title"))
        self.counts[f"llm.calls.{title}"] += 1
        self.distinct_prompts.add((title, hashlib.blake2b(prompt.encode("utf-8"), digest_size=16).digest()))

    def count_chunks(self, chunk_texts: Any, *_args: Any, **_kwargs: Any) -> None:
        self.counts["redundancy.chunks"] += len(chunk_texts)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered)
    return result


def summarize(spans: list[Span], stats: dict[str, LayerStats] | None = None) -> dict[str, LayerStats]:
    """Count, total and self time per span name, added into `stats` if given."""
    stats = {} if stats is None else stats
    for span, own in zip(spans, self_times(spans)):
        layer = stats.setdefault(span.name, LayerStats())
        layer.count += 1
        layer.total_s += span.end - span.start
        layer.self_s += own
    return stats


# (module, attribute, span name). The cli module imports its helpers by
# name, so they are wrapped there too; a name a later version no longer
# has is skipped and its layer reads zero.
TARGETS = (
    ("claimaudit.corpus", "ingest", "corpus.ingest"),
    ("claimaudit.corpus", "save_corpus", "corpus.save"),
    ("claimaudit.corpus", "load_corpus", "corpus.load"),
    ("claimaudit.corpus", "embed_chunks", "corpus.embed"),
    ("claimaudit.corpus", "retrieve", "corpus.retrieve"),
    ("claimaudit.cli", "ingest", "corpus.ingest"),
    ("claimaudit.cli", "save_corpus", "corpus.save"),
    ("claimaudit.cli", "load_corpus", "corpus.load"),
    ("claimaudit.cli", "embed_chunks", "corpus.embed"),
    ("claimaudit.calibration", "fit_boldness_model", "calibration.ridge"),
    ("claimaudit.calibration", "grid_search", "calibration.grid_search"),
    ("claimaudit.cli", "fit_boldness_model", "calibration.ridge"),
    ("claimaudit.cli", "grid_search", "calibration.grid_search"),
    ("claimaudit.evaluation", "run_matrix", "evaluation.run_matrix"),
    ("claimaudit.evaluation", "dump_records", "evaluation.dump_records"),
    ("claimaudit.evaluation", "build_report", "evaluation.build_report"),
    ("claimaudit.cli", "run_matrix", "evaluation.run_matrix"),
    ("claimaudit.cli", "dump_records", "evaluation.dump_records"),
    ("claimaudit.cli", "build_report", "evaluation.build_report"),
    ("claimaudit.evaluation", "evidence_for_claim", "corpus.evidence_lookup"),
    ("claimaudit.evaluation", "mock_audit_with_usage", "audit.mock"),
    ("claimaudit.evaluation", "run_audit", "audit.run"),
    ("claimaudit.audit", "build_audit_prompt", "audit.prompt_build"),
    ("claimaudit.audit", "load_template", "audit.template"),
    ("claimaudit.baselines", "load_template", "audit.template"),
    ("claimaudit.audit", "render_audit_response", "audit.render"),
    ("claimaudit.audit", "parse_audit_response", "audit.parse"),
    ("claimaudit.evaluation", "run_cot", "baselines.cot"),
    ("claimaudit.evaluation", "run_selfrag", "baselines.selfrag"),
    ("claimaudit.evaluation", "run_flare", "baselines.flare"),
    ("claimaudit.evaluation", "run_ciber", "baselines.ciber"),
    ("claimaudit.evaluation", "redundancy_for_texts", "redundancy"),
    ("claimaudit.evaluation", "hv", "scoring.hv"),
    ("claimaudit.evaluation", "threshold_for_claim", "threshold"),
    ("claimaudit.evaluation", "hv_verdict", "threshold"),
)


def instrument(tracer: Tracer, client_class: type) -> Callable[[], None]:
    """Wrap every target and `client_class.complete`; returns the undo."""
    undo: list[tuple[Any, str, Any]] = []
    missing = []
    for module_name, attribute, span_name in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attribute, None)
        if original is None:
            missing.append(f"{module_name}.{attribute}")
            continue
        on_call = tracer.count_chunks if span_name == "redundancy" else None
        setattr(module, attribute, tracer.wrap(original, span_name, on_call))
        undo.append((module, attribute, original))
    original_complete = client_class.__dict__["complete"]
    client_class.complete = tracer.wrap(original_complete, "llm.complete", tracer.count_llm_call)
    undo.append((client_class, "complete", original_complete))
    if missing:
        print(f"trace: not wrapped (absent): {', '.join(missing)}", file=sys.stderr)

    def restore() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return restore
