"""Workloads, timed runs, output checks and metrics of the benchmark.

The package is measured as a batch verifier, the way its users run it:
manifest -> ingest -> embed -> calibrate -> verify -> report. Load comes
from one process and one thread; timed repetitions run one after another
until the run length is spent. A repetition is a full pipeline on fresh
files while set-up has taken less than a third of the run so far, and at
least MIN_REPS times; the others verify and report again from the last
full one's store. So set-up is sampled several times even where it is
slow, and the verify stage, which sets cells_per_s, most often.

End-to-end metrics (untraced repetitions, medians over the repetitions):
  cells_per_s         verdict cells per second of the verify stage (load
                      the store, run the matrix, write the records): the
                      `verify` command's wall time for cli-pinned
  setup_s             manifest to a verify-ready corpus and fitted params
                      (ingest + embed + calibrate)
  verdict_cell_share  cells that got a verdict / cells attempted
  llm_calls_per_cell  calls a live run makes at the client boundary / cells
  peak_rss_mb         peak resident memory of the process that verifies
                      (the CLI children for cli-pinned)

Per-layer metrics come from a separate traced run (`--trace 1`), see
`layer_metrics`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import claimaudit.calibration as ca_calibration
import claimaudit.corpus as ca_corpus
import claimaudit.evaluation as ca_evaluation
from claimaudit.config import RunConfig, load_config
from claimaudit.corpus import SCENARIO_LABELS, HashEmbedder
from claimaudit.evaluation import ALL_METHODS, VerdictRecord
from claimaudit.llm import MockLlm
from claimaudit.scoring import HvParams

import corpusgen
import tracing
from fakellm import FakeLatencyClient

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
REFERENCES = BENCH / "references.json"

MIN_REPS = 3
LIVE_WAIT_S = 0.002
CLI_TIMEOUT_S = 120
# The shipped fixtures run as the README shows; their digests are kept
# under this key and checked by the smoke tests.
FIXTURE_REFERENCE = ("fixtures", 7)
LLM_TITLES = (
    "batch_audit_response",
    "cot_verdict",
    "selfrag_critiques",
    "selfrag_verdict",
    "flare_initial_verdict",
    "flare_final_verdict",
    "ciber_probe_verdict",
)
FAILURE_KINDS = ("empty_scenario", "evidence_lookup", "other")
CLI_STAGES = ("ingest", "embed", "calibrate", "verify", "report")
SETUP_STAGES = ("ingest", "embed", "calibrate")


@dataclass(frozen=True)
class Workload:
    name: str
    scale: int
    claims: int
    pinned: bool
    live: bool
    via_cli: bool
    expected_failures: frozenset[str] = frozenset()


# Why each workload exists is recorded in BENCHMARK.json. Between them
# every layer runs, and each mechanism a later change may speed up has a
# workload that exercises it and one that bypasses it: pinned lookup and
# the CLI (cli-pinned) against retrieval and the live path with LLM wait
# (live-retrieval).
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("cli-pinned", scale=50, claims=100, pinned=True, live=False, via_cli=True),
        Workload(
            "live-retrieval", scale=50, claims=40, pinned=False, live=True, via_cli=False,
            expected_failures=frozenset({"empty_scenario"}),
        ),
    )
}


class CheckFailed(Exception):
    """An output check failed; the run reports no numbers."""


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics.items()},
        }


@dataclass
class Rep:
    """One timed repetition: stage wall times, output digests, failures."""

    walls: dict[str, float]
    digests: dict[str, str]
    failures: int
    live_calls: int = 0
    layers: dict[str, float] | None = None

    @property
    def full(self) -> bool:
        return SETUP_STAGES[0] in self.walls

    @property
    def setup_s(self) -> float:
        return sum(self.walls[stage] for stage in SETUP_STAGES)


def stages(full: bool) -> tuple[str, ...]:
    return CLI_STAGES if full else CLI_STAGES[len(SETUP_STAGES) :]


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def failure_kind(message: str) -> str:
    if message.startswith("no evidence chunks survive scenario"):
        return "empty_scenario"
    if message.startswith("evidence lookup failed"):
        return "evidence_lookup"
    return "other"


def check_records(records: tuple[VerdictRecord, ...], claim_ids: list[str], expected_failures: frozenset[str]) -> int:
    """Raise CheckFailed on a wrong record set; return the failure records."""
    expected = [(claim, method, label) for claim in claim_ids for method in ALL_METHODS for label in SCENARIO_LABELS]
    got = [(record.claim_id, record.method, record.scenario) for record in records]
    if got != expected:
        raise CheckFailed(f"{len(got)} records, expected {len(expected)} in claim-major order")
    failures = 0
    for record in records:
        if record.failure is not None:
            failures += 1
            kind = failure_kind(record.failure)
            if kind not in expected_failures:
                raise CheckFailed(f"unexpected {kind} failure of {record.claim_id}/{record.method}: {record.failure}")
        elif record.method == "audit" and record.hv is not None:
            if (record.verdict == "Valid") != (record.hv >= record.tau):
                raise CheckFailed(f"audit verdict {record.verdict} of {record.claim_id} contradicts hv >= tau")
    return failures


def stored_reference(workload: str, seed: int) -> dict[str, str] | None:
    return json.loads(REFERENCES.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def check_reference(workload: str, seed: int, digests: dict[str, str]) -> None:
    """Compare output digests with the stored ones, when stored."""
    stored = stored_reference(workload, seed)
    if stored is None:
        print(f"note: no stored reference for {workload} seed {seed}; cross-checks only", file=sys.stderr)
        return
    for name, digest in digests.items():
        if stored.get(name) != digest:
            raise CheckFailed(f"{workload} {name} sha256 {digest} differs from the reference {stored.get(name)}")


def fixture_config() -> RunConfig:
    return load_config(FIXTURES / "config.json")


def write_inputs(workload: Workload, seed: int, directory: Path) -> tuple[Path, list[str]]:
    fixture = json.loads((FIXTURES / "manifest.json").read_text(encoding="utf-8"))
    manifest = corpusgen.build_manifest(
        fixture, scale=workload.scale, n_claims=workload.claims, seed=seed, pinned=workload.pinned
    )
    path = directory / "manifest.json"
    corpusgen.write_manifest(manifest, path)
    return path, [claim["id"] for claim in manifest["claims"]]


def verify(corpus: Any, params: HvParams, ridge: Any, cfg: RunConfig, seed: int, client: Any) -> Any:
    return ca_evaluation.run_matrix(
        corpus,
        ALL_METHODS,
        SCENARIO_LABELS,
        cfg.ablations,
        params,
        ridge,
        cfg.threshold,
        seed=seed,
        mock=client is None,
        client=client,
        retrieval_k=cfg.retrieval_k,
        token_budget=cfg.token_budget,
        retries=cfg.llm.retries,
    )


def load_verify_inputs(out: Path, cfg: RunConfig) -> tuple[Any, HvParams, Any]:
    """The store and params a pipeline left in `out`, ready to verify.

    The store does not keep the embedder, so it is attached to the loaded
    corpus the way `embed_chunks` attaches it.
    """
    embedder = HashEmbedder(dim=cfg.embed_dim, seed=cfg.embed_seed)
    corpus = replace(ca_corpus.load_corpus(out / "store"), embedder=embedder)
    params, ridge = ca_calibration.load_params(out / "params.json")
    return corpus, params, ridge


def in_process_rep(
    workload: Workload,
    manifest: Path,
    claim_ids: list[str],
    cfg: RunConfig,
    out: Path,
    seed: int,
    full: bool,
    tracer: tracing.Tracer | None,
) -> Rep:
    """The stages through the library, timed, then the output checks.

    A full repetition starts from the manifest; the others verify and
    report from the store in `out`. Traced when given a tracer. Records
    are not kept past the checks, so repetitions do not grow the heap the
    next one collects.
    """
    store = out / "store"
    client = FakeLatencyClient(seed, LIVE_WAIT_S) if workload.live else None
    restore = tracing.instrument(tracer, FakeLatencyClient if workload.live else MockLlm) if tracer else None
    if full:
        shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    try:
        marks = [time.perf_counter()]
        if full:
            ca_corpus.save_corpus(ca_corpus.ingest(manifest), store)
            marks.append(time.perf_counter())
            embedder = HashEmbedder(dim=cfg.embed_dim, seed=cfg.embed_seed)
            ca_corpus.save_corpus(ca_corpus.embed_chunks(ca_corpus.load_corpus(store), embedder), store)
            marks.append(time.perf_counter())
            calibration = ca_calibration.load_calibration_records(cfg.calibration)
            ridge = ca_calibration.fit_boldness_model(calibration, cfg.gamma)
            alpha, lambda_ = ca_calibration.grid_search(calibration, cfg.grid, cfg.threshold, ridge)
            ca_calibration.save_params(out / "params.json", HvParams(alpha=alpha, lambda_=lambda_), ridge)
            marks.append(time.perf_counter())
        report = verify(*load_verify_inputs(out, cfg), cfg, seed, client)
        records_text = ca_evaluation.dump_records(report.records)
        (out / "records.jsonl").write_text(records_text, encoding="utf-8")
        marks.append(time.perf_counter())
        summary = ca_evaluation.build_report(report.records)
        report_text = json.dumps(summary.to_json(), indent=2, sort_keys=True) + "\n"
        (out / "report.json").write_text(report_text, encoding="utf-8")
        marks.append(time.perf_counter())
    finally:
        if restore:
            restore()
    rep = Rep(
        walls={stage: end - start for stage, start, end in zip(stages(full), marks, marks[1:])},
        digests={"records": sha256(records_text), "report": sha256(report_text)},
        failures=check_records(report.records, claim_ids, workload.expected_failures),
        live_calls=sum(client.calls.values()) if client else 0,
    )
    if tracer:
        stats = tracing.summarize(tracer.spans)
        rep.layers = layer_metrics(stats, tracer, report.records, waited_s=client.waited_s if client else 0.0)
    return rep


def cli_rep(
    workload: Workload,
    manifest: Path,
    claim_ids: list[str],
    out: Path,
    seed: int,
    full: bool,
    tracer: tracing.Tracer | None,
) -> Rep:
    """The `claimaudit` commands as subprocesses.

    A full repetition runs all five on fresh files, with the shipped
    fixtures' config and calibration records; the others run verify and
    report again. Traced runs start each command through cli_traced.py
    and merge its spans.
    """
    if full:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        shutil.copyfile(manifest, out / "manifest.json")
        for name in ("calibration.jsonl", "config.json"):
            shutil.copyfile(FIXTURES / name, out / name)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    walls: dict[str, float] = {}
    traces = []
    gc.collect()
    for stage in stages(full):
        argv = ["--config", str(out / "config.json"), stage]
        if stage == "verify":
            argv += ["--mock", "--seed", str(seed)]
        trace_file = out / f"trace-{stage}.json"
        if tracer:
            argv = [sys.executable, str(BENCH / "cli_traced.py"), str(trace_file), *argv]
        else:
            argv = [sys.executable, "-m", "claimaudit.cli", *argv]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=out, env=env, capture_output=True, timeout=CLI_TIMEOUT_S)
        walls[stage] = time.perf_counter() - start
        if proc.returncode != 0:
            raise CheckFailed(f"claimaudit {stage} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
        if tracer:
            traces.append(json.loads(trace_file.read_text(encoding="utf-8")))
    records = tuple(ca_evaluation.load_records(out / "out" / "records.jsonl"))
    rep = Rep(
        walls=walls,
        digests={
            "records": sha256((out / "out" / "records.jsonl").read_bytes()),
            "report": sha256((out / "out" / "report.json").read_bytes()),
        },
        failures=check_records(records, claim_ids, workload.expected_failures),
    )
    if tracer:
        stats: dict[str, tracing.LayerStats] = {}
        for trace in traces:
            tracing.summarize([tracing.Span(*fields) for fields in trace["spans"]], stats)
            tracer.counts.update(trace["counts"])
            tracer.distinct_prompts.update((title, bytes.fromhex(digest)) for title, digest in trace["distinct"])
        rep.layers = layer_metrics(stats, tracer, records, waited_s=0.0)
        rep.layers["cli.import_s"] = sum(trace["import_s"] for trace in traces)
    return rep


def fixture_digests(out: Path) -> dict[str, str]:
    """Digests of the shipped fixtures' records and report, via the CLI."""
    name, seed = FIXTURE_REFERENCE
    workload = Workload(name, scale=1, claims=10, pinned=True, live=False, via_cli=True)
    manifest = FIXTURES / "manifest.json"
    claim_ids = [claim["id"] for claim in json.loads(manifest.read_text(encoding="utf-8"))["claims"]]
    return cli_rep(workload, manifest, claim_ids, out, seed, True, None).digests


def replay(workload: Workload, out: Path, cfg: RunConfig, seed: int, digest: str) -> int:
    """Verify the last repetition's store again through the other LLM path.

    Untimed. Its records must be the same bytes. A mock run replays
    through the live path with a zero-wait fake client, which also counts
    the calls a live run makes; a live run replays through the mock path.
    Returns the call count of the replay.
    """
    store_root = out / "out" if workload.via_cli else out
    client = FakeLatencyClient(seed, 0.0)
    other = verify(*load_verify_inputs(store_root, cfg), cfg, seed, None if workload.live else client)
    if sha256(ca_evaluation.dump_records(other.records)) != digest:
        raise CheckFailed(f"{workload.name}: live-path and mock-path records differ")
    return sum(client.calls.values())


def layer_metrics(
    stats: dict[str, tracing.LayerStats], tracer: tracing.Tracer, records: tuple[VerdictRecord, ...], waited_s: float
) -> dict[str, float]:
    """Per-layer numbers of one traced pipeline; times are self times."""

    def own(span: str) -> float:
        return stats[span].self_s if span in stats else 0.0

    def count(span: str) -> float:
        return float(stats[span].count) if span in stats else 0.0

    matrix_s = stats["evaluation.run_matrix"].total_s if "evaluation.run_matrix" in stats else 0.0
    calls = count("llm.complete")
    kinds = [failure_kind(record.failure) for record in records if record.failure is not None]
    return {
        "corpus.ingest_s": own("corpus.ingest"),
        "corpus.save_s": own("corpus.save"),
        "corpus.load_s": own("corpus.load"),
        "corpus.embed_s": own("corpus.embed"),
        "corpus.evidence_lookup_s": own("corpus.evidence_lookup"),
        "corpus.retrieve_s": own("corpus.retrieve"),
        "corpus.retrieve_calls": count("corpus.retrieve"),
        "corpus.evidence_lookup_share": own("corpus.evidence_lookup") / matrix_s if matrix_s else 0.0,
        "corpus.retrieve_share": own("corpus.retrieve") / matrix_s if matrix_s else 0.0,
        "audit.template_loads": count("audit.template"),
        "audit.template_s": own("audit.template"),
        "audit.prompt_build_s": own("audit.prompt_build"),
        "audit.mock_s": own("audit.mock"),
        "audit.render_s": own("audit.render"),
        "audit.run_s": own("audit.run"),
        "audit.parse_s": own("audit.parse"),
        "baselines.cot_s": own("baselines.cot"),
        "baselines.selfrag_s": own("baselines.selfrag"),
        "baselines.flare_s": own("baselines.flare"),
        "baselines.ciber_s": own("baselines.ciber"),
        "llm.calls": calls,
        **{f"llm.calls.{title}": float(tracer.counts[f"llm.calls.{title}"]) for title in LLM_TITLES},
        "llm.complete_s": own("llm.complete"),
        "llm.wait_s": waited_s,
        "llm.distinct_share": len(tracer.distinct_prompts) / calls if calls else 0.0,
        "redundancy.s": own("redundancy"),
        "redundancy.chunks": float(tracer.counts["redundancy.chunks"]),
        "scoring.hv_s": own("scoring.hv"),
        "threshold.s": own("threshold"),
        "calibration.grid_search_s": own("calibration.grid_search"),
        "calibration.ridge_s": own("calibration.ridge"),
        "evaluation.run_matrix_s": matrix_s,
        "evaluation.run_matrix_self_s": own("evaluation.run_matrix"),
        "evaluation.dump_records_s": own("evaluation.dump_records"),
        "evaluation.build_report_s": own("evaluation.build_report"),
        **{f"evaluation.failed_cells.{kind}": float(kinds.count(kind)) for kind in FAILURE_KINDS},
        "cli.import_s": 0.0,
    }


def layer_unit(name: str) -> str:
    if name.endswith(("_calls", "_loads", ".chunks")) or name.startswith(("llm.calls", "evaluation.failed_cells.")):
        return "count"
    if name.endswith("_share") or name == "trace.overhead":
        return "ratio"
    return "s"


def run(name: str, seed: int, seconds: float, traced: bool, work: Path) -> Outcome:
    workload = WORKLOADS[name]
    cfg = fixture_config()
    manifest, claim_ids = write_inputs(workload, seed, work)
    out = work / "out"

    def one(full: bool, tracer: tracing.Tracer | None) -> Rep:
        if workload.via_cli:
            return cli_rep(workload, manifest, claim_ids, out, seed, full, tracer)
        return in_process_rep(workload, manifest, claim_ids, cfg, out, seed, full, tracer)

    # Traced runs pair each traced full pipeline with an untraced one.
    plain: list[Rep] = []
    traced_reps: list[Rep] = []
    start = time.perf_counter()
    while sum(rep.full for rep in plain) < (1 if traced else MIN_REPS) or time.perf_counter() - start < seconds:
        setup_s = sum(rep.setup_s for rep in plain if rep.full)
        plain.append(one(traced or setup_s < (time.perf_counter() - start) / 3 or not plain, None))
        if traced:
            traced_reps.append(one(True, tracing.Tracer()))
        rep = plain[-1]
        setup = f"setup {rep.setup_s:.3f} s, " if rep.full else ""
        print(f"rep {len(plain)}: {setup}verify {rep.walls['verify']:.3f} s", file=sys.stderr)

    reps = plain + traced_reps
    last = reps[-1]
    if any(rep.digests != last.digests for rep in reps):
        raise CheckFailed(f"{name}: repetitions wrote different outputs")
    check_reference(name, seed, last.digests)
    replay_calls = replay(workload, out, cfg, seed, last.digests["records"])
    live_calls = last.live_calls if workload.live else replay_calls

    cells = len(claim_ids) * len(ALL_METHODS) * len(SCENARIO_LABELS)
    attempted = cells * len(reps)
    verify_s = statistics.median(rep.walls["verify"] for rep in plain)
    if traced:
        layers = {key: statistics.median(rep.layers[key] for rep in traced_reps) for key in last.layers}
        for stage in CLI_STAGES:
            layers[f"cli.{stage}_s"] = statistics.median(rep.walls[stage] for rep in plain) if workload.via_cli else 0.0
        layers["trace.overhead"] = verify_s / statistics.median(rep.walls["verify"] for rep in traced_reps)
        return Outcome(True, attempted, 0, {key: (value, layer_unit(key)) for key, value in layers.items()})
    rss = resource.getrusage(resource.RUSAGE_CHILDREN if workload.via_cli else resource.RUSAGE_SELF).ru_maxrss
    return Outcome(
        True,
        attempted,
        0,
        {
            "cells_per_s": (cells / verify_s, "1/s"),
            "setup_s": (statistics.median(rep.setup_s for rep in plain if rep.full), "s"),
            "verdict_cell_share": ((cells - last.failures) / cells, "ratio"),
            "llm_calls_per_cell": (live_calls / cells, "calls/cell"),
            "peak_rss_mb": (rss / 1024.0, "MB"),
        },
    )


def src_line_count() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in sorted(SRC.rglob("*.py")))
