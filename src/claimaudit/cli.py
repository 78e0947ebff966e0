"""Command-line surface: ingest, embed, calibrate, verify, report.

One declarative JSON config drives every command; flags narrow a run
(--method, --scenario, --claim-id) or switch modes (--mock, --csv).
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import logging
import sys
from dataclasses import replace
from typing import TYPE_CHECKING, Sequence

from ._files import write_atomic
from .config import ALL_METHODS, SCENARIO_LABELS, RunConfig, load_config
from .scoring import HvParams
from .threshold import RidgeModel, constant_boldness_model

if TYPE_CHECKING:
    from .corpus import Corpus
    from .llm import LlmClient

# Each runner name a command calls, under the module that defines it. A
# name is imported on first use, so a command loads only the runners it
# calls, and every command calls it through `_cli`, so a wrapper set on
# `cli.<name>` (the benchmark's tracer, a test's spy) is what runs.
# `dump_records` is listed because the tracer's target list names it here.
_RUNNERS = {
    "calibration": ("fit_boldness_model", "grid_search", "load_calibration_records", "load_params", "save_params"),
    "corpus": (
        "HashEmbedder", "embed_chunks", "ingest", "load_corpus", "load_embeddings", "save_corpus", "save_embeddings",
    ),
    "evaluation": (
        "build_report", "csv_rows", "dump_records", "load_records", "record_line", "render_table", "run_matrix",
    ),
    "llm": ("HttpChatClient",),
}


def __getattr__(name: str) -> object:
    for module, names in _RUNNERS.items():
        if name in names:
            # The function as the runner defines it: a `functools.wraps`
            # wrapper set on the runner's module (the tracer wraps both
            # names) does not run a second time under one set on `cli.<name>`.
            return inspect.unwrap(getattr(importlib.import_module(f".{module}", __package__), name))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# This module, also when `python -m claimaudit.cli` runs it as `__main__`.
_cli = sys.modules[__name__]

logger = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="path to the run configuration JSON")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="override the configured seed")
    common.add_argument(
        "--mock", action="store_true", default=argparse.SUPPRESS, help="run offline with the seeded mock auditor"
    )
    common.add_argument(
        "--csv", action="store_true", default=argparse.SUPPRESS, help="emit machine-readable rows instead of a table"
    )

    parser = argparse.ArgumentParser(
        prog="claimaudit",
        parents=[common],
        description="Audit scientific evidence and decide claims against a calibrated threshold.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", parents=[common], help="load and integrity-check the corpus manifest")
    sub.add_parser("embed", parents=[common], help="embed every chunk with the deterministic local embedder")
    sub.add_parser("calibrate", parents=[common], help="fit the boldness model and grid-search (alpha, lambda)")
    verify = sub.add_parser("verify", parents=[common], help="run the verdict matrix and write records")
    verify.add_argument("--method", action="append", choices=ALL_METHODS, help="restrict to a method (repeatable)")
    verify.add_argument(
        "--scenario", action="append", choices=SCENARIO_LABELS, help="restrict to a scenario (repeatable)"
    )
    verify.add_argument("--claim-id", help="restrict to a single claim")
    sub.add_parser("report", parents=[common], help="aggregate stored records into the metrics report")
    return parser


def _load_corpus(cfg: RunConfig) -> Corpus:
    """The store's corpus without its vectors, or the manifest's if there is no store yet."""
    if not (cfg.store / "manifest.json").exists():
        return _cli.ingest(cfg.manifest)
    return _cli.load_corpus(cfg.store, embeddings=False)


def _with_embeddings(cfg: RunConfig, corpus: Corpus) -> Corpus:
    """`corpus` ready to retrieve: the store's vectors, if there is a store, and the embedder that made them."""
    if (cfg.store / "manifest.json").exists():
        corpus = _cli.load_embeddings(corpus, cfg.store)
    if corpus.vectors:
        # The store keeps the vectors, not the embedder that made them.
        corpus = replace(corpus, embedder=_cli.HashEmbedder(dim=cfg.embed_dim, seed=cfg.embed_seed))
    return corpus


def _load_or_default_params(cfg: RunConfig) -> tuple[HvParams, RidgeModel]:
    if cfg.params.exists():
        return _cli.load_params(cfg.params)
    logger.info("no calibrated params at %s; using configured defaults", cfg.params)
    return cfg.hv, constant_boldness_model()


def cmd_ingest(cfg: RunConfig, args: argparse.Namespace) -> int:
    corpus = _cli.ingest(cfg.manifest)
    _cli.save_corpus(corpus, cfg.store)
    print(
        f"ingested {len(corpus.documents)} documents ({len(corpus.all_chunks())} chunks), "
        f"{len(corpus.claims)} claims into {cfg.store}"
    )
    return 0


def cmd_embed(cfg: RunConfig, args: argparse.Namespace) -> int:
    corpus = _load_corpus(cfg)
    embedded = _cli.embed_chunks(corpus, _cli.HashEmbedder(dim=cfg.embed_dim, seed=cfg.embed_seed))
    # Embedding changes no byte of a stored manifest, so only a new store gets one.
    (_cli.save_embeddings if (cfg.store / "manifest.json").exists() else _cli.save_corpus)(embedded, cfg.store)
    print(f"embedded {len(embedded.all_chunks())} chunks at dimension {cfg.embed_dim} into {cfg.store}")
    return 0


def cmd_calibrate(cfg: RunConfig, args: argparse.Namespace) -> int:
    if cfg.calibration is None:
        print("error: paths.calibration must be set for the calibrate command", file=sys.stderr)
        return 1
    records = _cli.load_calibration_records(cfg.calibration)
    ridge = _cli.fit_boldness_model(records, cfg.gamma)
    alpha, lambda_ = _cli.grid_search(records, cfg.grid, cfg.threshold, ridge)
    _cli.save_params(cfg.params, HvParams(alpha=alpha, lambda_=lambda_), ridge)
    print(f"calibrated alpha={alpha} lambda={lambda_} from {len(records)} records; wrote {cfg.params}")
    return 0


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    mock = getattr(args, "mock", False)
    corpus = _load_corpus(cfg)
    claim_id = getattr(args, "claim_id", None)
    if claim_id is not None:
        corpus = replace(corpus, claims={claim_id: corpus.claim(claim_id)})
    # Only a claim without pinned evidence retrieves, so only then are the vectors read.
    if not corpus.claims.keys() <= corpus.evidence_map.keys():
        corpus = _with_embeddings(cfg, corpus)
    hv_params, ridge = _load_or_default_params(cfg)
    methods = tuple(args.method) if args.method else cfg.methods
    scenarios = tuple(args.scenario) if args.scenario else cfg.scenarios

    client: LlmClient | None = None
    if not mock:
        # Raises before any request leaves the machine if the key is absent.
        client = _cli.HttpChatClient(
            base_url=cfg.llm.base_url,
            model=cfg.llm.model,
            api_key=cfg.llm.api_key,
            max_in_flight=cfg.llm.max_in_flight,
            timeout=cfg.llm.timeout,
        )

    report = _cli.run_matrix(
        corpus,
        methods,
        scenarios,
        cfg.ablations,
        hv_params,
        ridge,
        cfg.threshold,
        seed=cfg.seed,
        mock=mock,
        client=client,
        retrieval_k=cfg.retrieval_k,
        token_budget=cfg.token_budget,
        retries=cfg.llm.retries,
        templates=cfg.templates,
    )
    records_path = cfg.output / "records.jsonl"
    write_atomic(records_path, map(_cli.record_line, report.records))
    failures = sum(1 for record in report.records if record.failure is not None)
    print(f"wrote {len(report.records)} verdict records ({failures} failures) to {records_path}")
    return 0


def cmd_report(cfg: RunConfig, args: argparse.Namespace) -> int:
    records_path = cfg.output / "records.jsonl"
    if not records_path.exists():
        print(f"error: no records at {records_path}; run verify first", file=sys.stderr)
        return 1
    records = _cli.load_records(records_path)
    if not records:
        print(f"error: {records_path} holds no records", file=sys.stderr)
        return 1
    report = _cli.build_report(records)
    write_atomic(cfg.output / "report.json", (json.dumps(report.to_json(), indent=2, sort_keys=True), "\n"))
    if getattr(args, "csv", False):
        print("\n".join(_cli.csv_rows(report)))
    else:
        print(_cli.render_table(report), end="")
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "embed": cmd_embed,
    "calibrate": cmd_calibrate,
    "verify": cmd_verify,
    "report": cmd_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    config_path = getattr(args, "config", None)
    if config_path is None:
        parser.error("--config is required")
    try:
        cfg = load_config(config_path)
        seed = getattr(args, "seed", None)
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        return _COMMANDS[args.command](cfg, args)
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
