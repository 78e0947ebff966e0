"""Command-line surface: ingest, embed, calibrate, verify, report.

One declarative JSON config drives every command; each flag belongs to
the command that reads it: `verify` narrows a run (--method, --scenario,
--claim-id) or switches it (--seed, --mock), and `report` emits CSV
(--csv). Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import os
import sys
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Sequence

from ._files import write_atomic
from .config import ALL_METHODS, SCENARIO_LABELS, RunConfig, load_config
from .scoring import HvParams
from .threshold import RidgeModel, constant_boldness_model

if TYPE_CHECKING:
    from .corpus import Corpus
    from .llm import LlmClient

_package = sys.modules[__package__]


def __getattr__(name: str) -> object:
    # A public name of the package, imported on first use, so a command
    # loads only the runners it calls. Every command calls it through
    # `_cli`, so a wrapper set on `cli.<name>` (the benchmark's tracer, a
    # test's spy) is what runs. Any other name is absent: passing on
    # `__path__` would make this module look like a package.
    if name not in _package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The function as its module defines it, so a `functools.wraps` wrapper
    # set there (the tracer wraps both names) does not run twice.
    return inspect.unwrap(getattr(_package, name))


# This module, also when `python -m claimaudit.cli` runs it as `__main__`.
_cli = sys.modules[__name__]

logger = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    # Accepted before or after the command.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=argparse.SUPPRESS, help="path to the run configuration JSON")

    parser = argparse.ArgumentParser(
        prog="claimaudit",
        parents=[config],
        description="Audit scientific evidence and decide claims against a calibrated threshold.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run: Callable[..., int], summary: str) -> argparse.ArgumentParser:
        command_parser = sub.add_parser(name, parents=[config], help=summary)
        command_parser.set_defaults(run=run)
        return command_parser

    command("ingest", cmd_ingest, "load and integrity-check the corpus manifest")
    command("embed", cmd_embed, "embed every chunk with the deterministic local embedder")
    command("calibrate", cmd_calibrate, "fit the boldness model and grid-search (alpha, lambda)")
    verify = command("verify", cmd_verify, "run the verdict matrix and write records")
    verify.add_argument("--method", action="append", choices=ALL_METHODS, help="restrict to a method (repeatable)")
    verify.add_argument(
        "--scenario", action="append", choices=SCENARIO_LABELS, help="restrict to a scenario (repeatable)"
    )
    verify.add_argument("--claim-id", help="restrict to a single claim")
    verify.add_argument("--seed", type=int, help="override the configured seed")
    verify.add_argument("--mock", action="store_true", help="run offline with the seeded mock auditor")
    report = command("report", cmd_report, "aggregate stored records into the metrics report")
    report.add_argument("--csv", action="store_true", help="emit machine-readable rows instead of a table")
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


def _usable_cpus() -> int:
    """The CPUs this process may run on: `verify --mock` runs one worker per CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    corpus = _load_corpus(cfg)
    if args.claim_id is not None:
        corpus = replace(corpus, claims={args.claim_id: corpus.claim(args.claim_id)})
    # Only a claim without pinned evidence retrieves, so only then are the vectors read.
    if not corpus.claims.keys() <= corpus.evidence_map.keys():
        corpus = _with_embeddings(cfg, corpus)
    hv_params, ridge = _load_or_default_params(cfg)
    methods = tuple(args.method) if args.method else cfg.methods
    scenarios = tuple(args.scenario) if args.scenario else cfg.scenarios

    client: LlmClient | None = None
    if not args.mock:
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
        seed=cfg.seed if args.seed is None else args.seed,
        mock=args.mock,
        client=client,
        retrieval_k=cfg.retrieval_k,
        token_budget=cfg.token_budget,
        retries=cfg.llm.retries,
        templates=cfg.templates,
        workers=_usable_cpus() if args.mock else 1,
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
    if args.csv:
        print("\n".join(_cli.csv_rows(report)))
    else:
        print(_cli.render_table(report), end="")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    config_path = getattr(args, "config", None)
    if config_path is None:
        parser.error("--config is required")
    try:
        return args.run(load_config(config_path), args)
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
