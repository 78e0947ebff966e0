"""Declarative run configuration: one JSON file drives every command.

Validation is fail-fast: unknown keys at any level are rejected, input
paths must exist, and ${ENV_VAR} interpolation resolves secrets without
writing them into the file. Relative paths are taken relative to the
config file's own directory so a config travels with its fixtures.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .audit import DEFAULT_TOKEN_BUDGET
from .calibration import Grid, default_grid
from .core import RequiredStandard
from .corpus import DEFAULT_EMBED_DIM, DEFAULT_RETRIEVAL_K, SCENARIO_LABELS
from .evaluation import ALL_METHODS, AblationFlags
from .llm import DEFAULT_RETRIES
from .scoring import HvParams
from .threshold import ConfigError, ThresholdConfig

_ENV_PATTERN = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


@dataclass(frozen=True)
class LlmSettings:
    base_url: str | None = None
    model: str | None = None
    api_key: str | None = None
    max_in_flight: int = 4
    retries: int = DEFAULT_RETRIES
    timeout: float = 60.0


@dataclass(frozen=True)
class RunConfig:
    manifest: Path
    store: Path
    output: Path
    params: Path
    calibration: Path | None
    templates: Path | None
    hv: HvParams
    threshold: ThresholdConfig
    grid: Grid
    gamma: float
    llm: LlmSettings
    embed_dim: int
    embed_seed: int
    retrieval_k: int
    token_budget: int
    methods: tuple[str, ...]
    scenarios: tuple[str, ...]
    ablations: AblationFlags
    seed: int


def _interpolate(value: Any, context: str) -> Any:
    """Resolve ${VAR} references in strings, recursively through containers."""
    if isinstance(value, str):
        whole = _ENV_PATTERN.fullmatch(value)
        if whole:
            # A value that is exactly one reference may resolve to absent.
            return os.environ.get(whole.group(1))

        def resolve(match: re.Match[str]) -> str:
            name = match.group(1)
            resolved = os.environ.get(name)
            if resolved is None:
                raise ConfigError(f"{context}: environment variable {name} is not set")
            return resolved

        return _ENV_PATTERN.sub(resolve, value)
    if isinstance(value, dict):
        return {key: _interpolate(item, f"{context}.{key}") for key, item in value.items()}
    if isinstance(value, list):
        return [_interpolate(item, f"{context}[{i}]") for i, item in enumerate(value)]
    return value


def _check_keys(payload: Mapping[str, Any], allowed: set[str], context: str) -> None:
    unknown = payload.keys() - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")


def _as_path(base: Path, value: Any, context: str) -> Path:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{context}: expected a path string, got {value!r}")
    path = Path(value)
    return path if path.is_absolute() else base / path


def _at_least(value: int, minimum: int, context: str) -> int:
    if value < minimum:
        raise ConfigError(f"{context}: must be at least {minimum}, got {value}")
    return value


def _positive(value: float, context: str) -> float:
    if not value > 0:
        raise ConfigError(f"{context}: must be positive, got {value}")
    return value


def _parse_threshold(payload: Mapping[str, Any]) -> ThresholdConfig:
    _check_keys(payload, {"priors", "C", "N_base", "clamp"}, "threshold")
    kwargs: dict[str, Any] = {}
    if "priors" in payload:
        by_label = {standard.value: standard for standard in RequiredStandard}
        priors = {}
        for label, prior in payload["priors"].items():
            if label not in by_label:
                raise ConfigError(f"threshold.priors: unknown standard {label!r}")
            priors[by_label[label]] = float(prior)
        kwargs["priors"] = priors
    if "C" in payload:
        kwargs["scaling_c"] = float(payload["C"])
    if "N_base" in payload:
        kwargs["n_base"] = int(payload["N_base"])
    if "clamp" in payload:
        clamp = payload["clamp"]
        if not isinstance(clamp, list) or len(clamp) != 2:
            raise ConfigError(f"threshold.clamp: expected [lo, hi], got {clamp!r}")
        kwargs["clamp_lo"] = float(clamp[0])
        kwargs["clamp_hi"] = float(clamp[1])
    return ThresholdConfig(**kwargs)


def _parse_grid(payload: Mapping[str, Any]) -> tuple[Grid, float]:
    _check_keys(payload, {"alpha_values", "lambda_values", "gamma"}, "grid")
    base = default_grid()
    alphas = tuple(float(x) for x in payload.get("alpha_values", base.alpha_values))
    lambdas = tuple(float(x) for x in payload.get("lambda_values", base.lambda_values))
    try:
        grid = Grid(alpha_values=alphas, lambda_values=lambdas)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from None
    return grid, float(payload.get("gamma", 1.0))


def _parse_llm(payload: Mapping[str, Any]) -> LlmSettings:
    _check_keys(payload, {"base_url", "model", "api_key", "max_in_flight", "retries", "timeout"}, "llm")
    default = LlmSettings()
    return LlmSettings(
        base_url=payload.get("base_url"),
        model=payload.get("model"),
        api_key=payload.get("api_key"),
        max_in_flight=_at_least(int(payload.get("max_in_flight", default.max_in_flight)), 1, "llm.max_in_flight"),
        retries=_at_least(int(payload.get("retries", default.retries)), 0, "llm.retries"),
        timeout=_positive(float(payload.get("timeout", default.timeout)), "llm.timeout"),
    )


def load_config(config_path: str | Path) -> RunConfig:
    """Parse, interpolate, and validate a run configuration file."""
    path = Path(config_path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: config is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    payload = _interpolate(payload, "config")

    _check_keys(
        payload,
        {"paths", "hv", "threshold", "grid", "llm", "embedding", "run", "ablations", "seed"},
        "config",
    )
    base = path.resolve().parent

    raw_paths = payload.get("paths", {})
    _check_keys(raw_paths, {"manifest", "store", "output", "params", "calibration", "templates"}, "paths")
    if "manifest" not in raw_paths:
        raise ConfigError("paths.manifest is required")
    manifest = _as_path(base, raw_paths["manifest"], "paths.manifest")
    if not manifest.exists():
        raise ConfigError(f"paths.manifest does not exist: {manifest}")
    output = _as_path(base, raw_paths.get("output", "out"), "paths.output")
    store = _as_path(base, raw_paths["store"], "paths.store") if "store" in raw_paths else output / "store"
    params = _as_path(base, raw_paths["params"], "paths.params") if "params" in raw_paths else output / "params.json"
    calibration = None
    if raw_paths.get("calibration") is not None:
        calibration = _as_path(base, raw_paths["calibration"], "paths.calibration")
        if not calibration.exists():
            raise ConfigError(f"paths.calibration does not exist: {calibration}")
    templates = None
    if raw_paths.get("templates") is not None:
        templates = _as_path(base, raw_paths["templates"], "paths.templates")
        if not templates.is_dir():
            raise ConfigError(f"paths.templates is not a directory: {templates}")

    raw_hv = payload.get("hv", {})
    _check_keys(raw_hv, {"alpha", "lambda"}, "hv")
    hv_params = HvParams(
        alpha=float(raw_hv.get("alpha", HvParams().alpha)),
        lambda_=float(raw_hv.get("lambda", HvParams().lambda_)),
    )

    threshold = _parse_threshold(payload.get("threshold", {}))
    grid, gamma = _parse_grid(payload.get("grid", {}))
    llm = _parse_llm(payload.get("llm", {}))

    raw_embedding = payload.get("embedding", {})
    _check_keys(raw_embedding, {"dim", "seed"}, "embedding")
    embed_dim = int(raw_embedding.get("dim", DEFAULT_EMBED_DIM))
    embed_seed = int(raw_embedding.get("seed", 0))

    raw_run = payload.get("run", {})
    _check_keys(raw_run, {"retrieval_k", "token_budget", "methods", "scenarios"}, "run")
    methods = tuple(raw_run.get("methods", ALL_METHODS))
    unknown_methods = [method for method in methods if method not in ALL_METHODS]
    if unknown_methods:
        raise ConfigError(f"run.methods: unknown methods {unknown_methods}; allowed: {list(ALL_METHODS)}")
    scenarios = tuple(raw_run.get("scenarios", SCENARIO_LABELS))
    unknown_scenarios = [label for label in scenarios if label not in SCENARIO_LABELS]
    if unknown_scenarios:
        raise ConfigError(
            f"run.scenarios: unknown scenarios {unknown_scenarios}; allowed: {list(SCENARIO_LABELS)}"
        )

    try:
        ablations = AblationFlags.from_json(payload.get("ablations", {}))
    except ValueError as exc:
        raise ConfigError(f"ablations: {exc}") from None

    return RunConfig(
        manifest=manifest,
        store=store,
        output=output,
        params=params,
        calibration=calibration,
        templates=templates,
        hv=hv_params,
        threshold=threshold,
        grid=grid,
        gamma=gamma,
        llm=llm,
        embed_dim=embed_dim,
        embed_seed=embed_seed,
        retrieval_k=_at_least(int(raw_run.get("retrieval_k", DEFAULT_RETRIEVAL_K)), 1, "run.retrieval_k"),
        token_budget=_at_least(int(raw_run.get("token_budget", DEFAULT_TOKEN_BUDGET)), 1, "run.token_budget"),
        methods=methods,
        scenarios=scenarios,
        ablations=ablations,
        seed=int(payload.get("seed", 0)),
    )
