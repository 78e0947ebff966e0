"""Declarative run configuration: one JSON file drives every command.

Validation is fail-fast: unknown keys at any level are rejected, every
value is read by one typed reader that rejects the wrong JSON type or an
out-of-range value by its `section.key`, input paths must exist, and
${ENV_VAR} interpolation resolves secrets without writing them into the
file. Relative paths are taken relative to the config file's own
directory so a config travels with its fixtures.

This module also owns the settings records and defaults a config fills;
the runners read them from here, and it imports no runner, so a command
loads only the runners it calls.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Container

from ._files import json_array, json_optional, json_value
from .core import RequiredStandard
from .scoring import HvParams
from .threshold import CLAMP_HI_DEFAULT, CLAMP_LO_DEFAULT, DEFAULT_PRIORS, ConfigError, ThresholdConfig

_ENV_PATTERN = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")

# The methods of the verify matrix, in report order: the audit pipeline and
# the four baselines. `evaluation._CELLS` maps each to the code that runs it.
ALL_METHODS = ("audit", "cot", "selfrag", "flare", "ciber")
SCENARIO_LABELS = ("TY0", "TY1", "TY3", "TY5")
DEFAULT_RETRIEVAL_K = 10
DEFAULT_EMBED_DIM = 64
# The approximate size cap of one audit prompt, in tokens.
DEFAULT_TOKEN_BUDGET = 100_000
DEFAULT_RETRIES = 3
# Concurrent requests one HttpChatClient sends at most.
DEFAULT_MAX_IN_FLIGHT = 4
# Seconds one HTTP request may take.
DEFAULT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class AblationFlags:
    use_hv_score: bool = True
    use_dynamic_threshold: bool = True
    use_redundancy_penalty: bool = True


@dataclass(frozen=True)
class Grid:
    """The brute-force search space; both axes strictly increasing."""

    alpha_values: tuple[float, ...]
    lambda_values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.alpha_values or not self.lambda_values:
            raise ValueError("grid axes must be nonempty")
        for name, axis in (("alpha", self.alpha_values), ("lambda", self.lambda_values)):
            if any(b <= a for a, b in zip(axis, axis[1:])):
                raise ValueError(f"{name} values must be strictly increasing")
        if self.lambda_values[0] <= 0:
            raise ValueError("all lambda values must be > 0")


def default_grid() -> Grid:
    # 41 x 40 cells; cheap to sweep exhaustively and brackets the defaults.
    return Grid(
        alpha_values=tuple(round(i * 0.05, 2) for i in range(0, 41)),
        lambda_values=tuple(round(i * 0.05, 2) for i in range(1, 41)),
    )


@dataclass(frozen=True)
class LlmSettings:
    base_url: str | None = None
    model: str | None = None
    api_key: str | None = None
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT
    retries: int = DEFAULT_RETRIES
    timeout: float = DEFAULT_TIMEOUT_S


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


class _Section:
    """One JSON object of the config, with its keys checked; `name` is "" for the root.

    Each reader returns its default for an absent key and raises
    ConfigError naming `section.key` for a value of the wrong JSON type
    or out of its range.
    """

    def __init__(self, name: str, values: Any, allowed: set[str]) -> None:
        if not isinstance(values, dict):
            raise ConfigError(f"{name}: expected an object, got {values!r}")
        unknown = values.keys() - allowed
        if unknown:
            raise ConfigError(f"{name or 'config'}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")
        self.name = name
        self.values = values

    def _key(self, key: str) -> str:
        return f"{self.name}.{key}" if self.name else key

    def object(self, key: str, allowed: set[str]) -> _Section:
        return _Section(self._key(key), self.values.get(key, {}), allowed)

    def integer(self, key: str, default: int, minimum: int | None = None) -> int:
        value = json_value(self._key(key), self.values.get(key, default), int, ConfigError)
        if minimum is not None and value < minimum:
            raise ConfigError(f"{self._key(key)}: must be at least {minimum}, got {value}")
        return value

    def number(self, key: str, default: float, above: float | None = None) -> float:
        value = json_value(self._key(key), self.values.get(key, default), float, ConfigError)
        if above is not None and not value > above:
            raise ConfigError(f"{self._key(key)}: must be greater than {above}, got {value}")
        return value

    def boolean(self, key: str, default: bool) -> bool:
        return json_value(self._key(key), self.values.get(key, default), bool, ConfigError)

    def string(self, key: str) -> str | None:
        """A string, or None when absent or null."""
        value = self.values.get(key)
        return json_optional(self._key(key), value, str, ConfigError)

    def array(
        self, key: str, default: tuple[Any, ...], kind: type, among: Container[Any] | None = None
    ) -> tuple[Any, ...]:
        """A nonempty list whose every item has the JSON type `kind` (and, with `among`, is in it)."""
        items = json_array(self._key(key), self.values.get(key, list(default)), kind, ConfigError, among)
        if not items:
            raise ConfigError(f"{self._key(key)}: must hold at least one item, got []")
        return items

    def path(self, key: str, base: Path, default: Path | None = None) -> Path | None:
        """A nonempty string taken relative to `base`; `default` when absent or null."""
        value = self.string(key)
        if value == "":
            raise ConfigError(f"{self._key(key)}: expected a path, got ''")
        return default if value is None else base / value

    def make(self, kind: Callable[..., Any], **values: Any) -> Any:
        """`kind(**values)`, with a ValueError its own checks raise named by this section."""
        try:
            return kind(**values)
        except ValueError as exc:
            raise ConfigError(f"{self.name}: {exc}") from None


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
    root = _Section(
        "",
        _interpolate(payload, "config"),
        {"paths", "hv", "threshold", "grid", "llm", "embedding", "run", "ablations", "seed"},
    )
    base = path.resolve().parent

    paths = root.object("paths", {"manifest", "store", "output", "params", "calibration", "templates"})
    manifest = paths.path("manifest", base)
    if manifest is None:
        raise ConfigError("paths.manifest is required")
    if not manifest.exists():
        raise ConfigError(f"paths.manifest does not exist: {manifest}")
    output = paths.path("output", base, base / "out")
    calibration = paths.path("calibration", base)
    if calibration is not None and not calibration.exists():
        raise ConfigError(f"paths.calibration does not exist: {calibration}")
    templates = paths.path("templates", base)
    if templates is not None and not templates.is_dir():
        raise ConfigError(f"paths.templates is not a directory: {templates}")

    hv = root.object("hv", {"alpha", "lambda"})
    threshold = root.object("threshold", {"priors", "C", "N_base", "clamp"})
    priors = threshold.object("priors", {standard.value for standard in RequiredStandard})
    clamp = threshold.array("clamp", (CLAMP_LO_DEFAULT, CLAMP_HI_DEFAULT), float)
    if len(clamp) != 2:
        raise ConfigError(f"threshold.clamp: expected [lo, hi], got {list(clamp)!r}")
    grid = root.object("grid", {"alpha_values", "lambda_values", "gamma"})
    default = default_grid()
    search_grid = grid.make(
        Grid,
        alpha_values=grid.array("alpha_values", default.alpha_values, float),
        lambda_values=grid.array("lambda_values", default.lambda_values, float),
    )
    llm = root.object("llm", {"base_url", "model", "api_key", "max_in_flight", "retries", "timeout"})
    embedding = root.object("embedding", {"dim", "seed"})
    run = root.object("run", {"retrieval_k", "token_budget", "methods", "scenarios"})
    methods = run.array("methods", ALL_METHODS, str, among=ALL_METHODS)
    scenarios = run.array("scenarios", SCENARIO_LABELS, str, among=SCENARIO_LABELS)
    flags = root.object("ablations", {"use_hv_score", "use_dynamic_threshold", "use_redundancy_penalty"})

    return RunConfig(
        manifest=manifest,
        store=paths.path("store", base, output / "store"),
        output=output,
        params=paths.path("params", base, output / "params.json"),
        calibration=calibration,
        templates=templates,
        hv=hv.make(HvParams, alpha=hv.number("alpha", HvParams.alpha), lambda_=hv.number("lambda", HvParams.lambda_)),
        threshold=threshold.make(
            ThresholdConfig,
            # A partial priors object stays partial, so ThresholdConfig names the missing prior.
            priors={RequiredStandard(label): priors.number(label, 0.0) for label in priors.values}
            if "priors" in threshold.values
            else dict(DEFAULT_PRIORS),
            scaling_c=threshold.number("C", ThresholdConfig.scaling_c),
            n_base=threshold.integer("N_base", ThresholdConfig.n_base, minimum=1),
            clamp_lo=clamp[0],
            clamp_hi=clamp[1],
        ),
        grid=search_grid,
        gamma=grid.number("gamma", 1.0, above=0),
        llm=LlmSettings(
            base_url=llm.string("base_url"),
            model=llm.string("model"),
            api_key=llm.string("api_key"),
            max_in_flight=llm.integer("max_in_flight", LlmSettings.max_in_flight, minimum=1),
            retries=llm.integer("retries", LlmSettings.retries, minimum=0),
            timeout=llm.number("timeout", LlmSettings.timeout, above=0),
        ),
        embed_dim=embedding.integer("dim", DEFAULT_EMBED_DIM, minimum=1),
        embed_seed=embedding.integer("seed", 0),
        retrieval_k=run.integer("retrieval_k", DEFAULT_RETRIEVAL_K, minimum=1),
        token_budget=run.integer("token_budget", DEFAULT_TOKEN_BUDGET, minimum=1),
        methods=methods,
        scenarios=scenarios,
        ablations=AblationFlags(
            use_hv_score=flags.boolean("use_hv_score", AblationFlags.use_hv_score),
            use_dynamic_threshold=flags.boolean("use_dynamic_threshold", AblationFlags.use_dynamic_threshold),
            use_redundancy_penalty=flags.boolean("use_redundancy_penalty", AblationFlags.use_redundancy_penalty),
        ),
        seed=root.integer("seed", 0),
    )
