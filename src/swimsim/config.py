"""Scenario configuration files.

Configs are flat `key = value` text, one key per model parameter
(`neighbourLocationLimit`, `speed`, `maxAreaX`, ..., `alpha`,
`noOfLocations`) plus run controls (`nodeCount`, `simDuration`, `seed`,
`k`, `seen_update`, `outputDir`). `waitTime` takes `uniform(min,max)` or
`powerlaw(beta,min,max)`. Blank lines and `#` comments are ignored;
unknown or duplicate keys are errors that name the key.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .grid import AreaBounds
from .mobility import ModelParams, PowerLawWait, UniformWait, WaitTimeDist


class ConfigError(ValueError):
    pass


_UNIFORM_RE = re.compile(r"^uniform\(\s*([^,\s]+)\s*,\s*([^)\s]+)\s*\)$")
_POWERLAW_RE = re.compile(r"^powerlaw\(\s*([^,\s]+)\s*,\s*([^,\s]+)\s*,\s*([^)\s]+)\s*\)$")

REQUIRED_KEYS = (
    "neighbourLocationLimit",
    "speed",
    "maxAreaX",
    "maxAreaY",
    "waitTime",
    "alpha",
    "noOfLocations",
)

KNOWN_KEYS = REQUIRED_KEYS + (
    "initialX",
    "initialY",
    "initialZ",
    "maxAreaZ",
    "nodeCount",
    "simDuration",
    "seed",
    "k",
    "seen_update",
    "outputDir",
)


@dataclass(frozen=True)
class ScenarioConfig:
    neighbour_limit: float
    speed: float
    max_area_x: float
    max_area_y: float
    wait: WaitTimeDist
    alpha: float
    n_locations: int
    node_count: int = 10
    sim_duration: float = 50000.0
    seed: int = 1
    k: float | None = None
    seen_update: str = "symmetric"
    output_dir: str | None = None

    def to_params(self) -> ModelParams:
        return ModelParams(
            alpha=self.alpha,
            speed=self.speed,
            neighbour_limit=self.neighbour_limit,
            n_locations=self.n_locations,
            area=AreaBounds(self.max_area_x, self.max_area_y),
            wait=self.wait,
            node_count=self.node_count,
            sim_duration=self.sim_duration,
            seed=self.seed,
            decay_scale=self.k,
            seen_update=self.seen_update,
        )


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def parse_wait_time(value: str) -> WaitTimeDist:
    m = _UNIFORM_RE.match(value)
    try:
        if m:
            return UniformWait(float(m.group(1)), float(m.group(2)))
        m = _POWERLAW_RE.match(value)
        if m:
            return PowerLawWait(float(m.group(1)), float(m.group(2)), float(m.group(3)))
    except ValueError as e:
        raise ConfigError(f"waitTime: {e}") from None
    raise ConfigError(
        f"waitTime: expected uniform(min,max) or powerlaw(beta,min,max), got {value!r}"
    )


def loads_config(text: str, source: str = "<config>") -> ScenarioConfig:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    missing = [k for k in REQUIRED_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"{source}: missing required keys: {', '.join(missing)}")

    for axis in ("initialX", "initialY"):
        if raw.get(axis, "uniform") != "uniform":
            raise ConfigError(f"{axis}: only 'uniform' placement is supported")
    for flat in ("initialZ", "maxAreaZ"):
        if flat in raw and _parse_float(flat, raw[flat]) != 0.0:
            raise ConfigError(f"{flat}: movement is 2D, value must be 0")

    kwargs = dict(
        neighbour_limit=_parse_float("neighbourLocationLimit", raw["neighbourLocationLimit"]),
        speed=_parse_float("speed", raw["speed"]),
        max_area_x=_parse_float("maxAreaX", raw["maxAreaX"]),
        max_area_y=_parse_float("maxAreaY", raw["maxAreaY"]),
        wait=parse_wait_time(raw["waitTime"]),
        alpha=_parse_float("alpha", raw["alpha"]),
        n_locations=_parse_int("noOfLocations", raw["noOfLocations"]),
    )
    if "nodeCount" in raw:
        kwargs["node_count"] = _parse_int("nodeCount", raw["nodeCount"])
    if "simDuration" in raw:
        kwargs["sim_duration"] = _parse_float("simDuration", raw["simDuration"])
    if "seed" in raw:
        kwargs["seed"] = _parse_int("seed", raw["seed"])
    if "k" in raw:
        kwargs["k"] = _parse_float("k", raw["k"])
    if "seen_update" in raw:
        kwargs["seen_update"] = raw["seen_update"]
    if "outputDir" in raw:
        kwargs["output_dir"] = raw["outputDir"]

    config = ScenarioConfig(**kwargs)
    try:
        config.to_params()  # every range check, each error naming its key
    except ValueError as e:
        raise ConfigError(f"{source}: {e}") from None
    return config


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return loads_config(text, source=str(path))


def dumps_wait_time(wait: WaitTimeDist) -> str:
    if isinstance(wait, UniformWait):
        return f"uniform({wait.low!r},{wait.high!r})"
    return f"powerlaw({wait.exponent!r},{wait.low!r},{wait.high!r})"


def dumps_config(config: ScenarioConfig) -> str:
    lines = [
        f"neighbourLocationLimit = {config.neighbour_limit!r}",
        f"speed = {config.speed!r}",
        "initialX = uniform",
        "initialY = uniform",
        f"maxAreaX = {config.max_area_x!r}",
        f"maxAreaY = {config.max_area_y!r}",
        f"waitTime = {dumps_wait_time(config.wait)}",
        f"alpha = {config.alpha!r}",
        f"noOfLocations = {config.n_locations}",
        f"nodeCount = {config.node_count}",
        f"simDuration = {config.sim_duration!r}",
        f"seed = {config.seed}",
        f"seen_update = {config.seen_update}",
    ]
    if config.k is not None:
        lines.append(f"k = {config.k!r}")
    if config.output_dir is not None:
        lines.append(f"outputDir = {config.output_dir}")
    return "\n".join(lines) + "\n"


def save_config(config: ScenarioConfig, path) -> None:
    with open(path, "w", newline="") as f:
        f.write(dumps_config(config))
