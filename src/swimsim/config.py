"""Scenario configuration files.

Configs are flat `key = value` text. `KEYS` below is the one list of
accepted keys: each maps to the `ScenarioConfig` field it sets, its parser
and the text `dumps_config` writes for it. A key is required when its field
has no default. The pause time takes `uniform(min,max)` or
`powerlaw(beta,min,max)`. Blank lines and `#` comments are ignored;
unknown or duplicate keys are errors that name the key.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, fields
from types import SimpleNamespace

from .grid import AreaBounds, grid_shape
from .mobility import ModelParams, PowerLawWait, UniformWait, WaitTimeDist


class ConfigError(ValueError):
    pass


_UNIFORM_RE = re.compile(r"^uniform\(\s*([^,\s]+)\s*,\s*([^)\s]+)\s*\)$")
_POWERLAW_RE = re.compile(r"^powerlaw\(\s*([^,\s]+)\s*,\s*([^,\s]+)\s*,\s*([^)\s]+)\s*\)$")


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


def _parser(kind, noun: str):
    """Parser of one key: `kind(value)`, with an error that names the key."""
    def parse(key: str, value: str):
        try:
            return kind(value)
        except ValueError:
            raise ConfigError(f"{key}: expected {noun}, got {value!r}") from None
    return parse


def _only(accepted, parse, why: str):
    """Parser of a SWIM key that swimsim accepts with one value only."""
    def check(key: str, value: str) -> None:
        if parse(key, value) != accepted:
            raise ConfigError(f"{key}: {why}")
    return check


def parse_wait_time(key: str, value: str) -> WaitTimeDist:
    m = _UNIFORM_RE.match(value)
    try:
        if m:
            return UniformWait(float(m.group(1)), float(m.group(2)))
        m = _POWERLAW_RE.match(value)
        if m:
            return PowerLawWait(float(m.group(1)), float(m.group(2)), float(m.group(3)))
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from None
    raise ConfigError(f"{key}: expected uniform(min,max) or powerlaw(beta,min,max), got {value!r}")


def dumps_wait_time(wait: WaitTimeDist) -> str:
    if isinstance(wait, UniformWait):
        return f"uniform({wait.low!r},{wait.high!r})"
    return f"powerlaw({wait.exponent!r},{wait.low!r},{wait.high!r})"


_FLOAT, _INT, _TEXT = _parser(float, "a number"), _parser(int, "an integer"), _parser(str, "text")
_UNIFORM_ONLY = _only("uniform", _TEXT, "only 'uniform' placement is supported")
_FLAT = _only(0.0, _FLOAT, "movement is 2D, value must be 0")
# Field names go through _F, so a misspelt one fails at import.
_F = SimpleNamespace(**{f.name: f.name for f in fields(ScenarioConfig)})

# config key: (ScenarioConfig field, parser, the text dumps_config writes for
# the field's value or None for no line). A key with no field accepts one
# value only and sets nothing. dumps_config writes the keys in this order.
KEYS = {
    "neighbourLocationLimit": (_F.neighbour_limit, _FLOAT, repr),
    "speed": (_F.speed, _FLOAT, repr),
    "initialX": (None, _UNIFORM_ONLY, lambda _: "uniform"),
    "initialY": (None, _UNIFORM_ONLY, lambda _: "uniform"),
    "maxAreaX": (_F.max_area_x, _FLOAT, repr),
    "maxAreaY": (_F.max_area_y, _FLOAT, repr),
    "waitTime": (_F.wait, parse_wait_time, dumps_wait_time),
    "alpha": (_F.alpha, _FLOAT, repr),
    "noOfLocations": (_F.n_locations, _INT, str),
    "nodeCount": (_F.node_count, _INT, str),
    "simDuration": (_F.sim_duration, _FLOAT, repr),
    "seed": (_F.seed, _INT, str),
    "seen_update": (_F.seen_update, _TEXT, str),
    "k": (_F.k, _FLOAT, lambda k: None if k is None else repr(k)),
    "outputDir": (_F.output_dir, _TEXT, lambda path: path),
    "initialZ": (None, _FLAT, lambda _: None),
    "maxAreaZ": (None, _FLAT, lambda _: None),
}
_REQUIRED = {f.name for f in fields(ScenarioConfig) if f.default is MISSING}


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
        if key not in KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    missing = [key for key, (name, _, _) in KEYS.items() if name in _REQUIRED and key not in raw]
    if missing:
        raise ConfigError(f"{source}: missing required keys: {', '.join(missing)}")

    values = {KEYS[key][0]: KEYS[key][1](key, value) for key, value in raw.items()}
    values.pop(None, None)  # one-value keys are parsed only to check them
    config = ScenarioConfig(**values)
    try:
        params = config.to_params()  # every range check, each error naming its key
    except ValueError as e:
        raise ConfigError(f"{source}: {e}") from None
    # locations.csv prints 6 decimals, so a cell side of 1e-6 m or less
    # would print as a zero-width cell that read_locations_file rejects
    area = params.area
    rows, cols = grid_shape(area, params.n_locations)
    for key, side in (("maxAreaX", area.width / cols), ("maxAreaY", area.height / rows)):
        if side <= 1e-6:
            raise ConfigError(
                f"{source}: {key} gives {side} m cells on a {rows} x {cols} grid; "
                f"locations.csv needs cells wider than 1e-6 m"
            )
    # each departure ends a pause of at least the wait's min; one that does
    # not advance the clock at the horizon would keep the run from ending
    low, horizon = params.wait.low, params.sim_duration
    if horizon + low == horizon:
        raise ConfigError(
            f"{source}: waitTime's min {low!r} s does not advance the clock at "
            f"simDuration = {horizon!r} s, so the run could never end"
        )
    return config


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return loads_config(text, source=str(path))


def dumps_config(config: ScenarioConfig) -> str:
    lines = []
    for key, (name, _, show) in KEYS.items():
        text = show(getattr(config, name) if name else None)
        if text is not None:
            lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def save_config(config: ScenarioConfig, path) -> None:
    with open(path, "w", newline="") as f:
        f.write(dumps_config(config))
