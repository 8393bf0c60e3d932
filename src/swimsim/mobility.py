"""Destination-selection kernel.

Each node scores every cell with

    w(C) = alpha * decay(distance(home, C)) + (1 - alpha) * seen_norm(C)

where the distance term falls off as 1 / (1 + k*d)^2 from the home-cell
center and seen_norm is the node's encounter count at C normalized by one
plus its total encounters. A destination is picked in two steps: alpha
decides between the near set (home + neighbouring cells) and the visiting
set, then one cell of the chosen set is drawn proportionally to w(C).

Everything that depends only on the home cell (the two sets, the decay
term and the cold-start CDF) lives in a HomeProfile shared by all nodes of
that home; a node itself holds only its position, phase and seen counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import (
    AreaBounds,
    LocationMap,
    Point2D,
    center_distances,
    near_mask,
    random_point_in_cell,
)

SEEN_UPDATE_MODES = ("symmetric", "bystanders_only")


def _require_finite(key: str, *values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{key} must be finite, got {', '.join(map(str, values))}")


@dataclass(frozen=True)
class UniformWait:
    low: float
    high: float

    def __post_init__(self):
        _require_finite("waitTime", self.low, self.high)
        if not (0 < self.low <= self.high):
            raise ValueError(f"waitTime needs 0 < min <= max, got [{self.low}, {self.high}]")


@dataclass(frozen=True)
class PowerLawWait:
    """Truncated power law: density proportional to t^(-exponent) on [low, high]."""

    exponent: float
    low: float
    high: float

    def __post_init__(self):
        _require_finite("waitTime", self.exponent, self.low, self.high)
        if self.exponent <= 1:
            raise ValueError(f"waitTime power-law exponent must be > 1, got {self.exponent}")
        if not (0 < self.low <= self.high):
            raise ValueError(f"waitTime needs 0 < min <= max, got [{self.low}, {self.high}]")


WaitTimeDist = UniformWait | PowerLawWait


def draw_wait_time(dist: WaitTimeDist, rng: np.random.Generator) -> float:
    """Inverse-CDF sample of the pause duration; always within [low, high]."""
    if dist.high == dist.low:
        return dist.low
    u = rng.random()
    if isinstance(dist, UniformWait):
        return dist.low + u * (dist.high - dist.low)
    g = 1.0 - dist.exponent
    return (dist.low**g + u * (dist.high**g - dist.low**g)) ** (1.0 / g)


@dataclass(frozen=True)
class ModelParams:
    """All simulation knobs; validated on construction."""

    alpha: float
    speed: float
    neighbour_limit: float
    n_locations: int
    area: AreaBounds
    wait: WaitTimeDist
    node_count: int
    sim_duration: float
    seed: int = 1
    decay_scale: float | None = None  # k; None picks 2 / area diagonal
    seen_update: str = "symmetric"

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        _require_finite("speed", self.speed)
        _require_finite("neighbourLocationLimit", self.neighbour_limit)
        _require_finite("simDuration", self.sim_duration)
        if self.decay_scale is not None:
            _require_finite("k", self.decay_scale)
        if self.speed <= 0:
            raise ValueError(f"speed must be > 0, got {self.speed}")
        if self.neighbour_limit < 0:
            raise ValueError(f"neighbourLocationLimit must be >= 0, got {self.neighbour_limit}")
        if self.n_locations < 2:
            raise ValueError(f"noOfLocations must be >= 2, got {self.n_locations}")
        if self.node_count < 1:
            raise ValueError(f"nodeCount must be >= 1, got {self.node_count}")
        if self.sim_duration <= 0:
            raise ValueError(f"simDuration must be > 0, got {self.sim_duration}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.decay_scale is not None and self.decay_scale <= 0:
            raise ValueError(f"k must be > 0, got {self.decay_scale}")
        if self.seen_update not in SEEN_UPDATE_MODES:
            raise ValueError(f"seen_update must be one of {SEEN_UPDATE_MODES}, got {self.seen_update!r}")

    @cached_property
    def k(self) -> float:
        if self.decay_scale is not None:
            return self.decay_scale
        return 2.0 / self.area.diagonal


def node_stream(seed: int, node_id: int) -> np.random.Generator:
    """Independent per-node RNG stream, stable under node-count changes."""
    return np.random.default_rng([seed, node_id])


@dataclass
class Paused:
    cell: int
    until: float
    since: float = 0.0


@dataclass
class Moving:
    origin: Point2D
    target: Point2D
    target_cell: int
    depart_at: float
    arrive_at: float


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """One step-1 set of a home: cell ids plus their cached weight terms."""

    cells: np.ndarray     # ascending cell ids; intp, which numpy indexes with fastest
    static: np.ndarray    # alpha * decay[cells], the home-only weight term
    cold_cdf: np.ndarray  # cumsum(normalized_weights(static)): the draw while seen is all zero


@dataclass(frozen=True, eq=False)
class HomeProfile:
    """Everything selection needs that depends only on the home cell.

    Built once per distinct home and shared by every node homed there. The
    profile records the alpha, k and neighbour limit it was built with so a
    node under other parameters gets a new profile instead of a stale one.
    """

    home: int
    alpha: float
    k: float
    neighbour_limit: float
    near: CandidateSet = field(repr=False)      # home + neighbouring cells
    visiting: CandidateSet = field(repr=False)

    def fits(self, params: ModelParams) -> bool:
        return (self.alpha, self.k, self.neighbour_limit) == (
            params.alpha,
            params.k,
            params.neighbour_limit,
        )


def _candidate_set(cells: np.ndarray, decay: np.ndarray, alpha: float) -> CandidateSet:
    static = alpha * decay[cells]
    cold_cdf = np.cumsum(normalized_weights(static)) if cells.size else static
    return CandidateSet(cells=cells, static=static, cold_cdf=cold_cdf)


def build_home_profile(location_map: LocationMap, home: int, params: ModelParams) -> HomeProfile:
    """Classify the cells around `home` and cache its selection vectors."""
    distances = center_distances(location_map, home)
    near = near_mask(distances, home, params.neighbour_limit)
    decay = decay_of(distances, params.k)
    return HomeProfile(
        home=home,
        alpha=params.alpha,
        k=params.k,
        neighbour_limit=params.neighbour_limit,
        near=_candidate_set(np.flatnonzero(near), decay, params.alpha),
        visiting=_candidate_set(np.flatnonzero(~near), decay, params.alpha),
    )


@dataclass
class NodeState:
    id: int
    home: int
    position: Point2D
    phase: Paused | Moving
    seen: np.ndarray  # this node's row of the run's N x L encounter matrix
    profile: HomeProfile = field(repr=False)


def make_node_state(
    node_id: int,
    position: Point2D,
    location_map: LocationMap,
    params: ModelParams,
    profile: HomeProfile | None = None,
    seen: np.ndarray | None = None,
) -> NodeState:
    """Node at `position`, homed in the cell containing it.

    `profile` is shared with other nodes of the same home; one is built when
    none is given or when it belongs to another home or other parameters.
    `seen` is the node's encounter-counter row, fresh zeros by default.
    """
    home = location_map.cell_of(position)
    if profile is None or profile.home != home or not profile.fits(params):
        profile = build_home_profile(location_map, home, params)
    return NodeState(
        id=node_id,
        home=home,
        position=position,
        phase=Paused(cell=home, until=0.0),
        seen=np.zeros(len(location_map), dtype=np.int64) if seen is None else seen,
        profile=profile,
    )


def decay_of(distances: np.ndarray, k: float) -> np.ndarray:
    """Distance term 1 / (1 + k*d)^2 for every entry of `distances`."""
    return 1.0 / (1.0 + k * distances) ** 2


def candidate_weights(
    static: np.ndarray, seen: np.ndarray, total: float, alpha: float
) -> np.ndarray:
    """w(C) = alpha * decay(C) + (1 - alpha) * seen(C) / (1 + total) over a set.

    `static` is the home profile's alpha * decay term of the candidates and
    `seen` their encounter counts out of `total` encounters in all cells.
    """
    return static + (1.0 - alpha) * seen / (1.0 + total)


def normalized_weights(weights: np.ndarray) -> np.ndarray:
    """Selection probabilities proportional to nonnegative weights.

    All-zero weights fall back to a uniform choice, so scaling every weight
    by a positive constant never changes the result.
    """
    total = weights.sum()
    if total <= 0.0:
        return np.full(len(weights), 1.0 / len(weights))
    return weights / total


@dataclass(frozen=True)
class DestinationChoice:
    cell: int
    point: Point2D
    visiting: bool  # drawn from the visiting set; False means home/neighbouring
    fallback: bool  # step-1 set was empty and the other set was used


def select_destination(
    node: NodeState,
    location_map: LocationMap,
    params: ModelParams,
    rng: np.random.Generator,
) -> DestinationChoice:
    """Two-step SWIM destination draw.

    Step 1: with probability alpha the candidate set is the near set
    (home + neighbouring), otherwise the visiting set; an empty set falls
    back to the other one. Step 2: one candidate is drawn proportionally to
    w(C), uniformly if every weight in the set is zero. The exact point is
    uniform over the chosen cell, which may be the node's current cell.

    While the node has seen nobody the seen term is exactly zero, so w(C)
    is the home profile's static term and its cached CDF is the draw.
    """
    profile = node.profile
    if not profile.fits(params):
        profile = node.profile = build_home_profile(location_map, node.home, params)
    visiting = rng.random() >= params.alpha
    candidates = profile.visiting if visiting else profile.near
    fallback = candidates.cells.size == 0
    if fallback:
        visiting = not visiting
        candidates = profile.visiting if visiting else profile.near
    total = float(node.seen.sum())
    if total == 0.0:
        cdf = candidates.cold_cdf
    else:
        cdf = np.cumsum(
            normalized_weights(
                candidate_weights(
                    candidates.static, node.seen[candidates.cells], total, params.alpha
                )
            )
        )
    r = rng.random()
    idx = int(np.searchsorted(cdf, r, side="right"))
    idx = min(idx, len(candidates.cells) - 1)
    cell_id = int(candidates.cells[idx])
    point = random_point_in_cell(location_map.cells[cell_id], rng)
    return DestinationChoice(cell=cell_id, point=point, visiting=visiting, fallback=fallback)
