"""Destination-selection kernel.

Each node scores every cell with

    w(C) = alpha * decay(distance(home, C)) + (1 - alpha) * seen_norm(C)

where the distance term falls off as 1 / (1 + k*d)^2 from the home-cell
center and seen_norm is the node's encounter count at C normalized by one
plus its total encounters. A destination is picked in two steps: alpha
decides between the near set (home + neighbouring cells) and the visiting
set, then one cell of the chosen set is drawn proportionally to w(C).

Everything that depends only on the home cell (the two sets, the decay
term, its mass and the cold-start CDF) lives in a HomeProfile shared by all
nodes of that home; a node itself holds only its position, phase and seen
counters.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
# numpy imports its random module lazily, on first use; importing it here
# takes that cost (about 16 ms) out of a process's first `initialize`, and
# the forked workers of a parallel sweep inherit it
import numpy.random  # noqa: F401

from .grid import (
    AreaBounds,
    LocationMap,
    Point2D,
    center_distances,
    near_mask,
    point_in_cell,
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
        # The sampler draws between low**g and high**g (g = 1 - exponent) and
        # maps back with **(1/g). Where that overflows, underflows to 0 or
        # rounds the ends off by more than 1e-6, the draws follow no power law.
        g = 1.0 - self.exponent
        try:
            exact = all(
                math.isclose((t**g) ** (1.0 / g), t, rel_tol=1e-6) for t in (self.low, self.high)
            )
        except (OverflowError, ZeroDivisionError):
            exact = False
        if not exact:
            raise ValueError(
                f"waitTime powerlaw({self.exponent}, {self.low}, {self.high}) "
                "cannot be sampled in floating point"
            )


WaitTimeDist = UniformWait | PowerLawWait


def draw_wait_time(dist: WaitTimeDist, rng: np.random.Generator) -> float:
    """Inverse-CDF sample of the pause duration; always within [low, high]."""
    if dist.high == dist.low:
        return dist.low
    u = rng.random()
    if isinstance(dist, UniformWait):
        t = dist.low + u * (dist.high - dist.low)
    else:
        g = 1.0 - dist.exponent
        low_g, high_g = dist.low**g, dist.high**g
        # high_g < low_g; rounding can push the sum below high_g or to 0
        t = max(low_g + u * (high_g - low_g), high_g) ** (1.0 / g)
    return min(max(t, dist.low), dist.high)  # rounding can leave the range


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
        # build_grid multiplies each side by up to noOfLocations; an int
        # compares with the float bound exactly, where the product can overflow
        for key, side in (("maxAreaX", self.area.width), ("maxAreaY", self.area.height)):
            if self.n_locations > sys.float_info.max / side:
                raise ValueError(f"{key} * noOfLocations overflows: {side} * {self.n_locations}")
        if self.node_count < 1:
            raise ValueError(f"nodeCount must be >= 1, got {self.node_count}")
        if self.sim_duration <= 0:
            raise ValueError(f"simDuration must be > 0, got {self.sim_duration}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.decay_scale is not None and self.decay_scale <= 0:
            raise ValueError(f"k must be > 0, got {self.decay_scale}")
        if not math.isfinite(self.k):
            raise ValueError(
                f"k defaults to 2 / area diagonal, which overflows for a "
                f"{self.area.width} x {self.area.height} area; set k"
            )
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
    """A node's pause in `cell` over [start, end], and its record in the run's log.

    `end` is the scheduled departure. A pause still running at the horizon
    is cut to end there and flagged censored.
    """

    node: int
    cell: int
    start: float
    end: float
    censored: bool = False


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
    cold_cdf: np.ndarray  # cumsum of the normalized static term alpha * decay[cells]:
                          # the draw while seen is all zero
    static_mass: float    # sum of the static term, its share of the set's weight


@dataclass(frozen=True, eq=False)
class HomeProfile:
    """Everything selection needs that depends only on the home cell.

    Built once per distinct home under one run's params and shared by every
    node homed there.
    """

    near: CandidateSet = field(repr=False)      # home + neighbouring cells
    visiting: CandidateSet = field(repr=False)


def _candidate_set(cells: np.ndarray, decay: np.ndarray, alpha: float) -> CandidateSet:
    static = alpha * decay[cells]
    cold_cdf = np.cumsum(normalized_weights(static)) if cells.size else static
    return CandidateSet(cells=cells, cold_cdf=cold_cdf, static_mass=float(static.sum()))


def build_home_profile(location_map: LocationMap, home: int, params: ModelParams) -> HomeProfile:
    """Classify the cells around `home` and cache its selection vectors."""
    distances = center_distances(location_map, home)
    near = near_mask(distances, home, params.neighbour_limit)
    decay = decay_of(distances, params.k)
    return HomeProfile(
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

    `profile` is the one built for that home under `params`, shared with
    the other nodes of the home; one is built when none is given. `seen` is
    the node's encounter-counter row, fresh zeros by default.
    """
    home = location_map.cell_of(position)
    if profile is None:
        profile = build_home_profile(location_map, home, params)
    return NodeState(
        id=node_id,
        home=home,
        position=position,
        phase=Paused(node_id, home, 0.0, 0.0),
        seen=np.zeros(len(location_map), dtype=np.int64) if seen is None else seen,
        profile=profile,
    )


def decay_of(distances: np.ndarray, k: float) -> np.ndarray:
    """Distance term 1 / (1 + k*d)^2 for every entry of `distances`.

    A huge k overflows k*d or its square to inf, which is decay 0, the limit
    the term tends to; numpy's overflow warning would only read like a fault.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + k * distances) ** 2


def candidate_weights(
    static: np.ndarray | float, seen: np.ndarray | int, total: float, alpha: float
) -> np.ndarray | float:
    """w(C) = alpha * decay(C) + (1 - alpha) * seen(C) / (1 + total) over a set.

    `static` is the home profile's alpha * decay term of the candidates and
    `seen` their encounter counts out of `total` encounters in all cells;
    both may be arrays over the set or the scalars of one cell.
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
    """Two-step SWIM destination draw from four uniforms u, r, fx, fy.

    Step 1: the near set (home + neighbouring) when u < alpha, otherwise the
    visiting set; an empty set falls back to the other one. Step 2: one
    candidate is drawn with r proportionally to w(C), uniformly if every
    weight in the set is zero. The point, at fractions fx, fy of the chosen
    cell, may lie in the node's current cell.

    w(C) is a mixture of the home's static term, with mass S and the cached
    CDF, and a dynamic term that is non-zero only in the few cells where the
    node has met someone, with mass D. r * (S + D) below S draws from the
    static CDF, at or above it walks the dynamic cells in id order. While D
    is 0 (a node that has met nobody, or alpha = 1) r goes straight to the
    static CDF, so such a draw does not depend on the seen counters at all.
    """
    profile = node.profile
    u, r, fx, fy = rng.random(4).tolist()
    visiting = u >= params.alpha
    candidates = profile.visiting if visiting else profile.near
    fallback = candidates.cells.size == 0
    if fallback:
        visiting = not visiting
        candidates = profile.visiting if visiting else profile.near
    cells = candidates.cells
    cell_id = None
    # astype(bool) first: numpy finds the non-zeros of a bool row several
    # times faster than those of an int64 one
    seen_cells = node.seen.astype(bool).nonzero()[0]
    if seen_cells.size:
        counts = node.seen[seen_cells]
        total = float(sum(counts.tolist()))
        # the seen cells that belong to this set; a position past the end
        # clips to the last cell, which is then smaller than the seen cell
        hit = cells.take(cells.searchsorted(seen_cells), mode="clip") == seen_cells
        hit_counts = counts[hit].tolist()
        # every dynamic weight shares the factor (1 - alpha) / (1 + total),
        # so their sum is the weight of their summed counts
        dynamic_mass = candidate_weights(0.0, sum(hit_counts), total, params.alpha)
        if dynamic_mass > 0.0:
            static_mass = candidates.static_mass
            x = r * (static_mass + dynamic_mass)
            if x < static_mass:
                r = x / static_mass
            else:
                hit_cells = seen_cells[hit].tolist()
                cell_id = hit_cells[-1]  # when rounding runs past the last entry
                acc = static_mass
                for cell, n in zip(hit_cells, hit_counts):
                    acc += candidate_weights(0.0, n, total, params.alpha)
                    if x < acc:
                        cell_id = cell
                        break
    if cell_id is None:
        idx = int(candidates.cold_cdf.searchsorted(r, side="right"))
        cell_id = int(cells[min(idx, cells.size - 1)])
    point = point_in_cell(location_map.cells[cell_id], fx, fy)
    return DestinationChoice(cell=cell_id, point=point, visiting=visiting, fallback=fallback)
