"""The profiled selection kernel against the dense one it replaced.

`dense_select` below is the kernel as it was before home profiles: it
classifies the grid, builds the decay vector and the full weight vector of
the chosen set, and cumsums it on every call. Where w(C) has one component
only (a node that has met nobody, alpha = 0 or alpha = 1) the profiled
kernel must make the same draw, bit for bit, from the same random stream.
Where both mix it draws each component on its own, so it must instead
give each cell the probability of the dense weights: a stratified sweep of
the step-2 uniform over each step-1 set is compared with them exactly.
"""

import numpy as np
import pytest

from swimsim.engine import initialize, run
from swimsim.grid import (
    AreaBounds,
    LocationClass,
    Point2D,
    build_grid,
    classify_locations,
    point_in_cell,
)
from swimsim.mobility import (
    ModelParams,
    UniformWait,
    make_node_state,
    node_stream,
    select_destination,
)

AREA = AreaBounds(400.0, 400.0)
GRID = build_grid(AREA, 21)
# one point in each of home cells 0, 1, 10 and 20 of the 3 x 7 grid
HOMES = (Point2D(10.0, 10.0), Point2D(80.0, 30.0), Point2D(200.0, 200.0), Point2D(390.0, 390.0))
# step-2 uniforms in a stratified sweep. The kernel's cell is a step function
# of r with at most 2 x 21 pieces (the static and the dynamic part of each
# cell), and each piece holds its exact share of the sweep give or take one
# point, so the sweep's total variation from the exact draw is at most
# 42 / (2 * STRATA) = 4.2e-4: any kernel error of 1e-3 or more fails the check.
STRATA = 50_000
# the step-1 uniform that picks the near set, and one that picks the visiting set
STEP1_UNIFORMS = (0.0, float(np.nextafter(1.0, 0.0)))


def make_params(**overrides):
    base = dict(
        alpha=0.3,
        speed=1.4,
        neighbour_limit=300.0,
        n_locations=21,
        area=AREA,
        wait=UniformWait(2.0, 5.0),
        node_count=10,
        sim_duration=1000.0,
        seed=1,
    )
    base.update(overrides)
    return ModelParams(**base)


def dense_weights(home, seen, location_map, params, u):
    """The dense kernel's step-2 candidates and probabilities for step-1 uniform u."""
    classes = classify_locations(location_map, home, params.neighbour_limit)
    near = np.array(
        [i for i, c in enumerate(classes) if c is not LocationClass.VISITING], dtype=np.int64
    )
    visiting = np.array(
        [i for i, c in enumerate(classes) if c is LocationClass.VISITING], dtype=np.int64
    )
    d = np.hypot(*(location_map.centers - location_map.centers[home]).T)
    decay = 1.0 / (1.0 + params.k * d) ** 2

    candidates = near if u < params.alpha else visiting
    fallback = candidates.size == 0
    if fallback:
        candidates = visiting if u < params.alpha else near
    weights = params.alpha * decay[candidates] + (1.0 - params.alpha) * seen[candidates] / (
        1.0 + float(seen.sum())
    )
    total = weights.sum()
    probs = np.full(len(weights), 1.0 / len(weights)) if total <= 0.0 else weights / total
    return candidates, probs, fallback, classes


def dense_select(home, seen, location_map, params, rng):
    u = rng.random()
    candidates, probs, fallback, classes = dense_weights(home, seen, location_map, params, u)
    r = rng.random()
    idx = int(np.searchsorted(np.cumsum(probs), r, side="right"))
    idx = min(idx, len(candidates) - 1)
    cell = int(candidates[idx])
    point = point_in_cell(location_map.cells[cell], *rng.random(2).tolist())
    return cell, point, classes[cell] is LocationClass.VISITING, fallback


class StratifiedDraws:
    """Stand-in for a node's rng: step-1 uniform `u`, then r = (i + 1/2) / n for i < n."""

    def __init__(self, u, n):
        r = (np.arange(n) + 0.5) / n
        self.draws = iter(np.column_stack([np.full(n, u), r, np.full(n, 0.5), np.full(n, 0.5)]))

    def random(self, size):
        return next(self.draws)


def assert_stratified_matches_dense(node, params, u):
    """Sweep r over the step-1 set u picks; cell shares must match the dense weights."""
    rng = StratifiedDraws(u, STRATA)
    choices = [select_destination(node, GRID, params, rng) for _ in range(STRATA)]
    candidates, probs, fallback, classes = dense_weights(node.home, node.seen, GRID, params, u)
    visiting = classes[candidates[0]] is LocationClass.VISITING
    assert {(c.visiting, c.fallback) for c in choices} == {(visiting, fallback)}
    shares = np.bincount([c.cell for c in choices], minlength=len(GRID)) / STRATA
    expected = np.zeros(len(GRID))
    expected[candidates] = probs
    assert 0.5 * np.abs(shares - expected).sum() < 1e-3


def seen_pattern(kind):
    if kind == "zero":
        return np.zeros(21, dtype=np.int64)
    if kind == "sparse":
        seen = np.zeros(21, dtype=np.int64)
        seen[[3, 17]] = (2, 5)
        return seen
    return np.random.default_rng(7).integers(0, 40, size=21)


def assert_same_draws(node, params, seen, draws=300, warm_up_at=None):
    """Draw with both kernels from twin streams; optionally meet someone midway."""
    node.seen[:] = seen
    seen = seen.copy()
    ours, theirs = node_stream(99, node.id), node_stream(99, node.id)
    for i in range(draws):
        if i == warm_up_at:
            node.seen[4] += 1
            seen[4] += 1
        choice = select_destination(node, GRID, params, ours)
        cell, point, visiting, fallback = dense_select(node.home, seen, GRID, params, theirs)
        assert choice.cell == cell
        assert choice.point == point
        assert choice.visiting == visiting
        assert choice.fallback == fallback


def mixed(alpha, kind):
    """Whether w(C) has both components, so that only the distribution is kept.

    Such cases sweep one step-1 set per home, the near and the visiting set
    in turn, so that each test covers both sets over its four homes.
    """
    return 0.0 < alpha < 1.0 and kind != "zero"


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("kind", ["zero", "sparse", "dense"])
def test_profiled_kernel_matches_dense(alpha, kind):
    params = make_params(alpha=alpha)
    for position, u in zip(HOMES, STEP1_UNIFORMS * 2):
        node = make_node_state(0, position, GRID, params)
        if mixed(alpha, kind):
            node.seen[:] = seen_pattern(kind)
            assert_stratified_matches_dense(node, params, u)
        else:
            assert_same_draws(node, params, seen_pattern(kind))


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
def test_profiled_kernel_matches_dense_across_first_encounter(alpha):
    params = make_params(alpha=alpha)
    for position, u in zip(HOMES, STEP1_UNIFORMS * 2):
        node = make_node_state(0, position, GRID, params)
        if mixed(alpha, "sparse"):
            # draw for draw while the node has met nobody, then by distribution
            assert_same_draws(node, params, seen_pattern("zero"), draws=150)
            node.seen[4] += 1
            assert_stratified_matches_dense(node, params, u)
        else:
            assert_same_draws(node, params, seen_pattern("zero"), warm_up_at=150)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("kind", ["zero", "sparse", "dense"])
def test_profiled_kernel_matches_dense_without_visiting_cells(alpha, kind):
    params = make_params(alpha=alpha, neighbour_limit=AREA.diagonal)
    # the visiting uniform falls back to the near set
    for position, u in zip(HOMES, STEP1_UNIFORMS * 2):
        node = make_node_state(0, position, GRID, params)
        assert node.profile.visiting.cells.size == 0
        if mixed(alpha, kind):
            node.seen[:] = seen_pattern(kind)
            assert_stratified_matches_dense(node, params, u)
        else:
            assert_same_draws(node, params, seen_pattern(kind))


def test_initialize_builds_one_profile_per_home():
    state = initialize(make_params(node_count=60))
    by_home = {}
    for node in state.nodes:
        by_home.setdefault(node.home, []).append(node)
    assert len({id(node.profile) for node in state.nodes}) == len(by_home)
    shared = [nodes for nodes in by_home.values() if len(nodes) > 1]
    assert shared  # 60 nodes on 21 cells
    for first, *rest in shared:
        for other in rest:
            assert other.profile is first.profile
            assert other.profile.near.cells is first.profile.near.cells
            assert other.profile.visiting.cells is first.profile.visiting.cells
            assert other.profile.near.cold_cdf is first.profile.near.cold_cdf


def test_seen_rows_are_views_of_one_matrix():
    params = make_params(node_count=8)
    state = initialize(params)
    assert state.seen.shape == (8, 21)
    assert state.tracker.seen is state.seen
    for i, node in enumerate(state.nodes):
        assert node.seen.base is state.seen
        node.seen[i] += 100
    assert (np.diag(state.seen[:, :8]) >= 100).all()
    report = run(state, until=params.sim_duration)
    assert report.seen is state.seen
