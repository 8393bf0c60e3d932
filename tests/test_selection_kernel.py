"""The profiled selection kernel against the dense one it replaced.

`dense_select` below is the kernel as it was before home profiles: it
classifies the grid, builds the decay vector and the full weight vector of
the chosen set, and cumsums it on every call. The profiled kernel must make
the same draw, bit for bit, from the same random stream.
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
    random_point_in_cell,
)
from swimsim.mobility import (
    ModelParams,
    UniformWait,
    build_home_profile,
    make_node_state,
    node_stream,
    select_destination,
)

AREA = AreaBounds(400.0, 400.0)
GRID = build_grid(AREA, 21)
# one point in each of home cells 0, 1, 10 and 20 of the 3 x 7 grid
HOMES = (Point2D(10.0, 10.0), Point2D(80.0, 30.0), Point2D(200.0, 200.0), Point2D(390.0, 390.0))


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


def dense_select(home, seen, location_map, params, rng):
    classes = classify_locations(location_map, home, params.neighbour_limit)
    near = np.array(
        [i for i, c in enumerate(classes) if c is not LocationClass.VISITING], dtype=np.int64
    )
    visiting = np.array(
        [i for i, c in enumerate(classes) if c is LocationClass.VISITING], dtype=np.int64
    )
    d = np.hypot(*(location_map.centers - location_map.centers[home]).T)
    decay = 1.0 / (1.0 + params.k * d) ** 2

    u = rng.random()
    candidates = near if u < params.alpha else visiting
    fallback = candidates.size == 0
    if fallback:
        candidates = visiting if u < params.alpha else near
    weights = params.alpha * decay[candidates] + (1.0 - params.alpha) * seen[candidates] / (
        1.0 + float(seen.sum())
    )
    total = weights.sum()
    probs = np.full(len(weights), 1.0 / len(weights)) if total <= 0.0 else weights / total
    r = rng.random()
    idx = int(np.searchsorted(np.cumsum(probs), r, side="right"))
    idx = min(idx, len(candidates) - 1)
    cell = int(candidates[idx])
    point = random_point_in_cell(location_map.cells[cell], rng)
    return cell, point, classes[cell] is LocationClass.VISITING, fallback


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


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("kind", ["zero", "sparse", "dense"])
def test_profiled_kernel_matches_dense(alpha, kind):
    params = make_params(alpha=alpha)
    for position in HOMES:
        node = make_node_state(0, position, GRID, params)
        assert_same_draws(node, params, seen_pattern(kind))


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
def test_profiled_kernel_matches_dense_across_first_encounter(alpha):
    params = make_params(alpha=alpha)
    for position in HOMES:
        node = make_node_state(0, position, GRID, params)
        assert_same_draws(node, params, seen_pattern("zero"), warm_up_at=150)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("kind", ["zero", "sparse", "dense"])
def test_profiled_kernel_matches_dense_without_visiting_cells(alpha, kind):
    params = make_params(alpha=alpha, neighbour_limit=AREA.diagonal)
    for position in HOMES:
        node = make_node_state(0, position, GRID, params)
        assert node.profile.visiting.cells.size == 0
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
    for i, node in enumerate(state.nodes):
        assert node.seen.base is state.seen
        node.seen[i] += 100
    assert (np.diag(state.seen[:, :8]) >= 100).all()
    report = run(state, until=params.sim_duration)
    assert report.seen is state.seen


@pytest.mark.parametrize(
    "change", [dict(alpha=0.8), dict(decay_scale=0.01), dict(neighbour_limit=100.0)]
)
def test_profile_for_other_params_is_rebuilt(change):
    params = make_params()
    other = make_params(**change)
    stale = build_home_profile(GRID, 0, other)
    node = make_node_state(0, HOMES[0], GRID, params, profile=stale)
    assert node.profile is not stale
    assert node.profile.fits(params)
    # a node whose profile went stale after construction is rebuilt on its next draw
    node = make_node_state(0, HOMES[0], GRID, other)
    assert_same_draws(node, params, seen_pattern("sparse"), draws=50)
    assert node.profile.fits(params)


def test_profile_for_other_home_is_rebuilt():
    params = make_params()
    wrong_home = build_home_profile(GRID, 20, params)
    node = make_node_state(0, HOMES[0], GRID, params, profile=wrong_home)
    assert node.home == node.profile.home == 0
