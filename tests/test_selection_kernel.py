"""The profiled selection kernel against the dense one it replaced.

`dense_select` below is the kernel as it was before home profiles: it
classifies the grid, builds the decay vector and the full weight vector of
the chosen set, and cumsums it on every call. Where w(C) has one component
only (a node that has met nobody, alpha = 0 or alpha = 1) the profiled
kernel must make the same draw, bit for bit, from the same random stream.
Where both mix it draws each component on its own, so it must instead
give each cell the probability of the dense weights: a stratified sweep of
the step-2 uniform over each step-1 set is compared with them exactly.

The kernel reads its static draw from the run's offset table. A property
test checks that draw on generated grids of up to 12 x 12 cells against a
dense reference built from the cell centers with `math.dist`: the same
near set, a cell of the chosen set always, and the reference's cell
wherever r is not within rounding of one of its CDF boundaries.
"""

import math
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from swimsim.engine import initialize, run
from swimsim.grid import (
    AreaBounds,
    LocationClass,
    LocationMap,
    Point2D,
    build_grid,
    classify_locations,
)
from swimsim.mobility import (
    ModelParams,
    SeenCounters,
    UniformWait,
    choose_destination,
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


def centers(location_map):
    """Every cell's center, in id order, from the grid's edges."""
    xs, ys = location_map.x_edges, location_map.y_edges
    return [
        ((xs[c] + xs[c + 1]) / 2, (ys[r] + ys[r + 1]) / 2)
        for r in range(location_map.rows)
        for c in range(location_map.cols)
    ]


def dense_weights(home, seen, location_map, params, u):
    """The dense kernel's step-2 candidates and probabilities for step-1 uniform u."""
    classes = classify_locations(location_map, home, params.neighbour_limit)
    near = np.array(
        [i for i, c in enumerate(classes) if c is not LocationClass.VISITING], dtype=np.int64
    )
    visiting = np.array(
        [i for i, c in enumerate(classes) if c is LocationClass.VISITING], dtype=np.int64
    )
    all_centers = np.array(centers(location_map))
    d = np.hypot(*(all_centers - all_centers[home]).T)
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
    # numpy's uniform arithmetic on the cell's bounds
    row, col = divmod(cell, location_map.cols)
    xs, ys = location_map.x_edges, location_map.y_edges
    fx, fy = rng.random(2).tolist()
    point = Point2D(xs[col] + (xs[col + 1] - xs[col]) * fx, ys[row] + (ys[row + 1] - ys[row]) * fy)
    return cell, point, classes[cell] is LocationClass.VISITING, fallback


def grid_of(rows, cols, area):
    """The rows x cols grid over `area`, with build_grid's cell bounds."""
    return LocationMap(
        rows=rows, cols=cols, area=area,
        x_edges=tuple(area.width * c / cols for c in range(cols + 1)),
        y_edges=tuple(area.height * r / rows for r in range(rows + 1)),
    )


# a tolerance, relative to the distances and to the set's unit total, for
# comparisons that the kernel's and the reference's roundings may settle apart
EDGE = 1e-12


@st.composite
def offset_cases(draw):
    """A grid of up to 12 x 12 cells over any area, with params, a home and uniforms."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    assume(rows * cols >= 2)
    area = AreaBounds(draw(st.floats(1e-150, 1e150)), draw(st.floats(1e-150, 1e150)))
    # k * d from tiny to huge: past about 6.7e153 the decay is subnormal,
    # and past about 1.3e154 it is 0
    k = draw(st.none() | st.floats(1e-6, 1e6).map(lambda s: s / area.diagonal)
             | st.floats(1e153, 2e154).map(lambda s: s / area.diagonal) | st.just(1e308))
    try:
        params = make_params(
            alpha=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
            n_locations=rows * cols, area=area, decay_scale=k,
            neighbour_limit=draw(st.just(0.0) | st.floats(0.0, 1.5)) * area.diagonal,
        )
    except ValueError:
        assume(False)
    home = draw(st.integers(0, rows * cols - 1))
    # r just below 1 can round r * total up to the total
    unit = st.floats(0.0, 1.0, exclude_max=True) | st.just(math.nextafter(1.0, 0.0))
    uniforms = draw(st.lists(st.tuples(unit, unit), max_size=20))
    return grid_of(rows, cols, area), params, home, uniforms


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(offset_cases())
def test_offset_table_draw_matches_dense_reference(case):
    location_map, params, home, uniforms = case
    # the reference: distances between cell centers, and w(C) = alpha * decay,
    # whose common factor alpha > 0 does not change the draw
    all_centers = centers(location_map)
    distances = [math.dist(all_centers[home], center) for center in all_centers]
    near = [cell == home or d <= params.neighbour_limit for cell, d in enumerate(distances)]
    decay = [1.0 / ((1.0 + params.k * d) * (1.0 + params.k * d)) for d in distances]

    node = make_node_state(0, Point2D(*all_centers[home]), location_map, params)
    assert node.home == home
    for visiting in (False, True):
        kernel = set(node.profile.cells(visiting).tolist())
        for cell, d in enumerate(distances):
            if abs(d - params.neighbour_limit) > EDGE * max(d, params.neighbour_limit):
                assert (cell in kernel) == (near[cell] != visiting), (cell, d)
        assert len(kernel) == getattr(node.profile, "visiting" if visiting else "near").size

    def reference(visiting):
        chosen = [c for c in range(len(location_map)) if near[c] != visiting]
        weights = np.array([decay[c] for c in chosen])
        if params.alpha == 0.0 or not weights.any():
            weights = np.ones(len(chosen))
        return chosen, np.cumsum(weights / weights.sum())

    for u, r in uniforms:
        cell, _, _, visiting, fallback = choose_destination(
            node, location_map, params, u, r, 0.5, 0.5
        )
        chosen, boundaries = reference(visiting)
        assert cell in chosen
        assert fallback == (visiting != (u >= params.alpha))
        if np.abs(boundaries - r).min() > EDGE:
            expected = chosen[min(bisect_right(boundaries, r), len(chosen) - 1)]
            assert cell == expected, (r, boundaries)

    # at and just below every boundary of either set, where the two may
    # settle apart, the cell is still one of the chosen set; so it is at
    # r = 1, which the static share x / S of a warm draw can round to
    for u in (0.0, math.nextafter(1.0, 0.0)):
        visiting = choose_destination(node, location_map, params, u, 0.0, 0.5, 0.5)[3]
        chosen, boundaries = reference(visiting)
        for b in boundaries.tolist():
            for r in {min(b, 1.0), math.nextafter(b, 0.0)}:
                assert choose_destination(node, location_map, params, u, r, 0.5, 0.5)[0] in chosen


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
        assert node.profile.cells(visiting=True).size == 0
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
            assert other.profile.near.rows is first.profile.near.rows
            assert other.profile.visiting.rows is first.profile.visiting.rows
    # and every home reads the run's one offset table
    assert len({id(node.profile.table) for node in state.nodes}) == 1


def test_seen_counters_are_sparse_and_per_node():
    params = make_params(node_count=8)
    state = initialize(params)
    for i, node in enumerate(state.nodes):
        assert isinstance(node.seen, SeenCounters) and np.asarray(node.seen).shape == (21,)
        assert state.tracker.seen[i] is node.seen
        node.seen[i] += 100
    report = run(state, until=params.sim_duration)
    assert report.seen.shape == (8, 21) and report.seen.dtype == np.int64
    assert (np.diag(report.seen[:, :8]) >= 100).all()
    for row, node in zip(report.seen, state.nodes):
        assert np.array_equal(row, np.asarray(node.seen))
        for in_set in (0, 1):
            cells = [c for c in node.profile.cells(bool(in_set)).tolist() if row[c]]
            assert node.seen.cells[in_set] == cells
            assert node.seen.counts[in_set] == row[cells].tolist()


def test_initialize_holds_no_n_by_l_array():
    params = make_params(node_count=400, n_locations=400, neighbour_limit=60.0)
    tracemalloc.start()
    try:
        state = initialize(params)
        largest = max(trace.size for trace in tracemalloc.take_snapshot().traces)
    finally:
        tracemalloc.stop()
    # an N x L int64 matrix would take 1.28 MB in one block; the per-home
    # arrays are L values each, and a node's uniform block BLOCK values
    assert largest < 8 * params.node_count * len(state.location_map) // 10


def test_selection_state_is_not_per_home_per_cell():
    # 500 nodes on a 100 x 100 grid have about 490 distinct homes; selection
    # state of a few bytes per home and cell would take megabytes per byte.
    params = make_params(node_count=500, n_locations=10_000, area=AreaBounds(4000.0, 4000.0))
    tracemalloc.start()
    try:
        state = initialize(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = state.location_map
    assert (grid.rows, grid.cols) == (100, 100)
    homes = len({node.home for node in state.nodes})
    assert peak < homes * len(grid), (peak, homes)


class NoCounters:
    """Seen counters of a node that has met nobody, whose sets must not be read."""

    total = 0

    def _unread(self):
        raise AssertionError("a cold selection read the seen counters")

    cells = counts = totals = property(_unread)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
def test_cold_selection_reads_no_counters(alpha):
    params = make_params(alpha=alpha)
    for position in HOMES:
        node = make_node_state(0, position, GRID, params)
        node.seen = NoCounters()
        rng = node_stream(5, 0)
        for _ in range(200):
            select_destination(node, GRID, params, rng)
