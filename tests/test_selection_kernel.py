"""The profiled selection kernel against dense references.

Where w(C) mixes its static and its seen term, the kernel draws each term
on its own, so a stratified sweep of the step-2 uniform over each step-1
set must give each cell its probability under the reference simulator's
dense w(C) (reference.py), which test_properties runs draw for draw.

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
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from reference import Model
from support import add_row, lone_node
from test_grid import centers

from swimsim.engine import initialize, run
from swimsim.grid import AreaBounds, LocationMap, Point2D, build_grid
from swimsim.mobility import (
    ModelParams,
    SeenCounters,
    UniformWait,
    choose_destination,
    node_stream,
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
# cell 1's center lies at the limit by the offset table and one ulp past it
# by math.dist between the rounded centers
@example((grid_of(2, 1, AreaBounds(1.0, 1.2528925087540082e16)),
          make_params(alpha=0.0, n_locations=2, area=AreaBounds(1.0, 1.2528925087540082e16),
                      neighbour_limit=6264462543770041.0),
          0, []))
def test_offset_table_draw_matches_dense_reference(case):
    location_map, params, home, uniforms = case
    # the reference: distances between cell centers, and w(C) = alpha * decay,
    # whose common factor alpha > 0 does not change the draw
    all_centers = centers(location_map)
    distances = [math.dist(all_centers[home], center) for center in all_centers]
    decay = [1.0 / ((1.0 + params.k * d) * (1.0 + params.k * d)) for d in distances]
    node = lone_node(0, Point2D(*all_centers[home]), location_map, params)
    assert node.home == home

    def on_edge(d):
        return abs(d - params.neighbour_limit) <= EDGE * max(d, params.neighbour_limit)

    # a cell within rounding of the limit may be near by the kernel's offset
    # distance and visiting by the reference's, or the other way round: there
    # the reference takes the kernel's class, so that the draws compare alike
    kernel_near = set(node.profile.cells(False).tolist())
    near = [cell == home or (cell in kernel_near if on_edge(d) else d <= params.neighbour_limit)
            for cell, d in enumerate(distances)]
    for visiting in (False, True):
        kernel = set(node.profile.cells(visiting).tolist())
        for cell, d in enumerate(distances):
            if not on_edge(d):
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


def test_mixed_draw_shares_match_the_reference_weights():
    # a node that has met someone at 0 < alpha < 1: sweep r over the step-1
    # set u picks, the near and the visiting set in turn over the four homes
    params = make_params(alpha=0.3)
    model = Model(params)
    seen = np.random.default_rng(7).integers(0, 40, size=21)
    counts = {c: n for c, n in enumerate(seen.tolist()) if n}
    for position, u in zip(HOMES, STEP1_UNIFORMS * 2):
        node = lone_node(0, position, GRID, params)
        add_row(node.seen, seen)
        visiting, fallback, cells = model.pick_set(node.home, u)
        decay, seen_term = model.terms(node.home, counts, cells)
        weights = params.alpha * np.array(decay) + seen_term
        expected = np.zeros(len(GRID))
        expected[cells] = weights / weights.sum()
        draws = [choose_destination(node, GRID, params, u, (i + 0.5) / STRATA, 0.5, 0.5)
                 for i in range(STRATA)]
        assert {draw[3:] for draw in draws} == {(visiting, fallback)}
        shares = np.bincount([draw[0] for draw in draws], minlength=len(GRID)) / STRATA
        assert 0.5 * np.abs(shares - expected).sum() < 1e-3


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
        assert isinstance(node.seen, SeenCounters)
        assert state.tracker.seen[i] is node.seen
        node.seen.add(i, 100)
    report = run(state, until=params.sim_duration)
    assert report.seen.shape == (8, 21) and report.seen.dtype == np.int64
    assert (np.diag(report.seen[:, :8]) >= 100).all()
    for row, node in zip(report.seen, state.nodes):
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
        node = lone_node(0, position, GRID, params)
        node.seen = NoCounters()
        rng = node_stream(5, 0)
        for _ in range(200):
            choose_destination(node, GRID, params, *rng.random(4).tolist())
