"""The batched home build and the node starts of `initialize` against per-item judges.

`OffsetTable.profiles` builds the selection data of many homes at once.
The judge is the per-home build it replaced: it reads the same columns of
the table for one home, sums them along the grid rows one home at a time
and wraps each set's values as they come. Every field must be equal to
the last bit, for every home of each grid, with blocks of any size. The
prefix tables are judged against the sums of the full product of the
decay and each set's mask.

A node's start is the first two draws of its own stream, as
`rng.uniform(0, width)` and then `rng.uniform(0, height)` give them, and
its first pause is the wait law's inverse CDF of the next draw. The
stream then goes on from the block the start was read from as its node's
own stream does.
"""

import heapq
import tracemalloc
from array import array
from bisect import bisect_left

import numpy as np
import pytest

from swimsim import engine, mobility
from swimsim.engine import initialize
from swimsim.grid import AreaBounds, LocationMap, Point2D, build_grid, cell_of, offset_distances
from swimsim.mobility import (
    BLOCK,
    CandidateSet,
    ModelParams,
    OffsetTable,
    PowerLawWait,
    UniformWait,
    decay_of,
    node_stream,
)


def make_params(**overrides):
    base = dict(
        alpha=0.3, speed=1.4, neighbour_limit=300.0, n_locations=21,
        area=AreaBounds(400.0, 400.0), wait=UniformWait(2.0, 5.0), node_count=10,
        sim_duration=1000.0, seed=1,
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


def judged_sets(table, home):
    """The near and the visiting CandidateSet of `home`, built for that home alone."""
    rows, cols = table.rows, table.cols
    row, col = divmod(home, cols)
    window = slice(rows - 1 - row, 2 * rows - 1 - row)  # the grid rows' row offsets
    masses = np.cumsum(table._masses[:, col, window], axis=1).tolist()
    counts = np.cumsum(table._counts[:, col, window], axis=1).tolist()
    sets = []
    for visiting, stops in enumerate(table._stops[:, col, window].tolist()):
        mass = masses[visiting]
        weighted = table.alpha > 0.0 and mass[-1] > 0.0
        if not weighted:
            mass = counts[visiting]
        sets.append(CandidateSet(
            size=counts[visiting][-1],
            static_mass=table.alpha * mass[-1] if weighted else 0.0,
            rows=array("d", mass),
            last=bisect_left(mass, mass[-1]),
            prefix=(table.decay_sums if weighted else table.count_sums)[visiting],
            stops=array("i", stops),
        ))
    return sets


def judged_prefix_sums(location_map, params, terms):
    """Each set's prefix sums of `terms` along the row offsets, from the full
    product of the terms and the set's mask, flat per set."""
    visiting = offset_distances(location_map) > params.neighbour_limit
    masked = terms * np.stack([~visiting, visiting])
    sums = np.zeros((*masked.shape[:-1], masked.shape[-1] + 1))
    np.cumsum(masked, axis=-1, out=sums[..., 1:])
    return sums.reshape(2, -1)


def assert_same_set(built, judged):
    assert type(built.size) is int and built.size == judged.size
    assert type(built.static_mass) is float
    assert built.static_mass.hex() == judged.static_mass.hex()
    assert (built.rows.typecode, built.rows.tobytes()) == (judged.rows.typecode, judged.rows.tobytes())
    assert built.last == judged.last
    assert (built.stops.typecode, built.stops.tolist()) == (judged.stops.typecode, judged.stops.tolist())
    assert built.prefix is judged.prefix


GRIDS = {
    "1x9": (1, 9, AreaBounds(900.0, 100.0), {}),
    "9x1": (9, 1, AreaBounds(100.0, 900.0), {}),
    "3x7": (3, 7, AreaBounds(400.0, 400.0), {}),
    "alpha-0": (3, 7, AreaBounds(400.0, 400.0), {"alpha": 0.0}),
    "alpha-1": (3, 7, AreaBounds(400.0, 400.0), {"alpha": 1.0}),
    # only the home is near
    "limit-0": (4, 6, AreaBounds(400.0, 300.0), {"neighbour_limit": 0.0}),
    # one ulp past the largest center distance: every cell is near
    "limit-past-diagonal": (4, 6, AreaBounds(400.0, 300.0), {"neighbour_limit": float(
        np.nextafter(offset_distances(build_grid(AreaBounds(400.0, 300.0), 24)).max(), np.inf))}),
    "huge-k": (5, 5, AreaBounds(500.0, 500.0), {"decay_scale": 1e308}),
    "17x23": (17, 23, AreaBounds(1700.0, 2300.0), {"neighbour_limit": 450.0}),
    "100x100": (100, 100, AreaBounds(4000.0, 4000.0), {}),
}


@pytest.mark.parametrize("name, home_rows", [
    *((name, mobility.HOME_ROWS) for name in sorted(GRIDS)),
    # blocks of a few homes, or of one home where a home has more rows
    *((name, 5) for name in sorted(GRIDS) if name != "100x100"),
])
def test_batched_profiles_equal_per_home_build(name, home_rows, monkeypatch):
    rows, cols, area, overrides = GRIDS[name]
    monkeypatch.setattr(mobility, "HOME_ROWS", home_rows)
    location_map = grid_of(rows, cols, area)
    params = make_params(n_locations=rows * cols, area=area, **overrides)
    table = OffsetTable(location_map, params)
    # every home, in an order that is not the ids'
    homes = list(range(len(location_map)))[::-1]
    profiles = table.profiles(homes)
    assert len(profiles) == len(homes)
    for home, profile in zip(homes, profiles):
        assert (profile.row, profile.col) == divmod(home, cols)
        assert profile.flags_base == (rows - 1 - profile.row) * (2 * cols - 1) + cols - 1 - profile.col
        assert profile.sums_base == (rows - 1 - profile.row) * (2 * cols) + cols - 1 - profile.col
        near, visiting = judged_sets(table, home)
        assert_same_set(profile.near, near)
        assert_same_set(profile.visiting, visiting)
        if name == "limit-0":
            assert profile.near.size == 1
        if name == "limit-past-diagonal":
            assert profile.visiting.size == 0
    decay = decay_of(offset_distances(location_map), params.k)
    for built, judged in (
        (table.decay_sums, judged_prefix_sums(location_map, params, decay)),
        (table.count_sums, judged_prefix_sums(location_map, params, 1.0)),
    ):
        assert [bytes(sums) for sums in built] == [sums.tobytes() for sums in judged]


def test_profiles_of_no_homes():
    assert OffsetTable(build_grid(AreaBounds(400.0, 400.0), 21), make_params()).profiles([]) == []


# each wait law's suffix to the case ids; the default uniform law has none
START_WAITS = {"": UniformWait(2.0, 5.0), "-powerlaw": PowerLawWait(1.5, 10.0, 3600.0),
               "-fixed": UniformWait(3.0, 3.0)}


@pytest.mark.parametrize("width, height, seed, wait", [
    pytest.param(width, height, seed, wait, id=f"{width}-{height}-{seed}{suffix}")
    for suffix, wait in START_WAITS.items()
    for width, height in [(400.0, 400.0), (333.3, 17.77), (1e-3, 5e6), (2000.0, 1999.999),
                          (7.0, 13.0)]
    for seed in [1, 7, 2**40 + 3]
])
def test_node_starts_are_the_first_draws_of_their_streams(width, height, seed, wait):
    params = make_params(area=AreaBounds(width, height), n_locations=35, node_count=60,
                         seed=seed, wait=wait)
    state = initialize(params)
    for i, node in enumerate(state.nodes):
        rng = node_stream(seed, i)
        x, y = rng.uniform(0.0, width), rng.uniform(0.0, height)
        assert (node.x.hex(), node.y.hex()) == (float(x).hex(), float(y).hex())
        assert node.home == cell_of(state.location_map, Point2D(node.x, node.y))
        assert node.profile.row * state.location_map.cols + node.profile.col == node.home
        # the first pause is the inverse CDF of the stream's third draw, its
        # low for a fixed wait, which draws none
        assert node.end.hex() == wait.inverse_cdf(rng.random()).hex()
    # one first departure per node, keyed (time, seq = node id), popped in key order
    queue = list(state.queue)
    popped = [heapq.heappop(queue) for _ in state.nodes]
    assert popped == sorted((node.end, node.id, node.id) for node in state.nodes)
    assert state.seq == len(state.nodes)


@pytest.mark.parametrize("wait", [
    UniformWait(2.0, 5.0), PowerLawWait(1.5, 10.0, 3600.0), UniformWait(3.0, 3.0),
], ids=str)
def test_streams_go_on_from_their_start_blocks(wait):
    # `initialize` draws each node's first block into a row of an array of
    # START_ROWS nodes and hands the stream its row with the start's two
    # values and the first pause's one taken, none for a fixed wait. From
    # there, through two refills, the stream is its node's own
    nodes = 2 * engine.START_ROWS + 5
    params = make_params(node_count=nodes, wait=wait, seed=7)
    state = initialize(params)
    for i in (0, nodes - 1):
        judged = node_stream(params.seed, i).random(3 * BLOCK).tolist()
        taken = 2 if wait.high == wait.low else 3
        assert state.nodes[i].end == (wait.low if taken == 2 else wait.inverse_cdf(judged[2]))
        drawn = [value for _ in range(3 * BLOCK // 5 - 1) for value in state.uniforms[i].take(5)]
        assert drawn == judged[taken:taken + len(drawn)]
        assert taken + len(drawn) > 2 * BLOCK


def test_initialize_transient_memory_is_bounded():
    # wide-grid's size: 1 000 nodes on a 50 x 50 grid, about 830 distinct
    # homes. What stays live until `initialize` returns besides the state,
    # the node placement's lists and home map, takes about 110 kB; the
    # per-home data of all homes built at once would add megabytes.
    params = make_params(area=AreaBounds(2000.0, 2000.0), n_locations=2500, node_count=1000)
    initialize(params)
    tracemalloc.start()
    try:
        state = initialize(params)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len({node.home for node in state.nodes}) > 800
    assert peak - live < 256 * 1024, (peak, live)
