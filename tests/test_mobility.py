import math

import numpy as np
import pytest

from support import add_row, lone_node, seen_dict
from test_grid import centers

from swimsim.grid import AreaBounds, LocationClass, Point2D, build_grid, classify_locations
from swimsim.mobility import (
    ModelParams,
    PowerLawWait,
    UniformWait,
    choose_destination,
    decay_of,
    draw_wait_time,
    node_stream,
)

AREA = AreaBounds(400.0, 400.0)


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


def node_at(point, params, location_map):
    return lone_node(0, point, location_map, params)


def center_decays(location_map, home, k):
    """The decay 1 / (1 + k*d)^2 of every cell, d its center's distance from the home cell's."""
    cells = centers(location_map)
    return decay_of(np.array([math.dist(cells[home], center) for center in cells]), k)


def seen_normalized(node, c):
    """The seen term alone, seen(C) / (1 + total seen)."""
    return seen_dict(node.seen).get(c, 0) / (1.0 + node.seen.total)


def all_weights(node, location_map, params):
    """w(C) for every cell, gathered from both candidate sets of the node's home."""
    decay = center_decays(location_map, node.home, params.k)
    counts = seen_dict(node.seen)
    w = np.full(len(location_map), np.nan)
    for visiting in (False, True):
        cells = node.profile.cells(visiting)
        seen = np.array([counts.get(c, 0) for c in cells.tolist()]) / (1.0 + node.seen.total)
        w[cells] = params.alpha * decay[cells] + (1.0 - params.alpha) * seen
    return w


def test_params_validation_messages():
    for kwargs, needle in (
        (dict(alpha=1.5), "alpha"),
        (dict(speed=0.0), "speed"),
        (dict(neighbour_limit=-1.0), "neighbourLocationLimit"),
        (dict(n_locations=1), "noOfLocations"),
        (dict(node_count=0), "nodeCount"),
        (dict(sim_duration=0.0), "simDuration"),
        (dict(seed=-3), "seed"),
        (dict(decay_scale=0.0), "k"),
        (dict(seen_update="both"), "seen_update"),
    ):
        with pytest.raises(ValueError, match=needle):
            make_params(**kwargs)


def test_default_decay_scale_is_two_over_diagonal():
    params = make_params()
    assert params.k == pytest.approx(2.0 / AREA.diagonal)
    # far corner decays to 1/9 with the default scale
    assert 1.0 / (1.0 + params.k * AREA.diagonal) ** 2 == pytest.approx(1.0 / 9.0)


def test_distance_decay_home_is_one():
    m = build_grid(AREA, 21)
    assert center_decays(m, 0, 0.01)[0] == 1.0


def test_distance_decay_direct_value():
    # two cells side by side whose centers sit 100 m apart
    m = build_grid(AreaBounds(200.0, 100.0), 2)
    assert (m.rows, m.cols) == (1, 2)
    assert center_decays(m, 0, 0.01)[1] == pytest.approx(0.25)


def test_distance_decay_strictly_decreasing():
    m = build_grid(AREA, 21)
    for k in (0.001, 0.01, 0.5):
        decays = center_decays(m, 0, k)[:7]  # first row
        assert all(a > b for a, b in zip(decays, decays[1:]))


def test_seen_normalized():
    params = make_params()
    m = build_grid(AREA, 21)
    node = node_at(Point2D(10.0, 10.0), params, m)
    assert all(seen_normalized(node, c) == 0.0 for c in range(21))
    node.seen.add(0, 3)
    node.seen.add(1, 1)
    assert seen_normalized(node, 0) == pytest.approx(0.6)
    assert seen_normalized(node, 1) == pytest.approx(0.2)
    total = sum(seen_normalized(node, c) for c in range(21))
    assert total < 1.0


def test_weight_alpha_extremes_and_mix():
    m = build_grid(AREA, 21)
    node = node_at(Point2D(10.0, 10.0), make_params(alpha=1.0), m)
    node.seen.add(3, 17)
    pure_decay = all_weights(node, m, make_params(alpha=1.0))
    pure_seen = all_weights(node, m, make_params(alpha=0.0))
    for c in range(21):
        assert pure_decay[c] == pytest.approx(center_decays(m, node.home, make_params().k)[c])
        assert pure_seen[c] == pytest.approx(seen_normalized(node, c))


def test_weight_direct_value():
    # alpha=0.5 with decay 0.25 and seen_norm 0.6 mixes to 0.425
    m = build_grid(AreaBounds(200.0, 100.0), 2)
    params = make_params(alpha=0.5, n_locations=2, area=AreaBounds(200.0, 100.0),
                         decay_scale=0.01, neighbour_limit=1000.0)
    node = node_at(Point2D(50.0, 50.0), params, m)
    assert node.home == 0
    node.seen.add(1, 3)
    node.seen.add(0, 1)  # denominator 1 + 4, seen_norm(1) = 0.6
    assert seen_normalized(node, 1) == pytest.approx(0.6)
    assert all_weights(node, m, params)[1] == pytest.approx(0.425)


def test_weight_bounds_random():
    m = build_grid(AREA, 21)
    rng = np.random.default_rng(11)
    for _ in range(200):
        params = make_params(alpha=float(rng.uniform(0, 1)))
        node = node_at(
            Point2D(float(rng.uniform(0, 400)), float(rng.uniform(0, 400))), params, m
        )
        add_row(node.seen, rng.integers(0, 50, size=21))
        w = all_weights(node, m, params)
        assert ((0.0 <= w) & (w <= 1.0)).all()


def test_wait_uniform_moments():
    rng = np.random.default_rng(23)
    n = 100_000
    samples = np.array([draw_wait_time(UniformWait(2.0, 5.0), rng) for _ in range(n)])
    assert samples.min() >= 2.0 and samples.max() <= 5.0
    sigma = math.sqrt(0.75 / n)
    assert abs(samples.mean() - 3.5) < 3 * sigma


def test_wait_degenerate_interval():
    rng = np.random.default_rng(0)
    assert draw_wait_time(UniformWait(7.0, 7.0), rng) == 7.0
    assert draw_wait_time(PowerLawWait(2.0, 7.0, 7.0), rng) == 7.0
    # the engine hands a fixed wait's inverse CDF the trip's last uniform
    for u in (0.0, 0.3, math.nextafter(1.0, 0.0)):
        assert UniformWait(7.0, 7.0).inverse_cdf(u) == 7.0
        assert PowerLawWait(2.0, 7.0, 7.0).inverse_cdf(u) == 7.0


def test_wait_power_law_ks_distance():
    beta, low, high = 2.0, 1.0, 100.0
    rng = np.random.default_rng(17)
    n = 100_000
    samples = np.sort([draw_wait_time(PowerLawWait(beta, low, high), rng) for _ in range(n)])
    assert samples[0] >= low and samples[-1] <= high
    # closed-form CDF for beta=2 on [1, 100]
    cdf = (1.0 - 1.0 / samples) / (1.0 - 1.0 / 100.0)
    steps = np.arange(1, n + 1) / n
    ks = max(np.max(np.abs(cdf - steps)), np.max(np.abs(cdf - (steps - 1.0 / n))))
    assert ks < 0.01


def test_wait_bounds_random_dists():
    rng = np.random.default_rng(29)
    for _ in range(50):
        low = float(rng.uniform(0.1, 10))
        high = low + float(rng.uniform(0, 100))
        dist = (
            UniformWait(low, high)
            if rng.random() < 0.5
            else PowerLawWait(float(rng.uniform(1.1, 4.0)), low, high)
        )
        for _ in range(20):
            assert low <= draw_wait_time(dist, rng) <= high


def test_wait_validation():
    with pytest.raises(ValueError):
        UniformWait(5.0, 2.0)
    with pytest.raises(ValueError):
        UniformWait(0.0, 2.0)
    with pytest.raises(ValueError):
        PowerLawWait(1.0, 1.0, 10.0)


def test_select_destination_support():
    m = build_grid(AREA, 21)
    rng = np.random.default_rng(31)
    for alpha in (0.0, 0.3, 0.8, 1.0):
        params = make_params(alpha=alpha)
        node = node_at(Point2D(10.0, 10.0), params, m)
        for _ in range(200):
            cell, x, y, _visiting, _fallback = choose_destination(
                node, m, params, *rng.random(4).tolist()
            )
            assert 0 <= cell < 21
            row, col = divmod(cell, m.cols)
            assert m.x_edges[col] <= x <= m.x_edges[col + 1]
            assert m.y_edges[row] <= y <= m.y_edges[row + 1]


def test_select_destination_cold_start_step1_fraction():
    # home cell 0 on the 3x7 grid keeps both candidate sets nonempty
    m = build_grid(AREA, 21)
    params = make_params(alpha=0.3)
    node = node_at(Point2D(10.0, 10.0), params, m)
    assert node.home == 0
    rng = np.random.default_rng(37)
    n = 100_000
    visiting_cells = node.profile.cells(visiting=True)
    visiting_ids = set(int(c) for c in visiting_cells)
    hits = {c: 0 for c in visiting_ids}
    n_visiting = 0
    for _ in range(n):
        cell, _x, _y, _visiting, fallback = choose_destination(
            node, m, params, *rng.random(4).tolist()
        )
        assert not fallback
        if cell in visiting_ids:
            n_visiting += 1
            hits[cell] += 1
    sigma = math.sqrt(0.3 * 0.7 / n)
    assert abs(n_visiting / n - 0.7) < 3 * sigma
    # within the visiting set, frequencies follow the normalized decay weights
    decay = center_decays(m, node.home, params.k)
    w = decay[visiting_cells]
    expected = w / w.sum()
    empirical = np.array([hits[int(c)] / n_visiting for c in visiting_cells])
    tv = 0.5 * np.abs(empirical - expected).sum()
    assert tv < 0.02


def test_select_destination_alpha_one_ignores_seen():
    m = build_grid(AREA, 21)
    params = make_params(alpha=1.0)
    cold = node_at(Point2D(10.0, 10.0), params, m)
    warm = node_at(Point2D(10.0, 10.0), params, m)
    add_row(warm.seen, np.arange(21) * 7)  # any injected counters
    rng_a = node_stream(99, 0)
    rng_b = node_stream(99, 0)
    for _ in range(500):
        a = choose_destination(cold, m, params, *rng_a.random(4).tolist())
        b = choose_destination(warm, m, params, *rng_b.random(4).tolist())
        assert a[:3] == b[:3]  # the cell and the point


def test_select_destination_empty_visiting_falls_back():
    m = build_grid(AREA, 21)
    params = make_params(alpha=0.0, neighbour_limit=AREA.diagonal)
    node = node_at(Point2D(10.0, 10.0), params, m)
    assert node.profile.cells(visiting=True).size == 0
    classes = classify_locations(m, node.home, params.neighbour_limit)
    rng = np.random.default_rng(41)
    for _ in range(50):
        cell, _x, _y, _visiting, fallback = choose_destination(
            node, m, params, *rng.random(4).tolist()
        )
        assert fallback
        assert classes[cell] is not LocationClass.VISITING


def test_select_destination_zero_weights_uniform():
    # alpha=0 and nothing seen: uniform over the step-1 set
    m = build_grid(AREA, 21)
    params = make_params(alpha=0.0)
    node = node_at(Point2D(10.0, 10.0), params, m)
    rng = np.random.default_rng(43)
    n = 50_000
    counts = np.zeros(21)
    for _ in range(n):
        counts[choose_destination(node, m, params, *rng.random(4).tolist())[0]] += 1
    visiting = node.profile.cells(visiting=True)
    assert counts.sum() == n
    assert counts[node.profile.cells(visiting=False)].sum() == 0  # alpha=0 never picks the near set
    empirical = counts[visiting] / n
    assert 0.5 * np.abs(empirical - 1.0 / len(visiting)).sum() < 0.02


def test_node_stream_independent_of_node_count():
    a = node_stream(5, 3).random(8)
    b = node_stream(5, 3).random(8)
    c = node_stream(5, 4).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seen_counters_add_keeps_each_set_in_id_order():
    # a node's counters keep, per set of its home, the seen cells in id
    # order, their counts, never 0, and the set's total; after every add
    # they must equal a dense row of the same adds, split by the home's sets
    params = make_params(n_locations=12, neighbour_limit=150.0)
    location_map = build_grid(params.area, params.n_locations)
    node = node_at(Point2D(10.0, 10.0), params, location_map)
    seen = node.seen
    near, visiting = (node.profile.cells(v).tolist() for v in (False, True))
    assert near and visiting
    row = np.zeros(12, dtype=np.int64)

    def check_recount():
        for in_set, cells in enumerate((near, visiting)):
            held = [c for c in cells if row[c]]
            assert seen.cells[in_set] == held
            assert seen.counts[in_set] == row[held].tolist()
            assert seen.totals[in_set] == int(row[cells].sum())
        assert seen.total == int(row.sum())

    assert seen.total == 0 and seen.cells == seen.counts == ([], [])
    check_recount()
    for cell, n in ((visiting[-1], 2), (near[-1], 1), (visiting[0], 3), (near[0], 1),
                    (visiting[-1], 1), (near[-1], 4), (visiting[1], 1), (2, 1), (4, 1), (1, 2)):
        seen.add(cell, n)
        row[cell] += n
        check_recount()
