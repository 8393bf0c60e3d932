import math

import numpy as np
import pytest

from swimsim.grid import (
    AreaBounds,
    LocationClass,
    Point2D,
    build_grid,
    center_distances,
    classify_locations,
)
from swimsim.mobility import (
    ModelParams,
    PowerLawWait,
    UniformWait,
    candidate_weights,
    decay_of,
    draw_wait_time,
    make_node_state,
    node_stream,
    select_destination,
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
    return make_node_state(0, point, location_map, params)


def distance_decay(home, c, location_map, k):
    return decay_of(center_distances(location_map, home), k)[c]


def seen_normalized(node, c):
    """The seen term alone: candidate_weights with alpha = 0 and no static term."""
    return candidate_weights(np.zeros(1), node.seen[[c]], node.seen.sum(), 0.0)[0]


def all_weights(node, location_map, params):
    """w(C) for every cell, gathered from both candidate sets of the node's home."""
    profile = node.profile
    decay = decay_of(center_distances(location_map, node.home), params.k)
    w = np.full(len(location_map), np.nan)
    for visiting in (False, True):
        cells = profile.cells(visiting)
        w[cells] = candidate_weights(
            params.alpha * decay[cells], node.seen[cells], node.seen.sum(), params.alpha
        )
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
    assert distance_decay(0, 0, m, 0.01) == 1.0


def test_distance_decay_direct_value():
    # two cells side by side whose centers sit 100 m apart
    m = build_grid(AreaBounds(200.0, 100.0), 2)
    assert (m.rows, m.cols) == (1, 2)
    assert distance_decay(0, 1, m, 0.01) == pytest.approx(0.25)


def test_distance_decay_strictly_decreasing():
    m = build_grid(AREA, 21)
    for k in (0.001, 0.01, 0.5):
        decays = [distance_decay(0, c, m, k) for c in range(7)]  # first row
        assert all(a > b for a, b in zip(decays, decays[1:]))


def test_seen_normalized():
    params = make_params()
    m = build_grid(AREA, 21)
    node = node_at(Point2D(10.0, 10.0), params, m)
    assert all(seen_normalized(node, c) == 0.0 for c in range(21))
    node.seen[0] = 3
    node.seen[1] = 1
    assert seen_normalized(node, 0) == pytest.approx(0.6)
    assert seen_normalized(node, 1) == pytest.approx(0.2)
    total = sum(seen_normalized(node, c) for c in range(21))
    assert total < 1.0


def test_weight_alpha_extremes_and_mix():
    m = build_grid(AREA, 21)
    node = node_at(Point2D(10.0, 10.0), make_params(alpha=1.0), m)
    node.seen[3] = 17
    pure_decay = all_weights(node, m, make_params(alpha=1.0))
    pure_seen = all_weights(node, m, make_params(alpha=0.0))
    for c in range(21):
        assert pure_decay[c] == pytest.approx(distance_decay(node.home, c, m, make_params().k))
        assert pure_seen[c] == pytest.approx(seen_normalized(node, c))


def test_weight_direct_value():
    # alpha=0.5 with decay 0.25 and seen_norm 0.6 mixes to 0.425
    m = build_grid(AreaBounds(200.0, 100.0), 2)
    params = make_params(alpha=0.5, n_locations=2, area=AreaBounds(200.0, 100.0),
                         decay_scale=0.01, neighbour_limit=1000.0)
    node = node_at(Point2D(50.0, 50.0), params, m)
    assert node.home == 0
    node.seen[1] = 3
    node.seen[0] = 1  # denominator 1 + 4, seen_norm(1) = 0.6
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
        node.seen[:] = rng.integers(0, 50, size=21)
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
            choice = select_destination(node, m, params, rng)
            assert 0 <= choice.cell < 21
            row, col = divmod(choice.cell, m.cols)
            assert m.x_edges[col] <= choice.point.x <= m.x_edges[col + 1]
            assert m.y_edges[row] <= choice.point.y <= m.y_edges[row + 1]


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
        choice = select_destination(node, m, params, rng)
        assert not choice.fallback
        if choice.cell in visiting_ids:
            n_visiting += 1
            hits[choice.cell] += 1
    sigma = math.sqrt(0.3 * 0.7 / n)
    assert abs(n_visiting / n - 0.7) < 3 * sigma
    # within the visiting set, frequencies follow the normalized decay weights
    decay = decay_of(center_distances(m, node.home), params.k)
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
    warm.seen[:] = np.arange(21) * 7  # any injected counters
    rng_a = node_stream(99, 0)
    rng_b = node_stream(99, 0)
    for _ in range(500):
        a = select_destination(cold, m, params, rng_a)
        b = select_destination(warm, m, params, rng_b)
        assert a.cell == b.cell
        assert (a.point.x, a.point.y) == (b.point.x, b.point.y)


def test_select_destination_empty_visiting_falls_back():
    m = build_grid(AREA, 21)
    params = make_params(alpha=0.0, neighbour_limit=AREA.diagonal)
    node = node_at(Point2D(10.0, 10.0), params, m)
    assert node.profile.cells(visiting=True).size == 0
    classes = classify_locations(m, node.home, params.neighbour_limit)
    rng = np.random.default_rng(41)
    for _ in range(50):
        choice = select_destination(node, m, params, rng)
        assert choice.fallback
        assert classes[choice.cell] is not LocationClass.VISITING


def test_select_destination_zero_weights_uniform():
    # alpha=0 and nothing seen: uniform over the step-1 set
    m = build_grid(AREA, 21)
    params = make_params(alpha=0.0)
    node = node_at(Point2D(10.0, 10.0), params, m)
    rng = np.random.default_rng(43)
    n = 50_000
    counts = np.zeros(21)
    for _ in range(n):
        choice = select_destination(node, m, params, rng)
        counts[choice.cell] += 1
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


def test_seen_counters_read_and_write_like_a_dense_row():
    # a node's counters keep, per set of its home, the seen cells in id
    # order, their counts and the set's total; after every kind of write
    # they must equal the dense row, recounted and split by the home's sets
    params = make_params(n_locations=12, neighbour_limit=150.0)
    location_map = build_grid(params.area, params.n_locations)
    node = node_at(Point2D(10.0, 10.0), params, location_map)
    seen = node.seen
    near, visiting = (node.profile.cells(v).tolist() for v in (False, True))
    assert near and visiting

    def check_recount():
        row = np.asarray(seen)
        for in_set, cells in enumerate((near, visiting)):
            held = [c for c in cells if row[c]]
            assert seen.cells[in_set] == held
            assert seen.counts[in_set] == row[held].tolist()
            assert seen.totals[in_set] == int(row[cells].sum())
        assert seen.total == seen.sum() == int(row.sum())

    assert seen.sum() == 0 and seen.cells == seen.counts == ([], [])
    assert np.array_equal(np.asarray(seen), np.zeros(12, dtype=np.int64))
    check_recount()
    for write in (
        lambda: seen.add(visiting[-1], 2),
        lambda: seen.add(near[-1], 1),
        lambda: seen.add(visiting[0], 3),
        lambda: seen.add(near[0], 1),
        lambda: seen.add(visiting[-1], 1),
        lambda: seen.__setitem__(slice(None), np.arange(12) % 3),
        lambda: seen.__setitem__(near[-1], 0),  # a count set to zero leaves the store
        lambda: seen.add(near[-1], 4),
        lambda: seen.__setitem__(visiting[1], seen[visiting[1]] + 1),  # seen[c] += 1
        lambda: seen.__setitem__(slice(None), [0, 3, 0, 0, 5] + [0] * 7),
    ):
        write()
        check_recount()
    seen[2] += 1
    seen[4] += 1
    seen.add(1, 2)
    check_recount()
    assert seen.sum() == 12
    assert seen[4] == 6 and seen[0] == 0
    assert seen[[4, 0, 1]].tolist() == [6, 0, 5]
    assert seen[np.array([2, 5])].tolist() == [1, 0]
    row = np.asarray(seen)
    assert row.dtype == np.int64 and row.tolist() == [0, 5, 1, 0, 6] + [0] * 7
    row[0] = 9  # a read is a copy
    assert seen[0] == 0
    assert np.asarray(seen, dtype=float).tolist() == [0.0, 5.0, 1.0, 0.0, 6.0] + [0.0] * 7
    with pytest.raises(ValueError, match="copy"):
        seen.__array__(copy=False)  # numpy 2's np.asarray(seen, copy=False)
