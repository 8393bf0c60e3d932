import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from swimsim.grid import (
    AreaBounds,
    LocationClass,
    Point2D,
    build_grid,
    cell_bounds,
    cell_of,
    classify_locations,
    grid_shape,
)
from swimsim.mobility import ModelParams, UniformWait, choose_destination, make_node_state
from swimsim.outputs import read_locations_file, write_locations_file


def brute_force_shape(n, width, height):
    """Independent oracle: scan every factor pair for the squarest cells."""
    candidates = []
    for rows in range(1, n + 1):
        if n % rows == 0:
            cols = n // rows
            diff = abs(width / cols - height / rows)
            candidates.append((diff, 0 if cols >= rows else 1, rows, (rows, cols)))
    return min(candidates)[3]


def centers(location_map):
    """Every cell's center, in id order, from the grid's edges."""
    xs, ys = location_map.x_edges, location_map.y_edges
    return [
        ((xs[c] + xs[c + 1]) / 2, (ys[r] + ys[r + 1]) / 2)
        for r in range(location_map.rows)
        for c in range(location_map.cols)
    ]


def brute_force_classes(location_map, home, limit):
    classes = []
    all_centers = centers(location_map)
    for cell, center in enumerate(all_centers):
        if cell == home:
            classes.append(LocationClass.HOME)
        elif math.dist(all_centers[home], center) <= limit:
            classes.append(LocationClass.NEIGHBOURING)
        else:
            classes.append(LocationClass.VISITING)
    return classes


AREA = AreaBounds(400.0, 400.0)


@st.composite
def grids(draw):
    """An area of 1e-3 to 1e9 m a side and 2 to 400 cells whose sides are wider
    than 1e-6 m, as a config must give them."""
    side = st.floats(1e-3, 1e9)
    area = AreaBounds(draw(side), draw(side))
    n = draw(st.integers(2, 400))
    rows, cols = grid_shape(area, n)
    assume(area.width / cols > 1e-6 and area.height / rows > 1e-6)
    return area, n


def test_build_grid_21_locations_is_3_by_7():
    m = build_grid(AREA, 21)
    assert (m.rows, m.cols) == (3, 7)
    min_x, min_y, max_x, max_y = cell_bounds(m, 0)
    assert max_x - min_x == pytest.approx(57.142857, abs=1e-6)
    assert max_y - min_y == pytest.approx(133.333333, abs=1e-6)


def test_build_grid_perfect_square():
    m = build_grid(AREA, 4)
    assert (m.rows, m.cols) == (2, 2)
    for cell in range(len(m)):
        min_x, min_y, max_x, max_y = cell_bounds(m, cell)
        assert max_x - min_x == pytest.approx(200.0)
        assert max_y - min_y == pytest.approx(200.0)


def test_build_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_grid(AREA, 1)
    with pytest.raises(ValueError):
        build_grid(AREA, 0)
    with pytest.raises(ValueError):
        AreaBounds(0.0, 400.0)
    with pytest.raises(ValueError):
        AreaBounds(400.0, -1.0)


@pytest.mark.parametrize("area", [AREA, AreaBounds(400.0, 300.0), AreaBounds(120.0, 900.0)])
def test_grid_shape_matches_brute_force(area):
    for n in range(2, 101):
        assert grid_shape(area, n) == brute_force_shape(n, area.width, area.height)


def test_cells_tile_area_exactly():
    m = build_grid(AREA, 21)
    assert len(m) == m.rows * m.cols == 21
    assert cell_bounds(m, 0)[:2] == (0.0, 0.0)
    # shared edges are the same float on both sides, outer edges hit the area
    for r in range(m.rows):
        for c in range(m.cols):
            min_x, min_y, max_x, max_y = cell_bounds(m, r * m.cols + c)
            if c + 1 < m.cols:
                assert max_x == cell_bounds(m, r * m.cols + c + 1)[0]
            else:
                assert max_x == AREA.width
            if r + 1 < m.rows:
                assert max_y == cell_bounds(m, (r + 1) * m.cols + c)[1]
            else:
                assert max_y == AREA.height


def test_cell_of_corners_and_boundaries():
    m = build_grid(AREA, 4)
    assert cell_of(m, Point2D(0.0, 0.0)) == 0
    assert cell_of(m, Point2D(400.0, 400.0)) == 3  # outer edges are closed
    assert cell_of(m, Point2D(200.0, 0.0)) == 1  # interior edge goes to higher index
    assert cell_of(m, Point2D(0.0, 200.0)) == 2
    m3 = build_grid(AREA, 21)
    assert cell_of(m3, Point2D(400.0 / 7.0, 0.0)) == 1
    with pytest.raises(ValueError):
        cell_of(m, Point2D(401.0, 10.0))
    with pytest.raises(ValueError):
        cell_of(m, Point2D(10.0, -0.1))


@pytest.mark.parametrize("n", [2, 4, 21, 36, 50])
def test_cell_of_center_roundtrip(n):
    m = build_grid(AREA, n)
    for cell, center in enumerate(centers(m)):
        assert cell_of(m, Point2D(*center)) == cell


@settings(max_examples=100, derandomize=True, deadline=None)
@given(grids(), st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=50))
@example((AreaBounds(400.0, 300.0), 21), [(0.5, 0.5)])
def test_cell_of_contains_random_points(case, fractions):
    area, n = case
    m = build_grid(area, n)
    xs, ys = m.x_edges, m.y_edges
    # points anywhere in the area, and every edge crossing of the grid
    points = [(area.width * fx, area.height * fy) for fx, fy in fractions]
    points += [(x, y) for x in xs for y in ys if area.contains(Point2D(x, y))]
    for x, y in points:
        row, col = divmod(cell_of(m, Point2D(x, y)), m.cols)
        assert xs[col] <= x <= xs[col + 1] and ys[row] <= y <= ys[row + 1]
        # a point on an interior edge belongs to the higher index
        assert x not in xs[col + 1:-1] and y not in ys[row + 1:-1]


def test_cell_of_lattice_covers_every_cell():
    m = build_grid(AREA, 21)
    xs = np.linspace(0.0, 400.0, 60)
    hit = {cell_of(m, Point2D(float(x), float(y))) for x in xs for y in xs}
    assert hit == set(range(21))


def test_random_point_in_cell_containment_and_moments():
    m = build_grid(AREA, 21)
    min_x, min_y, max_x, max_y = m.x_edges[3], m.y_edges[1], m.x_edges[4], m.y_edges[2]
    center = Point2D((min_x + max_x) / 2, (min_y + max_y) / 2)
    # alpha = 1 and limit 0 leave the home alone to draw: every trip goes to
    # cell 10, at the point choose_destination draws in it
    params = ModelParams(
        alpha=1.0, speed=1.4, neighbour_limit=0.0, n_locations=21, area=AREA,
        wait=UniformWait(2.0, 5.0), node_count=1, sim_duration=1000.0,
    )
    node = make_node_state(0, center, m, params)
    rng = np.random.default_rng(7)
    n = 100_000
    xs = np.empty(n)
    ys = np.empty(n)
    for i in range(n):
        cell, x, y, _visiting, _fallback = choose_destination(
            node, m, params, *rng.random(4).tolist()
        )
        assert cell == 10
        assert min_x <= x <= max_x and min_y <= y <= max_y
        xs[i], ys[i] = x, y
    for values, low, high, mid in (
        (xs, min_x, max_x, center.x),
        (ys, min_y, max_y, center.y),
    ):
        sigma = (high - low) / math.sqrt(12 * n)
        assert abs(values.mean() - mid) < 3 * sigma


def test_classify_limit_zero_and_full_coverage():
    m = build_grid(AREA, 21)
    classes = classify_locations(m, 5, 0.0)
    assert classes[5] is LocationClass.HOME
    assert all(c is LocationClass.VISITING for i, c in enumerate(classes) if i != 5)
    classes = classify_locations(m, 5, AREA.diagonal)
    assert all(c is LocationClass.NEIGHBOURING for i, c in enumerate(classes) if i != 5)


def test_classify_reference_grid_home_zero():
    # splits frozen from the brute-force center-distance oracle
    m = build_grid(AREA, 21)
    classes = classify_locations(m, 0, 300.0)
    assert classes == brute_force_classes(m, 0, 300.0)
    assert classes.count(LocationClass.NEIGHBOURING) == 13
    assert classes.count(LocationClass.VISITING) == 7
    classes_home1 = classify_locations(m, 1, 300.0)
    assert classes_home1.count(LocationClass.NEIGHBOURING) == 16
    assert classes_home1.count(LocationClass.VISITING) == 4


def test_classify_partition_and_monotonicity():
    m = build_grid(AREA, 21)
    rng = np.random.default_rng(3)
    for _ in range(50):
        home = int(rng.integers(0, 21))
        limit = float(rng.uniform(0, 600))
        classes = classify_locations(m, home, limit)
        assert classes.count(LocationClass.HOME) == 1
        assert len(classes) == 21
        assert classes == brute_force_classes(m, home, limit)
        wider = classify_locations(m, home, limit + float(rng.uniform(0, 200)))
        for c_narrow, c_wide in zip(classes, wider):
            if c_narrow is LocationClass.NEIGHBOURING:
                assert c_wide is LocationClass.NEIGHBOURING


def test_classify_rejects_negative_limit():
    m = build_grid(AREA, 4)
    with pytest.raises(ValueError):
        classify_locations(m, 0, -1.0)


def test_locations_file_content(tmp_path):
    m = build_grid(AREA, 4)
    path = tmp_path / "locations.csv"
    write_locations_file(m, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# swim-locations v1 rows=2 cols=2"
    assert lines[1] == "0,0.000000,0.000000,200.000000,200.000000"
    assert len(lines) == 5


def test_locations_file_roundtrip_identity(tmp_path):
    m = build_grid(AREA, 4)  # coordinates exact at 6 decimals
    path = tmp_path / "locations.csv"
    write_locations_file(m, path)
    assert read_locations_file(path) == m


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(grids())
@example((AREA, 21))
def test_locations_file_byte_roundtrip(tmp_path, case):
    m = build_grid(*case)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_locations_file(m, first)
    write_locations_file(read_locations_file(first), second)
    assert first.read_bytes() == second.read_bytes()
    back = read_locations_file(first)
    assert (back.rows, back.cols) == (m.rows, m.cols)
    for cell in range(len(m)):
        ours, theirs = cell_bounds(m, cell), cell_bounds(back, cell)
        assert theirs[0] == pytest.approx(ours[0], abs=1e-6)
        assert theirs[3] == pytest.approx(ours[3], abs=1e-6)


def test_locations_file_io_errors(tmp_path):
    m = build_grid(AREA, 4)
    with pytest.raises(OSError):
        write_locations_file(m, tmp_path / "missing-dir" / "locations.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("not a header\n")
    with pytest.raises(ValueError):
        read_locations_file(bad)


@pytest.mark.parametrize(
    "line",
    [
        "1,nan,0.0,2.0,1.0",
        "1,1.0,0.0,inf,1.0",
        "1,1.0,0.0,2.0",
        "1,1,0,2,1,0",
        "one,1,0,2,1",
        "1,2.0,0.0,1.0,1.0",  # min_x > max_x
        "1,1.0,1.0,2.0,1.0",  # min_y == max_y
        "1,-1.0,0.0,2.0,1.0",  # negative bound
    ],
)
def test_locations_file_rejects_bad_cell_lines(tmp_path, line):
    path = tmp_path / "locations.csv"
    path.write_text(f"# swim-locations v1 rows=1 cols=2\n0,0,0,1,1\n{line}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: .*{re.escape(line)}"):
        read_locations_file(path)


@pytest.mark.parametrize(
    "lineno, line",
    [
        (6, "4,1.5,1.0,2.0,2.0"),  # min_x off its column's edge
        (6, "4,1.0,1.0,2.0,2.5"),  # max_y off its row's edge
        (2, "0,0.5,0.0,1.0,1.0"),  # the grid's corner is not the origin
    ],
)
def test_locations_file_rejects_cells_off_the_grid(tmp_path, lineno, line):
    # a 3 x 3 grid of unit cells with one line replaced
    lines = [f"{r * 3 + c},{c}.0,{r}.0,{c + 1}.0,{r + 1}.0" for r in range(3) for c in range(3)]
    lines[lineno - 2] = line
    path = tmp_path / "locations.csv"
    path.write_text("# swim-locations v1 rows=3 cols=3\n" + "".join(f"{x}\n" for x in lines))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: .*{re.escape(line)}"):
        read_locations_file(path)


@pytest.mark.parametrize("shape", ["rows=0 cols=5", "rows=2 cols=0"])
def test_locations_file_rejects_empty_grid(tmp_path, shape):
    path = tmp_path / "locations.csv"
    path.write_text(f"# swim-locations v1 {shape}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{shape}"):
        read_locations_file(path)
