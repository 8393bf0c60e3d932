import math

import numpy as np
import pytest

from swimsim.grid import (
    AreaBounds,
    Cell,
    LocationClass,
    Point2D,
    build_grid,
    cell_of,
    classify_locations,
    grid_shape,
    random_point_in_cell,
)
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


def brute_force_classes(location_map, home, limit):
    classes = []
    hx, hy = location_map.cells[home].center.x, location_map.cells[home].center.y
    for cell in location_map.cells:
        if cell.id == home:
            classes.append(LocationClass.HOME)
        elif math.dist((hx, hy), (cell.center.x, cell.center.y)) <= limit:
            classes.append(LocationClass.NEIGHBOURING)
        else:
            classes.append(LocationClass.VISITING)
    return classes


AREA = AreaBounds(400.0, 400.0)


def test_build_grid_21_locations_is_3_by_7():
    m = build_grid(AREA, 21)
    assert (m.rows, m.cols) == (3, 7)
    cell = m.cells[0]
    assert cell.max_x - cell.min_x == pytest.approx(57.142857, abs=1e-6)
    assert cell.max_y - cell.min_y == pytest.approx(133.333333, abs=1e-6)


def test_build_grid_perfect_square():
    m = build_grid(AREA, 4)
    assert (m.rows, m.cols) == (2, 2)
    for cell in m.cells:
        assert cell.max_x - cell.min_x == pytest.approx(200.0)
        assert cell.max_y - cell.min_y == pytest.approx(200.0)


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
    assert len(m.cells) == m.rows * m.cols == 21
    assert [c.id for c in m.cells] == list(range(21))
    # shared edges are the same float on both sides, outer edges hit the area
    for r in range(m.rows):
        for c in range(m.cols):
            cell = m.cells[r * m.cols + c]
            if c + 1 < m.cols:
                assert cell.max_x == m.cells[r * m.cols + c + 1].min_x
            else:
                assert cell.max_x == AREA.width
            if r + 1 < m.rows:
                assert cell.max_y == m.cells[(r + 1) * m.cols + c].min_y
            else:
                assert cell.max_y == AREA.height


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
    for cell in m.cells:
        assert cell_of(m, cell.center) == cell.id


def test_cell_of_contains_random_points():
    m = build_grid(AreaBounds(400.0, 300.0), 21)
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        p = Point2D(float(rng.uniform(0, 400)), float(rng.uniform(0, 300)))
        assert m.cells[cell_of(m, p)].contains(p)


def test_cell_of_lattice_covers_every_cell():
    m = build_grid(AREA, 21)
    xs = np.linspace(0.0, 400.0, 60)
    hit = {cell_of(m, Point2D(float(x), float(y))) for x in xs for y in xs}
    assert hit == set(range(21))


def test_random_point_in_cell_containment_and_moments():
    m = build_grid(AREA, 21)
    cell = m.cells[10]
    rng = np.random.default_rng(7)
    n = 100_000
    xs = np.empty(n)
    ys = np.empty(n)
    for i in range(n):
        p = random_point_in_cell(cell, rng)
        assert cell.contains(p)
        xs[i], ys[i] = p.x, p.y
    for values, low, high, center in (
        (xs, cell.min_x, cell.max_x, cell.center.x),
        (ys, cell.min_y, cell.max_y, cell.center.y),
    ):
        sigma = (high - low) / math.sqrt(12 * n)
        assert abs(values.mean() - center) < 3 * sigma


def test_random_point_in_degenerate_cell():
    cell = Cell(id=0, min_x=5.0, min_y=1.0, max_x=5.0, max_y=3.0)
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = random_point_in_cell(cell, rng)
        assert p.x == 5.0
        assert 1.0 <= p.y <= 3.0


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


def test_locations_file_byte_roundtrip(tmp_path):
    m = build_grid(AREA, 21)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_locations_file(m, first)
    write_locations_file(read_locations_file(first), second)
    assert first.read_bytes() == second.read_bytes()
    back = read_locations_file(first)
    assert (back.rows, back.cols) == (m.rows, m.cols)
    for ours, theirs in zip(m.cells, back.cells):
        assert theirs.min_x == pytest.approx(ours.min_x, abs=1e-6)
        assert theirs.max_y == pytest.approx(ours.max_y, abs=1e-6)


def test_locations_file_io_errors(tmp_path):
    m = build_grid(AREA, 4)
    with pytest.raises(OSError):
        write_locations_file(m, tmp_path / "missing-dir" / "locations.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("not a header\n")
    with pytest.raises(ValueError):
        read_locations_file(bad)
