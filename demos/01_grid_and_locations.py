"""Grid of locations
===================

The movement area is partitioned into a grid of equal rectangular cells.
This walks through building the grid, looking points up, classifying
cells relative to a home location, and the shared locations file.
"""

from pathlib import Path

from swimsim import AreaBounds
from swimsim.grid import LocationClass, Point2D, build_grid, cell_of, classify_locations
from swimsim.outputs import read_locations_file, write_locations_file

area = AreaBounds(400.0, 400.0)
grid = build_grid(area, 21)

# 21 locations over a square area settle on 3 rows x 7 cols: that is the
# factor pair whose cells are closest to square
print(f"grid: {grid.rows} rows x {grid.cols} cols")
cell = grid.cells[0]
print(f"cell size: {cell.max_x - cell.min_x:.6f} m x {cell.max_y - cell.min_y:.6f} m")

# any point in the area maps to exactly one cell; shared edges belong to
# the higher-index cell, the outer boundary is closed
for p in (Point2D(0, 0), Point2D(399.9, 399.9), Point2D(400, 400)):
    print(f"point ({p.x:6.1f}, {p.y:6.1f}) -> cell {cell_of(grid, p)}")

# classification: home, neighbouring (center within the limit), visiting
for home in (0, 1, 10):
    classes = classify_locations(grid, home, limit=300.0)
    n = classes.count(LocationClass.NEIGHBOURING)
    v = classes.count(LocationClass.VISITING)
    print(f"home cell {home:2d}: {n:2d} neighbouring, {v} visiting")

# the grid is shared by every node through a small text file
out = Path("demo-output")
out.mkdir(exist_ok=True)
path = out / "locations.csv"
write_locations_file(grid, path)
print(f"wrote {path} ({len(read_locations_file(path))} cells round-trip)")
