"""Rectangular grid of movement locations.

The movement area is split into a grid of equal-size rectangular cells
("locations"). Every node shares the same grid; a node classifies each cell
as its home location, a neighbouring location (cell center within the
neighbour limit of the home center) or a visiting location.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Point2D:
    x: float
    y: float


@dataclass(frozen=True)
class AreaBounds:
    width: float
    height: float

    def __post_init__(self):
        for key, value in (("maxAreaX", self.width), ("maxAreaY", self.height)):
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
            if value <= 0:
                raise ValueError(f"{key} must be > 0, got {value}")

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)

    def contains(self, p: Point2D) -> bool:
        return 0.0 <= p.x <= self.width and 0.0 <= p.y <= self.height


@dataclass(frozen=True)
class Cell:
    id: int
    min_x: float
    min_y: float
    max_x: float
    max_y: float

    @property
    def center(self) -> Point2D:
        return Point2D((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def contains(self, p: Point2D) -> bool:
        return self.min_x <= p.x <= self.max_x and self.min_y <= p.y <= self.max_y


class LocationClass(Enum):
    HOME = "home"
    NEIGHBOURING = "neighbouring"
    VISITING = "visiting"


@dataclass
class LocationMap:
    """Immutable grid of cells tiling the movement area, row-major ids."""

    cells: tuple[Cell, ...]
    rows: int
    cols: int
    area: AreaBounds

    @cached_property
    def centers(self) -> np.ndarray:
        """(n, 2) cell-center coordinates, built on first read."""
        return np.array([[c.center.x, c.center.y] for c in self.cells])

    def __len__(self) -> int:
        return len(self.cells)

    def cell_of(self, p: Point2D) -> int:
        return cell_of(self, p)


def grid_shape(area: AreaBounds, n_locations: int) -> tuple[int, int]:
    """Pick (rows, cols) with rows*cols == n_locations and the squarest cells.

    Ties on |cell_width - cell_height| break toward cols >= rows, then toward
    fewer rows, so the choice is total and deterministic.
    """
    best = None
    for rows in range(1, n_locations + 1):
        if n_locations % rows:
            continue
        cols = n_locations // rows
        diff = abs(area.width / cols - area.height / rows)
        key = (diff, 0 if cols >= rows else 1, rows)
        if best is None or key < best[0]:
            best = (key, (rows, cols))
    return best[1]


def build_grid(area: AreaBounds, n_locations: int) -> LocationMap:
    """Tile the area with n_locations equal cells; needs at least 2 cells."""
    if n_locations < 2:
        raise ValueError(f"noOfLocations must be >= 2, got {n_locations}")
    rows, cols = grid_shape(area, n_locations)
    cells = []
    for r in range(rows):
        for c in range(cols):
            cells.append(
                Cell(
                    id=r * cols + c,
                    min_x=area.width * c / cols,
                    min_y=area.height * r / rows,
                    max_x=area.width * (c + 1) / cols,
                    max_y=area.height * (r + 1) / rows,
                )
            )
    return LocationMap(cells=tuple(cells), rows=rows, cols=cols, area=area)


def _axis_index(v: float, extent: float, n: int) -> int:
    i = int(v / extent * n)
    return min(i, n - 1)  # points on the outer closed edge belong to the last cell


def cell_of(location_map: LocationMap, p: Point2D) -> int:
    """Id of the cell containing p; interior edges belong to the higher index."""
    if not location_map.area.contains(p):
        raise ValueError(f"point ({p.x}, {p.y}) outside area")
    col = _axis_index(p.x, location_map.area.width, location_map.cols)
    row = _axis_index(p.y, location_map.area.height, location_map.rows)
    # float division above can land one cell off near shared edges; settle
    # against the stored bounds so containment is exact
    cell = location_map.cells[row * location_map.cols + col]
    if p.x < cell.min_x:
        col -= 1
    elif p.x >= cell.max_x and col < location_map.cols - 1:
        col += 1
    if p.y < cell.min_y:
        row -= 1
    elif p.y >= cell.max_y and row < location_map.rows - 1:
        row += 1
    return row * location_map.cols + col


def point_in_cell(cell: Cell, fx: float, fy: float) -> Point2D:
    """The point at fractions `fx`, `fy` in [0, 1) of the cell's width and height.

    The arithmetic is numpy's `uniform`, so uniform fractions give exactly
    the point `rng.uniform(min, max)` would have drawn from the same doubles.
    """
    return Point2D(
        cell.min_x + (cell.max_x - cell.min_x) * fx,
        cell.min_y + (cell.max_y - cell.min_y) * fy,
    )


def classify_locations(
    location_map: LocationMap, home: int, limit: float
) -> list[LocationClass]:
    """Per-cell class for a node homed at `home`.

    A cell is neighbouring when its center lies within `limit` meters of the
    home cell's center; everything else (other than home itself) is visiting.
    """
    classes = [
        LocationClass.NEIGHBOURING if near else LocationClass.VISITING
        for near in near_mask(center_distances(location_map, home), home, limit)
    ]
    classes[home] = LocationClass.HOME
    return classes


def offset_distances(location_map: LocationMap) -> np.ndarray:
    """Center distance of every (row, column) offset between two cells of the grid.

    Entry [dr + rows - 1, dc + cols - 1] is the distance between the centers
    of two cells dr rows and dc columns apart, sqrt(dx*dx + dy*dy) with
    dx = dc * width / cols and dy = dr * height / rows: IEEE basic operations
    only, so every SIMD target rounds them alike. Each entry's dx and dy are
    scaled by the power of two that brings the larger into [0.5, 1) while
    squared, which changes no bit where the squares neither overflow nor
    underflow and keeps the distance right elsewhere. The distance grows
    with |dc| within a row offset, and with |dr| within a column offset.
    """
    rows, cols, area = location_map.rows, location_map.cols, location_map.area
    dx = np.arange(1 - cols, cols) * area.width / cols
    dy = (np.arange(1 - rows, rows) * area.height / rows)[:, None]
    exp = np.frexp(np.maximum(np.abs(dx), np.abs(dy)))[1]
    dx, dy = np.ldexp(dx, -exp), np.ldexp(dy, -exp)
    return np.ldexp(np.sqrt(dx * dx + dy * dy), exp)


def center_distances(location_map: LocationMap, home: int) -> np.ndarray:
    """Distance from the home cell's center to every cell's center, from offset_distances."""
    rows, cols = location_map.rows, location_map.cols
    row, col = divmod(home, cols)
    offsets = offset_distances(location_map)
    return offsets[rows - 1 - row:2 * rows - 1 - row, cols - 1 - col:2 * cols - 1 - col].ravel()


def near_mask(distances: np.ndarray, home: int, limit: float) -> np.ndarray:
    """True for the home cell and every cell whose center is within `limit`."""
    if limit < 0:
        raise ValueError(f"neighbourLocationLimit must be >= 0, got {limit}")
    mask = distances <= limit
    mask[home] = True
    return mask
