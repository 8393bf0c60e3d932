"""Rectangular grid of movement locations.

The movement area is split into a grid of equal-size rectangular cells
("locations"). Every node shares the same grid; a node classifies each cell
as its home location, a neighbouring location (cell center within the
neighbour limit of the home center) or a visiting location.

A cell is given by its row and column, so a LocationMap keeps no object
per cell, only its C+1 column and R+1 row edges. Outside this module, only
the selection kernel reads the edges themselves.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

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


class LocationClass(Enum):
    HOME = "home"
    NEIGHBOURING = "neighbouring"
    VISITING = "visiting"


@dataclass
class LocationMap:
    """Grid of cells tiling the movement area, row-major ids: cell `row * cols + col`
    spans x_edges[col:col + 2] by y_edges[row:row + 2], each axis's edges from 0."""

    rows: int
    cols: int
    area: AreaBounds
    x_edges: tuple[float, ...]
    y_edges: tuple[float, ...]

    def __len__(self) -> int:
        return self.rows * self.cols


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
    x_edges = tuple(area.width * c / cols for c in range(cols + 1))
    y_edges = tuple(area.height * r / rows for r in range(rows + 1))
    return LocationMap(rows, cols, area, x_edges, y_edges)


def grid_from_edges(x_edges: list[float], y_edges: list[float]) -> LocationMap:
    """The grid with these column and row edges, each axis rising from 0 to the area's side."""
    area = AreaBounds(x_edges[-1], y_edges[-1])
    return LocationMap(len(y_edges) - 1, len(x_edges) - 1, area, tuple(x_edges), tuple(y_edges))


def cell_bounds(location_map: LocationMap, cell: int) -> tuple[float, float, float, float]:
    """(min_x, min_y, max_x, max_y) of a cell."""
    row, col = divmod(cell, location_map.cols)
    xs, ys = location_map.x_edges, location_map.y_edges
    return xs[col], ys[row], xs[col + 1], ys[row + 1]


def cell_of(location_map: LocationMap, p: Point2D) -> int:
    """Id of the cell containing p; interior edges belong to the higher index,
    the area's outer edges, which are closed, to the last cell."""
    if not location_map.area.contains(p):
        raise ValueError(f"point ({p.x}, {p.y}) outside area")
    cols, rows = location_map.cols, location_map.rows
    col = min(bisect_right(location_map.x_edges, p.x), cols) - 1
    row = min(bisect_right(location_map.y_edges, p.y), rows) - 1
    return row * cols + col


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
