"""Every output file format of the simulator, and the locations reader.

Numeric fields are 6-decimal fixed point, so a fixed config and seed give
byte-identical files. Each writer takes the data it writes (a location
map, the waypoint log, a contact log, CCDF pairs, a metrics dict or sweep
rows), not a whole run report, and `swimsim run` calls them all from one
loop. The waypoint and contact logs are numpy record arrays, written a
chunk of rows at a time. At run time this module imports no other swimsim
module apart from the grid, whose cell bounds the locations files hold,
and the contact log's conversion.
"""

from __future__ import annotations

import json
import math
import re
from typing import TYPE_CHECKING

import numpy as np

from .encounters import finished_log
from .grid import LocationMap, cell_bounds, grid_from_edges

if TYPE_CHECKING:
    from .metrics import SelectionStats

LOCATIONS_HEADER_RE = re.compile(r"^# swim-locations v1 rows=(\d+) cols=(\d+)$")
ROWS_PER_WRITE = 4096  # rows joined into one write; bounds the text held in memory


def write_locations_file(location_map: LocationMap, path) -> None:
    """Write the shared locations file: one `id,min_x,min_y,max_x,max_y` line
    per cell at 6-decimal fixed point, preceded by a versioned header."""
    lines = [f"# swim-locations v1 rows={location_map.rows} cols={location_map.cols}\n"]
    for cell in range(len(location_map)):
        min_x, min_y, max_x, max_y = cell_bounds(location_map, cell)
        lines.append(f"{cell},{min_x:.6f},{min_y:.6f},{max_x:.6f},{max_y:.6f}\n")
    with open(path, "w", newline="") as f:
        f.writelines(lines)


def read_locations_file(path) -> LocationMap:
    """Parse a locations file back into a LocationMap.

    A header with fewer than one row or column fails with a message naming
    the file. A cell line that is not `id,min_x,min_y,max_x,max_y` with an
    integer id, finite coordinates and `0 <= min < max` on both axes fails
    with a message naming its file and line. The cells must be the grid of
    the header, over an area whose corner is the origin: the column edges
    are 0 and row 0's `max_x` values, the row edges 0 and column 0's
    `max_y` values, and a line whose bounds are not its column's and row's
    edges fails with a message naming its file and line.
    """
    with open(path) as f:
        header = f.readline().rstrip("\n")
        m = LOCATIONS_HEADER_RE.match(header)
        if not m:
            raise ValueError(f"{path}: not a swim-locations v1 file")
        rows, cols = int(m.group(1)), int(m.group(2))
        if rows < 1 or cols < 1:
            raise ValueError(f"{path}: rows and cols must be >= 1, got rows={rows} cols={cols}")
        cells = []
        for lineno, line in enumerate(f, start=2):
            fields = line.rstrip("\n").split(",")
            try:
                values = [int(fields[0]), *map(float, fields[1:])]
            except ValueError:
                values = []
            if not (
                len(values) == 5
                and all(map(math.isfinite, values[1:]))
                and 0 <= values[1] < values[3]
                and 0 <= values[2] < values[4]
            ):
                raise ValueError(
                    f"{path}:{lineno}: expected id,min_x,min_y,max_x,max_y with finite "
                    f"coordinates and 0 <= min < max on both axes, got {line.rstrip()!r}"
                )
            cells.append((lineno, line, values))
    if len(cells) != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} cells, found {len(cells)}")
    if [values[0] for _, _, values in cells] != list(range(len(cells))):
        raise ValueError(f"{path}: cell ids are not 0..{len(cells) - 1} in order")
    xs = [0.0] + [values[3] for _, _, values in cells[:cols]]
    ys = [0.0] + [values[4] for _, _, values in cells[::cols]]
    for lineno, line, (cell, *bounds) in cells:
        row, col = divmod(cell, cols)
        if bounds != [xs[col], ys[row], xs[col + 1], ys[row + 1]]:
            raise ValueError(
                f"{path}:{lineno}: cell {cell} is not the grid's cell at row {row}, "
                f"column {col}: its bounds must be its column's and row's edges, "
                f"got {line.rstrip()!r}"
            )
    return grid_from_edges(xs, ys)


def write_waypoints(waypoints, path) -> None:
    """Waypoint trace export: one `time,node,x,y,event` row per row of the
    waypoint log, a record array with fields time, node, x, y and arrive,
    in the order given (a run report's `waypoints` are in event order)."""
    events = ("depart", "arrive")
    with open(path, "w", newline="") as f:
        f.write("time,node,x,y,event\n")
        for lo in range(0, len(waypoints), ROWS_PER_WRITE):
            chunk = waypoints[lo:lo + ROWS_PER_WRITE]
            # the event text is looked up by the arrive flag, not made anew
            # per row; %-formatting gives the same text as an f-string, in less time
            columns = (chunk.time, chunk.node, chunk.x, chunk.y, chunk.arrive)
            f.write("".join([
                "%.6f,%d,%.6f,%.6f,%s\n" % (t, node, x, y, events[arrive])
                for t, node, x, y, arrive in zip(*(c.tolist() for c in columns))
            ]))


class _IdText(dict):
    """The text of an id and its comma, formatted the first time it is looked up,
    so the writer holds text only for the ids the log holds."""

    def __missing__(self, i: int) -> str:
        text = self[i] = f"{i},"
        return text


def write_contacts_csv(records, path) -> None:
    """Contact log export, one `a,b,cell,start,end,censored` row per record.

    `records` is a contact log's record array or a list of ContactRecord.
    Every start and end is an event time, and contacts opened or closed by
    one event share it, so each distinct time of a chunk of ROWS_PER_WRITE
    rows is formatted once per chunk and the chunk's rows look it up, as
    they do the text of node and cell ids, formatted once per run. What
    the writer holds beyond the log is bounded by the chunk and the log's
    length, not by its largest id.
    """
    log = finished_log(records)
    top = max(int(column.max(initial=0)) for column in (log.a, log.b, log.cell))
    # each field's text together with the separator that follows it; a list
    # by id is the fastest lookup, and is built when no longer than the log
    id_text = [f"{i}," for i in range(top + 1)] if top < len(log) else _IdText()
    flag_text = ("0\n", "1\n")
    with open(path, "w", newline="") as f:
        f.write("a,b,cell,start,end,censored\n")
        for lo in range(0, len(log), ROWS_PER_WRITE):
            chunk = log[lo:lo + ROWS_PER_WRITE]
            times, which = np.unique(np.concatenate([chunk.start, chunk.end]), return_inverse=True)
            time_text = [f"{t:.6f}," for t in times.tolist()]
            rows = len(chunk)
            f.write("".join([
                f"{id_text[a]}{id_text[b]}{id_text[cell]}{time_text[s]}{time_text[e]}{flag_text[c]}"
                for a, b, cell, s, e, c in zip(
                    chunk.a.tolist(),
                    chunk.b.tolist(),
                    chunk.cell.tolist(),
                    which[:rows].tolist(),
                    which[rows:].tolist(),
                    chunk.censored.tolist(),
                )
            ]))


def write_ccdf_csv(ccdf, path) -> None:
    """CCDF export, one `value,fraction` row per (value, fraction) pair of
    `ccdf`: a DistributionSummary's `ccdf`, or the `ccdf` list of a summary
    in the `metrics_report` dict."""
    with open(path, "w", newline="") as f:
        f.write("value,fraction\n")
        for value, fraction in ccdf:
            f.write(f"{value:.6f},{fraction:.6f}\n")


def write_metrics_json(report: dict, path) -> None:
    """The `metrics_report` dict as indented JSON with sorted keys."""
    with open(path, "w", newline="") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


def write_sweep_csv(rows: list[tuple[float, SelectionStats]], path) -> None:
    """Sweep comparison, one row of selection counts and fractions per alpha."""
    with open(path, "w", newline="") as f:
        f.write(
            "alpha,selections,neighbouring,visiting,fallbacks,"
            "neighbouring_fraction,visiting_fraction\n"
        )
        for alpha, stats in rows:
            f.write(
                f"{alpha:.6f},{stats.total},{stats.near},{stats.visiting},"
                f"{stats.fallbacks},{stats.near_fraction:.6f},"
                f"{stats.visiting_fraction:.6f}\n"
            )
