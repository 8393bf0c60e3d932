"""Every output file format of the simulator, and the locations reader.

Numeric fields are 6-decimal fixed point, so a fixed config and seed give
byte-identical files. Each writer takes the data it writes (a location
map, the waypoint log, a contact log, CCDF pairs, a metrics dict or sweep
rows), not a whole run report, and `swimsim run` calls them all from one
loop. The waypoint and contact logs are numpy record arrays, written a
chunk of rows at a time. At run time this module imports no other swimsim
module apart from the grid types the locations reader builds and the
contact log's conversion.
"""

from __future__ import annotations

import json
import math
import re
from typing import TYPE_CHECKING

import numpy as np

from .encounters import finished_log
from .grid import AreaBounds, Cell, LocationMap

if TYPE_CHECKING:
    from .metrics import SelectionStats

LOCATIONS_HEADER_RE = re.compile(r"^# swim-locations v1 rows=(\d+) cols=(\d+)$")
ROWS_PER_WRITE = 4096  # rows joined into one write; bounds the text held in memory


def write_locations_file(location_map: LocationMap, path) -> None:
    """Write the shared locations file: one `id,min_x,min_y,max_x,max_y` line
    per cell at 6-decimal fixed point, preceded by a versioned header."""
    lines = [f"# swim-locations v1 rows={location_map.rows} cols={location_map.cols}\n"]
    for cell in location_map.cells:
        lines.append(
            f"{cell.id},{cell.min_x:.6f},{cell.min_y:.6f},"
            f"{cell.max_x:.6f},{cell.max_y:.6f}\n"
        )
    with open(path, "w", newline="") as f:
        f.writelines(lines)


def read_locations_file(path) -> LocationMap:
    """Parse a locations file back into a LocationMap.

    A header with fewer than one row or column fails with a message naming
    the file. A cell line that is not `id,min_x,min_y,max_x,max_y` with an
    integer id, finite coordinates and `0 <= min < max` on both axes fails
    with a message naming its file and line.
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
            cells.append(Cell(*values))
    if len(cells) != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} cells, found {len(cells)}")
    if [c.id for c in cells] != list(range(len(cells))):
        raise ValueError(f"{path}: cell ids are not 0..{len(cells) - 1} in order")
    area = AreaBounds(max(c.max_x for c in cells), max(c.max_y for c in cells))
    return LocationMap(cells=tuple(cells), rows=rows, cols=cols, area=area)


def write_waypoints(waypoints, path) -> None:
    """Waypoint trace export: one `time,node,x,y,event` row per row of the
    waypoint log, a record array with those fields, in the order given (a
    run report's `waypoints` are in event order)."""
    events = ("depart", "arrive")
    with open(path, "w", newline="") as f:
        f.write("time,node,x,y,event\n")
        for lo in range(0, len(waypoints), ROWS_PER_WRITE):
            chunk = waypoints[lo:lo + ROWS_PER_WRITE]
            # the event text is looked up by the arrive flag, not made anew
            # per row; %-formatting gives the same text as an f-string, in less time
            columns = (chunk.time, chunk.node, chunk.x, chunk.y, chunk.event == "arrive")
            f.write("".join([
                "%.6f,%d,%.6f,%.6f,%s\n" % (t, node, x, y, events[arrive])
                for t, node, x, y, arrive in zip(*(c.tolist() for c in columns))
            ]))


def write_contacts_csv(records, path) -> None:
    """Contact log export, one `a,b,cell,start,end,censored` row per record.

    `records` is a contact log's record array or a list of ContactRecord.
    Every start and end is an event time, and contacts opened or closed by
    one event share it, so each distinct time is formatted once and the
    rows look it up, as they do the text of node and cell ids.
    """
    log = finished_log(records)
    n = len(log)
    times, which = np.unique(np.concatenate([log.start, log.end]), return_inverse=True)
    # each field's text together with the separator that follows it
    time_text = [f"{t:.6f}," for t in times.tolist()]
    top = max(int(column.max(initial=0)) for column in (log.a, log.b, log.cell))
    id_text = [f"{i}," for i in range(top + 1)]
    flag_text = ("0\n", "1\n")
    with open(path, "w", newline="") as f:
        f.write("a,b,cell,start,end,censored\n")
        for lo in range(0, n, ROWS_PER_WRITE):
            rows = slice(lo, lo + ROWS_PER_WRITE)
            f.write("".join([
                f"{id_text[a]}{id_text[b]}{id_text[cell]}{time_text[s]}{time_text[e]}{flag_text[c]}"
                for a, b, cell, s, e, c in zip(
                    log.a[rows].tolist(),
                    log.b[rows].tolist(),
                    log.cell[rows].tolist(),
                    which[:n][rows].tolist(),
                    which[n:][rows].tolist(),
                    log.censored[rows].tolist(),
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
