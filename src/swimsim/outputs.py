"""Every output file format of the simulator, and the locations reader.

Numeric fields are 6-decimal fixed point, so a fixed config and seed give
byte-identical files. The engine writes the locations file through this
module, so it imports no other swimsim module at run time apart from the
grid types the locations reader builds.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING

from .grid import AreaBounds, Cell, LocationMap

if TYPE_CHECKING:
    from .encounters import ContactRecord
    from .engine import SimulationReport
    from .metrics import DistributionSummary, SelectionStats

LOCATIONS_HEADER_RE = re.compile(r"^# swim-locations v1 rows=(\d+) cols=(\d+)$")


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
    """Parse a locations file back into a LocationMap."""
    with open(path) as f:
        header = f.readline().rstrip("\n")
        m = LOCATIONS_HEADER_RE.match(header)
        if not m:
            raise ValueError(f"{path}: not a swim-locations v1 file")
        rows, cols = int(m.group(1)), int(m.group(2))
        cells = []
        for line in f:
            cid, min_x, min_y, max_x, max_y = line.rstrip("\n").split(",")
            cells.append(
                Cell(int(cid), float(min_x), float(min_y), float(max_x), float(max_y))
            )
    if len(cells) != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} cells, found {len(cells)}")
    if [c.id for c in cells] != list(range(len(cells))):
        raise ValueError(f"{path}: cell ids are not 0..{len(cells) - 1} in order")
    area = AreaBounds(max(c.max_x for c in cells), max(c.max_y for c in cells))
    return LocationMap(cells=tuple(cells), rows=rows, cols=cols, area=area)


def write_waypoints(report: SimulationReport, path) -> None:
    """Waypoint trace export: `time,node,x,y,event` rows in event order."""
    with open(path, "w", newline="") as f:
        f.write("time,node,x,y,event\n")
        for w in report.waypoints:
            f.write(f"{w.time:.6f},{w.node},{w.x:.6f},{w.y:.6f},{w.event}\n")


def write_contacts_csv(records: list[ContactRecord], path) -> None:
    """Contact log export, one `a,b,cell,start,end,censored` row per record."""
    with open(path, "w", newline="") as f:
        f.write("a,b,cell,start,end,censored\n")
        for r in records:
            f.write(
                f"{r.a},{r.b},{r.cell},{r.start:.6f},{r.end:.6f},{int(r.censored)}\n"
            )


def write_ccdf_csv(summary: DistributionSummary, path) -> None:
    """CCDF export, one `value,fraction` row per threshold."""
    with open(path, "w", newline="") as f:
        f.write("value,fraction\n")
        for value, fraction in summary.ccdf:
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
