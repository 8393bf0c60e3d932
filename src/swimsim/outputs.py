"""Every output file format of the simulator, and the locations reader.

Numeric fields are 6-decimal fixed point, so a fixed config and seed give
byte-identical files. Each writer takes the data it writes (a location
map, the waypoint log, a contact log, CCDF pairs, a metrics dict or sweep
rows), not a whole run report, and `swimsim run` calls them all from one
loop. The waypoint log is a numpy record array, and the contact log a
run's compact encounters.ContactLog; both are written a chunk of rows at
a time. Every CSV but the sweep's is formatted by one column-wise
kernel, _csv_rows, which gives the bytes of `%`-formatting row by row
without formatting any row in Python but the rare ones it cannot round
exactly. At run time this module imports no other swimsim
module apart from the grid, whose cell bounds the locations files hold,
and the contact log's chunks.
"""

from __future__ import annotations

import json
import math
import re
from typing import TYPE_CHECKING

import numpy as np

from .encounters import chunks
from .grid import LocationMap, cell_bounds, grid_from_edges

if TYPE_CHECKING:
    from .metrics import SelectionStats

LOCATIONS_HEADER_RE = re.compile(r"^# swim-locations v1 rows=(\d+) cols=(\d+)$")
ROWS_PER_WRITE = 4096  # rows joined into one write; bounds the text held in memory
FLOAT, INT = "%.6f", "%d"  # the numeric forms of a CSV field
# v * 1e6 below 2**53 rounds to an integer exactly held by a double
_EXACT_BELOW = 2.0**53 / 1e6


def write_locations_file(location_map: LocationMap, path) -> None:
    """Write the shared locations file: one `id,min_x,min_y,max_x,max_y` line
    per cell at 6-decimal fixed point, preceded by a versioned header."""
    cells = np.arange(len(location_map))
    _write_csv(
        path, f"# swim-locations v1 rows={location_map.rows} cols={location_map.cols}\n",
        (cells, *cell_bounds(location_map, cells)),
        (INT, FLOAT, FLOAT, FLOAT, FLOAT),
    )


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
    with open(path, "wb") as f:
        waypoint_writer(f)(waypoints)


def waypoint_writer(file):
    """Write the waypoint trace's header to the open binary `file` and return
    a function that appends the rows of a waypoint log to it, as
    `write_waypoints` formats them. Passed as `simulate`'s trace, it writes
    each chunk of the trace as the run makes it."""
    file.write(b"time,node,x,y,event\n")

    def write(waypoints) -> None:
        _write_rows(
            file, (waypoints.time, waypoints.node, waypoints.x, waypoints.y, waypoints.arrive),
            (FLOAT, INT, FLOAT, FLOAT, ("depart", "arrive")),
        )

    return write


def write_contacts_csv(log, path) -> None:
    """Contact log export, one `a,b,cell,start,end,censored` row per contact.

    `log` is a run's contact log (`report.contact_log`). Beyond the log,
    the writer holds one chunk of its rows (encounters.chunks) and that
    chunk's text and parts at a time, nothing by the log's largest id.
    """
    with open(path, "wb") as f:
        f.write(b"a,b,cell,start,end,censored\n")
        for chunk in chunks(log):
            _write_rows(
                f, (chunk.a, chunk.b, chunk.cell, chunk.start, chunk.end, chunk.censored),
                (INT, INT, INT, FLOAT, FLOAT, ("0", "1")),
            )
            del chunk  # freed before the next one is expanded


def write_ccdf_csv(ccdf, path) -> None:
    """CCDF export, one `value,fraction` row per (value, fraction) pair of
    `ccdf`: a DistributionSummary's `ccdf`, or the `ccdf` list of a summary
    in the `metrics_report` dict."""
    values, fractions = np.array(ccdf, dtype=np.float64).reshape(-1, 2).T
    _write_csv(path, "value,fraction\n", (values, fractions), (FLOAT, FLOAT))


def write_metrics_json(report: dict, path) -> None:
    """The `metrics_report` dict as indented JSON with sorted keys."""
    with open(path, "w", newline="") as f:
        f.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


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


def _write_csv(path, header: str, columns, forms) -> None:
    """Write `header`, then one CSV row per index of the equal-length
    `columns`; see _write_rows."""
    with open(path, "wb") as f:
        f.write(header.encode())
        _write_rows(f, columns, forms)


def _write_rows(file, columns, forms) -> None:
    """Write one CSV row per index of the equal-length `columns` to `file`,
    ROWS_PER_WRITE rows per write; see _csv_rows for `forms`."""
    for lo in range(0, len(columns[0]), ROWS_PER_WRITE):
        file.write(_csv_rows([column[lo:lo + ROWS_PER_WRITE] for column in columns], forms))


def _csv_rows(columns, forms) -> bytearray:
    """The CSV text of a chunk of rows: field i of row j is `columns[i][j]` in
    `forms[i]`, the fields joined by commas and each row ended by a newline.

    A form is FLOAT (the text of `"%.6f" % v`), INT (of `"%d" % v`) or a
    tuple of texts, one of which the column's value (a flag) picks. numpy
    builds the text a column at a time, with no Python work per row. Each
    part of a field (a number's digits, a flag's text, a separator) fills
    its rows of a byte plane that has one column per row of the chunk. A
    number's digits are cut with one scalar divisor per digit row, and its
    leading zeros are pad bytes (0). The plane is transposed once into
    the text, whose pad bytes are then dropped. A float is rounded once to
    integer microunits, rint(v * 1e6), split into its integer part and six
    fraction digits. That gives the digits of `%.6f` unless v * 1e6 lies
    within one ulp of a half, where the exact product may round the other
    way. A row with such a float is formatted by `%` on its own and
    spliced back in its place, and so is a row with a negative int, a
    float whose sign bit is set (-0.0 prints as -0.000000), or a float
    that is not finite or not below 2**53 / 1e6.
    """
    n = len(columns[0])
    if not n:
        return bytearray()
    unsafe = np.zeros(n, dtype=bool)
    # the plane's parts in order: fixed bytes, a flag's text by row, or an
    # unsigned column with its digit count and whether its leading zeros pad
    parts: list = []
    for column, form in zip(columns, forms):
        if form == FLOAT:
            v = np.ascontiguousarray(column, dtype=np.float64)
            bad = np.signbit(v) | ~(v < _EXACT_BELOW)  # NaN is not below it either
            if bad.any():
                v = np.where(bad, 0.0, v)
            m = v * 1e6
            bad |= np.abs(m - np.floor(m) - 0.5) <= np.spacing(m)
            micros = np.rint(m).astype(np.uint64)
            whole = micros // 1_000_000
            parts += [_number(whole), b".", _number(micros - whole * 1_000_000, 6)]
            unsafe |= bad
        elif form == INT:
            x = np.ascontiguousarray(column, dtype=np.int64)
            bad = x < 0
            if bad.any():
                x = np.where(bad, 0, x)
            parts.append(_number(x.view(np.uint64)))
            unsafe |= bad
        else:
            texts = [text.encode() for text in form]
            table = np.zeros((max(map(len, texts)), len(texts)), dtype=np.uint8)
            for k, text in enumerate(texts):
                table[:len(text), k] = np.frombuffer(text, dtype=np.uint8)
            parts.append(table[:, np.asarray(column, dtype=np.intp)])
        parts.append(b",")
    parts[-1] = b"\n"

    sizes = [part[1] if isinstance(part, tuple) else len(part) for part in parts]
    plane = np.empty((sum(sizes), n), dtype=np.uint8)
    top = 0
    for part, size in zip(parts, sizes):
        block = plane[top:top + size]
        top += size
        if isinstance(part, bytes):
            block[:] = np.frombuffer(part, dtype=np.uint8)[:, None]
        elif isinstance(part, np.ndarray):
            block[:] = part
        else:
            _put_digits(block, part[0], part[2])
    del parts, part  # all in the plane now; freed before the text is built
    at = np.flatnonzero(unsafe)
    if at.size:  # an unsafe row keeps no byte of the plane, so it ends where it starts
        plane[:, at] = 0
        ends = np.cumsum(np.count_nonzero(plane, axis=0)).tolist()
    # transposed straight into the buffer of the text, which drops its pad bytes
    text = bytearray(plane.size)
    np.copyto(np.frombuffer(text, dtype=np.uint8).reshape(n, -1), plane.T)
    del plane, block
    text = text.translate(None, b"\0")
    if not at.size:
        return text
    row_format = ",".join("%s" if isinstance(form, tuple) else form for form in forms) + "\n"
    pieces, start = [], 0
    for i, values in zip(at.tolist(), zip(*(column[at].tolist() for column in columns))):
        pieces += [text[start:ends[i]], (row_format % tuple(
            form[value] if isinstance(form, tuple) else value for value, form in zip(values, forms)
        )).encode()]
        start = ends[i]
    pieces.append(text[start:])
    return bytearray().join(pieces)


def _put_digits(block: np.ndarray, x: np.ndarray, pad: bool) -> None:
    """Write the digits of the unsigned column x into the rows of `block`,
    the last digit in its last row, as text; with `pad`, a leading zero
    (no other digit before it) is a pad byte (0)."""
    # each row's value: x without its digits after that row's, by a scalar
    # divisor per row; its digit is that value's last
    tens = x // 10 ** np.arange(len(block) - 1, -1, -1, dtype=x.dtype)[:, None]
    np.subtract(tens, tens // 10 * 10, out=block, casting="unsafe")
    block += ord("0")
    if pad:
        block[:-1] *= tens[:-1] != 0


def _number(x: np.ndarray, width: int = 0) -> tuple[np.ndarray, int, bool]:
    """An unsigned column as a part of _csv_rows: (column, digit count,
    whether leading zeros pad). With `width`, each value has that many
    digits, leading zeros included; without, as many as the largest value
    has, and a shorter value's leading zeros pad. A column whose values fit
    32 bits is narrowed to them, since a narrower divide is faster."""
    top = int(x.max())
    if top < 2**32:
        x = x.astype(np.uint32)
    return x, width or len(str(top)), not width
