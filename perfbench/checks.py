"""Output checkers for the benchmark workloads, written apart from swimsim.

They read only the files a command wrote and the scenario it was given, and
recompute what those files must say: contacts from a sweep line over the
pauses rebuilt from the waypoint trace, the summaries in `metrics.json`
from `contacts.csv`, trip kinematics, and the binomial law of the step-1
draw. Nothing here imports swimsim or compares against stored output.

Every number the program writes is printed at six decimals, so a printed
value may sit up to `EPS` from the value the program held. Checks that
depend on the order of two printed values treat a tie as undecided instead
of guessing.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import re
from collections import Counter, defaultdict
from pathlib import Path

EPS = 5e-7  # half a unit in the sixth decimal
Z_BINOMIAL = 4.5  # standard errors allowed between step-1 near draws and alpha
MAX_EDGE_COMBINATIONS = 64
CCDF_POINTS = 50
SWEEP_HEADER = (
    "alpha,selections,neighbouring,visiting,fallbacks,"
    "neighbouring_fraction,visiting_fraction"
)


class CheckError(Exception):
    """An output file disagrees with what the scenario requires."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _close(actual, expected: float, tol: float, what: str) -> None:
    _require(actual is not None, f"{what}: missing, expected {expected!r}")
    _require(
        abs(actual - expected) <= tol + 1e-12 * abs(expected),
        f"{what}: {actual!r} differs from recomputed {expected!r} by more than {tol:g}",
    )


# ---------------------------------------------------------------- grid


class Grid:
    """Cell bounds from `locations.csv`, with lookup that allows print rounding."""

    def __init__(self, path: Path, width: float, height: float, n_locations: int):
        lines = path.read_text().splitlines()
        m = re.fullmatch(r"# swim-locations v1 rows=(\d+) cols=(\d+)", lines[0])
        _require(m is not None, f"{path.name}: bad header {lines[0]!r}")
        self.rows, self.cols = int(m.group(1)), int(m.group(2))
        _require(
            self.rows * self.cols == n_locations == len(lines) - 1,
            f"{path.name}: {self.rows}x{self.cols} grid with {len(lines) - 1} rows, "
            f"expected {n_locations} cells",
        )
        for i, line in enumerate(lines[1:]):
            cid, *bounds = line.split(",")
            r, c = divmod(i, self.cols)
            expected = (
                width * c / self.cols,
                height * r / self.rows,
                width * (c + 1) / self.cols,
                height * (r + 1) / self.rows,
            )
            _require(int(cid) == i, f"{path.name}: cell ids out of order at {i}")
            for got, want in zip(bounds, expected):
                _close(float(got), want, EPS, f"{path.name}: cell {i} bound")
        self.x_edges = [width * c / self.cols for c in range(self.cols + 1)]
        self.y_edges = [height * r / self.rows for r in range(self.rows + 1)]

    @staticmethod
    def _axis(v: float, edges: list[float]) -> list[int]:
        """Indices of the intervals that hold v once print rounding is allowed."""
        tol = 2 * EPS
        n = len(edges) - 1
        i = min(max(bisect.bisect_right(edges, v) - 1, 0), n - 1)
        return [
            j for j in (i - 1, i, i + 1)
            if 0 <= j < n and edges[j] - tol <= v <= edges[j + 1] + tol
        ]

    def candidates(self, x: float, y: float) -> list[int]:
        """Every cell a printed point may lie in; one cell unless it is on an edge."""
        cols = self._axis(x, self.x_edges)
        rows = self._axis(y, self.y_edges)
        cells = [r * self.cols + c for r in rows for c in cols]
        _require(bool(cells), f"point ({x}, {y}) lies in no cell")
        return cells


# ---------------------------------------------------------------- waypoints


class Pause:
    __slots__ = ("node", "cells", "start", "end", "start_s", "end_s", "censored")

    def __init__(self, node, cells, start_s, end_s, censored):
        self.node = node
        self.cells = cells
        self.start_s, self.end_s = start_s, end_s
        self.start, self.end = float(start_s), float(end_s)
        self.censored = censored


def read_waypoints(path: Path, node_count: int) -> dict[int, list[tuple]]:
    """Per-node rows `(time_str, time, x_str, y_str, event)` in file order."""
    per_node: dict[int, list[tuple]] = defaultdict(list)
    with open(path) as f:
        _require(f.readline() == "time,node,x,y,event\n", f"{path.name}: bad header")
        last = 0.0
        for line in f:
            t_s, node, x_s, y_s, event = line.rstrip("\n").split(",")
            t, n = float(t_s), int(node)
            _require(t >= last, f"{path.name}: time goes back at {t_s}")
            _require(0 <= n < node_count, f"{path.name}: node {n} out of range")
            _require(event in ("depart", "arrive"), f"{path.name}: bad event {event!r}")
            last = t
            per_node[n].append((t_s, t, x_s, y_s, event))
    return per_node


def rebuild_pauses(per_node, node_count: int, horizon: float, grid: Grid) -> list[Pause]:
    """Pauses per node: t=0 to the first depart, each arrive to the next depart,
    and the last arrive to the horizon, censored."""
    horizon_s = f"{horizon:.6f}"
    pauses = []
    for node in range(node_count):
        rows = per_node.get(node, [])
        _require(bool(rows), f"node {node} never departs, so its home is not in the trace")
        for i, row in enumerate(rows):
            want = "depart" if i % 2 == 0 else "arrive"
            _require(row[4] == want, f"node {node}: row {i} is {row[4]}, expected {want}")
        t0, _, x0, y0, _ = rows[0]
        pauses.append(Pause(node, grid.candidates(float(x0), float(y0)), "0.000000", t0, False))
        for arrive, depart in itertools.zip_longest(rows[1::2], rows[2::2]):
            cells = grid.candidates(float(arrive[2]), float(arrive[3]))
            if depart is None:
                pauses.append(Pause(node, cells, arrive[0], horizon_s, True))
            else:
                _require(
                    (depart[2], depart[3]) == (arrive[2], arrive[3]),
                    f"node {node} departs at {depart[0]} from a point it did not arrive at",
                )
                pauses.append(Pause(node, cells, arrive[0], depart[0], False))
    return pauses


def check_kinematics(per_node, speed: float, width: float, height: float) -> int:
    """Every depart->arrive leg covers speed x elapsed time in a straight line."""
    tol = (4 * math.sqrt(2) + 2 * speed) * EPS + 1e-9
    legs = 0
    for node, rows in per_node.items():
        for depart, arrive in zip(rows[0::2], rows[1::2]):
            x0, y0, x1, y1 = (float(v) for v in (depart[2], depart[3], arrive[2], arrive[3]))
            _require(
                -EPS <= x1 <= width + EPS and -EPS <= y1 <= height + EPS,
                f"node {node} arrives outside the area at {arrive[0]}",
            )
            distance = math.hypot(x1 - x0, y1 - y0)
            travelled = speed * (arrive[1] - depart[1])
            _require(
                abs(distance - travelled) <= tol + 1e-12 * distance,
                f"node {node} leg {depart[0]}->{arrive[0]}: distance {distance:.9f} "
                f"but speed x time {travelled:.9f}",
            )
            legs += 1
    return legs


# ---------------------------------------------------------------- contacts


def expected_contacts(pauses: list[Pause], cell_of: dict[int, int]) -> tuple[Counter, Counter]:
    """Sweep line per cell over pause intervals.

    Returns the contacts that must be logged and those that may be: a pair
    whose printed overlap is a single instant is undecided at six decimals.
    Rows are `(a, b, cell, start, end, censored)` with the printed strings.
    """
    by_cell: dict[int, list[Pause]] = defaultdict(list)
    for i, p in enumerate(pauses):
        by_cell[cell_of.get(i, p.cells[0])].append(p)
    definite, optional = Counter(), Counter()
    for cell, group in by_cell.items():
        group.sort(key=lambda p: p.start)
        active: list[Pause] = []
        for p in group:
            active = [q for q in active if q.end >= p.start]
            for q in active:
                if q.node == p.node:
                    continue
                first = q if q.end <= p.end else p
                a, b = sorted((p.node, q.node))
                row = (a, b, cell, p.start_s, first.end_s, int(p.censored and q.censored))
                if q.end > p.start and p.end > p.start:
                    definite[row] += 1
                else:
                    optional[row] += 1
            active.append(p)
    return definite, optional


def read_contacts(path: Path) -> list[tuple]:
    rows = []
    with open(path) as f:
        _require(f.readline() == "a,b,cell,start,end,censored\n", f"{path.name}: bad header")
        last = 0.0
        for line in f:
            a, b, cell, start, end, censored = line.rstrip("\n").split(",")
            _require(censored in ("0", "1"), f"{path.name}: bad censored flag {censored!r}")
            row = (int(a), int(b), int(cell), start, end, int(censored))
            _require(row[0] < row[1], f"{path.name}: pair {a},{b} not ordered")
            _require(float(start) >= last, f"{path.name}: contacts not in start order at {start}")
            _require(float(end) >= float(start), f"{path.name}: contact ends before it starts")
            last = float(start)
            rows.append(row)
    return rows


def _contact_mismatch(actual: Counter, definite: Counter, optional: Counter) -> str | None:
    missing = definite - actual
    extra = actual - definite - optional
    if not missing and not extra:
        return None
    sample = sorted(missing)[:3] if missing else sorted(extra)[:3]
    return (
        f"contacts.csv differs from the pause intersection: {sum(missing.values())} "
        f"missing, {sum(extra.values())} unexpected, e.g. {sample}"
    )


def check_contact_log(pauses: list[Pause], contacts: list[tuple]) -> None:
    """contacts.csv must equal the intersection of the pauses per cell.

    A pause whose printed point lies on a cell edge may belong to either
    cell; the log must match for some assignment of those pauses.
    """
    actual = Counter(contacts)
    on_edge = [i for i, p in enumerate(pauses) if len(p.cells) > 1]
    choices = list(itertools.product(*(pauses[i].cells for i in on_edge)))
    _require(
        len(choices) <= MAX_EDGE_COMBINATIONS,
        f"{len(on_edge)} pauses lie on cell edges; too many to resolve",
    )
    first_error = None
    for choice in choices:
        error = _contact_mismatch(actual, *expected_contacts(pauses, dict(zip(on_edge, choice))))
        if error is None:
            return
        first_error = first_error or error
    raise CheckError(first_error)


# ---------------------------------------------------------------- metrics


def _check_summary(summary: dict, values: list[float], tol: float, what: str) -> None:
    _require(summary["samples"] == len(values), f"{what}: {summary['samples']} samples, "
             f"recomputed {len(values)}")
    if not values:
        _require(summary["mean"] is None and summary["min"] is None and summary["max"] is None,
                 f"{what}: statistics given for an empty sample")
        _require(summary["ccdf"] == [], f"{what}: ccdf given for an empty sample")
        return
    _close(summary["mean"], math.fsum(values) / len(values), tol, f"{what} mean")
    _close(summary["min"], min(values), tol, f"{what} min")
    _close(summary["max"], max(values), tol, f"{what} max")
    ccdf = summary["ccdf"]
    positive = [v for v in values if v > tol]
    if not ccdf:
        _require(not positive, f"{what}: no ccdf for a sample with positive values")
        return
    _require(len(ccdf) == CCDF_POINTS, f"{what}: ccdf has {len(ccdf)} points")
    # a value printed as zero may be a tiny positive one, which can start the ccdf
    _require(
        0 < ccdf[0][0] <= min(positive, default=math.inf) + tol,
        f"{what}: first ccdf threshold {ccdf[0][0]} is not the least positive value",
    )
    _close(ccdf[-1][0], max(values), tol, f"{what} last ccdf threshold")
    _require(all(0 <= f <= 1 for _, f in ccdf), f"{what}: ccdf fraction out of [0, 1]")
    _require(0 < ccdf[-1][1] <= ccdf[0][1], f"{what}: ccdf ends above where it starts")
    # When every positive value is the same, the thresholds between the two
    # ends wobble by an ulp around it and their fractions jump between 0 and
    # 1, so the order is only required when the ends differ.
    if ccdf[-1][0] > ccdf[0][0]:
        for (v0, f0), (v1, f1) in zip(ccdf, ccdf[1:]):
            _require(v1 >= v0 and f1 <= f0, f"{what}: ccdf not monotone at {v1}")


def check_ccdf_file(path: Path, summary: dict) -> None:
    lines = path.read_text().splitlines()
    expected = ["value,fraction"] + [f"{v:.6f},{f:.6f}" for v, f in summary["ccdf"]]
    _require(lines == expected, f"{path.name} does not print the ccdf in metrics.json")


def check_step1_binomial(total: int, near: int, fallbacks: int, alpha: float, what: str) -> None:
    """The near set always holds home, so every fallback is visiting->near and
    neighbouring - fallbacks counts the step-1 near draws: Binomial(total, alpha)."""
    draws = near - fallbacks
    sigma = math.sqrt(total * alpha * (1 - alpha))
    _require(draws >= 0, f"{what}: more fallbacks ({fallbacks}) than neighbouring ({near})")
    _require(
        abs(draws - alpha * total) <= Z_BINOMIAL * sigma,
        f"{what}: {draws} step-1 near draws of {total}, expected {alpha * total:.1f} "
        f"+- {Z_BINOMIAL} x {sigma:.2f}",
    )


def check_metrics(metrics: dict, contacts: list[tuple], departs_per_node: dict[int, int],
                  alpha: float) -> None:
    """Recompute metrics.json from contacts.csv and the depart rows."""
    tol = 4 * EPS
    finished = [r for r in contacts if not r[5]]
    durations = [float(r[4]) - float(r[3]) for r in finished if float(r[4]) > float(r[3])]
    undecided = len(finished) - len(durations)  # printed zero; the true length may be tiny
    block = metrics["contacts"]
    _require(block["total"] == len(contacts),
             f"contacts.total {block['total']} != {len(contacts)}")
    censored = len(contacts) - len(finished)
    _require(block["censored"] == censored, f"contacts.censored {block['censored']} != {censored}")
    extra = metrics["contact_durations"]["samples"] - len(durations)
    _require(
        0 <= extra <= undecided and block["zero_duration"] + extra == undecided,
        f"{block['zero_duration']} zero-duration contacts and "
        f"{metrics['contact_durations']['samples']} durations do not account for "
        f"{len(finished)} finished contacts",
    )
    _check_summary(metrics["contact_durations"], durations + [0.0] * extra, tol, "durations")

    by_pair: dict[tuple[int, int], list[tuple]] = defaultdict(list)
    for r in contacts:
        by_pair[(r[0], r[1])].append(r)
    gaps = [
        float(nxt[3]) - float(prev[4])
        for records in by_pair.values()
        for prev, nxt in zip(records, records[1:])
        if not prev[5] and not nxt[5]
    ]
    _check_summary(metrics["inter_contact_times"], gaps, tol, "inter-contact times")
    counts = [float(len(by_pair[k])) for k in sorted(by_pair)]
    _check_summary(metrics["contacts_per_pair"], counts, 0.0, "contacts per pair")

    sel = metrics["selection"]
    total = sum(departs_per_node.values())
    _require(sel["total"] == total, f"selection total {sel['total']} != {total} depart rows")
    _require(sel["neighbouring"] + sel["visiting"] == total, "neighbouring + visiting != total")
    _require(
        {int(n) for n in sel["per_node"]} == {n for n, k in departs_per_node.items() if k},
        "per-node selection tallies do not cover the departing nodes",
    )
    for node, stats in sel["per_node"].items():
        _require(
            stats["neighbouring"] + stats["visiting"] == departs_per_node.get(int(node), 0),
            f"node {node}: selections do not match its depart rows",
        )
    _require(
        sum(s["fallbacks"] for s in sel["per_node"].values()) == sel["fallbacks"],
        "per-node fallbacks do not add up",
    )
    check_step1_binomial(total, sel["neighbouring"], sel["fallbacks"], alpha, "selection")


# ---------------------------------------------------------------- entry points


def check_run(out: Path, scenario: dict) -> dict:
    """Check every file `swimsim run` wrote for `scenario`; return tallies."""
    width, height = scenario["maxAreaX"], scenario["maxAreaY"]
    nodes, horizon = scenario["nodeCount"], scenario["simDuration"]
    grid = Grid(out / "locations.csv", width, height, scenario["noOfLocations"])
    per_node = read_waypoints(out / "waypoints.csv", nodes)
    legs = check_kinematics(per_node, scenario["speed"], width, height)
    pauses = rebuild_pauses(per_node, nodes, horizon, grid)
    contacts = read_contacts(out / "contacts.csv")
    check_contact_log(pauses, contacts)
    metrics = json.loads((out / "metrics.json").read_text())
    departs = {n: (len(rows) + 1) // 2 for n, rows in per_node.items()}
    check_metrics(metrics, contacts, departs, scenario["alpha"])
    for name in ("inter_contact_times", "contact_durations", "contacts_per_pair"):
        check_ccdf_file(out / f"ccdf_{name}.csv", metrics[name])
    return {"legs": legs, "pauses": len(pauses), "contacts": len(contacts)}


def check_sweep(out: Path, alphas: list[float]) -> dict:
    """Check `sweep_selection.csv` row by row against the step-1 law."""
    lines = (out / "sweep_selection.csv").read_text().splitlines()
    _require(lines[0] == SWEEP_HEADER, "sweep_selection.csv: bad header")
    _require(len(lines) - 1 == len(alphas),
             f"{len(lines) - 1} sweep rows for {len(alphas)} alphas")
    for line, alpha in zip(lines[1:], alphas):
        fields = line.split(",")
        _require(fields[0] == f"{alpha:.6f}", f"sweep row {fields[0]} where {alpha} was asked")
        total, near, visiting, fallbacks = (int(v) for v in fields[1:5])
        what = f"sweep alpha={fields[0]}"
        _require(total > 0, f"{what}: no selections")
        _require(near + visiting == total, f"{what}: neighbouring + visiting != selections")
        _require(
            fields[5:] == [f"{near / total:.6f}", f"{visiting / total:.6f}"],
            f"{what}: fractions do not match the counts",
        )
        if alpha == 0.0:
            _require(near == fallbacks, f"{what}: neighbouring {near} != fallbacks {fallbacks}")
        if alpha == 1.0:
            _require(visiting == 0 and fallbacks == 0, f"{what}: visiting or fallbacks at alpha=1")
        check_step1_binomial(total, near, fallbacks, alpha, what)
    return {"rows": len(alphas)}
