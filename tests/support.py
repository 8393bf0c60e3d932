"""Small builders shared by tests: a node with a profile of its own, seen counts as
plain values, a contact log from rows, and selection counts from a selection log."""

import numpy as np

from swimsim.encounters import CONTACT_DTYPE, ContactLog
from swimsim.grid import cell_of
from swimsim.mobility import OffsetTable, make_node_state


def lone_node(node_id, position, location_map, params):
    """A node at `position` whose home profile comes from an OffsetTable of its own."""
    (profile,) = OffsetTable(location_map, params).profiles([cell_of(location_map, position)])
    return make_node_state(node_id, position.x, position.y, profile)


def seen_dict(seen):
    """A node's seen counts as {cell: count}, read from both sets of its store."""
    return {cell: count for cells, counts in zip(seen.cells, seen.counts)
            for cell, count in zip(cells, counts)}


def add_row(seen, row):
    """Add each nonzero count of the length-L `row` at its cell, in id order."""
    for cell in np.flatnonzero(row).tolist():
        seen.add(cell, int(row[cell]))


def contact_rows(rows):
    """A finished contact log as a run gives it (a ContactLog), one block per
    (a, b, cell, start, end, censored) tuple: a arrives at the cell at
    `start` and meets b, both staying until `end`. The horizon is the latest
    start or uncensored end, and a censored row's end is put past it, so
    the log itself ends that contact at the horizon, censored."""
    log = np.array(rows, dtype=CONTACT_DTYPE)
    horizon = max(log["start"].max(initial=0.0), log["end"][~log["censored"]].max(initial=0.0))
    end = np.where(log["censored"], np.inf, log["end"])
    blocks = (log["a"], log["cell"], log["start"], end, np.ones(len(log), dtype=np.int64))
    return ContactLog(blocks, log["b"], end, horizon)


def selection_counts(selections, n):
    """The per-node selection counts of a selection log, the oracle of a run's
    tally: rows of departures, visiting draws and fallbacks, each n long."""
    node = selections["node"]
    return np.stack([
        np.bincount(node, minlength=n),
        np.bincount(node[selections["visiting"]], minlength=n),
        np.bincount(node[selections["fallback"]], minlength=n),
    ])
