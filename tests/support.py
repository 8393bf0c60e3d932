"""Small builders shared by tests: a node with a profile of its own, seen counts as
plain values, and a contact log from rows."""

import numpy as np

from swimsim.encounters import CONTACT_DTYPE
from swimsim.grid import cell_of
from swimsim.mobility import OffsetTable, make_node_state


def lone_node(node_id, position, location_map, params):
    """A node at `position` whose home profile comes from an OffsetTable of its own."""
    profile = OffsetTable(location_map, params).profile(cell_of(location_map, position))
    return make_node_state(node_id, position, location_map, profile)


def seen_dict(seen):
    """A node's seen counts as {cell: count}, read from both sets of its store."""
    return {cell: count for cells, counts in zip(seen.cells, seen.counts)
            for cell, count in zip(cells, counts)}


def add_row(seen, row):
    """Add each nonzero count of the length-L `row` at its cell, in id order."""
    for cell in np.flatnonzero(row).tolist():
        seen.add(cell, int(row[cell]))


def contact_rows(rows):
    """A contact log as a run gives it, from (a, b, cell, start, end, censored) tuples."""
    return np.array(rows, dtype=CONTACT_DTYPE).view(np.recarray)
