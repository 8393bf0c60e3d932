"""Arrival-signal handling: seen-counter updates and contact intervals.

A node announces its arrival at a cell; every node currently paused in that
same cell registers the encounter, and one contact interval opens per
co-located pair. Nodes elsewhere ignore the signal. Contacts close when
either member leaves the cell, so no contact ever spans a cell change.
The tracker knows only who is paused where; the pauses themselves are the
engine's Paused records. It is the only writer of the nodes' seen
counters (mobility.SeenCounters) during a run.

The contact log is a numpy record array with fields a, b, cell, start,
end and censored, one row per contact in the order the contacts opened; an
open contact's end is NaN. ContactRecord is a contact as a plain object,
for logs built by hand; contact_log turns a list of them into the record
array.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .mobility import SeenCounters


@dataclass
class ContactRecord:
    a: int  # a < b
    b: int
    cell: int
    start: float
    end: float | None = None
    censored: bool = False


# a < b, and `end` is NaN while the contact is open
CONTACT_DTYPE = np.dtype(
    [("a", "i8"), ("b", "i8"), ("cell", "i8"), ("start", "f8"), ("end", "f8"), ("censored", "?")]
)


def contact_log(records) -> np.recarray:
    """The contact log of `records` as a record array; a record array is returned as it is.

    `records` is a record array or a sequence of ContactRecord, whose `end`
    of None (an open contact) becomes NaN.
    """
    if isinstance(records, np.recarray):
        return records
    rows = [
        (r.a, r.b, r.cell, r.start, math.nan if r.end is None else r.end, r.censored)
        for r in records
    ]
    return np.array(rows, dtype=CONTACT_DTYPE).view(np.recarray)


def finished_log(records) -> np.recarray:
    """The contact log of `records`, as contact_log gives it, with no contact open."""
    log = contact_log(records)
    if np.isnan(log.end).any():
        raise ValueError("contact log has open contacts: finish the run first")
    return log


class ContactTracker:
    """Tracks who is paused where, open contacts, and the finished log.

    `seen` holds each node's encounter counters, indexed by node id (the
    nodes' SeenCounters in a run); the tracker is their only writer and
    counts with `seen[node].add(cell, n)`. seen_update picks how an
    encounter is counted: "symmetric" increments the arriving node once per
    bystander and each bystander once, "bystanders_only" leaves the
    arriving node's counters untouched.
    """

    def __init__(self, seen: Sequence[SeenCounters], seen_update: str = "symmetric"):
        self.seen = seen
        self.seen_update = seen_update
        self._paused_at: dict[int, dict[int, None]] = {}  # cell -> ordered node ids
        self._open: dict[tuple[int, int], int] = {}  # pair -> row of its open contact
        # the contact log's columns, grown one row per contact
        self._a, self._b, self._cell = array("q"), array("q"), array("q")
        self._start, self._end = array("d"), array("d")
        self._censored = array("b")

    @property
    def records(self) -> np.recarray:
        """A copy of the contact log so far, one row per contact in opening order."""
        columns = (self._a, self._b, self._cell, self._start, self._end, self._censored)
        return np.rec.fromarrays(columns, dtype=CONTACT_DTYPE)

    def on_arrival_signal(self, arriving: int, cell: int, now: float) -> None:
        """Fan the arrival signal out to the nodes paused at `cell`; `arriving` pauses there."""
        paused = self._paused_at.setdefault(cell, {})
        bystanders = [n for n in paused if n != arriving]
        paused[arriving] = None
        if not bystanders:
            return
        seen = self.seen
        for row, other in enumerate(bystanders, len(self._start)):
            seen[other].add(cell, 1)
            a, b = (other, arriving) if other < arriving else (arriving, other)
            self._open[(a, b)] = row
            self._a.append(a)
            self._b.append(b)
        count = len(bystanders)
        self._cell.extend([cell] * count)
        self._start.extend([now] * count)
        self._end.extend([math.nan] * count)
        self._censored.extend([0] * count)
        if self.seen_update == "symmetric":
            seen[arriving].add(cell, count)

    def on_departure_signal(self, leaving: int, cell: int, now: float) -> None:
        """Close every open contact involving `leaving` at `cell`."""
        paused = self._paused_at.get(cell, {})
        for other in paused:
            if other == leaving:
                continue
            pair = (other, leaving) if other < leaving else (leaving, other)
            row = self._open.pop(pair, None)
            if row is not None:
                self._end[row] = now
        paused.pop(leaving, None)

    def finish(self, now: float) -> None:
        """Close every contact still open at the simulation horizon as censored."""
        for row in self._open.values():
            self._end[row] = now
            self._censored[row] = 1
        self._open.clear()
