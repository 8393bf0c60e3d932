"""Arrival-signal handling: seen-counter updates and contact intervals.

A node announces its arrival at a cell; every node currently paused in that
same cell registers the encounter, and one contact interval opens per
co-located pair. Nodes elsewhere ignore the signal. Contacts close when
either member leaves the cell, so no contact ever spans a cell change.
The tracker knows only who is paused where; the pauses themselves are the
engine's Paused records. It is the only writer of the run's seen counters.

The contact log is kept as columns, one row per contact in the order the
contacts opened; ContactRecord is the row type it yields.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np


@dataclass
class ContactRecord:
    a: int  # a < b
    b: int
    cell: int
    start: float
    end: float | None = None
    censored: bool = False


@dataclass(frozen=True, eq=False)
class ContactLog:
    """The contact log as numpy columns, one row per contact in opening order.

    `end` is NaN while a contact is open. `len`, indexing and iteration work
    row by row and yield ContactRecord rows, whose `end` is None while open.
    """

    a: np.ndarray  # int64, a < b
    b: np.ndarray  # int64
    cell: np.ndarray  # int64
    start: np.ndarray  # float64
    end: np.ndarray  # float64
    censored: np.ndarray  # bool

    @classmethod
    def from_records(cls, records) -> ContactLog:
        """Columns of a sequence of ContactRecord; a ContactLog is returned as it is."""
        if isinstance(records, ContactLog):
            return records
        rows = [
            (r.a, r.b, r.cell, r.start, math.nan if r.end is None else r.end, r.censored)
            for r in records
        ]
        columns = list(zip(*rows)) or [()] * 6
        dtypes = (np.int64, np.int64, np.int64, np.float64, np.float64, bool)
        return cls(*(np.array(c, dtype=t) for c, t in zip(columns, dtypes)))

    @classmethod
    def finished(cls, records) -> ContactLog:
        """The columns of `records`, as from_records gives them, with no contact open."""
        log = cls.from_records(records)
        if np.isnan(log.end).any():
            raise ValueError("contact log has open contacts: finish the run first")
        return log

    def __len__(self) -> int:
        return len(self.start)

    def __getitem__(self, i: int) -> ContactRecord:
        end = float(self.end[i])
        return ContactRecord(
            a=int(self.a[i]),
            b=int(self.b[i]),
            cell=int(self.cell[i]),
            start=float(self.start[i]),
            end=None if math.isnan(end) else end,
            censored=bool(self.censored[i]),
        )

    def __iter__(self):
        columns = (self.a, self.b, self.cell, self.start, self.end, self.censored)
        for a, b, cell, start, end, censored in zip(*(c.tolist() for c in columns)):
            yield ContactRecord(a, b, cell, start, None if math.isnan(end) else end, censored)


class ContactTracker:
    """Tracks who is paused where, open contacts, and the finished log.

    `seen` is the run's N x L matrix of encounter counters, one row per
    node; the tracker is its only writer. seen_update picks how an
    encounter is counted: "symmetric" increments the arriving node once per
    bystander and each bystander once, "bystanders_only" leaves the
    arriving node's counters untouched.
    """

    def __init__(self, seen: np.ndarray, seen_update: str = "symmetric"):
        self.seen = seen
        self.seen_update = seen_update
        self._paused_at: dict[int, dict[int, None]] = {}  # cell -> ordered node ids
        self._open: dict[tuple[int, int], int] = {}  # pair -> row of its open contact
        # the contact log's columns, grown one row per contact
        self._a, self._b, self._cell = array("q"), array("q"), array("q")
        self._start, self._end = array("d"), array("d")
        self._censored = array("b")

    @property
    def records(self) -> ContactLog:
        """The contact log so far, as a copy of its columns."""
        return ContactLog(
            np.array(self._a),
            np.array(self._b),
            np.array(self._cell),
            np.array(self._start),
            np.array(self._end),
            np.array(self._censored, dtype=bool),
        )

    def on_arrival_signal(self, arriving: int, cell: int, now: float) -> None:
        """Fan the arrival signal out to the nodes paused at `cell`; `arriving` pauses there."""
        paused = self._paused_at.setdefault(cell, {})
        bystanders = [n for n in paused if n != arriving]
        paused[arriving] = None
        if not bystanders:
            return
        seen = self.seen
        for row, other in enumerate(bystanders, len(self._start)):
            seen[other, cell] += 1
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
            seen[arriving, cell] += count

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
