"""Arrival-signal handling: seen-counter updates and contact intervals.

A node announces its arrival at a cell; every node currently paused in that
same cell registers the encounter, and one contact interval opens per
co-located pair. Nodes elsewhere ignore the signal. A contact closes when
either member leaves the cell, so no contact ever spans a cell change.
Since a pause's departure is drawn when the pause begins, the arrival
signal carries it, and a contact's end is known when the contact opens:
the earlier of its members' scheduled departures. The tracker knows only
who is paused where and until when; the pauses themselves are the
engine's. It is the only writer of the nodes' seen counters
(mobility.SeenCounters) during a run.

No signal does work per bystander in Python. The tracker keeps the nodes
paused at each cell as two typed arrays in the order their pauses began,
their ids as an array("q") and their scheduled ends as an array("d"). An
arrival logs its contacts as one block, and copies its bystanders' ids and
ends into the log's columns of the same type codes as buffers, with no
conversion per item. A departure deletes its node's entry by index, which
keeps the others in order, and settles only the leaving node's seen
counters (see ContactTracker).

The tracker keeps the contact log compact: one block per arrival with
bystanders (arriving node, cell, time, scheduled end, bystander count) and
one id and scheduled end per bystander. `finish` ends the run and hands
the log out as a ContactLog, which reads those columns with no copy and
expands any rows of them, through the block index (each row's block),
into a numpy record array with fields a, b, cell, start, end and
censored, one row per contact in the order the contacts opened. There
is no log of a run still going, so no contact in a log is open. Its
readers (metrics, outputs) take it CHUNK_ROWS rows at a time (chunks), so a run never
holds the log's rows all at once.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .mobility import SeenCounters


# a < b; a contact still open at the horizon ends there, censored
CONTACT_DTYPE = np.dtype(
    [("a", "i8"), ("b", "i8"), ("cell", "i8"), ("start", "f8"), ("end", "f8"), ("censored", "?")]
)
# rows of a contact log expanded at a time, as many as the CSV writer
# formats at once (outputs.ROWS_PER_WRITE)
CHUNK_ROWS = 4096


class ContactLog:
    """A run's contact log as the tracker kept it, read through views of its columns.

    `len(log)` is its row count, and `log[rows]`, for a slice or an array
    of row indices, expands those rows into a CONTACT_DTYPE record array,
    as indexing the log's record array would give them; `pairs(rows)`
    gives only their a and b, and `times(rows)` only their starts, ends
    and censored flags. A row reads its block's columns through the block
    index, each row's block as an int32 (4 bytes per row), built on the
    first read. Each contact that ends past `horizon` ends there, censored.
    While a ContactLog is alive its tracker's columns cannot grow.
    """

    def __init__(self, blocks, others: np.ndarray, other_ends: np.ndarray, horizon: float):
        self._arriving, self._cell, self._start, self._end, self._counts = blocks
        self._others, self._other_ends = others, other_ends
        self.horizon = horizon

    def __len__(self) -> int:
        return len(self._others)

    def __getitem__(self, index) -> np.recarray:
        block = self._block[index]
        log = np.empty(len(block), dtype=CONTACT_DTYPE)
        log["a"], log["b"] = self.pairs(index)
        log["cell"] = self._cell[block]
        log["start"] = self._start[block]
        log["end"] = self._ends(index, block, log["censored"])
        return log.view(np.recarray)

    def pairs(self, index) -> tuple[np.ndarray, np.ndarray]:
        """The a and b of the rows `index`, as `self[index]` has them."""
        arriving, others = self._arriving[self._block[index]], self._others[index]
        return np.minimum(arriving, others), np.maximum(arriving, others)

    def times(self, index) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The start, the end and the censored flag of the rows `index`, as
        `self[index]` has them."""
        block = self._block[index]
        censored = np.empty(len(block), dtype=bool)
        return self._start[block], self._ends(index, block, censored), censored

    @property
    def records(self) -> np.recarray:
        """The whole log as one record array, filled a chunk at a time."""
        log = np.empty(len(self), dtype=CONTACT_DTYPE).view(np.recarray)
        for lo in range(0, len(self), CHUNK_ROWS):
            log[lo:lo + CHUNK_ROWS] = self[lo:lo + CHUNK_ROWS]
        return log

    @cached_property
    def _block(self) -> np.ndarray:
        """The block index: each row's block."""
        return np.repeat(np.arange(len(self._counts), dtype=np.int32), self._counts)

    def _ends(self, index, block, censored: np.ndarray) -> np.ndarray:
        """The end of the rows `index`, of blocks `block`, and into `censored`
        whether each is censored."""
        end = np.minimum(self._end[block], self._other_ends[index])
        np.greater(end, self.horizon, out=censored)
        return np.minimum(end, self.horizon, out=end)


def chunks(log: ContactLog) -> Iterator[np.recarray]:
    """The rows of the contact log `log`, in order, as record arrays of
    CHUNK_ROWS rows, the last one shorter."""
    for lo in range(0, len(log), CHUNK_ROWS):
        yield log[lo:lo + CHUNK_ROWS]


class _Cell:
    """The nodes paused at one cell, in the order their pauses began: their
    ids as an array("q") and their scheduled ends as an array("d"), with
    the count of arrivals at the cell so far."""

    __slots__ = ("cell", "arrivals", "ids", "ends")

    def __init__(self, cell: int):
        self.cell, self.arrivals = cell, 0
        self.ids, self.ends = array("q"), array("d")


class ContactTracker:
    """Tracks who is paused where until when, and logs each contact as it opens.

    `seen` holds each node's encounter counters, indexed by node id (the
    nodes' SeenCounters in a run); the tracker is their only writer and
    counts with `seen[node].add(cell, n)`. seen_update picks how an
    encounter is counted: "symmetric" increments the arriving node once per
    bystander and each bystander once, "bystanders_only" leaves the
    arriving node's counters untouched. A node's counts at a cell are
    settled in one `add` when it departs, or at `finish` if it is still
    paused then: one count per arrival at its cell since its own, plus, in
    symmetric mode, one per bystander it found there. So a node's counters
    are up to date from its departure signal until its next arrival.

    Who is paused where is kept per cell, as a _Cell, and per node, as the
    _Cell it is paused at, so a signal checks its node in O(1). An arrival
    copies its cell's two arrays into the log's bystander columns, a
    departure deletes its node's entry by index, and `finish`, after it
    settles the nodes still paused, drops both. A node paused at any cell
    cannot arrive; a departure of a node not paused at that cell is
    ignored.

    A contact ends at the earlier of its members' scheduled departures and
    is censored iff that lies past the horizon given to `finish`. The log
    keeps one block per arrival with bystanders (arriving node, cell, time,
    scheduled end, bystander count) and one id and scheduled end per
    bystander; `finish` hands them out as a ContactLog.
    """

    def __init__(self, seen: Sequence[SeenCounters], seen_update: str = "symmetric"):
        self.seen = seen
        self._symmetric = seen_update == "symmetric"
        self._cells: dict[int, _Cell] = {}  # made on a cell's first arrival
        self._paused_at: list[_Cell | None] = [None] * len(seen)  # node -> its cell while paused
        # a node's cell's arrivals as of its own, less the bystanders it counts there
        self._marks = [0] * len(seen)
        # one block per arrival with bystanders, then one entry per bystander
        self._arriving, self._cell, self._count = array("q"), array("q"), array("q")
        self._start, self._end = array("d"), array("d")
        self._others, self._other_ends = array("q"), array("d")

    def on_arrival_signal(self, arriving: int, cell: int, now: float, end: float) -> None:
        """`arriving` pauses at `cell` from `now` until `end`, and meets the nodes paused there."""
        paused_at = self._paused_at
        if paused_at[arriving] is not None:
            raise ValueError(
                f"node {arriving} is already paused at cell {paused_at[arriving].cell}, "
                f"so it cannot arrive at cell {cell}"
            )
        try:
            paused = self._cells[cell]
        except KeyError:
            paused = self._cells[cell] = _Cell(cell)
        paused_at[arriving] = paused
        paused.arrivals = arrivals = paused.arrivals + 1
        ids, ends = paused.ids, paused.ends
        count = len(ids)
        if count:
            self._arriving.append(arriving)
            self._cell.append(cell)
            self._start.append(now)
            self._end.append(end)
            self._count.append(count)
            # buffer copies, as the arrays share their type codes
            self._others.extend(ids)
            self._other_ends.extend(ends)
            if self._symmetric:
                # the bystanders count for the arriving node too, settled
                # with the later arrivals
                arrivals -= count
        self._marks[arriving] = arrivals
        ids.append(arriving)
        ends.append(end)

    def on_departure_signal(self, leaving: int, cell: int, now: float) -> None:
        """`leaving` leaves `cell`: settle its counts there; a node not paused there is ignored."""
        paused_at = self._paused_at
        paused = paused_at[leaving]
        if paused is None or paused.cell != cell:
            return
        paused_at[leaving] = None
        # deleted by index, so the others stay in the order their pauses began
        ids = paused.ids
        index = ids.index(leaving)
        del ids[index]
        del paused.ends[index]
        pending = paused.arrivals - self._marks[leaving]
        if pending:
            self.seen[leaving].add(cell, pending)

    def finish(self, until: float) -> ContactLog:
        """End the run at `until`: settle the counts of the nodes still paused,
        drop who is paused where, and return the run's contact log, over the
        tracker's columns with no copy."""
        for paused in self._cells.values():
            for node in paused.ids:
                pending = paused.arrivals - self._marks[node]
                if pending:
                    self.seen[node].add(paused.cell, pending)
        self._cells = {}
        self._paused_at = [None] * len(self._paused_at)
        blocks = [np.frombuffer(column, dtype=np.int64) for column in (self._arriving, self._cell)]
        blocks += [np.frombuffer(self._start), np.frombuffer(self._end)]
        blocks.append(np.frombuffer(self._count, dtype=np.int64))
        return ContactLog(
            blocks, np.frombuffer(self._others, dtype=np.int64), np.frombuffer(self._other_ends), until
        )
