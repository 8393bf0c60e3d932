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

No signal does work per bystander in Python: an arrival logs its
contacts as one block and a departure settles only the leaving node's
seen counters (see ContactTracker).

The contact log is a numpy record array with fields a, b, cell, start,
end and censored, one row per contact in the order the contacts opened; an
open contact's end is NaN. The tracker builds it on request as one array,
filling each field in place from zero-copy views of its own columns, so
the log is the only thing as long as the log that it keeps. ContactRecord
is a contact as a plain object, for logs built by hand; contact_log turns
a list of them into the record array.
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
    """Tracks who is paused where until when, and logs each contact as it opens.

    `seen` holds each node's encounter counters, indexed by node id (the
    nodes' SeenCounters in a run); the tracker is their only writer and
    counts with `seen[node].add(cell, n)`. seen_update picks how an
    encounter is counted: "symmetric" increments the arriving node once per
    bystander and each bystander once, "bystanders_only" leaves the
    arriving node's counters untouched. The arriving node's counts are
    added at its arrival. A bystander's are settled when it departs, or at
    `finish` if it is still paused then: it gains one count per arrival at
    its cell since its own. So a node's counters are up to date from its
    departure signal until its next arrival.

    A contact ends at the earlier of its members' scheduled departures and
    is censored iff that lies past the horizon given to `finish`. The log
    keeps one block per arrival with bystanders (arriving node, cell, time,
    scheduled end, bystander count) and one id and scheduled end per
    bystander; `records` expands them into rows.
    """

    def __init__(self, seen: Sequence[SeenCounters], seen_update: str = "symmetric"):
        self.seen = seen
        self.seen_update = seen_update
        self._paused_at: dict[int, dict[int, float]] = {}  # cell -> {node: scheduled end}
        self._arrivals: dict[int, int] = {}  # cell -> arrivals there so far
        self._marks = [0] * len(seen)  # a node's cell's arrivals, as of its own
        self._now = -math.inf  # the latest signal's time
        self._until: float | None = None  # the horizon, once finished
        # one block per arrival with bystanders, then one entry per bystander
        self._arriving, self._cell, self._count = array("q"), array("q"), array("q")
        self._start, self._end = array("d"), array("d")
        self._others, self._other_ends = array("q"), array("d")

    @property
    def records(self) -> np.recarray:
        """A copy of the contact log so far, one row per contact in opening order.

        Before `finish`, a contact that ends after the latest signal is open
        (its end is NaN); after it, a contact that ends past the horizon
        ends there, censored.
        """
        # the columns are read through views, released on return, so the
        # tracker can grow them again; each field of the log is filled in place
        counts = np.frombuffer(self._count, dtype=np.int64)
        others = np.frombuffer(self._others, dtype=np.int64)
        log = np.empty(len(others), dtype=CONTACT_DTYPE)
        arriving = np.repeat(np.frombuffer(self._arriving, dtype=np.int64), counts)
        np.minimum(arriving, others, out=log["a"])
        np.maximum(arriving, others, out=log["b"])
        del arriving
        log["cell"] = np.repeat(np.frombuffer(self._cell, dtype=np.int64), counts)
        log["start"] = np.repeat(np.frombuffer(self._start), counts)
        end = np.repeat(np.frombuffer(self._end), counts)
        np.minimum(end, np.frombuffer(self._other_ends), out=end)
        if self._until is None:
            log["censored"] = False
            end[end > self._now] = math.nan
        else:
            censored = np.greater(end, self._until, out=log["censored"])
            end[censored] = self._until
        log["end"] = end
        return log.view(np.recarray)

    def on_arrival_signal(self, arriving: int, cell: int, now: float, end: float) -> None:
        """`arriving` pauses at `cell` from `now` until `end`, and meets the nodes paused there."""
        self._now = now
        paused = self._paused_at.setdefault(cell, {})
        if arriving in paused:
            raise ValueError(f"node {arriving} is already paused at cell {cell}")
        arrivals = self._arrivals.get(cell, 0) + 1
        self._arrivals[cell] = arrivals
        self._marks[arriving] = arrivals
        count = len(paused)
        if count:
            self._arriving.append(arriving)
            self._cell.append(cell)
            self._start.append(now)
            self._end.append(end)
            self._count.append(count)
            self._others.extend(paused)
            self._other_ends.extend(paused.values())
            if self.seen_update == "symmetric":
                self.seen[arriving].add(cell, count)
        paused[arriving] = end

    def on_departure_signal(self, leaving: int, cell: int, now: float) -> None:
        """`leaving` leaves `cell`: settle its counts there; a node not paused there is ignored."""
        self._now = now
        paused = self._paused_at.get(cell)
        if paused is None or paused.pop(leaving, None) is None:
            return
        self._settle(leaving, cell)

    def finish(self, until: float) -> None:
        """End the run at `until`: settle the counts of the nodes still paused."""
        self._now = self._until = until
        for cell, paused in self._paused_at.items():
            for node in paused:
                self._settle(node, cell)
            paused.clear()

    def _settle(self, node: int, cell: int) -> None:
        """Count one encounter for each arrival at `cell` since `node`'s own."""
        pending = self._arrivals[cell] - self._marks[node]
        if pending:
            self.seen[node].add(cell, pending)
