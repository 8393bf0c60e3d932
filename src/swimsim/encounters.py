"""Arrival-signal handling: seen-counter updates and contact intervals.

A node announces its arrival at a cell; every node currently paused in that
same cell registers the encounter, and one contact interval opens per
co-located pair. Nodes elsewhere ignore the signal. Contacts close when
either member leaves the cell, so no contact ever spans a cell change.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mobility import NodeState


@dataclass
class ContactRecord:
    a: int  # a < b
    b: int
    cell: int
    start: float
    end: float | None = None
    censored: bool = False


@dataclass
class PauseInterval:
    node: int
    cell: int
    start: float
    end: float | None = None
    censored: bool = False


class ContactTracker:
    """Tracks who is paused where, open contacts, and the finished log.

    seen_update picks how an encounter is counted: "symmetric" increments
    the arriving node once per bystander and each bystander once,
    "bystanders_only" leaves the arriving node's counters untouched.
    """

    def __init__(self, seen_update: str = "symmetric"):
        self.seen_update = seen_update
        self._paused_at: dict[int, dict[int, None]] = {}  # cell -> ordered node ids
        self._open: dict[tuple[int, int], ContactRecord] = {}
        self._open_pause: dict[int, PauseInterval] = {}
        self.records: list[ContactRecord] = []
        self.pauses: list[PauseInterval] = []

    def on_arrival_signal(
        self, nodes: list[NodeState], arriving: int, cell: int, now: float
    ) -> None:
        """Fan the arrival signal out to the nodes paused at `cell`."""
        bystanders = [n for n in self._paused_at.get(cell, {}) if n != arriving]
        for other in bystanders:
            nodes[other].seen[cell] += 1
            a, b = (other, arriving) if other < arriving else (arriving, other)
            record = ContactRecord(a=a, b=b, cell=cell, start=now)
            self._open[(a, b)] = record
            self.records.append(record)
        if self.seen_update == "symmetric":
            nodes[arriving].seen[cell] += len(bystanders)

    def node_paused(self, node: int, cell: int, now: float) -> None:
        self._paused_at.setdefault(cell, {})[node] = None
        interval = PauseInterval(node=node, cell=cell, start=now)
        self._open_pause[node] = interval
        self.pauses.append(interval)

    def on_departure_signal(self, leaving: int, cell: int, now: float) -> None:
        """Close every open contact involving `leaving` at `cell`."""
        paused = self._paused_at.get(cell, {})
        for other in paused:
            if other == leaving:
                continue
            pair = (other, leaving) if other < leaving else (leaving, other)
            record = self._open.pop(pair, None)
            if record is not None:
                record.end = now
        paused.pop(leaving, None)
        interval = self._open_pause.pop(leaving, None)
        if interval is not None:
            interval.end = now

    def finish(self, now: float) -> None:
        """Close everything still open at the simulation horizon as censored."""
        for record in self._open.values():
            record.end = now
            record.censored = True
        self._open.clear()
        for interval in self._open_pause.values():
            interval.end = now
            interval.censored = True
        self._open_pause.clear()
