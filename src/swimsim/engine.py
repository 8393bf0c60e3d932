"""Event-driven simulation loop.

Nodes move along straight segments at constant speed, so the only events
are departures (pause over, next destination chosen) and arrivals
(destination reached, arrival signal sent, pause begins). Every node has
exactly one pending event, and its phase says which: a paused node departs
next, a moving node arrives next. Events are kept in a heap of
(time, insertion seq, node); the seq counter makes simultaneous events
process in a total, deterministic order. Positions at any other instant
are interpolated analytically. The engine writes no files.

The handlers append each event's waypoint, and each departure's
selection, to flat array columns; `run` turns them into numpy record
arrays once, at the end. The pauses are the nodes' Paused phases.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .encounters import ContactTracker
from .grid import LocationMap, Point2D, build_grid
from .mobility import (
    HomeProfile,
    ModelParams,
    Moving,
    NodeState,
    Paused,
    draw_wait_time,
    make_node_state,
    node_stream,
    select_destination,
)


EVENTS = np.array(["depart", "arrive"])  # a waypoint's event, by its arrive flag
WAYPOINT_DTYPE = np.dtype(
    [("time", "f8"), ("node", "i8"), ("x", "f8"), ("y", "f8"), ("event", "U6")]
)
# visiting is the chosen cell's class for the node; False means home or neighbouring
SELECTION_DTYPE = np.dtype([("node", "i8"), ("cell", "i8"), ("visiting", "?"), ("fallback", "?")])


@dataclass
class SimulationReport:
    """Immutable result of one run: traces plus raw logs for the metrics.

    The waypoint, selection and contact logs are numpy record arrays, read
    by field name by row or by column.
    """

    params: ModelParams
    location_map: LocationMap
    waypoints: np.recarray  # time, node, x, y, event: one row per event
    contacts: np.recarray  # a, b, cell, start, end, censored: one row per contact
    pauses: list[Paused]
    selections: np.recarray  # node, cell, visiting, fallback: one row per departure
    seen: np.ndarray  # final N x L encounter counters, one row per node

    @property
    def events_processed(self) -> int:
        """Every event appends one waypoint, so the waypoints count the events."""
        return len(self.waypoints)


@dataclass
class SimulationState:
    params: ModelParams
    location_map: LocationMap
    nodes: list[NodeState]
    rngs: list[np.random.Generator]
    seen: np.ndarray  # N x L; each node's seen is a row view of it
    tracker: ContactTracker  # the only writer of `seen`
    now: float = 0.0
    queue: list[tuple[float, int, int]] = field(default_factory=list)  # (time, seq, node)
    seq: int = 0
    # the waypoint log's columns (time, node, x, y, arrive flag) and the
    # selection log's (node, cell, visiting, fallback)
    waypoints: tuple[array, ...] = field(default_factory=lambda: tuple(map(array, "dqddb")))
    selections: tuple[array, ...] = field(default_factory=lambda: tuple(map(array, "qqbb")))
    pauses: list[Paused] = field(default_factory=list)  # every pause, in the order they began
    finished: bool = False

    def schedule(self, time: float, node: int) -> None:
        heapq.heappush(self.queue, (time, self.seq, node))
        self.seq += 1


def initialize(params: ModelParams) -> SimulationState:
    """Build the grid, place nodes, and schedule each node's first departure.

    Initial positions are uniform over the area; the containing cell becomes
    the node's home. Every node starts with a pause at home, and the pause
    is announced like any other arrival (in node-id order at t=0) so nodes
    that start co-located meet before anyone moves. Nodes that share a
    home share one HomeProfile, and all seen counters live in one N x L
    matrix, which the contact tracker writes.
    """
    location_map = build_grid(params.area, params.n_locations)
    rngs = [node_stream(params.seed, i) for i in range(params.node_count)]
    seen = np.zeros((params.node_count, len(location_map)), dtype=np.int64)
    profiles: dict[int, HomeProfile] = {}
    nodes = []
    for i, rng in enumerate(rngs):
        position = Point2D(
            float(rng.uniform(0.0, params.area.width)),
            float(rng.uniform(0.0, params.area.height)),
        )
        profile = profiles.get(location_map.cell_of(position))
        node = make_node_state(i, position, location_map, params, profile, seen[i])
        profiles[node.home] = node.profile
        nodes.append(node)
    state = SimulationState(
        params=params,
        location_map=location_map,
        nodes=nodes,
        rngs=rngs,
        seen=seen,
        tracker=ContactTracker(seen, params.seen_update),
    )
    for node, rng in zip(nodes, rngs):
        state.tracker.on_arrival_signal(node.id, node.home, 0.0)
        wait = draw_wait_time(params.wait, rng)
        node.phase = Paused(node.id, node.home, 0.0, wait)
        state.pauses.append(node.phase)
        state.schedule(wait, node.id)
    return state


def handle_departure(state: SimulationState, node_id: int) -> None:
    """Pause over: leave the cell, pick the next destination, start moving."""
    node = state.nodes[node_id]
    now = state.now
    state.tracker.on_departure_signal(node_id, node.phase.cell, now)
    choice = select_destination(node, state.location_map, state.params, state.rngs[node_id])
    origin = node.position
    distance = math.hypot(choice.point.x - origin.x, choice.point.y - origin.y)
    arrive_at = now + distance / state.params.speed
    node.phase = Moving(
        origin=origin,
        target=choice.point,
        target_cell=choice.cell,
        depart_at=now,
        arrive_at=arrive_at,
    )
    node_ids, cells, visiting, fallback = state.selections
    node_ids.append(node_id)
    cells.append(choice.cell)
    visiting.append(choice.visiting)
    fallback.append(choice.fallback)
    _log_waypoint(state, node_id, origin, 0)
    state.schedule(arrive_at, node_id)


def handle_arrival(state: SimulationState, node_id: int) -> None:
    """Destination reached: signal the arrival, then pause."""
    node = state.nodes[node_id]
    now = state.now
    cell = node.phase.target_cell
    node.position = node.phase.target
    _log_waypoint(state, node_id, node.position, 1)
    state.tracker.on_arrival_signal(node_id, cell, now)
    end = now + draw_wait_time(state.params.wait, state.rngs[node_id])
    node.phase = Paused(node_id, cell, now, end)
    state.pauses.append(node.phase)
    state.schedule(end, node_id)


def _log_waypoint(state: SimulationState, node_id: int, point: Point2D, arrive: int) -> None:
    times, node_ids, xs, ys, arrives = state.waypoints
    times.append(state.now)
    node_ids.append(node_id)
    xs.append(point.x)
    ys.append(point.y)
    arrives.append(arrive)


def position_at(node: NodeState, t: float) -> Point2D:
    """Analytic position of a node at time t within its current phase."""
    phase = node.phase
    if isinstance(phase, Paused):
        if not (phase.start <= t <= phase.end):
            raise ValueError(f"t={t} outside pause [{phase.start}, {phase.end}]")
        return node.position
    if not (phase.depart_at <= t <= phase.arrive_at):
        raise ValueError(f"t={t} outside trip [{phase.depart_at}, {phase.arrive_at}]")
    if phase.arrive_at == phase.depart_at:
        return phase.target
    frac = (t - phase.depart_at) / (phase.arrive_at - phase.depart_at)
    return Point2D(
        phase.origin.x + frac * (phase.target.x - phase.origin.x),
        phase.origin.y + frac * (phase.target.y - phase.origin.y),
    )


def run(state: SimulationState, until: float) -> SimulationReport:
    """Process events in (time, seq) order up to `until` and build the report.

    Contacts and pauses still open at the horizon are closed there and
    flagged censored, so a state can only be run once.
    """
    if state.finished:
        raise RuntimeError("simulation state has already been run")
    if not math.isfinite(until):
        raise ValueError(f"until={until} is not finite")
    if until < state.now:
        raise ValueError(f"until={until} is before now={state.now}")
    queue, nodes = state.queue, state.nodes
    while queue and queue[0][0] <= until:
        state.now, _seq, node_id = heapq.heappop(queue)
        if isinstance(nodes[node_id].phase, Paused):
            handle_departure(state, node_id)
        else:
            handle_arrival(state, node_id)
    state.now = until
    state.tracker.finish(until)
    for node in state.nodes:
        if isinstance(node.phase, Paused):
            node.phase.end, node.phase.censored = until, True
    state.finished = True
    *waypoints, arrives = state.waypoints
    return SimulationReport(
        params=state.params,
        location_map=state.location_map,
        waypoints=np.rec.fromarrays([*waypoints, EVENTS[arrives]], dtype=WAYPOINT_DTYPE),
        contacts=state.tracker.records,
        pauses=state.pauses,
        selections=np.rec.fromarrays(state.selections, dtype=SELECTION_DTYPE),
        seen=state.seen,
    )


def simulate(params: ModelParams) -> SimulationReport:
    """Initialize and run a full scenario in one call."""
    state = initialize(params)
    return run(state, until=params.sim_duration)
