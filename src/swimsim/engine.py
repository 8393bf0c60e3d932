"""Event-driven simulation loop.

Nodes move along straight segments at constant speed, so the only events
are departures (pause over, next destination chosen) and arrivals
(destination reached, arrival signal sent, pause begins). Every node has
exactly one pending event, and its phase says which: a paused node departs
next, a moving node arrives next. Events are kept in a heap of
(time, insertion seq, node); the seq counter makes simultaneous events
process in a total, deterministic order. Positions at any other instant
are interpolated analytically. The engine writes no files.

An event allocates nothing but its heap entry. Both kinds of event are
handled in `run`'s one loop, which holds the queue, the nodes, their
streams and the log columns' appenders in locals. It reads and writes each
node's phase as plain values in place (mobility.NodeState), and appends
each event's waypoint, each departure's selection and each pause to flat
array columns; `run` turns the columns into numpy record arrays once, at
the end. Each node's seen counters are its own sparse SeenCounters,
written by the contact tracker; the report builds the dense N x L matrix
from them only when it is read. An arrival draws the pause's end before
it signals, and the signal carries that end to the tracker, which logs
each contact with its end as it opens. A departure signals before the
kernel draws, so the tracker settles the departing node's counters first.
Each node's random stream is read in blocks (UniformStream): a departure
takes four uniforms and a pause one (none for a fixed wait).
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .encounters import ContactTracker
from .grid import LocationMap, Point2D, build_grid, cell_of
from .mobility import (
    HomeProfile,
    ModelParams,
    NodeState,
    OffsetTable,
    SeenCounters,
    UniformStream,
    choose_destination,
    draw_wait_time,
    make_node_state,
    node_stream,
)


EVENTS = np.array(["depart", "arrive"])  # a waypoint's event, by its arrive flag
WAYPOINT_DTYPE = np.dtype(
    [("time", "f8"), ("node", "i8"), ("x", "f8"), ("y", "f8"), ("event", "U6")]
)
# visiting is the chosen cell's class for the node; False means home or neighbouring
SELECTION_DTYPE = np.dtype([("node", "i8"), ("cell", "i8"), ("visiting", "?"), ("fallback", "?")])
# end is the departure; a pause still running at the horizon ends there, censored
PAUSE_DTYPE = np.dtype(
    [("node", "i8"), ("cell", "i8"), ("start", "f8"), ("end", "f8"), ("censored", "?")]
)


@dataclass
class SimulationReport:
    """Immutable result of one run: traces plus raw logs for the metrics.

    The waypoint, selection, pause and contact logs are numpy record
    arrays, read by field name by row or by column.
    """

    params: ModelParams
    location_map: LocationMap
    waypoints: np.recarray  # time, node, x, y, event: one row per event
    contacts: np.recarray  # a, b, cell, start, end, censored: one row per contact
    pauses: np.recarray  # node, cell, start, end, censored: one row per pause, in start order
    selections: np.recarray  # node, cell, visiting, fallback: one row per departure
    counters: list[SeenCounters] = field(repr=False)  # each node's final seen counters

    @property
    def events_processed(self) -> int:
        """Every event appends one waypoint, so the waypoints count the events."""
        return len(self.waypoints)

    @cached_property
    def seen(self) -> np.ndarray:
        """Final N x L encounter counters, one row per node, built from `counters` on first read."""
        seen = np.zeros((len(self.counters), len(self.location_map)), dtype=np.int64)
        for row, counters in zip(seen, self.counters):
            row[:] = counters
        return seen


@dataclass
class SimulationState:
    params: ModelParams
    location_map: LocationMap
    nodes: list[NodeState]
    uniforms: list[UniformStream]  # one per node, from its node_stream
    tracker: ContactTracker  # the only writer of the nodes' seen counters
    now: float = 0.0
    queue: list[tuple[float, int, int]] = field(default_factory=list)  # (time, seq, node)
    seq: int = 0
    # the columns of the waypoint log (time, node, x, y, arrive flag), the
    # selection log (node, cell, visiting, fallback) and the pause log
    # (node, cell, start, end; censored is set when the run ends)
    waypoints: tuple[array, ...] = field(default_factory=lambda: tuple(map(array, "dqddb")))
    selections: tuple[array, ...] = field(default_factory=lambda: tuple(map(array, "qqbb")))
    pauses: tuple[array, ...] = field(default_factory=lambda: tuple(map(array, "qqdd")))
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
    home share one HomeProfile, built from the run's one OffsetTable, so
    selection state is O(L + distinct homes x R). Each node's seen
    counters are its own sparse SeenCounters, which the contact tracker
    writes. No N x L array is allocated.
    """
    location_map = build_grid(params.area, params.n_locations)
    rngs = [node_stream(params.seed, i) for i in range(params.node_count)]
    table = OffsetTable(location_map, params)
    profiles: dict[int, HomeProfile] = {}
    nodes = []
    for i, rng in enumerate(rngs):
        position = Point2D(
            float(rng.uniform(0.0, params.area.width)),
            float(rng.uniform(0.0, params.area.height)),
        )
        home = cell_of(location_map, position)
        if home not in profiles:
            profiles[home] = table.profile(home)
        nodes.append(make_node_state(i, position, location_map, params, profiles[home]))
    # each node's blocks follow the two position values drawn above
    uniforms = [UniformStream(rng) for rng in rngs]
    state = SimulationState(
        params=params,
        location_map=location_map,
        nodes=nodes,
        uniforms=uniforms,
        tracker=ContactTracker([node.seen for node in nodes], params.seen_update),
    )
    pause_nodes, pause_cells, starts, ends = state.pauses
    for node, stream in zip(nodes, uniforms):
        node.end = draw_wait_time(params.wait, stream)  # the pause at home began at 0
        state.tracker.on_arrival_signal(node.id, node.home, 0.0, node.end)
        pause_nodes.append(node.id)
        pause_cells.append(node.home)
        starts.append(0.0)
        ends.append(node.end)
        state.schedule(node.end, node.id)
    return state


def position_at(node: NodeState, t: float) -> Point2D:
    """Analytic position of a node at time t within its current phase."""
    start, end = node.start, node.end
    if not (start <= t <= end):
        raise ValueError(f"t={t} outside {'pause' if node.paused else 'trip'} [{start}, {end}]")
    if node.paused:
        return Point2D(node.x, node.y)
    if end == start:
        return Point2D(node.tx, node.ty)
    frac = (t - start) / (end - start)
    return Point2D(node.x + frac * (node.tx - node.x), node.y + frac * (node.ty - node.y))


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
    queue, nodes, uniforms = state.queue, state.nodes, state.uniforms
    location_map, params = state.location_map, state.params
    speed, wait = params.speed, params.wait
    # looked up per run, not at import, so a function replaced on the module
    # or on the tracker's class (by a test or a tracer) sees every call
    choose, wait_time = choose_destination, draw_wait_time
    on_arrival, on_departure = state.tracker.on_arrival_signal, state.tracker.on_departure_signal
    log_time, log_node, log_x, log_y, log_arrive = (column.append for column in state.waypoints)
    pick_node, pick_cell, pick_visiting, pick_fallback = (
        column.append for column in state.selections
    )
    pause_node, pause_cell, pause_start, pause_end = (column.append for column in state.pauses)
    heappop, heappush, hypot = heapq.heappop, heapq.heappush, math.hypot
    seq = state.seq
    while queue and queue[0][0] <= until:
        now, _seq, node_id = heappop(queue)
        node = nodes[node_id]
        if node.paused:
            # pause over: leave the cell, pick the next destination, start moving
            on_departure(node_id, node.cell, now)
            cell, tx, ty, visiting, fallback = choose(
                node, location_map, params, *uniforms[node_id].take(4)
            )
            x, y = node.x, node.y
            end = now + hypot(tx - x, ty - y) / speed
            node.paused = False
            node.cell, node.tx, node.ty = cell, tx, ty
            pick_node(node_id)
            pick_cell(cell)
            pick_visiting(visiting)
            pick_fallback(fallback)
        else:
            # destination reached: signal the arrival, then pause
            cell = node.cell
            node.x = x = node.tx
            node.y = y = node.ty
            end = now + wait_time(wait, uniforms[node_id])
            on_arrival(node_id, cell, now, end)
            node.paused = True
            pause_node(node_id)
            pause_cell(cell)
            pause_start(now)
            pause_end(end)
        node.start, node.end = now, end
        log_time(now)
        log_node(node_id)
        log_x(x)
        log_y(y)
        log_arrive(node.paused)
        heappush(queue, (end, seq, node_id))
        seq += 1
    state.seq = seq
    state.now = until
    state.tracker.finish(until)
    for node in nodes:
        if node.paused:
            node.end = until
    state.finished = True
    # a pause's end is its departure's event time, so the pauses whose
    # departure is still pending are exactly those that end past the horizon
    *pause_columns, ends = state.pauses
    ends = np.array(ends)
    censored = ends > until
    ends[censored] = until
    *waypoints, arrives = state.waypoints
    return SimulationReport(
        params=state.params,
        location_map=state.location_map,
        waypoints=np.rec.fromarrays([*waypoints, EVENTS[arrives]], dtype=WAYPOINT_DTYPE),
        contacts=state.tracker.records,
        pauses=np.rec.fromarrays([*pause_columns, ends, censored], dtype=PAUSE_DTYPE),
        selections=np.rec.fromarrays(state.selections, dtype=SELECTION_DTYPE),
        counters=[node.seen for node in nodes],
    )


def simulate(params: ModelParams) -> SimulationReport:
    """Initialize and run a full scenario in one call."""
    state = initialize(params)
    return run(state, until=params.sim_duration)
