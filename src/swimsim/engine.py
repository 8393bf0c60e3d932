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
each departure's trip (node, chosen cell, flags, departure and scheduled
arrival) to flat array columns, from which `run` fills the selection log
once, at the end. Each event's waypoint is written in place into the
columns of one chunk of TRACE_ROWS rows, allocated once, which is handed
out as a record array each time it fills, to the report or to a caller's
sink; a run asked for no trace writes none. The report derives the pause
log and the event count from the selection log, so they do not need the
trace. Each node's seen counters are its own sparse SeenCounters, written
by the contact tracker; the report builds the dense N x L matrix from
their cells and counts only when it is read. An arrival sets the pause's
end before it signals, and the signal carries that end to the tracker,
which logs each contact with its end as it opens. A departure signals
before the kernel draws, so the tracker settles the departing node's
counters first. Each node's random stream is read in blocks
(UniformStream); a departure reads its trip's row in one `take`: four
uniforms for the kernel, then the next pause's (none for a fixed wait),
which the arrival turns into the pause's length with the wait law's
inverse CDF. An event is one heapreplace of its node's entry.
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


# arrive is False for a departure and True for an arrival
WAYPOINT_DTYPE = np.dtype(
    [("time", "f8"), ("node", "i8"), ("x", "f8"), ("y", "f8"), ("arrive", "?")]
)
# visiting is the chosen cell's class for the node; False means home or neighbouring.
# start is the departure and end the scheduled arrival, past the horizon for a trip
# still under way there
SELECTION_DTYPE = np.dtype([
    ("node", "i8"), ("cell", "i8"), ("visiting", "?"), ("fallback", "?"),
    ("start", "f8"), ("end", "f8"),
])
# end is the departure; a pause still running at the horizon ends there, censored
PAUSE_DTYPE = np.dtype(
    [("node", "i8"), ("cell", "i8"), ("start", "f8"), ("end", "f8"), ("censored", "?")]
)
# waypoint rows per chunk of the trace: each of a chunk's buffers stays under
# 128 KiB, glibc's initial mmap threshold, which a larger freed buffer would raise
TRACE_ROWS = 2048


@dataclass
class SimulationReport:
    """The result of one run: traces plus raw logs for the metrics.

    The waypoint, selection, pause and contact logs are numpy record
    arrays, read by field name by row or by column. `waypoints`, `pauses`
    and `seen` are built on first read and then kept.
    """

    params: ModelParams
    location_map: LocationMap
    contacts: np.recarray  # a, b, cell, start, end, censored: one row per contact
    selections: np.recarray  # node, cell, visiting, fallback, start, end: one row per departure
    counters: list[SeenCounters] = field(repr=False)  # each node's final seen counters
    homes: np.ndarray = field(repr=False)  # each node's home cell
    until: float  # the horizon the run stopped at
    # the waypoint trace's chunks, in event order, when the run kept them
    trace: list[np.recarray] = field(default_factory=list, repr=False)

    @property
    def events_processed(self) -> int:
        """Every trip departed, and those that arrived by the horizon arrived."""
        return len(self.selections) + int(np.count_nonzero(self.selections.end <= self.until))

    @cached_property
    def waypoints(self) -> np.recarray:
        """time, node, x, y, arrive: one row per event, in event order, joined from
        the kept chunks on first read; empty when the run streamed or skipped them."""
        if not self.trace:
            return np.empty(0, WAYPOINT_DTYPE).view(np.recarray)
        waypoints = np.concatenate(self.trace).view(np.recarray)
        self.trace.clear()  # the joined log is kept instead
        return waypoints

    @cached_property
    def seen(self) -> np.ndarray:
        """Final N x L encounter counters, one row per node, built from `counters` on first read."""
        seen = np.zeros((len(self.counters), len(self.location_map)), dtype=np.int64)
        for row, counters in zip(seen, self.counters):
            for cells, counts in zip(counters.cells, counters.counts):
                row[cells] = counts
        return seen

    @cached_property
    def pauses(self) -> np.recarray:
        """Each node's pause at home, in node order, then one per arrival by the
        horizon, in event order: by arrival time, ties in departure order, which is
        the heap's seq order. A pause ends at its node's next departure, or at the
        horizon, censored, when there is none; one that follows a trip is in the
        trip's cell."""
        n, trips, until = len(self.homes), self.selections, self.until
        # the rows: each node's pause at home as a trip that arrived at t = 0, then the trips
        nodes = np.concatenate([np.arange(n), trips.node])
        cells = np.concatenate([self.homes, trips.cell])
        arrived = np.concatenate([np.zeros(n), trips.end])
        departed = np.concatenate([np.zeros(n), trips.start])
        order = np.argsort(nodes, kind="stable")
        before, after = order[:-1], order[1:]
        same = nodes[after] == nodes[before]  # `after` is the next trip of `before`'s node
        ends = np.full(len(nodes), until)
        ends[before[same]] = departed[after[same]]
        censored = np.ones(len(nodes), bool)
        censored[before[same]] = False
        rows = np.concatenate([np.arange(n), n + np.argsort(trips.end, kind="stable")])
        rows = rows[arrived[rows] <= until]
        return _records(PAUSE_DTYPE, [c[rows] for c in (nodes, cells, arrived, ends, censored)])


def _records(dtype: np.dtype, columns) -> np.recarray:
    """A record array filled in place, field by field, from columns of the fields' types."""
    records = np.empty(len(columns[0]), dtype).view(np.recarray)
    for name, column in zip(dtype.names, columns):
        records[name] = np.frombuffer(column, dtype[name])
    return records


@dataclass
class SimulationState:
    """What a run reads and advances; the logs are `run`'s own, not the state's."""
    params: ModelParams
    location_map: LocationMap
    nodes: list[NodeState]
    uniforms: list[UniformStream]  # one per node, from its node_stream
    tracker: ContactTracker  # the only writer of the nodes' seen counters
    now: float = 0.0
    queue: list[tuple[float, int, int]] = field(default_factory=list)  # (time, seq, node)
    seq: int = 0
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
        nodes.append(make_node_state(i, position, location_map, profiles[home]))
    # each node's blocks follow the two position values drawn above
    uniforms = [UniformStream(rng) for rng in rngs]
    state = SimulationState(
        params=params,
        location_map=location_map,
        nodes=nodes,
        uniforms=uniforms,
        tracker=ContactTracker([node.seen for node in nodes], params.seen_update),
    )
    for node, stream in zip(nodes, uniforms):
        node.end = draw_wait_time(params.wait, stream)  # the pause at home began at 0
        state.tracker.on_arrival_signal(node.id, node.home, 0.0, node.end)
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


def run(state: SimulationState, until: float, trace=True) -> SimulationReport:
    """Process events in (time, seq) order up to `until` and build the report.

    Contacts and pauses still open at the horizon are closed there and
    flagged censored, so a state can only be run once.

    `trace` says where the waypoint trace goes. With True the report keeps
    it, as `report.waypoints`. A callable is passed it as the run goes, in
    event order, as WAYPOINT_DTYPE record arrays of TRACE_ROWS rows, the
    last one shorter; the report's `waypoints` is then empty. With False
    no trace is recorded.
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
    # looked up per run, not at import, so a kernel or a signal replaced on the
    # module or on the tracker's class (by a test or a tracer) sees every call
    choose = choose_destination
    on_arrival, on_departure = state.tracker.on_arrival_signal, state.tracker.on_departure_signal
    # a trip's row: u, r, fx, fy for the kernel, then the pause's uniform, kept
    # to the arrival; a fixed wait draws none and keeps fy, its inverse CDF is low for any u
    row_size, pause_of = (4 if wait.high == wait.low else 5), wait.inverse_cdf
    pause_uniform = [0.0] * len(nodes)
    # the selection log's columns
    selections = list(map(array, "qqbbdd"))
    pick_node, pick_cell, pick_visiting, pick_fallback, pick_start, pick_end = (
        column.append for column in selections
    )
    # the trace's chunk, allocated once and written by index: no column grows
    waypoints = [array(code, bytes(TRACE_ROWS * array(code).itemsize)) for code in "dqddb"]
    times, ids, xs, ys, arrives = waypoints
    logged = 0  # rows of the chunk filled so far
    chunks: list[np.recarray] = []
    sink = chunks.append if trace is True else trace
    tracing = bool(sink)
    heapreplace, hypot = heapq.heapreplace, math.hypot
    seq = state.seq
    while queue and queue[0][0] <= until:
        now, _seq, node_id = queue[0]
        node = nodes[node_id]
        if node.paused:
            # pause over: leave the cell, pick the next destination, start moving
            on_departure(node_id, node.cell, now)
            row = uniforms[node_id].take(row_size)
            cell, tx, ty, visiting, fallback = choose(
                node, location_map, params, row[0], row[1], row[2], row[3]
            )
            pause_uniform[node_id] = row[-1]
            x, y = node.x, node.y
            end = now + hypot(tx - x, ty - y) / speed
            node.paused = False
            node.cell, node.tx, node.ty = cell, tx, ty
            pick_node(node_id)
            pick_cell(cell)
            pick_visiting(visiting)
            pick_fallback(fallback)
            pick_start(now)
            pick_end(end)
        else:
            # destination reached: signal the arrival, then pause
            cell = node.cell
            node.x = x = node.tx
            node.y = y = node.ty
            end = now + pause_of(pause_uniform[node_id])
            on_arrival(node_id, cell, now, end)
            node.paused = True
        node.start, node.end = now, end
        if tracing:
            times[logged] = now
            ids[logged] = node_id
            xs[logged] = x
            ys[logged] = y
            arrives[logged] = node.paused
            logged += 1
            if logged == TRACE_ROWS:
                sink(_records(WAYPOINT_DTYPE, waypoints))
                logged = 0
        heapreplace(queue, (end, seq, node_id))
        seq += 1
    if logged:
        sink(_records(WAYPOINT_DTYPE, [column[:logged] for column in waypoints]))
    state.seq = seq
    state.now = until
    state.tracker.finish(until)
    for node in nodes:
        if node.paused:
            node.end = until
    state.finished = True
    return SimulationReport(
        params=state.params,
        location_map=state.location_map,
        contacts=state.tracker.records,
        selections=_records(SELECTION_DTYPE, selections),
        counters=[node.seen for node in nodes],
        homes=np.array([node.home for node in nodes], dtype=np.int64),
        until=until,
        trace=chunks,
    )


def simulate(params: ModelParams, trace=True) -> SimulationReport:
    """Initialize and run a full scenario in one call; `trace` as for `run`."""
    state = initialize(params)
    return run(state, until=params.sim_duration, trace=trace)
