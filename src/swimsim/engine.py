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
streams and the log columns in locals. It reads and writes each node's
phase as plain values in place (mobility.NodeState). Each departure is
tallied where its destination is chosen, into per-node counts of
departures, visiting draws and fallbacks, which every report carries as
`selection_counts`. Each event's waypoint, and, when the trace is kept,
each departure's trip (node, chosen cell, flags, departure and scheduled
arrival), is written in place into the columns of one chunk of TRACE_ROWS
rows per log, allocated once. A full chunk is handed out as a record
array, the trace's to the report or to a caller's sink, the selection
log's to the report; a run asked for no trace writes neither. The loop
counts the events itself, so the report's event count needs no log, and
the pause log is derived from the kept selection log on first read. Each
node's seen counters are its own sparse SeenCounters, written by the
contact tracker; the report builds the dense N x L matrix from their
cells and counts only when it is read. An arrival sets the pause's end
before it signals, and the signal carries that end to the tracker, which
logs each contact with its end as it opens. The tracker's `finish` hands
out its compact log (encounters.ContactLog), which the report keeps as
it is; the contact log's record array is expanded from it only when
read, never in `run`. A departure signals before the kernel draws, so
the tracker settles the departing node's counters first. Each node's
random stream is read in blocks (UniformStream); a departure reads its
trip's row in one `take`: four uniforms for the kernel, then the next
pause's (none for a fixed wait), which the arrival turns into the pause's
length with the wait law's inverse CDF. An event is one heapreplace of
its node's entry.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .encounters import ContactLog, ContactTracker
from .grid import LocationMap, Point2D, build_grid, cells_of
from .mobility import (
    BLOCK,
    ModelParams,
    NodeState,
    OffsetTable,
    SeenCounters,
    UniformStream,
    choose_destination,
    draw_wait_time,
    make_node_state,
    node_streams,
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
# rows per chunk of the trace and of the selection log: each of a chunk's
# buffers stays under 128 KiB, glibc's initial mmap threshold, which a larger
# freed buffer would raise
TRACE_ROWS = 2048
# nodes per array of the nodes' first uniform blocks, which `initialize` draws:
# 64 KiB each, under the same threshold
START_ROWS = 128


@dataclass
class SimulationReport:
    """The result of one run: traces plus raw logs for the metrics.

    The waypoint, selection, pause and contact logs are numpy record
    arrays, read by field name by row or by column. `waypoints`,
    `selections`, `pauses`, `contacts` and `seen` are built on first read
    and then kept; `contact_log` is the contact log as the tracker kept
    it, which the metrics and the contacts writer read a chunk at a time
    without building `contacts`. A run that did not keep its trace and
    selection log (see `run`) still has its contacts, seen counters,
    selection counts and event count, and its `waypoints`, `selections`
    and `pauses` are empty.
    """

    params: ModelParams
    location_map: LocationMap
    # the contact log as the tracker kept it, one row per contact (encounters.ContactLog)
    contact_log: ContactLog = field(repr=False)
    # departures, visiting draws and fallbacks per node: a 3 x N int64 array
    selection_counts: np.ndarray = field(repr=False)
    events_processed: int  # every trip departed, and those that arrived by the horizon arrived
    counters: list[SeenCounters] = field(repr=False)  # each node's final seen counters
    homes: np.ndarray = field(repr=False)  # each node's home cell
    until: float  # the horizon the run stopped at
    # the waypoint trace's chunks, in event order, when the run kept them
    trace: list[np.recarray] = field(default_factory=list, repr=False)
    # the selection log's chunks, in departure order, or None when the run did not keep them
    selection_chunks: list[np.recarray] | None = field(default=None, repr=False)

    @cached_property
    def waypoints(self) -> np.recarray:
        """time, node, x, y, arrive: one row per event, in event order, joined from
        the kept chunks on first read; empty when the run streamed or skipped them."""
        return _joined(self.trace, WAYPOINT_DTYPE)

    @cached_property
    def selections(self) -> np.recarray:
        """node, cell, visiting, fallback, start, end: one row per departure, in
        event order, joined from the kept chunks on first read; empty when the
        run did not keep them."""
        return _joined(self.selection_chunks or [], SELECTION_DTYPE)

    @cached_property
    def contacts(self) -> np.recarray:
        """a, b, cell, start, end, censored: one row per contact, in the order the
        contacts opened, expanded from `contact_log` on first read."""
        return self.contact_log.records

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
        trip's cell. Built from the selection log, so empty when the run did not
        keep it."""
        if self.selection_chunks is None:
            return np.empty(0, PAUSE_DTYPE).view(np.recarray)
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


def _joined(chunks: list[np.recarray], dtype: np.dtype) -> np.recarray:
    """The chunks of a log joined into one record array; the list is emptied, as
    the joined log is kept instead."""
    if not chunks:
        return np.empty(0, dtype).view(np.recarray)
    log = np.concatenate(chunks).view(np.recarray)
    chunks.clear()
    return log


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
    uniforms: list[UniformStream]  # from node_streams: node i's is default_rng([seed, i])
    tracker: ContactTracker  # the only writer of the nodes' seen counters
    now: float = 0.0
    queue: list[tuple[float, int, int]] = field(default_factory=list)  # (time, seq, node)
    seq: int = 0
    finished: bool = False


def initialize(params: ModelParams) -> SimulationState:
    """Build the grid, place nodes, and schedule each node's first departure.

    Initial positions are uniform over the area; the containing cell becomes
    the node's home. Every node's stream comes from one `node_streams`
    call, which seeds all of them in one numpy pass. Each stream draws its
    first block of uniforms into its row of an array of START_ROWS nodes,
    and goes on from that row. A node's start is the first two uniforms of
    its own stream, read for all nodes from the arrays' first two columns
    and scaled to the area's width and height as `rng.uniform(0, side)`
    would scale them, and the homes of all nodes are found in one search
    per axis. Every node starts with a pause at home, and the pause is
    announced like any other arrival (in node-id order at t=0) so nodes
    that start co-located meet before anyone moves.
    Nodes that share a home share one HomeProfile; the profiles of all
    distinct homes are built in one pass from the run's one OffsetTable, so
    selection state is O(L + distinct homes x R) and setup costs one
    generator and one block draw per node plus the two passes. Each node's
    seen counters are its own sparse SeenCounters, which the contact
    tracker writes. No N x L array is allocated, and no temporary of the
    home build, nor any array of first blocks, exceeds 128 KiB.
    """
    location_map = build_grid(params.area, params.n_locations)
    # every node's first block of uniforms, one row per node in arrays of
    # START_ROWS nodes; a stream goes on from its row with the start's two
    # values taken
    rngs = node_streams(params.seed, params.node_count)
    uniforms, starts = [], []
    for lo in range(0, len(rngs), START_ROWS):
        chunk = rngs[lo:lo + START_ROWS]
        blocks = np.empty((len(chunk), BLOCK))
        for rng, block in zip(chunk, blocks):
            rng.random(out=block)
            uniforms.append(UniformStream(rng, block, 2))
        starts.append(blocks[:, :2])
    starts = np.concatenate(starts)
    # numpy's uniform(0, side) is 0 + side * u, the same double as side * u
    xs, ys = params.area.width * starts[:, 0], params.area.height * starts[:, 1]
    homes = cells_of(location_map, xs, ys).tolist()
    distinct = sorted(set(homes))
    profile_of = dict(zip(distinct, OffsetTable(location_map, params).profiles(distinct)))
    nodes = [
        make_node_state(i, x, y, profile_of[home])
        for i, (x, y, home) in enumerate(zip(xs.tolist(), ys.tolist(), homes))
    ]
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
    # the first departures, in seq order by node id; their keys are distinct,
    # so the heap pops them as one push per node would
    state.queue = [(node.end, node.id, node.id) for node in nodes]
    heapq.heapify(state.queue)
    state.seq = len(nodes)
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

    Each departure is tallied into the report's per-node
    `selection_counts` as it happens. The selection log is written, and
    kept as `report.selections` and the `pauses` built from it, only with
    `trace=True`. Otherwise the run's memory does not grow with the
    horizon, apart from the contacts and seen counters.
    """
    if state.finished:
        raise RuntimeError("simulation state has already been run")
    if not math.isfinite(until):
        raise ValueError(f"until={until} is not finite")
    if until < state.now:
        raise ValueError(f"until={until} is before now={state.now}")
    if not (trace is True or trace is False or callable(trace)):
        raise ValueError(f"trace={trace!r} is neither True, False nor callable")
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
    # the trace's and the selection log's chunks, each allocated once and written
    # by index, so no column grows; the selection log is written only when kept
    waypoints = [array(code, bytes(TRACE_ROWS * array(code).itemsize)) for code in "dqddb"]
    times, ids, xs, ys, arrives = waypoints
    picks = [array(code, bytes(TRACE_ROWS * array(code).itemsize)) for code in "qqbbdd"]
    pick_node, pick_cell, pick_visiting, pick_fallback, pick_start, pick_end = picks
    logged = picked = 0  # rows of each chunk filled so far
    chunks: list[np.recarray] = []
    sink = chunks.append if trace is True else trace
    tracing = bool(sink)
    kept: list[np.recarray] | None = [] if trace is True else None
    departures, visits, fallbacks = ([0] * len(nodes) for _ in range(3))
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
            departures[node_id] += 1
            if visiting:
                visits[node_id] += 1
            if fallback:
                fallbacks[node_id] += 1
            if kept is not None:
                pick_node[picked] = node_id
                pick_cell[picked] = cell
                pick_visiting[picked] = visiting
                pick_fallback[picked] = fallback
                pick_start[picked] = now
                pick_end[picked] = end
                picked += 1
                if picked == TRACE_ROWS:
                    kept.append(_records(SELECTION_DTYPE, picks))
                    picked = 0
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
    if picked:
        kept.append(_records(SELECTION_DTYPE, [column[:picked] for column in picks]))
    events = seq - state.seq
    state.seq = seq
    state.now = until
    contact_log = state.tracker.finish(until)
    for node in nodes:
        if node.paused:
            node.end = until
    state.finished = True
    return SimulationReport(
        params=state.params,
        location_map=state.location_map,
        contact_log=contact_log,
        selection_counts=np.array([departures, visits, fallbacks], dtype=np.int64),
        events_processed=events,
        counters=[node.seen for node in nodes],
        homes=np.array([node.home for node in nodes], dtype=np.int64),
        until=until,
        trace=chunks,
        selection_chunks=kept,
    )


def simulate(params: ModelParams, trace=True) -> SimulationReport:
    """Initialize and run a full scenario in one call; `trace` as for `run`."""
    state = initialize(params)
    return run(state, until=params.sim_duration, trace=trace)
