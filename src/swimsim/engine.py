"""Event-driven simulation loop.

Nodes move along straight segments at constant speed, so the only events
are departures (pause over, next destination chosen) and arrivals
(destination reached, arrival signal sent, pause begins). Events are kept
in a heap ordered by (time, insertion seq); the seq counter makes
simultaneous events process in a total, deterministic order. Positions at
any other instant are interpolated analytically.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .encounters import ContactRecord, ContactTracker, PauseInterval
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
from .outputs import write_locations_file

DEPARTURE = 0
ARRIVAL = 1


@dataclass(frozen=True)
class WaypointRecord:
    time: float
    node: int
    x: float
    y: float
    event: str  # "depart" | "arrive"


@dataclass(frozen=True)
class SelectionRecord:
    node: int
    cell: int
    visiting: bool  # chosen cell's class for this node; False means home/neighbouring
    fallback: bool


@dataclass
class SimulationReport:
    """Immutable result of one run: traces plus raw logs for the metrics."""

    params: ModelParams
    location_map: LocationMap
    end_time: float
    events_processed: int
    waypoints: list[WaypointRecord]
    contacts: list[ContactRecord]
    pauses: list[PauseInterval]
    selections: list[SelectionRecord]
    seen: np.ndarray  # final N x L encounter counters, one row per node


@dataclass
class SimulationState:
    params: ModelParams
    location_map: LocationMap
    nodes: list[NodeState]
    rngs: list[np.random.Generator]
    now: float = 0.0
    queue: list[tuple[float, int, int, int]] = field(default_factory=list)
    seq: int = 0
    tracker: ContactTracker = None
    waypoints: list[WaypointRecord] = field(default_factory=list)
    selections: list[SelectionRecord] = field(default_factory=list)
    events_processed: int = 0
    finished: bool = False
    seen: np.ndarray = None  # N x L; each node's seen is a row view of it

    def __post_init__(self):
        if self.seen is None:
            self.seen = np.stack([node.seen for node in self.nodes])
            for node, row in zip(self.nodes, self.seen):
                node.seen = row

    def schedule(self, time: float, kind: int, node: int) -> None:
        heapq.heappush(self.queue, (time, self.seq, kind, node))
        self.seq += 1


def initialize(params: ModelParams, locations_path=None) -> SimulationState:
    """Build the grid, place nodes, and schedule each node's first departure.

    Initial positions are uniform over the area; the containing cell becomes
    the node's home. Every node starts with a pause at home, and the pause
    is announced like any other arrival (in node-id order at t=0) so nodes
    that start co-located meet before anyone moves. When `locations_path`
    is given the shared locations file is written there. Nodes that share
    a home share one HomeProfile, and all seen counters live in one N x L
    matrix.
    """
    location_map = build_grid(params.area, params.n_locations)
    if locations_path is not None:
        write_locations_file(location_map, locations_path)
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
        tracker=ContactTracker(params.seen_update),
        seen=seen,
    )
    for node, rng in zip(nodes, rngs):
        state.tracker.on_arrival_signal(nodes, node.id, node.home, 0.0)
        state.tracker.node_paused(node.id, node.home, 0.0)
        wait = draw_wait_time(params.wait, rng)
        node.phase = Paused(cell=node.home, until=wait, since=0.0)
        state.schedule(wait, DEPARTURE, node.id)
    return state


def handle_departure(state: SimulationState, node_id: int) -> None:
    """Pause over: leave the cell, pick the next destination, start moving."""
    node = state.nodes[node_id]
    assert isinstance(node.phase, Paused)
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
    state.selections.append(
        SelectionRecord(
            node=node_id,
            cell=choice.cell,
            visiting=choice.visiting,
            fallback=choice.fallback,
        )
    )
    state.waypoints.append(WaypointRecord(now, node_id, origin.x, origin.y, "depart"))
    state.schedule(arrive_at, ARRIVAL, node_id)


def handle_arrival(state: SimulationState, node_id: int) -> None:
    """Destination reached: signal the arrival, then pause."""
    node = state.nodes[node_id]
    assert isinstance(node.phase, Moving)
    now = state.now
    cell = node.phase.target_cell
    node.position = node.phase.target
    state.waypoints.append(WaypointRecord(now, node_id, node.position.x, node.position.y, "arrive"))
    state.tracker.on_arrival_signal(state.nodes, node_id, cell, now)
    state.tracker.node_paused(node_id, cell, now)
    wait = draw_wait_time(state.params.wait, state.rngs[node_id])
    node.phase = Paused(cell=cell, until=now + wait, since=now)
    state.schedule(now + wait, DEPARTURE, node_id)


def position_at(node: NodeState, t: float) -> Point2D:
    """Analytic position of a node at time t within its current phase."""
    phase = node.phase
    if isinstance(phase, Paused):
        if not (phase.since <= t <= phase.until):
            raise ValueError(f"t={t} outside pause [{phase.since}, {phase.until}]")
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
    if until < state.now:
        raise ValueError(f"until={until} is before now={state.now}")
    handlers = {DEPARTURE: handle_departure, ARRIVAL: handle_arrival}
    while state.queue and state.queue[0][0] <= until:
        time, _seq, kind, node_id = heapq.heappop(state.queue)
        state.now = time
        handlers[kind](state, node_id)
        state.events_processed += 1
    state.now = until
    state.tracker.finish(until)
    state.finished = True
    return SimulationReport(
        params=state.params,
        location_map=state.location_map,
        end_time=until,
        events_processed=state.events_processed,
        waypoints=state.waypoints,
        contacts=state.tracker.records,
        pauses=state.tracker.pauses,
        selections=state.selections,
        seen=state.seen,
    )


def simulate(params: ModelParams, locations_path=None) -> SimulationReport:
    """Initialize and run a full scenario in one call."""
    state = initialize(params, locations_path=locations_path)
    return run(state, until=params.sim_duration)
