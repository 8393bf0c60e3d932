import heapq
import math
from collections import Counter

import numpy as np
import pytest

from swimsim.encounters import ContactTracker
from swimsim.engine import (
    ARRIVAL,
    DEPARTURE,
    SimulationState,
    handle_arrival,
    handle_departure,
    initialize,
    position_at,
    run,
    simulate,
)
from swimsim.grid import AreaBounds, LocationClass, Point2D, build_grid, classify_locations
from swimsim.mobility import ModelParams, Moving, Paused, UniformWait, make_node_state

AREA = AreaBounds(400.0, 400.0)


def make_params(**overrides):
    base = dict(
        alpha=0.3,
        speed=1.4,
        neighbour_limit=300.0,
        n_locations=21,
        area=AREA,
        wait=UniformWait(2.0, 5.0),
        node_count=10,
        sim_duration=2000.0,
        seed=1,
    )
    base.update(overrides)
    return ModelParams(**base)


class FakeRng:
    """Plays back scripted draws so a trip can be forced exactly.

    `randoms` are played one per `random()` call. A selection's
    `random(4)` takes its step-1 and step-2 uniforms from `randoms` and its
    target from `uniforms`, an x and a y turned into fractions of the cell
    that holds them.
    """

    def __init__(self, randoms, uniforms, location_map):
        self.randoms = list(randoms)
        self.uniforms = list(uniforms)
        self.location_map = location_map

    def random(self, size=None):
        if size is None:
            return self.randoms.pop(0)
        assert size == 4
        x, y = self.uniforms.pop(0), self.uniforms.pop(0)
        cell = self.location_map.cells[self.location_map.cell_of(Point2D(x, y))]
        fx = (x - cell.min_x) / (cell.max_x - cell.min_x)
        fy = (y - cell.min_y) / (cell.max_y - cell.min_y)
        return np.array([self.randoms.pop(0), self.randoms.pop(0), fx, fy])


def scripted_state(position, randoms, uniforms, **param_overrides):
    params = make_params(
        alpha=1.0, n_locations=4, neighbour_limit=AREA.diagonal,
        node_count=1, **param_overrides,
    )
    location_map = build_grid(params.area, params.n_locations)
    node = make_node_state(0, position, location_map, params)
    state = SimulationState(
        params=params,
        location_map=location_map,
        nodes=[node],
        rngs=[FakeRng(randoms, uniforms, location_map)],
        tracker=ContactTracker(params.seen_update),
    )
    node.phase = Paused(cell=node.home, until=0.0, since=0.0)
    state.tracker.node_paused(0, node.home, 0.0)
    state.schedule(0.0, DEPARTURE, 0)
    return state


def test_initialize_single_node():
    state = initialize(make_params(node_count=1))
    assert state.now == 0.0
    assert len(state.queue) == 1
    time, _seq, kind, node_id = state.queue[0]
    assert kind == DEPARTURE and node_id == 0
    assert 2.0 <= time <= 5.0
    node = state.nodes[0]
    assert isinstance(node.phase, Paused)
    assert node.phase.cell == node.home


def test_initialize_home_classes():
    params = make_params(node_count=20)
    state = initialize(params)
    for node in state.nodes:
        classes = classify_locations(state.location_map, node.home, params.neighbour_limit)
        assert classes[node.home] is LocationClass.HOME
        assert classes.count(LocationClass.HOME) == 1
        assert AREA.contains(node.position)


def test_initialize_uniform_positions():
    n = 1000
    state = initialize(make_params(node_count=n))
    xs = np.array([node.position.x for node in state.nodes])
    ys = np.array([node.position.y for node in state.nodes])
    sigma = 400.0 / math.sqrt(12 * n)
    assert abs(xs.mean() - 200.0) < 3 * sigma
    assert abs(ys.mean() - 200.0) < 3 * sigma


def test_initialize_writes_locations_file(tmp_path):
    path = tmp_path / "locations.csv"
    initialize(make_params(node_count=1), locations_path=path)
    assert path.read_text().startswith("# swim-locations v1 rows=3 cols=7")


def test_forced_trip_travel_time():
    # 140 m at 1.4 m/s takes 100 s
    state = scripted_state(Point2D(10.0, 10.0), randoms=[0.0, 0.0], uniforms=[150.0, 10.0])
    heapq.heappop(state.queue)
    state.now = 0.0
    handle_departure(state, 0)
    node = state.nodes[0]
    assert isinstance(node.phase, Moving)
    assert node.phase.target_cell == 0
    assert node.phase.arrive_at == pytest.approx(100.0)
    assert state.queue[0][0] == pytest.approx(100.0)
    assert state.queue[0][2] == ARRIVAL


def test_zero_length_trip():
    # destination exactly the current position: arrival at the same
    # timestamp with a later seq, depart/arrive rows identical
    state = scripted_state(
        Point2D(10.0, 10.0), randoms=[0.0, 0.0, 0.5], uniforms=[10.0, 10.0]
    )
    depart_seq = state.queue[0][1]
    report = run(state, until=0.0)
    assert report.events_processed == 2
    assert [w.event for w in report.waypoints] == ["depart", "arrive"]
    depart, arrive = report.waypoints
    assert depart.time == arrive.time == 0.0
    assert (depart.x, depart.y) == (arrive.x, arrive.y) == (10.0, 10.0)
    assert state.queue[0][1] > depart_seq  # pending departure got a later seq


def test_position_at_interpolation():
    node = make_node_state(0, Point2D(0.0, 0.0), build_grid(AREA, 4), make_params())
    node.phase = Moving(
        origin=Point2D(0.0, 0.0), target=Point2D(140.0, 0.0),
        target_cell=0, depart_at=10.0, arrive_at=110.0,
    )
    assert position_at(node, 10.0) == Point2D(0.0, 0.0)
    assert position_at(node, 110.0) == Point2D(140.0, 0.0)
    mid = position_at(node, 60.0)
    assert (mid.x, mid.y) == (pytest.approx(70.0), pytest.approx(0.0))
    with pytest.raises(ValueError):
        position_at(node, 9.9)
    with pytest.raises(ValueError):
        position_at(node, 110.1)
    node.phase = Paused(cell=0, until=20.0, since=5.0)
    node.position = Point2D(3.0, 4.0)
    assert position_at(node, 12.0) == Point2D(3.0, 4.0)
    with pytest.raises(ValueError):
        position_at(node, 4.0)


def trips_from_waypoints(waypoints):
    by_node = {}
    for w in waypoints:
        by_node.setdefault(w.node, []).append(w)
    trips = []
    for records in by_node.values():
        events = [w.event for w in records]
        assert events == ["depart", "arrive"] * (len(records) // 2) + (
            ["depart"] if len(records) % 2 else []
        )
        times = [w.time for w in records]
        assert times == sorted(times)
        for dep, arr in zip(records[::2], records[1::2]):
            trips.append((dep, arr))
    return trips


def test_run_kinematics_identity():
    report = simulate(make_params())
    trips = trips_from_waypoints(report.waypoints)
    assert trips
    for dep, arr in trips:
        dist = math.hypot(arr.x - dep.x, arr.y - dep.y)
        travel = (arr.time - dep.time) * report.params.speed
        if dist > 0:
            assert abs(travel - dist) / dist < 1e-9
        else:
            assert travel == 0.0


def test_run_finite_difference_speed():
    params = make_params(node_count=3)
    state = initialize(params)
    rng = np.random.default_rng(13)
    checked = 0
    while state.queue and checked < 100:
        time, _seq, kind, node_id = heapq.heappop(state.queue)
        state.now = time
        if kind == DEPARTURE:
            handle_departure(state, node_id)
            node = state.nodes[node_id]
            phase = node.phase
            if phase.arrive_at - phase.depart_at > 1.0:
                dt = 1e-3
                t = float(rng.uniform(phase.depart_at, phase.arrive_at - dt))
                p0 = position_at(node, t)
                p1 = position_at(node, t + dt)
                speed = math.hypot(p1.x - p0.x, p1.y - p0.y) / dt
                assert abs(speed - params.speed) < 1e-6
                checked += 1
        else:
            handle_arrival(state, node_id)
    assert checked == 100


def test_run_determinism():
    params = make_params()
    a = simulate(params)
    b = simulate(params)
    assert a.waypoints == b.waypoints
    assert [(c.a, c.b, c.cell, c.start, c.end, c.censored) for c in a.contacts] == [
        (c.a, c.b, c.cell, c.start, c.end, c.censored) for c in b.contacts
    ]
    assert a.selections == b.selections
    assert np.array_equal(a.seen, b.seen)


def test_run_zero_horizon():
    state = initialize(make_params(node_count=1))
    report = run(state, until=0.0)
    assert report.events_processed == 0
    assert report.contacts == []
    assert report.waypoints == []


def test_run_monotone_horizon():
    short = run(initialize(make_params()), until=1000.0)
    long = run(initialize(make_params()), until=2000.0)
    assert long.events_processed >= short.events_processed


def test_run_clock_monotonic_and_contained():
    report = simulate(make_params())
    times = [w.time for w in report.waypoints]
    assert times == sorted(times)
    for w in report.waypoints:
        assert AREA.contains(Point2D(w.x, w.y))


def test_run_single_pending_event_per_node():
    params = make_params()
    state = initialize(params)
    run(state, until=params.sim_duration)
    pending = Counter(entry[3] for entry in state.queue)
    assert pending == {i: 1 for i in range(params.node_count)}


def test_run_is_one_shot():
    state = initialize(make_params(node_count=1))
    run(state, until=10.0)
    with pytest.raises(RuntimeError):
        run(state, until=20.0)
    with pytest.raises(ValueError):
        run(initialize(make_params(node_count=1)), until=-1.0)


def test_alpha_one_traces_invariant_to_node_count():
    # per-node RNG streams: with alpha=1 a node's trace ignores everyone else
    small = simulate(make_params(alpha=1.0, node_count=2))
    large = simulate(make_params(alpha=1.0, node_count=6))
    for node_id in (0, 1):
        assert [w for w in small.waypoints if w.node == node_id] == [
            w for w in large.waypoints if w.node == node_id
        ]


def test_alpha_one_traces_invariant_to_injected_seen():
    params = make_params(alpha=1.0, node_count=3)
    clean = simulate(params)
    state = initialize(params)
    for node in state.nodes:
        node.seen[:] = np.arange(21) * 3  # pre-loaded popularity must not matter
    poked = run(state, until=params.sim_duration)
    assert [(w.time, w.node, w.x, w.y) for w in clean.waypoints] == [
        (w.time, w.node, w.x, w.y) for w in poked.waypoints
    ]
    assert [s.cell for s in clean.selections] == [s.cell for s in poked.selections]
