import dataclasses
import gc
import io
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from support import add_row, lone_node, selection_counts

from swimsim import cli, engine, metrics_report, outputs, selection_stats
from swimsim.encounters import ContactTracker
from swimsim.engine import (
    PAUSE_DTYPE,
    SELECTION_DTYPE,
    TRACE_ROWS,
    WAYPOINT_DTYPE,
    SimulationState,
    initialize,
    position_at,
    run,
    simulate,
)
from swimsim.grid import AreaBounds, LocationClass, Point2D, build_grid, cell_of, classify_locations
from swimsim.mobility import (
    BLOCK,
    ModelParams,
    UniformStream,
    UniformWait,
    node_stream,
)

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


class FakeUniforms:
    """Stands in for a node's UniformStream and plays back scripted draws, so
    a trip can be forced exactly.

    A trip's row, `take(5)`, takes its step-1 and step-2 uniforms from
    `randoms`, its target from `uniforms`, an x and a y turned into
    fractions of the cell that holds them, and then its pause's uniform
    from `randoms`. A script whose last trip ends past the horizon leaves
    that pause out, and NaN stands in for its uniform.
    """

    def __init__(self, randoms, uniforms, location_map):
        self.randoms = list(randoms)
        self.uniforms = list(uniforms)
        self.location_map = location_map

    def take(self, k):
        assert k == 5
        x, y = self.uniforms.pop(0), self.uniforms.pop(0)
        row, col = divmod(cell_of(self.location_map, Point2D(x, y)), self.location_map.cols)
        xs, ys = self.location_map.x_edges, self.location_map.y_edges
        fx = (x - xs[col]) / (xs[col + 1] - xs[col])
        fy = (y - ys[row]) / (ys[row + 1] - ys[row])
        u, r = self.randoms.pop(0), self.randoms.pop(0)
        return [u, r, fx, fy, self.randoms.pop(0) if self.randoms else math.nan]


def scripted_state(position, randoms, uniforms, **param_overrides):
    params = make_params(
        alpha=1.0, n_locations=4, neighbour_limit=AREA.diagonal,
        node_count=1, **param_overrides,
    )
    location_map = build_grid(params.area, params.n_locations)
    node = lone_node(0, position, location_map, params)  # paused at home over [0, 0]
    state = SimulationState(
        params=params,
        location_map=location_map,
        nodes=[node],
        uniforms=[FakeUniforms(randoms, uniforms, location_map)],
        tracker=ContactTracker([node.seen], params.seen_update),
    )
    state.queue, state.seq = [(0.0, 0, 0)], 1
    return state


def test_initialize_single_node():
    state = initialize(make_params(node_count=1))
    assert state.now == 0.0
    assert len(state.queue) == 1
    time, _seq, node_id = state.queue[0]
    assert node_id == 0
    assert 2.0 <= time <= 5.0
    node = state.nodes[0]
    assert node.paused and node.cell == node.home


def test_initialize_home_classes():
    params = make_params(node_count=20)
    state = initialize(params)
    for node in state.nodes:
        classes = classify_locations(state.location_map, node.home, params.neighbour_limit)
        assert classes[node.home] is LocationClass.HOME
        assert classes.count(LocationClass.HOME) == 1
        assert AREA.contains(Point2D(node.x, node.y))


def test_initialize_uniform_positions():
    n = 1000
    state = initialize(make_params(node_count=n))
    xs = np.array([node.x for node in state.nodes])
    ys = np.array([node.y for node in state.nodes])
    sigma = 400.0 / math.sqrt(12 * n)
    assert abs(xs.mean() - 200.0) < 3 * sigma
    assert abs(ys.mean() - 200.0) < 3 * sigma


def test_forced_trip_travel_time():
    # 140 m at 1.4 m/s takes 100 s
    state = scripted_state(Point2D(10.0, 10.0), randoms=[0.0, 0.0], uniforms=[150.0, 10.0])
    run(state, until=50.0)
    node = state.nodes[0]
    assert not node.paused
    assert node.cell == 0
    assert node.end == pytest.approx(100.0)
    assert state.queue == [(pytest.approx(100.0), 1, 0)]  # the node's arrival, its one event


def test_zero_length_trip():
    # destination exactly the current position: arrival at the same
    # timestamp with a later seq, depart/arrive rows identical
    state = scripted_state(
        Point2D(10.0, 10.0), randoms=[0.0, 0.0, 0.5], uniforms=[10.0, 10.0]
    )
    depart_seq = state.queue[0][1]
    report = run(state, until=0.0)
    assert report.events_processed == 2
    assert [w.arrive for w in report.waypoints] == [False, True]
    depart, arrive = report.waypoints
    assert depart.time == arrive.time == 0.0
    assert (depart.x, depart.y) == (arrive.x, arrive.y) == (10.0, 10.0)
    assert state.queue[0][1] > depart_seq  # pending departure got a later seq


def test_position_at_interpolation():
    node = lone_node(0, Point2D(0.0, 0.0), build_grid(AREA, 4), make_params())
    # a trip from (0, 0) over [10, 110] to (140, 0)
    node.paused, node.cell, node.start, node.end = False, 0, 10.0, 110.0
    node.tx, node.ty = 140.0, 0.0
    assert position_at(node, 10.0) == Point2D(0.0, 0.0)
    assert position_at(node, 110.0) == Point2D(140.0, 0.0)
    mid = position_at(node, 60.0)
    assert (mid.x, mid.y) == (pytest.approx(70.0), pytest.approx(0.0))
    with pytest.raises(ValueError):
        position_at(node, 9.9)
    with pytest.raises(ValueError):
        position_at(node, 110.1)
    node.paused, node.cell, node.start, node.end = True, 0, 5.0, 20.0
    node.x, node.y = 3.0, 4.0
    assert position_at(node, 12.0) == Point2D(3.0, 4.0)
    with pytest.raises(ValueError):
        position_at(node, 4.0)


def trips_from_waypoints(waypoints):
    by_node = {}
    for w in waypoints:
        by_node.setdefault(w.node, []).append(w)
    trips = []
    for records in by_node.values():
        arrives = [w.arrive for w in records]
        assert arrives == [False, True] * (len(records) // 2) + (
            [False] if len(records) % 2 else []
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


def test_run_censors_pauses_open_at_the_horizon():
    # waits are at least 2 s, so at t = 1 every node is still in its first pause
    state = initialize(make_params())
    report = run(state, until=1.0)
    assert [(p.node, p.cell, p.start, p.end, p.censored) for p in report.pauses] == [
        (node.id, node.home, 0.0, 1.0, True) for node in state.nodes
    ]
    # at t = 3.5 some nodes have left home and the others' first pause
    # outlasts the horizon: those have no waypoint at all
    state = initialize(make_params())
    departures = [node.end for node in state.nodes]
    report = run(state, until=3.5)
    assert min(departures) < 3.5 < max(departures)
    assert [(p.node, p.cell, p.start, p.end, p.censored) for p in report.pauses] == [
        (node.id, node.home, 0.0, min(end, 3.5), end > 3.5)
        for node, end in zip(state.nodes, departures)
    ]
    # pauses about as long as trips, so some nodes are paused at the horizon
    params = make_params(wait=UniformWait(20.0, 200.0))
    state = initialize(params)
    report = run(state, until=params.sim_duration)
    still_paused = [node for node in state.nodes if node.paused]
    censored = [p for p in report.pauses if p.censored]
    assert still_paused
    assert sorted(p.item() for p in censored) == sorted(
        (node.id, node.cell, node.start, node.end, True) for node in still_paused
    )
    assert all(p.end == params.sim_duration for p in censored)
    assert all(p.end <= params.sim_duration for p in report.pauses)


def test_pauses_rebuilt_from_waypoints_and_selections():
    # each node's first pause is at home from t = 0; every later one starts
    # at an arrival in the cell its last selection chose; each ends at the
    # node's next departure, or censored at the horizon
    params = make_params(wait=UniformWait(20.0, 200.0))
    state = initialize(params)
    report = run(state, until=params.sim_duration)
    last_arrives = {w.node: w.arrive for w in report.waypoints}
    assert sorted(set(last_arrives.values())) == [False, True]
    expected = {node.id: [[node.home, 0.0, params.sim_duration, True]] for node in state.nodes}
    selections = {
        node.id: iter([s for s in report.selections if s.node == node.id]) for node in state.nodes
    }
    for w in report.waypoints:
        pauses = expected[w.node]
        if not w.arrive:
            pauses[-1][2:] = [w.time, False]
        else:
            cell = next(selections[w.node]).cell
            pauses.append([cell, w.time, params.sim_duration, True])
    got = {node.id: [] for node in state.nodes}
    for p in report.pauses:
        got[p.node].append([p.cell, p.start, p.end, p.censored])
    assert got == expected


def test_run_determinism():
    params = make_params()
    a = simulate(params)
    b = simulate(params)
    assert a.waypoints.tolist() == b.waypoints.tolist()
    assert [(c.a, c.b, c.cell, c.start, c.end, c.censored) for c in a.contacts] == [
        (c.a, c.b, c.cell, c.start, c.end, c.censored) for c in b.contacts
    ]
    assert a.selections.tolist() == b.selections.tolist()
    assert np.array_equal(a.seen, b.seen)


def test_run_zero_horizon(tmp_path):
    state = initialize(make_params(node_count=3))
    report = run(state, until=0.0)
    assert report.events_processed == 0
    assert len(report.contact_log) == 0
    assert report.waypoints.tolist() == []
    # with no waypoint, the pause log is each node's pause at home, censored at 0
    assert report.pauses.tolist() == [(node.id, node.home, 0.0, 0.0, True) for node in state.nodes]
    # a zero-event report goes through the summaries and the trace writer
    stats = selection_stats(report.selection_counts)
    assert (stats.total, stats.near_fraction, stats.visiting_fraction) == (0, 0.0, 0.0)
    assert stats.per_node == {}
    selection = metrics_report(report.contact_log, report.selection_counts)["selection"]
    assert selection["total"] == 0 and selection["per_node"] == {}
    assert selection["neighbouring_fraction"] == selection["visiting_fraction"] == 0.0
    path = tmp_path / "waypoints.csv"
    outputs.write_waypoints(report.waypoints, path)
    assert path.read_text() == "time,node,x,y,event\n"


def test_logs_are_record_arrays_with_pinned_fields():
    report = simulate(make_params(sim_duration=200.0))
    node = lone_node(0, Point2D(10.0, 10.0), report.location_map, report.params)
    tracker = ContactTracker([node.seen])
    logs = (report.waypoints, report.selections, report.contacts, tracker.finish(0.0).records)
    assert [log.dtype.names for log in logs] == [
        ("time", "node", "x", "y", "arrive"),
        ("node", "cell", "visiting", "fallback", "start", "end"),
        ("a", "b", "cell", "start", "end", "censored"),
        ("a", "b", "cell", "start", "end", "censored"),
    ]
    assert all(isinstance(log, np.recarray) for log in logs)
    # packed: each row is the sum of its fields' sizes
    assert [log.itemsize for log in logs] == [33, 34, 41, 41]
    assert len(report.waypoints) and len(report.selections) and len(report.contacts)


def test_pause_log_is_a_record_array_with_pinned_fields():
    report = simulate(make_params(sim_duration=200.0))
    pauses = report.pauses
    assert isinstance(pauses, np.recarray)
    assert pauses.dtype == PAUSE_DTYPE
    assert pauses.dtype.names == ("node", "cell", "start", "end", "censored")
    assert pauses.itemsize == 33  # packed, like the other logs
    # rows read by field name, as the acceptance oracles read them
    first = pauses[0]
    assert (first.node, first.start, first.censored) == (0, 0.0, False)
    assert first.cell == pauses.cell[0] and 2.0 <= first.end <= 5.0


def test_run_keeps_no_object_per_event():
    # the live objects a run leaves behind, with its state and report kept,
    # do not grow with the horizon: no phase, point or pause object per event
    def objects_held(until):
        gc.collect()
        before = len(gc.get_objects())
        state = initialize(make_params(sim_duration=until))
        report = run(state, until=until)
        gc.collect()
        held = len(gc.get_objects()) - before
        assert state.nodes and report.events_processed  # both alive up to the count
        return held, report.events_processed

    objects_held(100.0)  # fills the process's one-time caches
    short, short_events = objects_held(5000.0)
    long, long_events = objects_held(20000.0)
    assert long_events > 3 * short_events
    assert abs(long - short) <= 50


# shaped like the wide-grid benchmark (40 m cells, few contacts)
WIDE_PARAMS = make_params(
    area=AreaBounds(1000.0, 1000.0), n_locations=625, node_count=250, sim_duration=10_000.0
)


def measure_run(params, trace):
    """A run's report, and the bytes it keeps and at most holds above what was
    live before it, by tracemalloc."""
    state = initialize(params)
    gc.collect()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        report = run(state, params.sim_duration, trace)
        kept, peak = (size - live for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return report, kept, peak


def test_run_peak_and_kept_per_event(tmp_path, monkeypatch):
    # a run of about 14 000 events. Above what is live before it, per event,
    # the report keeps a 33-byte waypoint row and, per departure (every
    # other event), a 34-byte selection row; at its peak, `run` also holds
    # one chunk of each log. A text event column, a pause log built
    # eagerly or the loop's columns kept after `run` returns would not fit
    report, kept, peak = measure_run(WIDE_PARAMS, True)
    events = report.events_processed
    assert events >= 10_000
    assert peak / events <= 110
    assert kept / events <= 65
    # a trace handed to a sink is not kept, and neither is the selection
    # log: the report keeps per-node counts, and the run holds one chunk of
    # each log at a time (37 and 11 bytes per event when measured)
    streamed, kept, peak = measure_run(WIDE_PARAMS, lambda chunk: None)
    assert streamed.events_processed == events
    assert peak / events <= 45
    assert kept / events <= 15
    # the pause log is built only when read: not by a run, its metrics or
    # the writers of `swimsim run`
    metrics_report(report.contact_log, report.selection_counts)
    assert "pauses" not in vars(report)
    reports = []

    def simulate_kept(params, trace):
        reports.append(simulate(params, trace))
        return reports[-1]

    monkeypatch.setattr(cli, "simulate", simulate_kept)
    config = tmp_path / "scenario.conf"
    config.write_text(
        "neighbourLocationLimit = 300\nspeed = 1.4\nmaxAreaX = 400\nmaxAreaY = 400\n"
        "waitTime = uniform(2,5)\nalpha = 0.3\nnoOfLocations = 21\nnodeCount = 5\n"
        "simDuration = 2000\nseed = 11\n"
    )
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    (report,) = reports
    # `swimsim run` streams its trace, so its run keeps no selection log to build pauses from
    assert report.events_processed and "pauses" not in vars(report)
    assert report.pauses.tolist() == [] and report.selections.tolist() == []


def test_streamed_run_peak_is_flat_in_the_horizon():
    # a run that keeps no log holds one chunk of each at a time, so four
    # times the horizon, and four times the events, barely moves its peak
    short, _, short_peak = measure_run(WIDE_PARAMS, lambda chunk: None)
    params = dataclasses.replace(WIDE_PARAMS, sim_duration=4 * WIDE_PARAMS.sim_duration)
    long, _, long_peak = measure_run(params, lambda chunk: None)
    assert long.events_processed > 3.5 * short.events_processed
    assert long_peak <= 1.15 * short_peak


def test_trace_is_kept_streamed_in_chunks_or_skipped():
    # more events, and more departures, than a chunk holds, and neither a
    # whole number of chunks
    params = make_params(sim_duration=40_000.0)
    kept = simulate(params)
    assert len(kept.waypoints) > TRACE_ROWS and len(kept.waypoints) % TRACE_ROWS
    assert len(kept.selections) > TRACE_ROWS and len(kept.selections) % TRACE_ROWS
    chunks = []
    streamed = simulate(params, trace=chunks.append)
    assert [len(chunk) for chunk in chunks[:-1]] == [TRACE_ROWS] * (len(chunks) - 1)
    assert 0 < len(chunks[-1]) < TRACE_ROWS
    assert all(isinstance(chunk, np.recarray) and chunk.dtype == WAYPOINT_DTYPE for chunk in chunks)
    assert np.concatenate(chunks).tolist() == kept.waypoints.tolist()
    skipped = simulate(params, trace=False)
    # a run that does not keep the trace keeps no selection log either, and
    # so no pauses; the counts the metrics read are tallied as the run goes,
    # and the loop counts the events itself
    assert kept.selection_counts.dtype == np.int64
    assert np.array_equal(kept.selection_counts, selection_counts(kept.selections, params.node_count))
    for report in (streamed, skipped):
        assert report.waypoints.tolist() == []
        assert report.selections.tolist() == [] and report.pauses.tolist() == []
        assert np.array_equal(report.selection_counts, kept.selection_counts)
        assert report.contacts.tolist() == kept.contacts.tolist()
        assert np.array_equal(report.seen, kept.seen)
        assert report.events_processed == kept.events_processed == len(kept.waypoints)
    arrived = np.count_nonzero(kept.selections.end <= params.sim_duration)
    assert len(kept.pauses) == params.node_count + arrived


def test_only_a_kept_trace_builds_a_selection_log(monkeypatch):
    # the loop tallies each departure where it happens, so a run that does
    # not keep its trace writes no selection row and builds no chunk of them
    params = make_params(sim_duration=40_000.0)
    built = Counter()
    records = engine._records

    def counted_records(dtype, columns):
        built[dtype] += 1
        return records(dtype, columns)

    monkeypatch.setattr(engine, "_records", counted_records)
    for trace in (False, lambda chunk: None):
        report = simulate(params, trace=trace)
        assert report.selection_counts[0].sum() > TRACE_ROWS
        assert built[SELECTION_DTYPE] == 0
    kept = simulate(params)
    assert built[SELECTION_DTYPE] == math.ceil(len(kept.selections) / TRACE_ROWS)


def test_run_rejects_a_trace_it_cannot_hand_out():
    # before the first event: a sink that is not callable would otherwise
    # fail only at the first full chunk, or after the whole run
    params = make_params()
    state = initialize(params)
    for trace in (io.BytesIO(), None, 1):
        with pytest.raises(ValueError, match=r"trace=.* neither True, False nor callable"):
            run(state, params.sim_duration, trace=trace)
    with pytest.raises(ValueError, match="trace="):
        simulate(params, trace=io.BytesIO())
    # the refused runs left the state as it was
    report = run(state, params.sim_duration, trace=False)
    assert report.events_processed == simulate(params, trace=False).events_processed > 0


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
    pending = Counter(node_id for _time, _seq, node_id in state.queue)
    assert pending == {i: 1 for i in range(params.node_count)}


def test_run_is_one_shot():
    state = initialize(make_params(node_count=1))
    run(state, until=10.0)
    with pytest.raises(RuntimeError):
        run(state, until=20.0)
    for until in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="until"):
            run(initialize(make_params(node_count=1)), until=until)


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
        add_row(node.seen, np.arange(21) * 3)  # pre-loaded popularity must not matter
    poked = run(state, until=params.sim_duration)
    assert [(w.time, w.node, w.x, w.y) for w in clean.waypoints] == [
        (w.time, w.node, w.x, w.y) for w in poked.waypoints
    ]
    assert [s.cell for s in clean.selections] == [s.cell for s in poked.selections]


def test_uniform_stream_reads_the_generator_in_order():
    # the home pause's one value, then one row per trip: five values with a
    # drawn wait, four with a fixed one, so rows straddle block ends
    stream, fresh = UniformStream(node_stream(5, 3)), node_stream(5, 3)
    assert stream.random() == fresh.random()
    for i in range(3 * BLOCK):
        k = 4 if i % 3 == 2 else 5
        assert stream.take(k) == fresh.random(k).tolist()


def test_waypoints_csv_matches_row_formatting(tmp_path, monkeypatch):
    # node ids past 9 and a part-filled last chunk, against per-row formatting
    monkeypatch.setattr(outputs, "ROWS_PER_WRITE", 7)
    report = simulate(make_params(node_count=12, sim_duration=300.0))
    assert len(report.waypoints) % 7 and max(w.node for w in report.waypoints) > 9
    path = tmp_path / "waypoints.csv"
    outputs.write_waypoints(report.waypoints, path)
    assert path.read_text() == "time,node,x,y,event\n" + "".join(
        f"{w.time:.6f},{w.node},{w.x:.6f},{w.y:.6f},{'arrive' if w.arrive else 'depart'}\n"
        for w in report.waypoints
    )
