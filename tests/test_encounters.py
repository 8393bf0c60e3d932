import math
import tracemalloc

import numpy as np
import pytest

from support import contact_rows, lone_node, seen_dict

from swimsim import outputs
from swimsim.encounters import ContactTracker
from swimsim.engine import initialize, run, simulate
from swimsim.grid import AreaBounds, Point2D, build_grid
from swimsim.metrics import metrics_report
from swimsim.mobility import (
    ModelParams,
    PowerLawWait,
    UniformWait,
)
from swimsim.outputs import write_contacts_csv

AREA = AreaBounds(400.0, 400.0)


def make_params(**overrides):
    base = dict(
        alpha=0.3,
        speed=1.4,
        neighbour_limit=300.0,
        n_locations=21,
        area=AREA,
        wait=UniformWait(2.0, 5.0),
        node_count=5,
        sim_duration=5000.0,
        seed=3,
    )
    base.update(overrides)
    return ModelParams(**base)


def make_nodes(count, params=None):
    """`count` nodes, each with its own seen counters, as in a run."""
    params = params or make_params(node_count=count)
    location_map = build_grid(params.area, params.n_locations)
    return [lone_node(i, Point2D(10.0, 10.0), location_map, params) for i in range(count)]


def tracker_for(nodes, **kwargs):
    """A tracker that counts encounters into the nodes' seen counters, indexed by node id."""
    return ContactTracker([node.seen for node in nodes], **kwargs)


def test_lone_arrival_is_a_noop():
    nodes = make_nodes(2)
    tracker = tracker_for(nodes)
    tracker.on_arrival_signal(0, 3, 1.0, 4.0)
    assert nodes[0].seen.total == 0
    assert nodes[1].seen.total == 0
    assert len(tracker.records) == 0


def test_pair_arrival_opens_contact():
    nodes = make_nodes(2)
    tracker = tracker_for(nodes)
    tracker.on_arrival_signal(0, 3, 1.0, 6.0)
    tracker.on_arrival_signal(1, 3, 2.5, 8.0)
    assert len(tracker.records) == 1
    record = tracker.records[0]
    assert (record.a, record.b, record.cell, record.start) == (0, 1, 3, 2.5)
    assert math.isnan(record.end)  # ends at 6.0, after the latest signal
    assert seen_dict(nodes[1].seen) == {3: 1}
    tracker.on_departure_signal(0, 3, 6.0)  # settles the bystander's counts
    assert seen_dict(nodes[0].seen) == {3: 1}


def test_arrival_with_two_paused_counts_both():
    nodes = make_nodes(3)
    tracker = tracker_for(nodes)
    for node_id in (0, 1):
        tracker.on_arrival_signal(node_id, 5, 1.0, 20.0)
    tracker.on_arrival_signal(2, 5, 4.0, 20.0)
    assert seen_dict(nodes[2].seen) == {5: 2}
    tracker.finish(10.0)  # settles the bystanders' counts
    assert seen_dict(nodes[0].seen) == {5: 2}  # one from node 1 arriving, one from node 2
    assert seen_dict(nodes[1].seen) == {5: 2}
    assert len(tracker.records) == 3


def test_nodes_elsewhere_ignore_signal():
    nodes = make_nodes(3)
    tracker = tracker_for(nodes)
    tracker.on_arrival_signal(0, 2, 1.0, 6.0)
    tracker.on_arrival_signal(1, 9, 2.0, 6.0)
    tracker.finish(10.0)
    assert nodes[0].seen.total == 0
    assert nodes[1].seen.total == 0
    assert len(tracker.records) == 0


def test_bystanders_only_mode():
    nodes = make_nodes(2)
    tracker = tracker_for(nodes, seen_update="bystanders_only")
    tracker.on_arrival_signal(0, 3, 1.0, 12.0)
    tracker.on_arrival_signal(1, 3, 2.0, 15.0)
    tracker.finish(10.0)  # settles the bystander's counts
    assert seen_dict(nodes[0].seen) == {3: 1}  # bystander still updates
    assert seen_dict(nodes[1].seen) == {}  # arriving node does not
    assert len(tracker.records) == 1


def test_departure_closes_overlap():
    nodes = make_nodes(2)
    tracker = tracker_for(nodes)
    tracker.on_arrival_signal(0, 3, 1.0, 6.0)
    tracker.on_arrival_signal(1, 3, 2.0, 8.0)
    tracker.on_departure_signal(0, 3, 6.0)
    record = tracker.records[0]
    assert (record.start, record.end, record.censored) == (2.0, 6.0, False)
    # second departure has nothing left to close
    tracker.on_departure_signal(1, 3, 8.0)
    assert len(tracker.records) == 1


def test_zero_length_overlap_kept():
    # arrival processed just before the other's departure at the same time
    nodes = make_nodes(2)
    tracker = tracker_for(nodes)
    tracker.on_arrival_signal(0, 3, 1.0, 5.0)
    tracker.on_arrival_signal(1, 3, 5.0, 9.0)
    tracker.on_departure_signal(0, 3, 5.0)
    record = tracker.records[0]
    assert record.start == record.end == 5.0
    assert not record.censored


def test_finish_censors_open_contacts():
    nodes = make_nodes(2)
    tracker = tracker_for(nodes)
    tracker.on_arrival_signal(0, 3, 1.0, 12.0)
    tracker.on_arrival_signal(1, 3, 2.0, 15.0)
    tracker.finish(10.0)
    record = tracker.records[0]
    assert (record.end, record.censored) == (10.0, True)


def test_bystander_counts_settle_at_departure():
    nodes = make_nodes(3)
    tracker = tracker_for(nodes)
    tracker.on_arrival_signal(0, 5, 1.0, 9.0)
    tracker.on_arrival_signal(1, 5, 2.0, 3.0)
    tracker.on_departure_signal(1, 5, 3.0)
    tracker.on_arrival_signal(2, 5, 4.0, 6.0)
    tracker.on_arrival_signal(1, 2, 5.0, 8.0)  # no one else at cell 2
    tracker.on_departure_signal(2, 5, 6.0)
    tracker.on_departure_signal(1, 2, 8.0)
    tracker.on_departure_signal(0, 5, 9.0)  # met 1 and then 2 while paused
    assert [seen_dict(node.seen) for node in nodes] == [{5: 2}, {5: 1}, {5: 1}]
    assert [node.seen.total for node in nodes] == [2, 1, 1]
    assert sorted(tracker.records.tolist()) == [
        (0, 1, 5, 2.0, 3.0, False),
        (0, 2, 5, 4.0, 6.0, False),
    ]


def test_departure_of_a_node_not_paused_there_is_ignored():
    nodes = make_nodes(2)
    tracker = tracker_for(nodes)
    tracker.on_arrival_signal(0, 3, 1.0, 6.0)
    tracker.on_departure_signal(1, 3, 2.0)
    tracker.on_departure_signal(0, 4, 2.0)
    tracker.on_arrival_signal(1, 3, 2.5, 8.0)
    assert [(r.a, r.b, r.cell, r.start) for r in tracker.records] == [(0, 1, 3, 2.5)]
    with pytest.raises(ValueError, match="already paused"):
        tracker.on_arrival_signal(1, 3, 3.0, 9.0)


def test_seen_sum_identity_on_run():
    report = simulate(make_params())
    assert int(report.seen.sum()) == 2 * len(report.contacts)


def test_seen_sum_identity_bystanders_only():
    report = simulate(make_params(seen_update="bystanders_only"))
    assert int(report.seen.sum()) == len(report.contacts)


def test_contacts_csv_format(tmp_path):
    report = simulate(make_params(sim_duration=2000.0))
    path = tmp_path / "contacts.csv"
    write_contacts_csv(report.contacts, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,cell,start,end,censored"
    assert len(lines) == 1 + len(report.contacts)
    for line, record in zip(lines[1:], report.contacts):
        a, b, cell, start, end, censored = line.split(",")
        assert (int(a), int(b), int(cell)) == (record.a, record.b, record.cell)
        assert start == f"{record.start:.6f}"
        assert censored in ("0", "1")


def test_contacts_csv_matches_row_formatting(tmp_path, monkeypatch):
    # shared event times, ids past 9, both flags and a part-filled last
    # chunk, against per-row formatting
    monkeypatch.setattr(outputs, "ROWS_PER_WRITE", 7)
    rng = np.random.default_rng(7)
    times = rng.uniform(0.0, 1e4, size=12)
    rows = []
    for _ in range(300):
        a, b = sorted(rng.choice(40, size=2, replace=False).tolist())
        start, end = sorted(rng.choice(times, size=2).tolist())
        rows.append((a, b, int(rng.integers(0, 30)), start, end, bool(rng.random() < 0.3)))
    expected = "a,b,cell,start,end,censored\n" + "".join(
        f"{a},{b},{cell},{start:.6f},{end:.6f},{int(censored)}\n"
        for a, b, cell, start, end, censored in rows
    )
    path = tmp_path / "contacts.csv"
    write_contacts_csv(contact_rows(rows), path)
    assert path.read_text() == expected


def test_contacts_csv_rejects_open_contacts(tmp_path):
    with pytest.raises(ValueError, match="open contacts"):
        write_contacts_csv(contact_rows([(0, 1, 3, 2.0, math.nan, False)]),
                           tmp_path / "contacts.csv")


def test_contacts_csv_memory_follows_the_ids_held(tmp_path):
    # the text of every id up to 10**6 would take about 64 MB
    path = tmp_path / "contacts.csv"
    log = contact_rows([(0, 10**6, 10**6, 1.0, 2.0, False)])
    tracemalloc.start()
    try:
        write_contacts_csv(log, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert path.read_text() == "a,b,cell,start,end,censored\n0,1000000,1000000,1.000000,2.000000,0\n"


def test_records_snapshot_survives_later_signals():
    # records reads the tracker's columns through views; they must be
    # released on return, or the next signal could not grow the columns
    rng = np.random.default_rng(5)
    signals, paused, now = [], {}, 0.0
    for _ in range(400):
        now += float(rng.uniform(0.0, 2.0))
        node = int(rng.integers(0, 8))
        if node in paused:
            signals.append(("on_departure_signal", (node, paused.pop(node), now)))
        else:
            paused[node] = cell = int(rng.integers(0, 2))
            signals.append(("on_arrival_signal", (node, cell, now, now + float(rng.uniform(1.0, 30.0)))))

    def replay(tracker, steps):
        for name, args in steps:
            getattr(tracker, name)(*args)

    tracker = tracker_for(make_nodes(8))
    replay(tracker, signals[:200])
    snapshot = tracker.records
    kept = snapshot.copy()
    replay(tracker, signals[200:])
    tracker.finish(now)
    fresh = tracker_for(make_nodes(8))
    replay(fresh, signals)
    fresh.finish(now)
    # bytes, since an open contact's end is NaN
    assert snapshot.tobytes() == kept.tobytes()
    assert len(tracker.records) > len(snapshot) > 0
    assert tracker.records.tobytes() == fresh.records.tobytes()


def test_contact_pipeline_peak_per_contact(tmp_path, monkeypatch):
    # 200 nodes in 4 cells with heavy-tailed pauses meet about 47 000 times
    # in 2 000 s. Each stage's tracemalloc peak above what is live when it
    # starts, per contact: a log row is 41 bytes, and an index or column as
    # long as the log is 8, so these bounds leave room for few of them
    params = make_params(
        node_count=200, n_locations=4, wait=PowerLawWait(1.5, 10.0, 3600.0), sim_duration=2000.0
    )
    state = initialize(params)
    report = run(state, params.sim_duration)
    n = len(report.contacts)
    assert n >= 20_000
    # the writer holds one chunk's text at a time; fewer rows per write
    # keep that small against the log, so that what grows with it shows
    monkeypatch.setattr(outputs, "ROWS_PER_WRITE", 256)

    def peak_per_contact(stage, *args):
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            stage(*args)
            return (tracemalloc.get_traced_memory()[1] - live) / n
        finally:
            tracemalloc.stop()

    assert peak_per_contact(lambda: state.tracker.records) <= 41 + 16
    assert peak_per_contact(metrics_report, report.contacts, report.selections) <= 44
    assert peak_per_contact(write_contacts_csv, report.contacts, tmp_path / "contacts.csv") <= 8
