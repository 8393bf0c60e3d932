import math
from itertools import combinations

import numpy as np
import pytest

from swimsim import outputs
from swimsim.encounters import ContactRecord, ContactTracker, contact_log
from swimsim.engine import simulate
from swimsim.grid import AreaBounds, Point2D, build_grid
from swimsim.mobility import ModelParams, Paused, UniformWait, make_node_state
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
    return [make_node_state(i, Point2D(10.0, 10.0), location_map, params) for i in range(count)]


def tracker_for(nodes, **kwargs):
    """A tracker that counts encounters into the nodes' seen counters, indexed by node id."""
    return ContactTracker([node.seen for node in nodes], **kwargs)


def brute_force_contacts(pauses):
    """Pairwise intersection of each pair's paused-at-same-cell intervals."""
    by_node = {}
    for p in pauses:
        by_node.setdefault(p.node, []).append(p)
    expected = []
    for a, b in combinations(sorted(by_node), 2):
        for pa in by_node[a]:
            for pb in by_node[b]:
                if pa.cell != pb.cell:
                    continue
                start = max(pa.start, pb.start)
                end = min(pa.end, pb.end)
                if start <= end:
                    expected.append((a, b, pa.cell, start, end, pa.censored and pb.censored))
    return sorted(expected)


def contact_tuples(records):
    return sorted((r.a, r.b, r.cell, r.start, r.end, r.censored) for r in records)


def test_lone_arrival_is_a_noop():
    nodes = make_nodes(2)
    tracker = tracker_for(nodes)
    tracker.on_arrival_signal(0, 3, 1.0)
    assert nodes[0].seen.sum() == 0
    assert nodes[1].seen.sum() == 0
    assert len(tracker.records) == 0


def test_pair_arrival_opens_contact():
    nodes = make_nodes(2)
    tracker = tracker_for(nodes)
    tracker.on_arrival_signal(0, 3, 1.0)
    tracker.on_arrival_signal(1, 3, 2.5)
    assert nodes[0].seen[3] == 1
    assert nodes[1].seen[3] == 1
    assert len(tracker.records) == 1
    record = tracker.records[0]
    assert (record.a, record.b, record.cell, record.start) == (0, 1, 3, 2.5)
    assert math.isnan(record.end)


def test_arrival_with_two_paused_counts_both():
    nodes = make_nodes(3)
    tracker = tracker_for(nodes)
    for node_id in (0, 1):
        tracker.on_arrival_signal(node_id, 5, 1.0)
    tracker.on_arrival_signal(2, 5, 4.0)
    assert nodes[2].seen[5] == 2
    assert nodes[0].seen[5] == 2  # one from node 1 arriving, one from node 2
    assert nodes[1].seen[5] == 2
    assert len(tracker.records) == 3


def test_nodes_elsewhere_ignore_signal():
    nodes = make_nodes(3)
    tracker = tracker_for(nodes)
    tracker.on_arrival_signal(0, 2, 1.0)
    tracker.on_arrival_signal(1, 9, 2.0)
    assert nodes[0].seen.sum() == 0
    assert nodes[1].seen.sum() == 0
    assert len(tracker.records) == 0


def test_bystanders_only_mode():
    nodes = make_nodes(2)
    tracker = tracker_for(nodes, seen_update="bystanders_only")
    tracker.on_arrival_signal(0, 3, 1.0)
    tracker.on_arrival_signal(1, 3, 2.0)
    assert nodes[0].seen[3] == 1  # bystander still updates
    assert nodes[1].seen[3] == 0  # arriving node does not
    assert len(tracker.records) == 1


def test_departure_closes_overlap():
    nodes = make_nodes(2)
    tracker = tracker_for(nodes)
    tracker.on_arrival_signal(0, 3, 1.0)
    tracker.on_arrival_signal(1, 3, 2.0)
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
    tracker.on_arrival_signal(0, 3, 1.0)
    tracker.on_arrival_signal(1, 3, 5.0)
    tracker.on_departure_signal(0, 3, 5.0)
    record = tracker.records[0]
    assert record.start == record.end == 5.0
    assert not record.censored


def test_finish_censors_open_contacts():
    nodes = make_nodes(2)
    tracker = tracker_for(nodes)
    tracker.on_arrival_signal(0, 3, 1.0)
    tracker.on_arrival_signal(1, 3, 2.0)
    tracker.finish(10.0)
    record = tracker.records[0]
    assert (record.end, record.censored) == (10.0, True)


def test_seen_sum_identity_on_run():
    report = simulate(make_params())
    assert int(report.seen.sum()) == 2 * len(report.contacts)


def test_seen_sum_identity_bystanders_only():
    report = simulate(make_params(seen_update="bystanders_only"))
    assert int(report.seen.sum()) == len(report.contacts)


def test_contact_log_matches_interval_oracle():
    for seed in (3, 11, 29):
        report = simulate(make_params(seed=seed))
        assert contact_tuples(report.contacts) == brute_force_contacts(report.pauses)


def test_seen_counters_monotone():
    # replay a run and check counters never decrease
    import heapq

    from swimsim.engine import handle_arrival, handle_departure, initialize

    params = make_params(sim_duration=1000.0)
    state = initialize(params)
    # np.stack reads each node's sparse counters as a dense copy
    previous = np.stack([n.seen for n in state.nodes])
    while state.queue and state.queue[0][0] <= params.sim_duration:
        state.now, _seq, node_id = heapq.heappop(state.queue)
        if isinstance(state.nodes[node_id].phase, Paused):
            handle_departure(state, node_id)
        else:
            handle_arrival(state, node_id)
        current = np.stack([n.seen for n in state.nodes])
        assert (current >= previous).all()
        assert [n.seen.total for n in state.nodes] == current.sum(axis=1).tolist()
        previous = current


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


def test_contact_log_rows_round_trip():
    records = [
        ContactRecord(0, 1, 3, 2.0, 6.0, False),
        ContactRecord(1, 4, 0, 2.0, None, False),
        ContactRecord(2, 3, 7, 5.5, 9.0, True),
    ]
    rows = [(0, 1, 3, 2.0, 6.0, False), (1, 4, 0, 2.0, math.nan, False), (2, 3, 7, 5.5, 9.0, True)]
    log = contact_log(records)
    assert len(log) == 3
    # NaN, an open contact's end, is not equal to itself, so rows compare by their text
    assert repr(log.tolist()) == repr([log[i].item() for i in range(3)]) == repr(rows)
    assert log[-1].item() == rows[-1]
    assert contact_log(log) is log
    assert len(contact_log([])) == 0


def test_contacts_csv_matches_row_formatting(tmp_path, monkeypatch):
    # shared event times, ids past 9, both flags and a part-filled last
    # chunk, against per-row formatting
    monkeypatch.setattr(outputs, "ROWS_PER_WRITE", 7)
    rng = np.random.default_rng(7)
    times = rng.uniform(0.0, 1e4, size=12)
    records = []
    for _ in range(300):
        a, b = sorted(rng.choice(40, size=2, replace=False).tolist())
        start, end = sorted(rng.choice(times, size=2).tolist())
        records.append(ContactRecord(a, b, int(rng.integers(0, 30)), start, end,
                                     bool(rng.random() < 0.3)))
    expected = "a,b,cell,start,end,censored\n" + "".join(
        f"{r.a},{r.b},{r.cell},{r.start:.6f},{r.end:.6f},{int(r.censored)}\n"
        for r in records
    )
    for form in (records, contact_log(records)):
        path = tmp_path / "contacts.csv"
        write_contacts_csv(form, path)
        assert path.read_text() == expected


def test_contacts_csv_rejects_open_contacts(tmp_path):
    with pytest.raises(ValueError, match="open contacts"):
        write_contacts_csv([ContactRecord(0, 1, 3, 2.0)], tmp_path / "contacts.csv")
