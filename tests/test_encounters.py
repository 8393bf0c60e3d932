from itertools import combinations

import numpy as np

from swimsim.encounters import ContactTracker
from swimsim.engine import simulate
from swimsim.grid import AreaBounds, Point2D, build_grid
from swimsim.mobility import ModelParams, UniformWait, make_node_state
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
    params = params or make_params(node_count=count)
    location_map = build_grid(params.area, params.n_locations)
    return [
        make_node_state(i, Point2D(10.0, 10.0), location_map, params)
        for i in range(count)
    ]


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
    tracker = ContactTracker()
    tracker.on_arrival_signal(nodes, 0, 3, 1.0)
    tracker.node_paused(0, 3, 1.0)
    assert nodes[0].seen.sum() == 0
    assert nodes[1].seen.sum() == 0
    assert tracker.records == []


def test_pair_arrival_opens_contact():
    nodes = make_nodes(2)
    tracker = ContactTracker()
    tracker.on_arrival_signal(nodes, 0, 3, 1.0)
    tracker.node_paused(0, 3, 1.0)
    tracker.on_arrival_signal(nodes, 1, 3, 2.5)
    tracker.node_paused(1, 3, 2.5)
    assert nodes[0].seen[3] == 1
    assert nodes[1].seen[3] == 1
    assert len(tracker.records) == 1
    record = tracker.records[0]
    assert (record.a, record.b, record.cell, record.start) == (0, 1, 3, 2.5)
    assert record.end is None


def test_arrival_with_two_paused_counts_both():
    nodes = make_nodes(3)
    tracker = ContactTracker()
    for node_id in (0, 1):
        tracker.on_arrival_signal(nodes, node_id, 5, 1.0)
        tracker.node_paused(node_id, 5, 1.0)
    tracker.on_arrival_signal(nodes, 2, 5, 4.0)
    tracker.node_paused(2, 5, 4.0)
    assert nodes[2].seen[5] == 2
    assert nodes[0].seen[5] == 2  # one from node 1 arriving, one from node 2
    assert nodes[1].seen[5] == 2
    assert len(tracker.records) == 3


def test_nodes_elsewhere_ignore_signal():
    nodes = make_nodes(3)
    tracker = ContactTracker()
    tracker.on_arrival_signal(nodes, 0, 2, 1.0)
    tracker.node_paused(0, 2, 1.0)
    tracker.on_arrival_signal(nodes, 1, 9, 2.0)
    tracker.node_paused(1, 9, 2.0)
    assert nodes[0].seen.sum() == 0
    assert nodes[1].seen.sum() == 0
    assert tracker.records == []


def test_bystanders_only_mode():
    nodes = make_nodes(2)
    tracker = ContactTracker(seen_update="bystanders_only")
    tracker.on_arrival_signal(nodes, 0, 3, 1.0)
    tracker.node_paused(0, 3, 1.0)
    tracker.on_arrival_signal(nodes, 1, 3, 2.0)
    tracker.node_paused(1, 3, 2.0)
    assert nodes[0].seen[3] == 1  # bystander still updates
    assert nodes[1].seen[3] == 0  # arriving node does not
    assert len(tracker.records) == 1


def test_departure_closes_overlap():
    nodes = make_nodes(2)
    tracker = ContactTracker()
    tracker.on_arrival_signal(nodes, 0, 3, 1.0)
    tracker.node_paused(0, 3, 1.0)
    tracker.on_arrival_signal(nodes, 1, 3, 2.0)
    tracker.node_paused(1, 3, 2.0)
    tracker.on_departure_signal(0, 3, 6.0)
    record = tracker.records[0]
    assert (record.start, record.end, record.censored) == (2.0, 6.0, False)
    # second departure has nothing left to close
    tracker.on_departure_signal(1, 3, 8.0)
    assert len(tracker.records) == 1


def test_zero_length_overlap_kept():
    # arrival processed just before the other's departure at the same time
    nodes = make_nodes(2)
    tracker = ContactTracker()
    tracker.on_arrival_signal(nodes, 0, 3, 1.0)
    tracker.node_paused(0, 3, 1.0)
    tracker.on_arrival_signal(nodes, 1, 3, 5.0)
    tracker.node_paused(1, 3, 5.0)
    tracker.on_departure_signal(0, 3, 5.0)
    record = tracker.records[0]
    assert record.start == record.end == 5.0
    assert not record.censored


def test_finish_censors_open_contacts():
    nodes = make_nodes(2)
    tracker = ContactTracker()
    tracker.on_arrival_signal(nodes, 0, 3, 1.0)
    tracker.node_paused(0, 3, 1.0)
    tracker.on_arrival_signal(nodes, 1, 3, 2.0)
    tracker.node_paused(1, 3, 2.0)
    tracker.finish(10.0)
    record = tracker.records[0]
    assert (record.end, record.censored) == (10.0, True)
    pauses = {p.node: p for p in tracker.pauses}
    assert pauses[0].censored and pauses[0].end == 10.0


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

    from swimsim.engine import DEPARTURE, handle_arrival, handle_departure, initialize

    params = make_params(sim_duration=1000.0)
    state = initialize(params)
    previous = np.stack([n.seen for n in state.nodes]).copy()
    while state.queue and state.queue[0][0] <= params.sim_duration:
        time, _seq, kind, node_id = heapq.heappop(state.queue)
        state.now = time
        if kind == DEPARTURE:
            handle_departure(state, node_id)
        else:
            handle_arrival(state, node_id)
        current = np.stack([n.seen for n in state.nodes])
        assert (current >= previous).all()
        previous = current.copy()


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
