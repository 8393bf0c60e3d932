import dataclasses
import gc
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from support import contact_rows, lone_node, seen_dict

from swimsim import cli, encounters, outputs
from swimsim.encounters import ContactLog, ContactTracker
from swimsim.engine import initialize, run, simulate
from swimsim.grid import AreaBounds, Point2D, build_grid
from swimsim.metrics import _pairs, metrics_report
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
    assert len(tracker.finish(4.0)) == 0


def test_pair_arrival_opens_contact():
    nodes = make_nodes(2)
    tracker = tracker_for(nodes)
    tracker.on_arrival_signal(0, 3, 1.0, 6.0)
    tracker.on_arrival_signal(1, 3, 2.5, 8.0)
    # the contact ends at 6.0, after the horizon, so it ends there, censored
    log = tracker.finish(4.0)
    assert len(log) == 1
    record = log.records[0]
    assert (record.a, record.b, record.cell, record.start) == (0, 1, 3, 2.5)
    assert (record.end, record.censored) == (4.0, True)
    # each node counts the other, settled when the run ends
    assert seen_dict(nodes[0].seen) == seen_dict(nodes[1].seen) == {3: 1}


def test_arrival_with_two_paused_counts_both():
    nodes = make_nodes(3)
    tracker = tracker_for(nodes)
    for node_id in (0, 1):
        tracker.on_arrival_signal(node_id, 5, 1.0, 20.0)
    tracker.on_arrival_signal(2, 5, 4.0, 20.0)
    log = tracker.finish(10.0)  # settles every paused node's counts
    assert seen_dict(nodes[0].seen) == {5: 2}  # one from node 1 arriving, one from node 2
    assert seen_dict(nodes[1].seen) == {5: 2}
    assert seen_dict(nodes[2].seen) == {5: 2}  # one per bystander found on arrival
    assert len(log) == 3


def test_nodes_elsewhere_ignore_signal():
    nodes = make_nodes(3)
    tracker = tracker_for(nodes)
    tracker.on_arrival_signal(0, 2, 1.0, 6.0)
    tracker.on_arrival_signal(1, 9, 2.0, 6.0)
    log = tracker.finish(10.0)
    assert nodes[0].seen.total == 0
    assert nodes[1].seen.total == 0
    assert len(log) == 0


def test_bystanders_only_mode():
    nodes = make_nodes(2)
    tracker = tracker_for(nodes, seen_update="bystanders_only")
    tracker.on_arrival_signal(0, 3, 1.0, 12.0)
    tracker.on_arrival_signal(1, 3, 2.0, 15.0)
    log = tracker.finish(10.0)  # settles the bystander's counts
    assert seen_dict(nodes[0].seen) == {3: 1}  # bystander still updates
    assert seen_dict(nodes[1].seen) == {}  # arriving node does not
    assert len(log) == 1


def test_departure_closes_overlap():
    nodes = make_nodes(2)
    tracker = tracker_for(nodes)
    tracker.on_arrival_signal(0, 3, 1.0, 6.0)
    tracker.on_arrival_signal(1, 3, 2.0, 8.0)
    tracker.on_departure_signal(0, 3, 6.0)
    # second departure has nothing left to close
    tracker.on_departure_signal(1, 3, 8.0)
    log = tracker.finish(10.0)
    assert len(log) == 1
    record = log.records[0]
    assert (record.start, record.end, record.censored) == (2.0, 6.0, False)


def test_zero_length_overlap_kept():
    # arrival processed just before the other's departure at the same time
    nodes = make_nodes(2)
    tracker = tracker_for(nodes)
    tracker.on_arrival_signal(0, 3, 1.0, 5.0)
    tracker.on_arrival_signal(1, 3, 5.0, 9.0)
    tracker.on_departure_signal(0, 3, 5.0)
    record = tracker.finish(5.0).records[0]
    assert record.start == record.end == 5.0
    assert not record.censored


def test_finish_censors_open_contacts():
    nodes = make_nodes(2)
    tracker = tracker_for(nodes)
    tracker.on_arrival_signal(0, 3, 1.0, 12.0)
    tracker.on_arrival_signal(1, 3, 2.0, 15.0)
    record = tracker.finish(10.0).records[0]
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
    assert sorted(tracker.finish(9.0).records.tolist()) == [
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
    with pytest.raises(ValueError, match="already paused"):
        tracker.on_arrival_signal(1, 3, 3.0, 9.0)
    assert [(r.a, r.b, r.cell, r.start) for r in tracker.finish(3.0).records] == [(0, 1, 3, 2.5)]


def test_a_node_paused_anywhere_cannot_arrive():
    nodes = make_nodes(3)
    tracker = tracker_for(nodes)
    tracker.on_arrival_signal(0, 3, 1.0, 9.0)
    with pytest.raises(ValueError, match="node 0 is already paused at cell 3, so it cannot arrive at cell 4"):
        tracker.on_arrival_signal(0, 4, 2.0, 9.0)
    # the refused arrival left node 0 paused at cell 3 only
    tracker.on_arrival_signal(2, 4, 3.0, 9.0)
    tracker.on_departure_signal(0, 3, 5.0)
    tracker.on_arrival_signal(0, 4, 6.0, 9.0)
    assert tracker.finish(10.0).records.tolist() == [(0, 2, 4, 6.0, 9.0, False)]
    assert [seen_dict(node.seen) for node in nodes] == [{4: 1}, {}, {4: 1}]


def test_bystanders_keep_their_order_past_a_departure_from_the_middle():
    # README's ordering rule: an arrival's contacts are logged in the order
    # the bystanders' pauses began. Four nodes, so that moving the last
    # node into the leaver's place would show
    tracker = tracker_for(make_nodes(5))
    for node in range(4):
        tracker.on_arrival_signal(node, 5, float(node), 20.0 + node)
    tracker.on_departure_signal(1, 5, 4.0)
    tracker.on_arrival_signal(4, 5, 5.0, 30.0)
    tracker.on_arrival_signal(1, 5, 6.0, 31.0)
    records = tracker.finish(40.0).records

    def bystanders(arriving, start):
        """The bystanders of `arriving`'s arrival at `start`, with their contacts' ends."""
        return [(int(r.a + r.b - arriving), float(r.end)) for r in records if r.start == start]

    assert bystanders(4, 5.0) == [(0, 20.0), (2, 22.0), (3, 23.0)]
    assert bystanders(1, 6.0) == [(0, 20.0), (2, 22.0), (3, 23.0), (4, 30.0)]


def test_seen_sum_identity_on_run():
    report = simulate(make_params())
    assert int(report.seen.sum()) == 2 * len(report.contact_log)


def test_seen_sum_identity_bystanders_only():
    report = simulate(make_params(seen_update="bystanders_only"))
    assert int(report.seen.sum()) == len(report.contact_log)


def csv_text(records):
    """contacts.csv as `%` formatting gives it, row by row, for a record array of contacts."""
    return "a,b,cell,start,end,censored\n" + "".join(
        f"{a},{b},{cell},{start:.6f},{end:.6f},{int(censored)}\n"
        for a, b, cell, start, end, censored in records.tolist()
    )


def test_contacts_csv_format(tmp_path):
    report = simulate(make_params(sim_duration=2000.0))
    path = tmp_path / "contacts.csv"
    write_contacts_csv(report.contact_log, path)
    lines = path.read_text().splitlines()
    records = report.contact_log.records
    assert lines[0] == "a,b,cell,start,end,censored"
    assert len(lines) == 1 + len(records)
    for line, record in zip(lines[1:], records):
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
    log = contact_rows(rows)
    assert log.records.censored.any() and not log.records.censored.all()
    path = tmp_path / "contacts.csv"
    write_contacts_csv(log, path)
    assert path.read_text() == csv_text(log.records)


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


def random_signals(seed, count, node_count, cell_count):
    """`count` arrival and departure signals of random nodes at random cells,
    each arrival with a random scheduled end, and the last signal's time."""
    rng = np.random.default_rng(seed)
    signals, paused, now = [], {}, 0.0
    for _ in range(count):
        now += float(rng.uniform(0.0, 2.0))
        node = int(rng.integers(0, node_count))
        if node in paused:
            signals.append(("on_departure_signal", (node, paused.pop(node), now)))
        else:
            paused[node] = cell = int(rng.integers(0, cell_count))
            signals.append(("on_arrival_signal", (node, cell, now, now + float(rng.uniform(1.0, 30.0)))))
    return signals, now


def replay(tracker, steps):
    for name, args in steps:
        getattr(tracker, name)(*args)


def test_contact_pipeline_peak_per_contact(tmp_path, monkeypatch):
    # 200 nodes in 4 cells with heavy-tailed pauses meet about 47 000 times
    # in 2 000 s. Each stage's tracemalloc peak above what is live when it
    # starts, per contact: a log row is 41 bytes, and an index or column as
    # long as the log is 8, so these bounds leave room for few of them
    params = make_params(
        node_count=200, n_locations=4, wait=PowerLawWait(1.5, 10.0, 3600.0), sim_duration=2000.0
    )
    report = run(initialize(params), params.sim_duration)
    n = len(report.contact_log)
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

    assert peak_per_contact(lambda: report.contact_log.records) <= 41 + 16
    assert peak_per_contact(metrics_report, report.contact_log, report.selection_counts) <= 44
    assert peak_per_contact(write_contacts_csv, report.contact_log, tmp_path / "contacts.csv") <= 8


def contact_outputs(log, selections, path):
    """What `swimsim run` makes of a contact log: contacts.csv's bytes and the metrics dict."""
    write_contacts_csv(log, path)
    return path.read_bytes(), metrics_report(log, selections)


# the crowded digest scenario (tests/test_digests.py): 60 nodes in 4 cells
# with heavy-tailed pauses meet about 2 700 times, most pairs many times
CROWDED = dict(
    area=AreaBounds(800.0, 800.0), n_locations=4, node_count=60,
    wait=PowerLawWait(1.5, 10.0, 3600.0), sim_duration=3000.0, seed=1,
)


@pytest.mark.parametrize("rows", [1, 7, encounters.CHUNK_ROWS])
@pytest.mark.parametrize("seen_update", ["symmetric", "bystanders_only"])
def test_compact_log_gives_the_whole_logs_outputs(tmp_path, monkeypatch, rows, seen_update):
    # the compact log read `rows` rows at a time against the same log read
    # at the default chunk size, whose file is the whole record array's
    # rows formatted one by one: the chunks' edges move no byte
    report = simulate(make_params(**CROWDED, seen_update=seen_update), trace=False)
    whole = report.contact_log.records
    expected = contact_outputs(report.contact_log, report.selection_counts, tmp_path / "whole.csv")
    assert len(whole) > 2000 and whole.censored.any()
    assert expected[0].decode() == csv_text(whole)
    monkeypatch.setattr(encounters, "CHUNK_ROWS", rows)
    assert report.contact_log.records.tobytes() == whole.tobytes()
    got = contact_outputs(report.contact_log, report.selection_counts, tmp_path / "compact.csv")
    assert got == expected


@pytest.mark.parametrize("rows", [1, 7, encounters.CHUNK_ROWS])
def test_compact_log_splits_pairs_and_censored_contacts_across_chunks(tmp_path, monkeypatch, rows):
    # 4 nodes in 2 cells: each pair meets many times, so its contacts lie in
    # many chunks, and the run ends with nodes still paused, whose contacts
    # are censored at the horizon
    signals, now = random_signals(11, 600, 4, 2)
    tracker = tracker_for(make_nodes(4))
    replay(tracker, signals)
    log = tracker.finish(now)
    whole = log.records
    pairs = Counter(zip(whole.a.tolist(), whole.b.tolist()))
    assert min(pairs.values()) > 7 and whole.censored.any()
    no_selections = np.zeros((3, 4), dtype=np.int64)
    expected = contact_outputs(log, no_selections, tmp_path / "whole.csv")
    assert expected[0].decode() == csv_text(whole)
    # the gaps in walk order: pairs as they first appear, each pair's rows in log order
    by_pair = {}
    for row in whole:
        by_pair.setdefault((row.a, row.b), []).append(row)
    walk = [later.start - earlier.end for rows_of_pair in by_pair.values()
            for earlier, later in zip(rows_of_pair, rows_of_pair[1:])
            if not (earlier.censored or later.censored)]
    monkeypatch.setattr(encounters, "CHUNK_ROWS", rows)
    assert contact_outputs(log, no_selections, tmp_path / "compact.csv") == expected
    assert _pairs(log)[0].tolist() == walk


def contact_stage_peak(params, path):
    """The contacts of a run, and the tracemalloc peak per contact of `swimsim
    run`'s contact stage (the metrics and contacts.csv, from the compact
    log), above what is live when the stage starts."""
    report = run(initialize(params), params.sim_duration, trace=False)
    n = len(report.contact_log)
    gc.collect()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        metrics_report(report.contact_log, report.selection_counts)
        write_contacts_csv(report.contact_log, path)
        return n, (tracemalloc.get_traced_memory()[1] - live) / n
    finally:
        tracemalloc.stop()


def test_run_contact_stage_peak_per_contact(tmp_path, monkeypatch):
    # the scenario of test_contact_pipeline_peak_per_contact. Above the
    # compact log the stage holds at most two 8-byte columns as long as
    # the log, with the 1-byte censored flags, the 4-byte block index and
    # a few columns per pair (28 bytes per contact when measured, with
    # 13 000 pairs; a record array of the log alone is 41). Chunks of 256
    # rows keep the stage's fixed part small against the log, so that what
    # grows with it shows
    monkeypatch.setattr(encounters, "CHUNK_ROWS", 256)
    monkeypatch.setattr(outputs, "ROWS_PER_WRITE", 256)
    params = make_params(
        node_count=200, n_locations=4, wait=PowerLawWait(1.5, 10.0, 3600.0), sim_duration=2000.0
    )
    short, short_peak = contact_stage_peak(params, tmp_path / "short.csv")
    assert short >= 20_000
    assert short_peak <= 30
    # nothing the stage holds grows faster than the log: at 4·T the peak
    # per contact is within 15% of its value at T. It falls there (24 bytes
    # when measured), as the pairs grow slower than the contacts, so one
    # more column as long as the log would show
    long, long_peak = contact_stage_peak(
        dataclasses.replace(params, sim_duration=4 * params.sim_duration), tmp_path / "long.csv"
    )
    assert long > 3 * short
    assert long_peak <= 1.15 * short_peak
    assert long_peak <= 26


def test_untraced_run_expands_one_chunk_at_a_time(tmp_path, monkeypatch):
    # `swimsim run` never builds the contact log's record array: every row
    # it reads is expanded from the compact log, a chunk at a time, or read
    # as starts, ends and flags alone, and the gaps read one row more, their
    # overlap
    monkeypatch.setattr(encounters, "CHUNK_ROWS", 256)
    expanded, timed, reports = [], [], []
    getitem, times = ContactLog.__getitem__, ContactLog.times

    def counted_getitem(log, index):
        rows = getitem(log, index)
        expanded.append(len(rows))
        return rows

    def counted_times(log, index):
        start, end, censored = times(log, index)
        timed.append(len(start))
        return start, end, censored

    def whole_log(log):
        raise AssertionError("the whole contact log was built")

    def simulate_kept(params, trace):
        reports.append(simulate(params, trace))
        return reports[-1]

    monkeypatch.setattr(ContactLog, "__getitem__", counted_getitem)
    monkeypatch.setattr(ContactLog, "times", counted_times)
    monkeypatch.setattr(ContactLog, "records", property(whole_log))
    monkeypatch.setattr(cli, "simulate", simulate_kept)
    config = tmp_path / "scenario.conf"
    config.write_text(
        "neighbourLocationLimit = 300\nspeed = 1.4\nmaxAreaX = 800\nmaxAreaY = 800\n"
        "waitTime = powerlaw(1.5,10,3600)\nalpha = 0.3\nnoOfLocations = 4\nnodeCount = 60\n"
        "simDuration = 3000\nseed = 1\n"
    )
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    (report,) = reports
    n = len(report.contact_log)
    assert n > 10 * 256
    assert max(expanded) == 256 and max(timed) == 257
    # the rows are expanded once, for the file; the pair keys read only
    # a and b, and the durations and the gaps only starts, ends and flags
    assert sum(expanded) == n
    assert "contacts" not in vars(report)
