import math
import sys
from collections import Counter, defaultdict
from functools import reduce
from itertools import accumulate
from operator import mul

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from support import contact_rows, lone_node, selection_counts

from swimsim.engine import SELECTION_DTYPE, initialize, run, simulate
from swimsim.grid import AreaBounds, LocationClass, Point2D, build_grid, classify_locations
from swimsim.metrics import (
    contact_durations,
    contacts_per_pair,
    inter_contact_times,
    CCDF_POINTS,
    _durations,
    _pairs,
    _thresholds,
    metrics_report,
    selection_stats,
    summarize,
)
from swimsim.mobility import ModelParams, UniformWait, choose_destination, node_stream
from swimsim.outputs import write_ccdf_csv

AREA = AreaBounds(400.0, 400.0)


def rec(a, b, start, end, cell=0, censored=False):
    """One contact log row."""
    return (a, b, cell, start, end, censored)


def record_walk_ict(log):
    """Pooled gaps in walk order: pairs as they first appear, each pair's records in log order."""
    pairs = defaultdict(list)
    for r in log.records:
        pairs[(r.a, r.b)].append(r)
    gaps = []
    for records in pairs.values():
        for i in range(len(records) - 1):
            if records[i].censored or records[i + 1].censored:
                continue
            gaps.append(records[i + 1].start - records[i].end)
    return gaps


def brute_force_ict(log):
    return sorted(record_walk_ict(log))


def brute_force_durations(log):
    return sorted(r.end - r.start for r in log.records if not r.censored and r.end - r.start > 0)


def brute_force_counts(log):
    pairs = defaultdict(int)
    for r in log.records:
        pairs[(r.a, r.b)] += 1
    return sorted(pairs.values())


def test_ict_single_contact_contributes_nothing():
    assert _pairs(contact_rows([rec(0, 1, 0.0, 5.0)]))[0].tolist() == []


def test_ict_direct_gap():
    log = contact_rows([rec(0, 1, 0.0, 5.0), rec(0, 1, 12.0, 20.0)])
    assert _pairs(log)[0].tolist() == [7.0]


def test_ict_synthetic_three_pairs():
    log = contact_rows([
        rec(0, 1, 0.0, 5.0),
        rec(0, 1, 12.0, 20.0),
        rec(0, 1, 21.0, 30.0),
        rec(0, 2, 3.0, 4.0),
        rec(0, 2, 50.0, 60.0),
        rec(1, 2, 7.0, 7.0),
    ])
    assert sorted(_pairs(log)[0].tolist()) == brute_force_ict(log) == [1.0, 7.0, 46.0]


def test_ict_censored_adjacent_gaps_dropped():
    log = contact_rows([
        rec(0, 1, 0.0, 5.0),
        rec(0, 1, 12.0, 20.0, censored=True),
        rec(0, 1, 25.0, 30.0),
    ])
    assert _pairs(log)[0].tolist() == []


def test_pairs_reject_node_ids_beyond_32_bits():
    # pair keys pack a and b into one int64, so ids must fit 32 bits
    assert _pairs(contact_rows([rec(0, 2**32 - 1, 0.0, 5.0)]))[1].tolist() == [1]
    for a, b in ((-1, 0), (0, 2**32)):
        with pytest.raises(ValueError, match="node ids must lie in"):
            _pairs(contact_rows([rec(0, 1, 0.0, 5.0), rec(a, b, 6.0, 8.0)]))


def test_durations():
    assert _durations(contact_rows([rec(0, 1, 0.0, 5.0)])).tolist() == [5.0]
    assert _durations(contact_rows([rec(0, 1, 3.0, 3.0)])).tolist() == []  # zero length excluded
    assert _durations(contact_rows([rec(0, 1, 0.0, 9.0, censored=True)])).tolist() == []


def test_contacts_per_pair():
    assert contacts_per_pair(contact_rows([])).samples == 0
    log = contact_rows([rec(0, 1, float(i), float(i) + 0.5) for i in range(4)])
    assert _pairs(log)[1].tolist() == [4]
    summary = contacts_per_pair(log)
    assert (summary.samples, summary.mean, summary.min, summary.max) == (1, 4.0, 4.0, 4.0)


def test_summarize_empty():
    summary = summarize([])
    assert summary.samples == 0
    assert summary.mean is None and summary.min is None and summary.max is None
    assert summary.ccdf == []


def test_summarize_ccdf_shape():
    rng = np.random.default_rng(19)
    values = rng.uniform(0.5, 100.0, size=500)
    summary = summarize(values)
    fractions = [f for _, f in summary.ccdf]
    assert len(summary.ccdf) == 50
    assert fractions == sorted(fractions, reverse=True)
    assert fractions[0] == 1.0  # first threshold is the min positive sample
    assert summary.ccdf[0][0] == pytest.approx(values.min())
    assert summary.ccdf[-1][0] == pytest.approx(values.max())
    assert summary.min <= summary.mean <= summary.max


def test_pooled_ict_count_identity():
    rng = np.random.default_rng(23)
    log = []
    per_pair = {}
    for a, b in ((0, 1), (0, 2), (1, 2), (2, 3)):
        k = int(rng.integers(1, 6))
        per_pair[(a, b)] = k
        t = 0.0
        for _ in range(k):
            start = t + float(rng.uniform(0.1, 5.0))
            end = start + float(rng.uniform(0.1, 5.0))
            log.append(rec(a, b, start, end))
            t = end
    assert len(_pairs(contact_rows(log))[0]) == sum(max(0, k - 1) for k in per_pair.values())


def random_log(rng):
    log = []
    n_pairs = int(rng.integers(1, 6))
    node_ids = list(range(6))
    for _ in range(n_pairs):
        a, b = sorted(rng.choice(node_ids, size=2, replace=False))
        t = 0.0
        for _ in range(int(rng.integers(1, 7))):
            start = t + float(rng.uniform(0.0, 10.0))
            end = start + (0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 8.0)))
            log.append(rec(int(a), int(b), start, end, cell=int(rng.integers(0, 4)),
                           censored=bool(rng.random() < 0.15)))
            t = end
    return contact_rows(log)


def test_fuzz_metrics_match_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        log = random_log(rng)
        gaps, counts = _pairs(log)
        assert sorted(gaps.tolist()) == brute_force_ict(log)
        assert sorted(_durations(log).tolist()) == brute_force_durations(log)
        assert sorted(counts.tolist()) == brute_force_counts(log)


def interleaved_log(rng):
    """Pairs that repeat, interleaved, and out of time order within a pair."""
    pairs = [(0, 1), (2, 5), (1, 3), (0, 4)]
    log = []
    for _ in range(int(rng.integers(2, 40))):
        a, b = pairs[int(rng.integers(0, len(pairs)))]
        start = float(rng.uniform(0.0, 100.0))
        end = start + (0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 8.0)))
        log.append(rec(a, b, start, end, cell=int(rng.integers(0, 4)),
                       censored=bool(rng.random() < 0.15)))
    return contact_rows(log)


def test_samples_keep_record_walk_order():
    # the pooled order fixes the last bits of the mean in metrics.json
    rng = np.random.default_rng(41)
    for _ in range(300):
        log = interleaved_log(rng)
        walk_durations = [r.end - r.start for r in log.records if not r.censored and r.end > r.start]
        assert _pairs(log)[0].tolist() == record_walk_ict(log)
        assert _durations(log).tolist() == walk_durations
        assert inter_contact_times(log) == summarize(record_walk_ict(log))
        assert contact_durations(log) == summarize(walk_durations)


def test_walk_order_with_ids_near_2_31():
    # pair keys a * (max b + 1) + b reach 2**62 here, so a pair key packed
    # with the row into one int64 would overflow
    rng = np.random.default_rng(43)
    ids = [2**31 - 3, 2**31 - 1, 2**31, 2**31 + 5, 2**31 + 9]
    for _ in range(50):
        log = []
        for _ in range(int(rng.integers(3, 200))):
            a, b = sorted(rng.choice(ids, size=2, replace=False).tolist())
            start = float(rng.uniform(0.0, 100.0))
            log.append(rec(a, b, start, start + float(rng.uniform(0.0, 8.0)),
                           censored=bool(rng.random() < 0.15)))
        assert min(r[0] for r in log) * (max(r[1] for r in log) + 1) * len(log) >= 2**63
        pairs = Counter((r[0], r[1]) for r in log)
        log = contact_rows(log)
        gaps, counts = _pairs(log)
        assert gaps.tolist() == record_walk_ict(log)
        assert inter_contact_times(log) == summarize(record_walk_ict(log))
        assert counts.tolist() == [pairs[pair] for pair in sorted(pairs)]


def sel(node, visiting, fallback=False):
    """One selection log row, in cell 0, for a trip from t = 0 to t = 1."""
    return (node, 0, visiting, fallback, 0.0, 1.0)


def test_selection_stats_counts():
    records = [sel(0, False), sel(0, True), sel(1, False), sel(1, False, fallback=True)]
    stats = selection_stats(selection_counts(np.array(records, SELECTION_DTYPE), 2))
    assert (stats.total, stats.near, stats.visiting, stats.fallbacks) == (4, 3, 1, 1)
    assert stats.near + stats.visiting == stats.total
    assert stats.per_node[0] == {"neighbouring": 1, "visiting": 1, "fallbacks": 0}
    assert stats.per_node[1] == {"neighbouring": 2, "visiting": 0, "fallbacks": 1}
    assert stats.near_fraction == pytest.approx(0.75)


def test_selection_stats_alpha_one_run():
    params = ModelParams(
        alpha=1.0, speed=1.4, neighbour_limit=300.0, n_locations=21, area=AREA,
        wait=UniformWait(2.0, 5.0), node_count=5, sim_duration=2000.0, seed=5,
    )
    report = simulate(params)
    stats = selection_stats(report.selection_counts)
    assert stats.visiting == 0
    assert stats.fallbacks == 0
    assert stats.total > 0


def test_selection_stats_step1_binomial():
    # 1e5 kernel draws from a home with both candidate sets nonempty
    params = ModelParams(
        alpha=0.3, speed=1.4, neighbour_limit=300.0, n_locations=21, area=AREA,
        wait=UniformWait(2.0, 5.0), node_count=1, sim_duration=1.0, seed=5,
    )
    location_map = build_grid(AREA, 21)
    node = lone_node(0, Point2D(10.0, 10.0), location_map, params)
    classes = classify_locations(location_map, node.home, params.neighbour_limit)
    rng = node_stream(5, 0)
    n = 100_000
    records = []
    for _ in range(n):
        cell, _x, _y, _visiting, fallback = choose_destination(
            node, location_map, params, *rng.random(4).tolist()
        )
        records.append((0, cell, classes[cell] is LocationClass.VISITING, fallback, 0.0, 1.0))
    stats = selection_stats(selection_counts(np.array(records, SELECTION_DTYPE), 1))
    assert stats.fallbacks == 0
    sigma = math.sqrt(0.3 * 0.7 / n)
    assert abs(stats.near_fraction - 0.3) < 3 * sigma


def test_selection_ordering_between_alphas():
    common = dict(
        speed=1.4, neighbour_limit=300.0, n_locations=21, area=AREA,
        wait=UniformWait(2.0, 5.0), node_count=10, sim_duration=3000.0, seed=9,
    )
    low = selection_stats(simulate(ModelParams(alpha=0.3, **common)).selection_counts)
    high = selection_stats(simulate(ModelParams(alpha=0.8, **common)).selection_counts)
    assert high.near_fraction > low.near_fraction


def test_ccdf_csv_and_metrics_json(tmp_path):
    log = contact_rows([rec(0, 1, 0.0, 5.0), rec(0, 1, 12.0, 20.0), rec(0, 2, 1.0, 2.0)])
    summary = inter_contact_times(log)
    path = tmp_path / "ccdf.csv"
    write_ccdf_csv(summary.ccdf, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "value,fraction"
    assert len(lines) == 1 + len(summary.ccdf)
    selections = np.array([sel(0, False), sel(1, True)], SELECTION_DTYPE)
    report = metrics_report(log, selection_counts(selections, 2))
    assert report["contacts"]["total"] == 3
    assert report["contacts"]["censored"] == 0
    assert report["selection"]["neighbouring"] == 1
    assert report["inter_contact_times"]["samples"] == 1
    assert report["contact_durations"]["samples"] == 3
    assert report["contacts_per_pair"]["samples"] == 2


def test_censored_zero_length_contacts_are_not_zero_duration():
    # 6 nodes in 2 cells share homes and meet at t = 0; a run stopped there
    # censors every contact at its start, so each has length 0 and none is
    # a finished contact of length 0
    params = ModelParams(
        alpha=0.3, speed=1.4, neighbour_limit=300.0, n_locations=2, area=AREA,
        wait=UniformWait(2.0, 5.0), node_count=6, sim_duration=100.0, seed=1,
    )
    report = run(initialize(params), 0.0)
    contacts = metrics_report(report.contact_log, report.selection_counts)["contacts"]
    assert contacts["total"] >= 3
    assert contacts["censored"] == contacts["total"]
    assert contacts["zero_duration"] == 0


def test_metrics_on_real_run_match_brute_force():
    params = ModelParams(
        alpha=0.3, speed=1.4, neighbour_limit=300.0, n_locations=6, area=AREA,
        wait=UniformWait(10.0, 60.0), node_count=8, sim_duration=20000.0, seed=2,
    )
    log = simulate(params).contact_log
    assert len(log) > 100
    gaps, counts = _pairs(log)
    assert sorted(gaps.tolist()) == brute_force_ict(log)
    assert sorted(_durations(log).tolist()) == brute_force_durations(log)
    assert sorted(counts.tolist()) == brute_force_counts(log)
    summary = contact_durations(log)
    if summary.samples:
        assert summary.min > 0


@pytest.mark.parametrize("value", [5.0, 3.7, 12016.73])
def test_summarize_single_valued_ccdf(value):
    # every positive sample equal: each threshold is that value, and the
    # CCDF is flat at the share of samples that reach it
    summary = summarize([value, value, value])
    assert summary.ccdf == [(value, 1.0)] * 50
    summary = summarize([0.0, value, value, 0.0])
    assert summary.ccdf == [(value, 0.5)] * 50


def bisected_thresholds(low, high):
    """The thresholds by bisection of q over all of [1, high / low], as
    `_thresholds` found them before it bracketed q first."""
    lo, hi = 1.0, min(high / low, sys.float_info.max)
    while lo < (q := lo + (hi - lo) / 2) < hi:
        if reduce(mul, [q] * (CCDF_POINTS - 1), low) <= high:
            lo = q
        else:
            hi = q
    return [*accumulate([lo] * (CCDF_POINTS - 2), mul, initial=low), high]


POSITIVE = st.floats(min_value=5e-324, max_value=sys.float_info.max)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
# any range, and ranges a few ulps wide
@given(st.tuples(POSITIVE, POSITIVE).map(sorted) | st.tuples(POSITIVE, st.integers(0, 64)).map(
    lambda c: (c[0], c[0] * (1 + c[1] * sys.float_info.epsilon))).filter(lambda b: b[1] < math.inf))
@example((1.0, 1e4))
@example((1e-300, 1e300))
@example((5e-324, 1.7e308))
@example((5e-324, sys.float_info.max))
@example((5e-324, 5e-324))
@example((5e-324, 1e-323))
@example((1.0, math.nextafter(1.0, 2.0)))
@example((3.7, 3.7))
def test_thresholds_equal_the_full_bisection(bounds):
    # q is bracketed around its estimate before the bisection, which must
    # leave every threshold's bits as the bisection over all of [1, high / low]
    low, high = bounds
    assert low <= high
    thresholds = _thresholds(low, high)
    assert len(thresholds) == CCDF_POINTS and thresholds[-1] == high
    assert [t.hex() for t in thresholds] == [t.hex() for t in bisected_thresholds(low, high)]
