"""End-to-end acceptance suite.

Every criterion runs at its pinned tolerance and prints one pass/fail
line (visible with `pytest -s` or in captured output). Expected values
come from independent in-test oracles: brute-force enumeration for grid
shape and classification, closed-form CDFs for samplers, interval
intersection for contacts, and direct recomputation for the metrics.
"""

import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from support import add_row, contact_rows, lone_node

from swimsim.cli import main
from swimsim.config import loads_config
from swimsim.engine import simulate
from swimsim.grid import AreaBounds, LocationClass, Point2D, build_grid, classify_locations
from swimsim.metrics import _durations, _pairs, selection_stats, summarize
from swimsim.mobility import (
    ModelParams,
    PowerLawWait,
    UniformWait,
    choose_destination,
    draw_wait_time,
    node_stream,
)

AREA = AreaBounds(400.0, 400.0)

CONFIG_TEMPLATE = """\
neighbourLocationLimit = 300
speed = 1.4
initialX = uniform
initialY = uniform
maxAreaX = 400
maxAreaY = 400
waitTime = uniform(2,5)
alpha = {alpha}
noOfLocations = 21
nodeCount = 10
simDuration = 50000
seed = 1
"""

RUN_OUTPUTS = (
    "locations.csv",
    "waypoints.csv",
    "contacts.csv",
    "metrics.json",
    "ccdf_inter_contact_times.csv",
    "ccdf_contact_durations.csv",
    "ccdf_contacts_per_pair.csv",
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num} [{name}]: FAIL")
        raise
    print(f"criterion {num} [{name}]: PASS")


def reference_params(alpha, **overrides):
    base = dict(
        alpha=alpha,
        speed=1.4,
        neighbour_limit=300.0,
        n_locations=21,
        area=AREA,
        wait=UniformWait(2.0, 5.0),
        node_count=10,
        sim_duration=50000.0,
        seed=1,
    )
    base.update(overrides)
    return ModelParams(**base)


@pytest.fixture(scope="module")
def reference_reports():
    return {alpha: simulate(reference_params(alpha)) for alpha in (0.3, 0.8)}


# --- independent oracles -------------------------------------------------


def oracle_centers(rows, cols, width, height):
    return [
        ((c + 0.5) * width / cols, (r + 0.5) * height / rows)
        for r in range(rows)
        for c in range(cols)
    ]


def oracle_classify_counts(home, limit):
    centers = oracle_centers(3, 7, 400.0, 400.0)
    neighbouring = sum(
        1
        for i, c in enumerate(centers)
        if i != home and math.dist(centers[home], c) <= limit
    )
    return neighbouring, len(centers) - 1 - neighbouring


def oracle_contacts(pauses):
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
                    expected.append(
                        (a, b, pa.cell, start, end, pa.censored and pb.censored)
                    )
    return sorted(expected)


def oracle_ict(log):
    pairs = defaultdict(list)
    for r in log:
        pairs[(r.a, r.b)].append(r)
    gaps = []
    for records in pairs.values():
        for i in range(len(records) - 1):
            if not records[i].censored and not records[i + 1].censored:
                gaps.append(records[i + 1].start - records[i].end)
    return sorted(gaps)


def oracle_durations(log):
    return sorted(r.end - r.start for r in log if not r.censored and r.end - r.start > 0)


def oracle_pair_counts(log):
    pairs = defaultdict(int)
    for r in log:
        pairs[(r.a, r.b)] += 1
    return sorted(pairs.values())


# --- criteria ------------------------------------------------------------


def test_criterion_1_reference_scenario_runs_and_is_deterministic(tmp_path):
    with criterion(1, "reference scenario, <10s wall, byte-identical reruns"):
        for alpha in (0.3, 0.8):
            config_path = tmp_path / f"alpha_{alpha}.conf"
            config_path.write_text(CONFIG_TEMPLATE.format(alpha=alpha))
            config = loads_config(config_path.read_text())
            assert config.to_params() == reference_params(alpha)

            dirs = [tmp_path / f"a{alpha}_run{i}" for i in (1, 2)]
            for out in dirs:
                start = time.perf_counter()
                assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
                elapsed = time.perf_counter() - start
                assert elapsed < 10.0, f"run took {elapsed:.2f}s"
            for name in RUN_OUTPUTS:
                first = (dirs[0] / name).read_bytes()
                assert first == (dirs[1] / name).read_bytes(), name
                assert first, name
            metrics = json.loads((dirs[0] / "metrics.json").read_text())
            assert metrics["selection"]["total"] > 0


def test_criterion_2_alpha_ordering_and_step1_binomial():
    with criterion(2, "alpha ordering over 20 matched-seed replicates"):
        grid = build_grid(AREA, 21)

        def visiting_set_empty(home):
            classes = classify_locations(grid, home, 300.0)
            return classes.count(LocationClass.VISITING) == 0

        pooled = {0.3: [0, 0], 0.8: [0, 0]}  # [near, total] over fallback-free nodes
        orderings = []
        for seed in range(100, 120):
            fractions = {}
            for alpha in (0.3, 0.8):
                report = simulate(reference_params(alpha, sim_duration=10000.0, seed=seed))
                stats = selection_stats(report.selection_counts)
                fractions[alpha] = stats.near_fraction
                homes = {p.node: p.cell for p in report.pauses if p.start == 0.0}
                # nodes with an empty visiting set fall back; the binomial
                # check applies to the others, whose step 1 is exactly
                # Bernoulli(alpha)
                free = {n for n, h in homes.items() if not visiting_set_empty(h)}
                assert all(
                    not s.fallback for s in report.selections if s.node in free
                )
                for s in report.selections:
                    if s.node in free:
                        pooled[alpha][1] += 1
                        pooled[alpha][0] += 0 if s.visiting else 1
            orderings.append(fractions[0.8] > fractions[0.3])
        assert all(orderings), f"ordering held in {sum(orderings)}/20 replicates"
        for alpha, (near, total) in pooled.items():
            assert total >= 10_000
            sigma = math.sqrt(alpha * (1 - alpha) / total)
            assert abs(near / total - alpha) < 3 * sigma


def test_criterion_3_step2_weight_fidelity():
    with criterion(3, "within-set selection matches normalized weights (TV < 0.02)"):
        alpha = 0.5
        params = reference_params(alpha)
        grid = build_grid(AREA, 21)
        node = lone_node(0, Point2D(10.0, 10.0), grid, params)
        assert node.home == 0
        seen = np.array([(7 * c) % 11 for c in range(21)], dtype=np.int64)
        add_row(node.seen, seen)

        # oracle: recompute weights from scratch
        centers = oracle_centers(3, 7, 400.0, 400.0)
        k = 2.0 / math.hypot(400.0, 400.0)
        dists = [math.dist(centers[0], c) for c in centers]
        weights = np.array(
            [
                alpha / (1.0 + k * d) ** 2 + (1 - alpha) * s / (1.0 + seen.sum())
                for d, s in zip(dists, seen)
            ]
        )
        near_ids = [i for i, d in enumerate(dists) if d <= 300.0]
        visiting_ids = [i for i in range(21) if i not in near_ids]

        rng = node_stream(1234, 0)
        n = 100_000
        counts = np.zeros(21)
        for _ in range(n):
            cell, _x, _y, _visiting, fallback = choose_destination(
                node, grid, params, *rng.random(4).tolist()
            )
            assert not fallback
            counts[cell] += 1
        for ids in (near_ids, visiting_ids):
            expected = weights[ids] / weights[ids].sum()
            branch_total = counts[ids].sum()
            empirical = counts[ids] / branch_total
            tv = 0.5 * np.abs(empirical - expected).sum()
            assert tv < 0.02, f"TV={tv:.4f} over {len(ids)} cells"


def test_criterion_4_classification_counts():
    with criterion(4, "neighbouring/visiting split equals brute-force oracle"):
        grid = build_grid(AREA, 21)
        assert (grid.rows, grid.cols) == (3, 7)
        splits = {}
        for home in (0, 1):
            classes = classify_locations(grid, home, 300.0)
            got = (
                classes.count(LocationClass.NEIGHBOURING),
                classes.count(LocationClass.VISITING),
            )
            assert got == oracle_classify_counts(home, 300.0)
            splits[home] = got
        assert splits[0] == (13, 7)
        assert splits[1] == (16, 4)
        print(
            f"  home cell 0: neighbouring={splits[0][0]} visiting={splits[0][1]}; "
            f"home cell 1: neighbouring={splits[1][0]} visiting={splits[1][1]}"
        )


def test_criterion_5_kinematics(reference_reports):
    with criterion(5, "trip kinematics exact to 1e-9, finite-difference speed to 1e-6"):
        report = reference_reports[0.3]
        speed = report.params.speed
        by_node = defaultdict(list)
        for w in report.waypoints:
            by_node[w.node].append(w)
        trips = []
        for records in by_node.values():
            for dep, arr in zip(records[::2], records[1::2]):
                assert (dep.arrive, arr.arrive) == (False, True)
                trips.append((dep, arr))
        assert trips
        for dep, arr in trips:
            dist = math.hypot(arr.x - dep.x, arr.y - dep.y)
            if dist == 0.0:
                assert arr.time == dep.time
                continue
            assert abs(speed * (arr.time - dep.time) - dist) / dist < 1e-9

        rng = np.random.default_rng(77)
        grid = report.location_map
        probe = lone_node(0, Point2D(1.0, 1.0), grid, report.params)
        long_trips = [t for t in trips if t[1].time - t[0].time > 1.0]
        picks = rng.choice(len(long_trips), size=100, replace=False)
        from swimsim.engine import position_at

        for idx in picks:
            dep, arr = long_trips[int(idx)]
            # the probe on the trip: from dep's point at its time to arr's
            probe.paused = False
            probe.x, probe.y, probe.tx, probe.ty = dep.x, dep.y, arr.x, arr.y
            probe.start, probe.end = dep.time, arr.time
            dt = 1e-3
            t = float(rng.uniform(dep.time, arr.time - dt))
            p0 = position_at(probe, t)
            p1 = position_at(probe, t + dt)
            fd_speed = math.hypot(p1.x - p0.x, p1.y - p0.y) / dt
            assert abs(fd_speed - speed) < 1e-6


def test_criterion_6_encounter_bookkeeping(reference_reports):
    with criterion(6, "seen-sum identity and exact interval-oracle contact log"):
        for alpha, report in reference_reports.items():
            assert int(report.seen.sum()) == 2 * len(report.contacts), f"alpha={alpha}"
        small_scenarios = [
            reference_params(0.3, node_count=5, sim_duration=20000.0, seed=s)
            for s in (1, 2, 3)
        ] + [
            reference_params(
                0.5,
                node_count=5,
                sim_duration=20000.0,
                seed=s,
                n_locations=6,
                wait=UniformWait(10.0, 60.0),
            )
            for s in (4, 5)
        ]
        for params in small_scenarios:
            report = simulate(params)
            got = sorted(
                (r.a, r.b, r.cell, r.start, r.end, r.censored) for r in report.contacts
            )
            assert got == oracle_contacts(report.pauses)
            assert int(report.seen.sum()) == 2 * len(report.contacts)


def test_criterion_7_wait_time_sampler():
    with criterion(7, "wait sampler: KS < 0.01, bounds, uniform mean"):
        n = 100_000
        rng = np.random.default_rng(55)
        dist = PowerLawWait(2.0, 1.0, 100.0)
        samples = np.sort([draw_wait_time(dist, rng) for _ in range(n)])
        assert samples[0] >= 1.0 and samples[-1] <= 100.0
        cdf = (1.0 - 1.0 / samples) / (1.0 - 1.0 / 100.0)
        steps = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(cdf - steps)), np.max(np.abs(cdf - (steps - 1.0 / n))))
        assert ks < 0.01, f"KS={ks:.4f}"

        uni = np.array([draw_wait_time(UniformWait(2.0, 5.0), rng) for _ in range(n)])
        assert uni.min() >= 2.0 and uni.max() <= 5.0
        assert abs(uni.mean() - 3.5) < 3 * math.sqrt(0.75 / n)


def test_criterion_8_metrics_match_brute_force_on_fuzzed_logs():
    with criterion(8, "metrics equal brute-force recomputation on 1000 fuzz logs"):
        rng = np.random.default_rng(88)
        for _ in range(1000):
            log = []
            for _ in range(int(rng.integers(1, 6))):
                a, b = sorted(rng.choice(8, size=2, replace=False))
                t = 0.0
                for _ in range(int(rng.integers(1, 7))):
                    start = t + float(rng.uniform(0.0, 10.0))
                    end = start + (
                        0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 8.0))
                    )
                    log.append((int(a), int(b), int(rng.integers(0, 4)), start, end,
                                bool(rng.random() < 0.15)))
                    t = end
            log = contact_rows(log)
            gaps, counts = _pairs(log)
            assert sorted(gaps.tolist()) == oracle_ict(log.records)
            assert sorted(_durations(log).tolist()) == oracle_durations(log.records)
            assert sorted(counts.tolist()) == oracle_pair_counts(log.records)


def test_criterion_9_ict_ccdf_shape(reference_reports):
    with criterion(9, "pooled ICT CCDF monotone and spanning >= 2 decades"):
        pooled = []
        for report in reference_reports.values():
            pooled.extend(_pairs(report.contact_log)[0].tolist())
        positive = [s for s in pooled if s > 0]
        assert positive
        decades = math.log10(max(positive) / min(positive))
        assert decades >= 2.0, f"span {decades:.2f} decades"
        summary = summarize(pooled)
        fractions = [f for _, f in summary.ccdf]
        assert summary.ccdf
        assert fractions == sorted(fractions, reverse=True)
        values = [v for v, _ in summary.ccdf]
        assert values == sorted(values)
