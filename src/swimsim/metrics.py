"""Contact statistics: inter-contact times, durations, contacts per pair.

All three pipelines reduce the raw contact log to pooled sample sets and a
common distribution summary. Censored records (still open at the end of a
run) never contribute a duration, and gaps touching a censored record are
dropped because the true gap is unknown. CCDFs are evaluated at 50
log-spaced thresholds for heavy-tail inspection. The pipelines work on the
columns of the contact log's record array. A log with a contact still
open, one whose end is NaN, is rejected where it enters (finished_log).
The inter-contact times and the contacts per pair come from one grouping
of the rows by pair (_pairs), which metrics_report makes once per run.
Selection statistics are read from a run's per-node selection counts,
which a selection log is folded into by the engine's own fold
(mobility.selection_counts).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import mul

import numpy as np

from .encounters import finished_log
from .mobility import selection_counts

CCDF_POINTS = 50


@dataclass(frozen=True)
class DistributionSummary:
    samples: int
    mean: float | None
    min: float | None
    max: float | None
    ccdf: list[tuple[float, float]]  # (value, fraction of samples >= value)

    def as_dict(self) -> dict:
        return {
            "samples": self.samples,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "ccdf": [[v, f] for v, f in self.ccdf],
        }


def summarize(values) -> DistributionSummary:
    """Summary statistics plus a CCDF over log-spaced thresholds."""
    arr = np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=float)
    if arr.size == 0:
        return DistributionSummary(0, None, None, None, [])
    positive = arr[arr > 0]
    ccdf = []
    if positive.size:
        thresholds = _thresholds(float(positive.min()), float(arr.max()))
        # the count of samples >= t over the count, exactly np.mean(arr >= t)
        below = np.searchsorted(np.sort(arr), thresholds, "left")
        ccdf = list(zip(thresholds, ((arr.size - below) / arr.size).tolist()))
    return DistributionSummary(
        samples=int(arr.size),
        mean=float(arr.mean()),
        min=float(arr.min()),
        max=float(arr.max()),
        ccdf=ccdf,
    )


def _thresholds(low: float, high: float) -> list[float]:
    """CCDF_POINTS log-spaced thresholds from low to high, by IEEE products only,
    which round alike on every CPU (np.geomspace's vector log and power do not).

    Each is the one before times q, the largest double below high / low
    (1 if that is 1) for which the last so built is at most high; the last
    is then high. The last so built grows with q, so q is found by
    bisection over a bracket confirmed by products: from an estimate of q,
    steps that double until one crosses the bound. The estimate only
    places the bracket, so its rounding moves no bit of q.
    """
    steps = CCDF_POINTS - 1
    top = min(high / low, sys.float_info.max)

    def fits(q: float) -> bool:
        return reduce(mul, [q] * steps, low) <= high

    guess = min(max(math.exp((math.log(high) - math.log(low)) / steps), 1.0), top)
    step = math.ulp(guess)
    if guess < top and fits(guess):
        lo = guess
        while (q := lo + step) < top and fits(q):
            lo, step = q, 2 * step
        hi = min(q, top)
    else:
        hi = guess
        while (q := hi - step) > 1.0 and not fits(q):
            hi, step = q, 2 * step
        lo = max(q, 1.0)
    while lo < (q := lo + (hi - lo) / 2) < hi:
        if fits(q):
            lo = q
        else:
            hi = q
    return [*accumulate([lo] * (CCDF_POINTS - 2), mul, initial=low), high]


def _pairs(log: np.recarray) -> tuple[np.ndarray, np.ndarray]:
    """Inter-contact gaps pooled across pairs, and each pair's contact count.

    The gaps are in the order of a walk over the log: pairs in order of
    first appearance, each pair's rows in log order, so the pooled order
    (and with it the last bits of the mean) is the walk's. The counts are
    in pair order, (a, b) lexicographic. An argsort of the pair keys puts
    each pair's rows together, in no order, which gives the counts and
    each pair's first row; then one sort of (first row, row), packed into
    one int64 as first row * n + row, puts the rows in walk order. Both
    are below n, the log's length, so the packing is exact for any ids.
    """
    # each temporary as long as the log is dropped once used, which keeps
    # the peak near four of them
    n = len(log)
    keys = log.a * (int(log.b.max(initial=0)) + 1)
    keys += log.b
    by_pair = np.argsort(keys)
    keys = keys[by_pair]
    new_pair = np.ones(n, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new_pair[1:])
    del keys
    starts = np.flatnonzero(new_pair)
    counts = np.diff(starts, append=n)
    walk = np.repeat(np.minimum.reduceat(by_pair, starts) * n, counts)
    walk += by_pair
    del by_pair
    walk.sort()
    rows = walk % n
    walk //= n  # each row's pair, as the pair's first row
    censored = log.censored[rows]
    known = walk[1:] == walk[:-1]
    del walk
    known &= ~censored[:-1]
    known &= ~censored[1:]
    gaps = log.start[rows[1:][known]]
    gaps -= log.end[rows[:-1][known]]
    return gaps, counts


def inter_contact_times(log) -> DistributionSummary:
    return summarize(_pairs(finished_log(log))[0])


def _durations(log: np.recarray) -> np.ndarray:
    """Durations of finished contacts; zero-length ones carry no information."""
    lengths = log.end - log.start
    return lengths[~log.censored & (log.end > log.start)]


def contact_durations(log) -> DistributionSummary:
    return summarize(_durations(finished_log(log)))


def contacts_per_pair(log) -> DistributionSummary:
    return summarize(_pairs(finished_log(log))[1])


@dataclass(frozen=True)
class SelectionStats:
    total: int
    near: int  # home or neighbouring destinations
    visiting: int
    fallbacks: int
    per_node: dict[int, dict[str, int]]

    @property
    def near_fraction(self) -> float:
        return self.near / self.total if self.total else 0.0

    @property
    def visiting_fraction(self) -> float:
        return self.visiting / self.total if self.total else 0.0

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "neighbouring": self.near,
            "visiting": self.visiting,
            "fallbacks": self.fallbacks,
            "neighbouring_fraction": self.near_fraction,
            "visiting_fraction": self.visiting_fraction,
            "per_node": {str(n): dict(v) for n, v in sorted(self.per_node.items())},
        }


def selection_stats(selections) -> SelectionStats:
    """Destination-type tallies per node and overall; fallbacks counted apart.

    `selections` is a run's per-node counts (`report.selection_counts`),
    or a selection log (`report.selections`, a record array with `node`,
    `visiting` and `fallback` fields), which is folded into such counts
    first. A node with no departure has no entry in `per_node`.
    """
    if selections.dtype.names:
        selections = selection_counts(
            selections["node"], selections["visiting"], selections["fallback"],
            int(selections["node"].max(initial=-1)) + 1,
        )
    nodes = np.flatnonzero(selections[0])
    per_node = {
        node: {"neighbouring": t - v, "visiting": v, "fallbacks": f}
        for node, t, v, f in zip(
            nodes.tolist(), *(counts[nodes].tolist() for counts in selections)
        )
    }
    total, visiting, fallbacks = (int(counts.sum()) for counts in selections)
    return SelectionStats(
        total=total,
        near=total - visiting,
        visiting=visiting,
        fallbacks=fallbacks,
        per_node=per_node,
    )


def metrics_report(contacts, selections) -> dict:
    """Structured metrics for JSON export.

    `contacts` is a run's contact log (`report.contacts`), `selections` its
    selection counts or log, as for selection_stats. The three distribution
    summaries are built here, once per run; `swimsim run` writes their CCDF
    files from the `ccdf` lists of this dict. The log's rows are grouped by
    pair once, for the gaps and the counts per pair both.
    """
    contacts = finished_log(contacts)
    gaps, counts = _pairs(contacts)
    return {
        "inter_contact_times": summarize(gaps).as_dict(),
        "contact_durations": contact_durations(contacts).as_dict(),
        "contacts_per_pair": summarize(counts).as_dict(),
        "selection": selection_stats(selections).as_dict(),
        "contacts": {
            "total": len(contacts),
            "censored": int(contacts.censored.sum()),
            "zero_duration": int((~contacts.censored & (contacts.end == contacts.start)).sum()),
        },
    }
