"""Contact statistics: inter-contact times, durations, contacts per pair.

All three pipelines reduce the raw contact log to pooled sample sets and a
common distribution summary. Censored records (still open at the end of a
run) never contribute a duration, and gaps touching a censored record are
dropped because the true gap is unknown. CCDFs are evaluated at 50
log-spaced thresholds for heavy-tail inspection. The pipelines take a
run's contact log (encounters.ContactLog, which only a finished run hands
out) and read only the fields they need, a chunk of rows at a time or the
rows they gather by index: ContactLog.pairs for the pair ids, and
ContactLog.times for the starts, ends and censored flags. Beyond the log,
a pipeline holds at most two columns as long as it at a time, and never
a record array of it. The inter-contact times and the contacts per pair
come from one grouping of the rows by pair (_pairs), which metrics_report
makes once per run. Selection statistics are read from a run's per-node
selection counts, which the run tallies as it goes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import mul

import numpy as np

from . import encounters

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
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return DistributionSummary(0, None, None, None, [])
    ordered = np.sort(arr)
    first = int(np.searchsorted(ordered, 0.0, "right"))  # the least positive sample, if any
    ccdf = []
    if first < arr.size and ordered[first] > 0:
        thresholds = _thresholds(float(ordered[first]), float(arr.max()))
        # the count of samples >= t over the count, exactly np.mean(arr >= t)
        below = np.searchsorted(ordered, thresholds, "left")
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


def _pairs(log) -> tuple[np.ndarray, np.ndarray]:
    """Inter-contact gaps pooled across pairs, and each pair's contact count.

    The gaps are in the order of a walk over the log: pairs in order of
    first appearance, each pair's rows in log order, so the pooled order
    (and with it the last bits of the mean) is the walk's. The counts are
    in pair order, (a, b) lexicographic. An argsort of the pair keys, a
    and b packed into one int64, puts each pair's rows together, in no
    order, which gives the counts and each pair's first row; then one sort
    of (first row, row), packed into one int64 as first row * n + row,
    puts the rows in walk order. Both are below n, the log's length, so
    that packing is exact for any log; the pair keys take node ids below
    2**32.

    The keys are not sorted again: where a pair starts is read from the
    keys gathered through the argsort, a chunk at a time. Each column as
    long as the log is dropped once used, so at most two are held. The
    log's rows are read twice: a chunk at a time for the keys, reading
    only a and b, and then, for the gaps, a chunk of the walk at a time,
    gathering the start, the end and the censored flag of the rows it
    pairs.
    """
    n = len(log)
    keys = np.empty(n, dtype=np.int64)
    for lo in range(0, n, encounters.CHUNK_ROWS):
        hi = lo + encounters.CHUNK_ROWS
        a, b = log.pairs(slice(lo, hi))
        if a.min() < 0 or b.max() >> 32:
            raise ValueError("contact log: node ids must lie in 0..2**32 - 1")
        # (a - 2**31) * 2**32 + b: in (a, b) order, and an int64, so that the
        # keys are sorted by the walk's own sort code, not a second one
        np.subtract(a, 2**31, out=keys[lo:hi])
        keys[lo:hi] *= 2**32
        keys[lo:hi] += b
    by_pair = np.argsort(keys)
    # a pair's rows start where the key changes along the argsort
    new_pair = np.ones(n, dtype=bool)
    for lo in range(0, n - 1, encounters.CHUNK_ROWS):
        step = keys[by_pair[lo:lo + encounters.CHUNK_ROWS + 1]]
        np.not_equal(step[1:], step[:-1], out=new_pair[lo + 1:lo + len(step)])
    del keys
    starts = np.flatnonzero(new_pair)
    del new_pair
    counts = np.diff(starts, append=n)
    walk = np.repeat(np.minimum.reduceat(by_pair, starts) * n, counts)
    walk += by_pair
    del by_pair
    walk.sort()
    # walk[i] and walk[i + 1] give a gap if they are one pair's and neither is censored
    gaps = np.empty(max(n - 1, 0))
    found = 0
    for lo in range(0, n - 1, encounters.CHUNK_ROWS):
        step = walk[lo:lo + encounters.CHUNK_ROWS + 1]
        pair = step // n
        start, end, censored = log.times(step - pair * n)
        known = pair[1:] == pair[:-1]
        known &= ~censored[:-1]
        known &= ~censored[1:]
        gap = start[1:][known]
        np.subtract(gap, end[:-1][known], out=gaps[found:found + len(gap)])
        found += len(gap)
    return gaps[:found], counts


def inter_contact_times(log) -> DistributionSummary:
    return summarize(_pairs(log)[0])


def _durations_and_counts(log) -> tuple[np.ndarray, int, int]:
    """Durations of finished contacts in log order, and the log's censored and
    zero-length finished contacts; zero-length ones carry no information.
    Only the starts, ends and censored flags are read, a chunk at a time."""
    lengths = np.empty(len(log))
    found = censored = zero = 0
    for lo in range(0, len(log), encounters.CHUNK_ROWS):
        start, end, flags = log.times(slice(lo, lo + encounters.CHUNK_ROWS))
        finished = ~flags
        censored += len(flags) - int(np.count_nonzero(finished))
        length = end - start  # 0 exactly where end == start
        zero += int(np.count_nonzero(finished & (length == 0)))
        part = length[finished & (length > 0)]
        lengths[found:found + len(part)] = part
        found += len(part)
    return lengths[:found], censored, zero


def _durations(log) -> np.ndarray:
    """Durations of finished contacts; zero-length ones carry no information."""
    return _durations_and_counts(log)[0]


def contact_durations(log) -> DistributionSummary:
    return summarize(_durations(log))


def contacts_per_pair(log) -> DistributionSummary:
    return summarize(_pairs(log)[1])


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

    `selections` is a run's per-node counts (`report.selection_counts`):
    rows of departures, visiting draws and fallbacks, one column per node.
    A node with no departure has no entry in `per_node`.
    """
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

    `contacts` is a run's contact log (`report.contact_log`) and
    `selections` its selection counts, as for selection_stats. The
    three distribution summaries are built here, once per run; `swimsim
    run` writes their CCDF files from the `ccdf` lists of this dict. The
    log's rows are grouped by pair once, for the gaps and the counts per
    pair both, and the gaps are summarized and dropped before the
    durations are taken.
    """
    gaps, counts = _pairs(contacts)
    inter_contact = summarize(gaps).as_dict()
    del gaps
    durations, censored, zero = _durations_and_counts(contacts)
    return {
        "inter_contact_times": inter_contact,
        "contact_durations": summarize(durations).as_dict(),
        "contacts_per_pair": summarize(counts).as_dict(),
        "selection": selection_stats(selections).as_dict(),
        "contacts": {"total": len(contacts), "censored": censored, "zero_duration": zero},
    }
