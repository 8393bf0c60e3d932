"""Contact statistics: inter-contact times, durations, contacts per pair.

All three pipelines reduce the raw contact log to pooled sample sets and a
common distribution summary. Censored records (still open at the end of a
run) never contribute a duration, and gaps touching a censored record are
dropped because the true gap is unknown. CCDFs are evaluated at 50
log-spaced thresholds for heavy-tail inspection. The pipelines work on the
columns of the contact log's record array; a list of ContactRecord is
converted once, where it enters. A log with a contact still open, one
whose end is NaN, is rejected there (finished_log). Selection statistics
are counted from the columns of a run's selection log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encounters import finished_log

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
        # with one distinct positive value geomspace lands an ulp either side
        # of it; clipping keeps every threshold within the sample range
        thresholds = np.clip(
            np.geomspace(positive.min(), arr.max(), CCDF_POINTS), positive.min(), arr.max()
        )
        # the count of samples >= t over the count, exactly np.mean(arr >= t)
        below = np.searchsorted(np.sort(arr), thresholds, "left")
        ccdf = list(zip(thresholds.tolist(), ((arr.size - below) / arr.size).tolist()))
    return DistributionSummary(
        samples=int(arr.size),
        mean=float(arr.mean()),
        min=float(arr.min()),
        max=float(arr.max()),
        ccdf=ccdf,
    )


def _pair_keys(log: np.recarray) -> np.ndarray:
    """One integer per row that orders the pairs (a, b) lexicographically."""
    return log.a * (int(log.b.max(initial=0)) + 1) + log.b


def _gaps(log: np.recarray) -> tuple[np.ndarray, np.ndarray]:
    """Inter-contact gaps pooled across pairs, and the row each gap ends at.

    Rows are grouped by pair, pairs in order of first appearance and each
    pair's rows in log order, so the pooled order (and with it the last
    bits of the mean) is that of a walk over the log.
    """
    keys = _pair_keys(log)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first[inverse], kind="stable")
    keys, censored = keys[order], log.censored[order]
    known = (keys[1:] == keys[:-1]) & ~censored[:-1] & ~censored[1:]
    ends_at = order[1:][known]
    return log.start[ends_at] - log.end[order[:-1][known]], ends_at


def ict_samples(log) -> list[float]:
    """Gaps between consecutive contacts, pooled across pairs."""
    return _gaps(finished_log(log))[0].tolist()


def inter_contact_times(log) -> DistributionSummary:
    return summarize(_gaps(finished_log(log))[0])


def _durations(log: np.recarray) -> np.ndarray:
    lengths = log.end - log.start
    return lengths[~log.censored & (log.end > log.start)]


def duration_samples(log) -> list[float]:
    """Durations of finished contacts; zero-length ones carry no information."""
    return _durations(finished_log(log)).tolist()


def contact_durations(log) -> DistributionSummary:
    return summarize(_durations(finished_log(log)))


def _pair_counts(log: np.recarray) -> np.ndarray:
    return np.unique(_pair_keys(log), return_counts=True)[1]


def contacts_per_pair_samples(log) -> list[int]:
    """Record count of every pair that ever met, in pair order."""
    return _pair_counts(finished_log(log)).tolist()


def contacts_per_pair(log) -> DistributionSummary:
    return summarize(_pair_counts(finished_log(log)))


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

    `selections` is a run's selection log (`report.selections`), a record
    array with `node`, `visiting` and `fallback` fields.
    """
    nodes, which = np.unique(selections.node, return_inverse=True)
    totals, visiting, fallbacks = (
        np.bincount(rows, minlength=len(nodes)).tolist()
        for rows in (which, which[selections.visiting], which[selections.fallback])
    )
    per_node = {
        node: {"neighbouring": t - v, "visiting": v, "fallbacks": f}
        for node, t, v, f in zip(nodes.tolist(), totals, visiting, fallbacks)
    }
    return SelectionStats(
        total=len(selections),
        near=len(selections) - sum(visiting),
        visiting=sum(visiting),
        fallbacks=sum(fallbacks),
        per_node=per_node,
    )


def metrics_report(contacts, selections) -> dict:
    """Structured metrics for JSON export.

    `contacts` is a contact log's record array or a list of ContactRecord,
    `selections` a run's selection log. The three distribution summaries
    are built here, once per run; `swimsim run` writes their CCDF files
    from the `ccdf` lists of this dict.
    """
    contacts = finished_log(contacts)
    return {
        "inter_contact_times": inter_contact_times(contacts).as_dict(),
        "contact_durations": contact_durations(contacts).as_dict(),
        "contacts_per_pair": contacts_per_pair(contacts).as_dict(),
        "selection": selection_stats(selections).as_dict(),
        "contacts": {
            "total": len(contacts),
            "censored": int(contacts.censored.sum()),
            "zero_duration": int((~contacts.censored & (contacts.end == contacts.start)).sum()),
        },
    }
