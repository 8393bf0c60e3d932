"""Contact statistics: inter-contact times, durations, contacts per pair.

All three pipelines reduce the raw contact log to pooled sample sets and a
common distribution summary. Censored records (still open at the end of a
run) never contribute a duration, and gaps touching a censored record are
dropped because the true gap is unknown. CCDFs are evaluated at 50
log-spaced thresholds for heavy-tail inspection.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .encounters import ContactRecord
from .engine import SelectionRecord, SimulationReport

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
    arr = np.asarray(list(values), dtype=float)
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
        ccdf = [(float(t), float(np.mean(arr >= t))) for t in thresholds]
    return DistributionSummary(
        samples=int(arr.size),
        mean=float(arr.mean()),
        min=float(arr.min()),
        max=float(arr.max()),
        ccdf=ccdf,
    )


def _by_pair(log: list[ContactRecord]) -> dict[tuple[int, int], list[ContactRecord]]:
    pairs = defaultdict(list)
    for record in log:
        pairs[(record.a, record.b)].append(record)
    return pairs


def ict_by_pair(log: list[ContactRecord]) -> dict[tuple[int, int], list[float]]:
    """Per-pair inter-contact gaps.

    The log must be time-ordered within each pair. A gap adjacent to a
    censored record is unknown and therefore skipped.
    """
    gaps: dict[tuple[int, int], list[float]] = {}
    for pair, records in _by_pair(log).items():
        gaps[pair] = [
            nxt.start - prev.end
            for prev, nxt in zip(records, records[1:])
            if not prev.censored and not nxt.censored
        ]
    return gaps


def ict_samples(log: list[ContactRecord]) -> list[float]:
    """Gaps between consecutive contacts, pooled across pairs."""
    return [gap for gaps in ict_by_pair(log).values() for gap in gaps]


def inter_contact_times(log: list[ContactRecord]) -> DistributionSummary:
    return summarize(ict_samples(log))


def duration_samples(log: list[ContactRecord]) -> list[float]:
    """Durations of finished contacts; zero-length ones carry no information."""
    return [r.end - r.start for r in log if not r.censored and r.end > r.start]


def contact_durations(log: list[ContactRecord]) -> DistributionSummary:
    return summarize(duration_samples(log))


def contacts_per_pair_samples(log: list[ContactRecord]) -> list[int]:
    """Record count of every pair that ever met, in pair order."""
    pairs = _by_pair(log)
    return [len(pairs[key]) for key in sorted(pairs)]


def contacts_per_pair(log: list[ContactRecord]) -> DistributionSummary:
    return summarize(contacts_per_pair_samples(log))


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

    Accepts either a SimulationReport or its list of selection records.
    """
    if isinstance(selections, SimulationReport):
        selections = selections.selections
    per_node: dict[int, dict[str, int]] = {}
    near = visiting = fallbacks = 0
    for record in selections:
        counts = per_node.setdefault(
            record.node, {"neighbouring": 0, "visiting": 0, "fallbacks": 0}
        )
        if record.visiting:
            counts["visiting"] += 1
            visiting += 1
        else:
            counts["neighbouring"] += 1
            near += 1
        if record.fallback:
            counts["fallbacks"] += 1
            fallbacks += 1
    return SelectionStats(
        total=len(selections),
        near=near,
        visiting=visiting,
        fallbacks=fallbacks,
        per_node=per_node,
    )


def metrics_report(
    contacts: list[ContactRecord],
    selections: list[SelectionRecord],
    summaries: dict[str, DistributionSummary] | None = None,
) -> dict:
    """Structured metrics for JSON export.

    `summaries` holds the three distribution summaries of `contacts` when
    the caller has built them already; they are built here otherwise.
    """
    if summaries is None:
        summaries = {
            "inter_contact_times": inter_contact_times(contacts),
            "contact_durations": contact_durations(contacts),
            "contacts_per_pair": contacts_per_pair(contacts),
        }
    return {
        **{name: summary.as_dict() for name, summary in summaries.items()},
        "selection": selection_stats(selections).as_dict(),
        "contacts": {
            "total": len(contacts),
            "censored": sum(1 for r in contacts if r.censored),
            "zero_duration": sum(
                1 for r in contacts if not r.censored and r.end == r.start
            ),
        },
    }
