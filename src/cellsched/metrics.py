"""Perceived-throughput metrics over completed flows.

ALPT averages each flow's file size divided by its sojourn time; logALPT
averages the logarithm of the same ratio, which rewards spreading service
across flows instead of optimizing a few lucky ones.  Replication results
aggregate into mean +/- sample standard deviation.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParameterError


class FlowRecord(NamedTuple):
    """One completed download: size, arrival slot, and departure slot.

    Unchecked: ``FlowSpec`` holds the size positive where it enters, and the
    slot loop departs a flow at ``t + 1`` from a slot ``t`` at or after its
    arrival, so every sojourn is at least one slot.
    """

    file_size: float
    arrival: int
    departure: int


@dataclass(frozen=True)
class MetricsReport:
    """Scores of one simulation run plus how many flows they cover."""

    alpt: float
    log_alpt: float
    completed: int
    unfinished: int = 0


def summarize(records, unfinished: int = 0) -> MetricsReport:
    """ALPT and logALPT: the mean of each A_k / (T_k_end - T_k_0) and of its log."""
    if not records:
        raise ParameterError("ALPT is undefined over zero completed flows")
    throughputs = [r.file_size / (r.departure - r.arrival) for r in records]
    return MetricsReport(
        alpt=statistics.fmean(throughputs),
        log_alpt=math.fsum(map(math.log, throughputs)) / len(throughputs),  # fmean's own fsum / n
        completed=len(records),
        unfinished=unfinished,
    )


@dataclass(frozen=True)
class AggregateReport:
    """Across-replication mean +/- sample standard deviation of each metric."""

    alpt_mean: float
    alpt_std: float
    log_alpt_mean: float
    log_alpt_std: float
    replications: int
    completed_total: int
    unfinished_total: int


def aggregate(reports) -> AggregateReport:
    """Unweighted mean and sample (n-1) std of each metric across replications."""
    reports = list(reports)
    if len(reports) < 2:
        raise ParameterError(
            f"need at least 2 replications to aggregate, got {len(reports)}"
        )
    alpts = [r.alpt for r in reports]
    logs = [r.log_alpt for r in reports]
    return AggregateReport(
        alpt_mean=statistics.fmean(alpts),
        alpt_std=statistics.stdev(alpts),
        log_alpt_mean=statistics.fmean(logs),
        log_alpt_std=statistics.stdev(logs),
        replications=len(reports),
        completed_total=sum(r.completed for r in reports),
        unfinished_total=sum(r.unfinished for r in reports),
    )


@dataclass(frozen=True)
class PairedReport:
    """Mean, sample std and t statistic of the per-seed logALPT differences a - b."""

    log_alpt_mean: float
    log_alpt_std: float
    t: float
    replications: int


def paired(a, b) -> PairedReport:
    """Compare two strategies' reports seed by seed; with std 0, t is +/-inf or 0.0."""
    if len(a) != len(b) or len(a) < 2:
        raise ParameterError(f"need 2+ paired replications, got {len(a)} and {len(b)}")
    d = [x.log_alpt - y.log_alpt for x, y in zip(a, b)]
    mean, std = statistics.fmean(d), statistics.stdev(d)
    t = mean / (std / math.sqrt(len(d))) if std else (mean * math.inf if mean else 0.0)
    return PairedReport(mean, std, t, len(d))
