"""Summary statistics shared by the workloads and the steadiness
command."""

from __future__ import annotations

import resource
import statistics


def percentile(values, p: int) -> float:
    """The ``p``-th percentile (1-99), interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def spread(values) -> float:
    """Distance between the first and third quartile over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any process it waited
    for, whichever is larger (Linux reports kilobytes)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0
