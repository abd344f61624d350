"""Wald-Wolfowitz runs test.

A complementary independence check: dichotomize the series around its
median and count runs of consecutive same-side observations.  Too few
runs indicate positive serial dependence (clustering), too many indicate
negative dependence (alternation).  MBPTA tooling commonly reports it
alongside Ljung-Box as converging evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["RunsTestResult", "runs_test"]


@dataclass(frozen=True)
class RunsTestResult:
    """Outcome of the runs test."""

    runs: int
    expected_runs: float
    statistic: float
    p_value: float
    n_above: int
    n_below: int
    name: str = "runs"

    def passed(self, alpha: float = 0.05) -> bool:
        """True when randomness is *not* rejected at level ``alpha``."""
        return self.p_value >= alpha


def runs_test(values: Sequence[float]) -> RunsTestResult:
    """Two-sided runs test around the sample median.

    Observations equal to the median are dropped (the conventional
    treatment); the normal approximation of the run-count distribution
    is used, which is accurate for the campaign sizes MBPTA uses.
    """
    from scipy.special import ndtr

    if len(values) < 10:
        raise ValueError("runs test needs at least 10 observations")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        median = ordered[mid]
    else:
        median = 0.5 * (ordered[mid - 1] + ordered[mid])
    signs = [v > median for v in values if v != median]
    n_above = sum(1 for s in signs if s)
    n_below = len(signs) - n_above
    if n_above == 0 or n_below == 0:
        # Degenerate: everything on one side (e.g. constant series).
        return RunsTestResult(
            runs=1 if signs else 0,
            expected_runs=1.0,
            statistic=0.0,
            p_value=1.0,
            n_above=n_above,
            n_below=n_below,
        )
    runs = 1
    for previous, current in zip(signs, signs[1:]):
        if previous != current:
            runs += 1
    n1, n2 = n_above, n_below
    expected = 2.0 * n1 * n2 / (n1 + n2) + 1.0
    variance = (
        2.0 * n1 * n2 * (2.0 * n1 * n2 - n1 - n2)
        / ((n1 + n2) ** 2 * (n1 + n2 - 1.0))
    )
    if variance <= 0:
        return RunsTestResult(
            runs=runs,
            expected_runs=expected,
            statistic=0.0,
            p_value=1.0,
            n_above=n1,
            n_below=n2,
        )
    z = (runs - expected) / math.sqrt(variance)
    # ndtr(-x) is the routine scipy.stats.norm.sf(x) calls.
    p = 2.0 * float(ndtr(-abs(z)))
    p = min(1.0, p)
    return RunsTestResult(
        runs=runs,
        expected_runs=expected,
        statistic=z,
        p_value=p,
        n_above=n1,
        n_below=n2,
    )
