"""Ljung-Box (and Box-Pierce) portmanteau independence tests.

The paper: "We test independence with the Ljung-Box test and a 5%
significance level (a typical value for this type of tests)", obtaining
a value of 0.83 — comfortably above 0.05, so independence is not
rejected and MBPTA is enabled.

The Ljung-Box statistic over ``m`` lags is::

    Q = n (n + 2) * sum_{k=1..m}  r_k^2 / (n - k)

which is asymptotically chi-square with ``m`` degrees of freedom under
the null hypothesis of independence.  Box-Pierce is the historical
variant without the finite-sample correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .autocorrelation import acf

__all__ = ["PortmanteauResult", "ljung_box_test", "box_pierce_test", "default_lags"]


@dataclass(frozen=True)
class PortmanteauResult:
    """Outcome of a portmanteau independence test."""

    statistic: float
    p_value: float
    lags: int
    n: int
    name: str = "ljung-box"

    def passed(self, alpha: float = 0.05) -> bool:
        """True when independence is *not* rejected at level ``alpha``."""
        return self.p_value >= alpha


def default_lags(n: int) -> int:
    """Standard lag-count heuristic ``min(10, n // 5)`` (at least 1).

    Few lags concentrate power at short-range dependence — the kind a
    leaky measurement protocol (e.g. caches not flushed between runs)
    would introduce.
    """
    return max(1, min(10, n // 5))


def ljung_box_test(
    values: Sequence[float], lags: int = 0
) -> PortmanteauResult:
    """Ljung-Box test of the null "independent observations"."""
    from scipy.special import chdtrc

    n = len(values)
    if n < 8:
        raise ValueError("Ljung-Box needs at least 8 observations")
    m = lags if lags > 0 else default_lags(n)
    if m >= n:
        raise ValueError("lags must be < number of observations")
    correlations = acf(values, m)
    statistic = 0.0
    for k, r in enumerate(correlations, start=1):
        statistic += r * r / (n - k)
    statistic *= n * (n + 2.0)
    # chdtrc is the routine scipy.stats.chi2.sf calls; the two differ
    # only for a negative statistic, and a sum of squares is >= 0.
    p_value = float(chdtrc(m, statistic))
    return PortmanteauResult(
        statistic=statistic, p_value=p_value, lags=m, n=n, name="ljung-box"
    )


def box_pierce_test(
    values: Sequence[float], lags: int = 0
) -> PortmanteauResult:
    """Box-Pierce test (Ljung-Box without the small-sample correction)."""
    from scipy.special import chdtrc

    n = len(values)
    if n < 8:
        raise ValueError("Box-Pierce needs at least 8 observations")
    m = lags if lags > 0 else default_lags(n)
    if m >= n:
        raise ValueError("lags must be < number of observations")
    correlations = acf(values, m)
    statistic = n * math.fsum(r * r for r in correlations)
    # chdtrc is the routine scipy.stats.chi2.sf calls; the two differ
    # only for a negative statistic, and a sum of squares is >= 0.
    p_value = float(chdtrc(m, statistic))
    return PortmanteauResult(
        statistic=statistic, p_value=p_value, lags=m, n=n, name="box-pierce"
    )
