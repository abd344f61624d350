"""Generalized extreme value (GEV) distribution and fitting.

The GEV unifies the three extreme-value families through the shape
parameter ``xi`` (EVT convention)::

    xi = 0   Gumbel   (light tail — the MBPTA default)
    xi > 0   Frechet  (heavy tail — unbounded pWCET growth; on a real
                       platform usually a symptom of non-i.i.d. data)
    xi < 0   reversed Weibull (bounded tail — finite absolute WCET)

MBPTA tools fit the GEV and check whether ``xi`` is statistically
indistinguishable from 0 (then the safer-to-extrapolate Gumbel is used)
or negative (bounded).  This module provides the distribution, an
L-moments estimator (excellent small-sample behaviour, used as the MLE
seed) and maximum likelihood via scipy, plus a likelihood-ratio test for
``xi = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from .gumbel import GumbelDistribution, fit_mle as gumbel_fit_mle, fit_pwm

__all__ = [
    "GevDistribution",
    "fit_lmoments",
    "fit_mle",
    "shape_likelihood_ratio_test",
]


@dataclass(frozen=True)
class GevDistribution:
    """GEV(location, scale, shape) for maxima (EVT sign convention)."""

    location: float
    scale: float
    shape: float

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def _z(self, x: float) -> float:
        return (x - self.location) / self.scale

    def support_contains(self, x: float) -> bool:
        """Whether ``x`` lies in the distribution support."""
        if abs(self.shape) < 1e-12:
            return True
        return 1.0 + self.shape * self._z(x) > 0.0

    # The shape terms are written as exp(-log1p(xi z) / xi) and
    # expm1(-xi log y) / xi, not t ** (-1 / xi) and (y ** -xi - 1) / xi:
    # the power forms cancel catastrophically for |xi| just above the
    # 1e-12 Gumbel switch.
    def cdf(self, x: float) -> float:
        """P(X <= x)."""
        xi = self.shape
        z = self._z(x)
        if abs(xi) < 1e-12:
            if z < -700.0:
                return 0.0
            return math.exp(-math.exp(-z))
        t = 1.0 + xi * z
        if t <= 0.0:
            return 0.0 if xi > 0 else 1.0
        return math.exp(-math.exp(-math.log1p(xi * z) / xi))

    def sf(self, x: float) -> float:
        """P(X > x), stable in the deep tail."""
        xi = self.shape
        z = self._z(x)
        if abs(xi) < 1e-12:
            if z < -700.0:
                return 1.0
            return -math.expm1(-math.exp(-z))
        t = 1.0 + xi * z
        if t <= 0.0:
            return 1.0 if xi > 0 else 0.0
        return -math.expm1(-math.exp(-math.log1p(xi * z) / xi))

    def pdf(self, x: float) -> float:
        """Density."""
        xi = self.shape
        z = self._z(x)
        if abs(xi) < 1e-12:
            return math.exp(-z - math.exp(-z)) / self.scale
        t = 1.0 + xi * z
        if t <= 0.0:
            return 0.0
        s = math.exp(-math.log1p(xi * z) / xi)
        return math.exp(-s) * s / t / self.scale

    def logpdf(self, x: float) -> float:
        """Log density (-inf outside the support)."""
        density = self.pdf(x)
        if density <= 0.0:
            return -math.inf
        return math.log(density)

    def ppf(self, q: float) -> float:
        """Quantile function."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        xi = self.shape
        y = -math.log(q)
        if abs(xi) < 1e-12:
            return self.location - self.scale * math.log(y)
        return self.location + self.scale * math.expm1(-xi * math.log(y)) / xi

    def isf(self, p: float) -> float:
        """Inverse survival (stable for the tiny p of pWCET cutoffs)."""
        if not 0.0 < p < 1.0:
            raise ValueError("p must be in (0, 1)")
        xi = self.shape
        y = -math.log1p(-p)
        if abs(xi) < 1e-12:
            return self.location - self.scale * math.log(y)
        return self.location + self.scale * math.expm1(-xi * math.log(y)) / xi

    @property
    def upper_endpoint(self) -> float:
        """Supremum of the support (inf unless shape < 0)."""
        if self.shape < -1e-12:
            return self.location - self.scale / self.shape
        return math.inf

    def as_gumbel(self) -> GumbelDistribution:
        """Project to the Gumbel member (ignores the shape)."""
        return GumbelDistribution(location=self.location, scale=self.scale)

    def loglikelihood(self, values: Sequence[float]) -> float:
        """Sum of log densities."""
        return math.fsum(self.logpdf(v) for v in values)


def fit_lmoments(values: Sequence[float]) -> GevDistribution:
    """Hosking's L-moment estimator for the GEV.

    Uses the classic approximation for the shape::

        c  = 2 b1 - b0) / (3 b2 - b0) - log 2 / log 3
        xi_hat = -(7.8590 c + 2.9554 c^2)     (note the EVT sign flip)

    followed by closed-form scale/location.  Valid for ``xi < 1``,
    which covers every execution-time scenario of interest.
    """
    from scipy.special import gamma as gamma_fn

    n = len(values)
    if n < 3:
        raise ValueError("need at least 3 observations")
    ordered = sorted(values)
    b0 = math.fsum(ordered) / n
    b1 = math.fsum((i / (n - 1.0)) * v for i, v in enumerate(ordered)) / n
    b2 = 0.0
    if n > 2:
        b2 = math.fsum(
            (i * (i - 1.0) / ((n - 1.0) * (n - 2.0))) * v
            for i, v in enumerate(ordered)
        ) / n
    l1 = b0
    l2 = 2.0 * b1 - b0
    l3 = 6.0 * b2 - 6.0 * b1 + b0
    if l2 <= 0:
        raise ValueError("degenerate sample (non-positive L-scale)")
    t3 = l3 / l2
    c = 2.0 / (3.0 + t3) - math.log(2.0) / math.log(3.0)
    k = 7.8590 * c + 2.9554 * c * c  # Hosking's k = -xi
    if abs(k) < 1e-9:
        scale = l2 / math.log(2.0)
        location = l1 - 0.5772156649015329 * scale
        return GevDistribution(location=location, scale=scale, shape=0.0)
    g = gamma_fn(1.0 + k)
    scale = l2 * k / ((1.0 - 2.0 ** (-k)) * g)
    location = l1 - scale * (1.0 - g) / k
    return GevDistribution(location=location, scale=scale, shape=-k)


def fit_mle(values: Sequence[float]) -> GevDistribution:
    """Maximum-likelihood GEV fit (Nelder-Mead seeded by L-moments)."""
    from scipy.optimize import minimize

    n = len(values)
    if n < 5:
        raise ValueError("GEV MLE needs at least 5 observations")
    xs = [float(v) for v in values]
    try:
        seed = fit_lmoments(xs)
    except ValueError:
        gum = fit_pwm(xs)
        seed = GevDistribution(location=gum.location, scale=gum.scale, shape=0.0)

    def negloglik(theta: Sequence[float]) -> float:
        mu, log_sigma, xi = theta
        sigma = math.exp(log_sigma)
        try:
            dist = GevDistribution(location=mu, scale=sigma, shape=xi)
        except ValueError:
            return 1e12
        ll = dist.loglikelihood(xs)
        if not math.isfinite(ll):
            return 1e12
        return -ll

    start = [seed.location, math.log(seed.scale), seed.shape]
    result = minimize(negloglik, start, method="Nelder-Mead",
                      options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 4000})
    mu, log_sigma, xi = result.x
    fitted = GevDistribution(location=float(mu), scale=float(math.exp(log_sigma)),
                             shape=float(xi))
    # Guard: if the optimizer wandered into a worse likelihood than the
    # seed (rare but possible with flat likelihoods), keep the seed.
    if fitted.loglikelihood(xs) < seed.loglikelihood(xs) - 1e-9:
        return seed
    return fitted


def shape_likelihood_ratio_test(
    values: Sequence[float],
) -> Tuple[GevDistribution, GumbelDistribution, float]:
    """Likelihood-ratio test of ``xi = 0`` (Gumbel) within the GEV.

    Returns ``(gev_fit, gumbel_fit, p_value)``; a large p-value means the
    Gumbel restriction is statistically adequate — the standard MBPTA
    argument for using the light-tailed member.
    """
    from scipy.special import chdtrc

    gev = fit_mle(values)
    gumbel = gumbel_fit_mle(values)
    ll_gev = gev.loglikelihood(values)
    ll_gum = math.fsum(gumbel.logpdf(v) for v in values)
    statistic = max(0.0, 2.0 * (ll_gev - ll_gum))
    # chdtrc is the routine scipy.stats.chi2.sf calls; the two differ
    # only for a negative statistic, which the max() above rules out.
    p_value = float(chdtrc(1, statistic))
    return gev, gumbel, p_value
