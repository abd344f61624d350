"""Generalized Pareto distribution (GPD) for peaks-over-threshold.

The POT route to a pWCET tail: pick a threshold ``u``, model the
*excesses* ``x - u`` of the observations above ``u`` with a GPD, and
combine with the empirical exceedance rate of ``u``.  Provided as the
cross-check companion to the block-maxima/Gumbel default (the two
must agree where they overlap — one of the pipeline diagnostics).

Parameterization (EVT convention)::

    SF(y) = (1 + xi * y / sigma)^(-1/xi)     xi != 0, y >= 0
    SF(y) = exp(-y / sigma)                  xi == 0
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["GpdDistribution", "fit_pwm", "fit_mle", "mean_excess"]


@dataclass(frozen=True)
class GpdDistribution:
    """GPD over excesses ``y >= 0``."""

    scale: float
    shape: float

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def support_upper(self) -> float:
        """Supremum of the excess support (finite for shape < 0)."""
        if self.shape < -1e-12:
            return -self.scale / self.shape
        return math.inf

    # exp(-log1p(.) / xi) and expm1(.) / xi stay accurate for tiny |xi|,
    # where the power forms of sf/pdf/isf cancel (see GevDistribution).
    def sf(self, y: float) -> float:
        """P(Y > y) for an excess ``y``."""
        if y <= 0.0:
            return 1.0
        xi = self.shape
        if abs(xi) < 1e-12:
            return math.exp(-y / self.scale)
        t = 1.0 + xi * y / self.scale
        if t <= 0.0:
            return 0.0
        return math.exp(-math.log1p(xi * y / self.scale) / xi)

    def cdf(self, y: float) -> float:
        """P(Y <= y)."""
        return 1.0 - self.sf(y)

    def pdf(self, y: float) -> float:
        """Density over excesses."""
        if y < 0.0:
            return 0.0
        xi = self.shape
        if abs(xi) < 1e-12:
            return math.exp(-y / self.scale) / self.scale
        t = 1.0 + xi * y / self.scale
        if t <= 0.0:
            return 0.0
        return math.exp(-math.log1p(xi * y / self.scale) / xi) / t / self.scale

    def logpdf(self, y: float) -> float:
        """Log density (-inf outside the support)."""
        density = self.pdf(y)
        if density <= 0.0:
            return -math.inf
        return math.log(density)

    def isf(self, p: float) -> float:
        """Excess level with P(Y > y) = p."""
        if not 0.0 < p < 1.0:
            raise ValueError("p must be in (0, 1)")
        xi = self.shape
        if abs(xi) < 1e-12:
            return -self.scale * math.log(p)
        return self.scale * math.expm1(-xi * math.log(p)) / xi

    def ppf(self, q: float) -> float:
        """Quantile: excess level with CDF = q (enables QQ diagnostics)."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        return self.isf(1.0 - q)

    @property
    def mean(self) -> float:
        """Mean excess (finite for shape < 1)."""
        if self.shape >= 1.0:
            return math.inf
        return self.scale / (1.0 - self.shape)


def fit_pwm(excesses: Sequence[float]) -> GpdDistribution:
    """Probability-weighted-moments GPD fit (Hosking & Wallis).

    ``xi = 2 - b0 / (b0 - 2 b1)`` (sign-adjusted to the EVT convention),
    ``sigma = b0 (1 - xi')``... implemented directly from the b-moments.
    """
    n = len(excesses)
    if n < 3:
        raise ValueError("need at least 3 excesses")
    if any(e < 0 for e in excesses):
        raise ValueError("excesses must be non-negative")
    ordered = sorted(excesses)
    b0 = math.fsum(ordered) / n
    b1 = math.fsum(((n - 1.0 - i) / (n - 1.0)) * v for i, v in enumerate(ordered)) / n
    if b0 <= 0 or (b0 - 2.0 * b1) == 0:
        raise ValueError("degenerate excesses for PWM")
    # Hosking-Wallis: k = b0 / (b0 - 2 b1) - 2 ; xi = -k.
    k = b0 / (b0 - 2.0 * b1) - 2.0
    scale = b0 * (1.0 + k)  # = 2 b0 b1 / (b0 - 2 b1) rearranged
    if scale <= 0:
        # Fall back to the exponential member.
        return GpdDistribution(scale=b0, shape=0.0)
    return GpdDistribution(scale=scale, shape=-k)


def fit_mle(excesses: Sequence[float]) -> GpdDistribution:
    """Maximum-likelihood GPD fit (Nelder-Mead seeded by PWM)."""
    from scipy.optimize import minimize

    n = len(excesses)
    if n < 5:
        raise ValueError("GPD MLE needs at least 5 excesses")
    ys = [float(e) for e in excesses]
    try:
        seed = fit_pwm(ys)
    except ValueError:
        seed = GpdDistribution(scale=max(math.fsum(ys) / n, 1e-9), shape=0.0)

    def negloglik(theta: Sequence[float]) -> float:
        log_sigma, xi = theta
        sigma = math.exp(log_sigma)
        try:
            dist = GpdDistribution(scale=sigma, shape=xi)
        except ValueError:
            return 1e12
        total = 0.0
        for y in ys:
            lp = dist.logpdf(y)
            if not math.isfinite(lp):
                return 1e12
            total += lp
        return -total

    start = [math.log(seed.scale), seed.shape]
    result = minimize(negloglik, start, method="Nelder-Mead",
                      options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 4000})
    log_sigma, xi = result.x
    fitted = GpdDistribution(scale=float(math.exp(log_sigma)), shape=float(xi))
    seed_ll = -negloglik(start)
    fit_ll = math.fsum(fitted.logpdf(y) for y in ys)
    if fit_ll < seed_ll - 1e-9:
        return seed
    return fitted


def mean_excess(values: Sequence[float], threshold: float) -> float:
    """Mean of ``x - threshold`` over observations above the threshold.

    The mean-residual-life function: approximately linear in the
    threshold where the GPD model holds — the classical threshold-
    selection diagnostic.
    """
    excesses = [v - threshold for v in values if v > threshold]
    if not excesses:
        raise ValueError(f"no observations above threshold {threshold}")
    return math.fsum(excesses) / len(excesses)
