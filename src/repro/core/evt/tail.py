"""Fitted-tail abstraction: from EVT fits to per-run exceedance.

A pWCET curve answers: *what is the probability that one execution
exceeds budget x?*  The EVT machinery, however, fits distributions of
**block maxima** (Gumbel/GEV over maxima of b runs) or of **threshold
excesses** (GPD).  This module performs the translation:

* block maxima: if ``G`` is the CDF of the maximum of ``b`` runs, a
  single run exceeds ``x`` with ``p = 1 - G(x)^(1/b)`` (exact under
  i.i.d.), computed stably for the tiny probabilities of interest;
* POT: ``p = zeta_u * SF_gpd(x - u)`` directly.

Both implement the :class:`FittedTail` interface consumed by
:class:`repro.core.pwcet.PWCETCurve`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Union

from .gev import GevDistribution
from .gumbel import GumbelDistribution
from .pot import PotFit

__all__ = ["FittedTail", "BlockMaximaTail", "PotTail"]


class FittedTail(ABC):
    """Per-run exceedance function derived from an EVT fit."""

    @abstractmethod
    def exceedance(self, x: float) -> float:
        """P(one run > x)."""

    @abstractmethod
    def quantile(self, p: float) -> float:
        """Execution time with per-run exceedance probability ``p``."""

    @property
    @abstractmethod
    def description(self) -> str:
        """Human-readable fit summary for reports."""


@dataclass(frozen=True)
class BlockMaximaTail(FittedTail):
    """Tail from a Gumbel/GEV fit over block maxima of size ``block_size``."""

    distribution: Union[GumbelDistribution, GevDistribution]
    block_size: int

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")

    def exceedance(self, x: float) -> float:
        """P(one run > x) = 1 - G(x)^(1/b), computed via logs.

        ``log G(x) = -exp(-z)`` (Gumbel) is available in closed form, so
        ``p = -expm1(log G / b)`` stays accurate down to 1e-300.
        """
        b = float(self.block_size)
        dist = self.distribution
        if isinstance(dist, GumbelDistribution):
            z = (x - dist.location) / dist.scale
            log_g = -math.exp(-z)
        else:
            xi = dist.shape
            z = (x - dist.location) / dist.scale
            if abs(xi) < 1e-12:
                log_g = -math.exp(-z)
            else:
                t = 1.0 + xi * z
                if t <= 0.0:
                    return 1.0 if xi > 0 else 0.0
                log_g = -math.exp(-math.log1p(xi * z) / xi)
        return -math.expm1(log_g / b)

    def quantile(self, p: float) -> float:
        """Inverse of :meth:`exceedance` (closed form via the block CDF)."""
        if not 0.0 < p < 1.0:
            raise ValueError("p must be in (0, 1)")
        b = float(self.block_size)
        # Per-run exceedance p  =>  block CDF value q_b = (1 - p)^b,
        # i.e. log q_b = b * log1p(-p).
        log_qb = b * math.log1p(-p)
        dist = self.distribution
        if isinstance(dist, GumbelDistribution):
            # log G = -exp(-z)  =>  z = -log(-log_qb)
            return dist.location - dist.scale * math.log(-log_qb)
        xi = dist.shape
        if abs(xi) < 1e-12:
            return dist.location - dist.scale * math.log(-log_qb)
        return dist.location + dist.scale * math.expm1(-xi * math.log(-log_qb)) / xi

    @property
    def description(self) -> str:
        dist = self.distribution
        if isinstance(dist, GumbelDistribution):
            return (
                f"Gumbel(mu={dist.location:.1f}, beta={dist.scale:.3f}) "
                f"over block maxima (b={self.block_size})"
            )
        return (
            f"GEV(mu={dist.location:.1f}, sigma={dist.scale:.3f}, "
            f"xi={dist.shape:+.4f}) over block maxima (b={self.block_size})"
        )


@dataclass(frozen=True)
class PotTail(FittedTail):
    """Tail from a peaks-over-threshold GPD fit."""

    fit: PotFit

    def exceedance(self, x: float) -> float:
        """P(one run > x); 1.0 below the threshold (tail not applicable)."""
        if x < self.fit.threshold:
            return 1.0
        return self.fit.exceedance_probability(x)

    def quantile(self, p: float) -> float:
        """Execution time with per-run exceedance probability ``p``.

        Probabilities shallower than the empirical exceedance rate are
        clamped to the threshold: there the curve belongs to the
        empirical body, and :class:`repro.core.pwcet.PWCETCurve` takes
        the max with the empirical quantile anyway.  (The raw
        :meth:`PotFit.quantile` rejects such ``p`` instead.)
        """
        if not 0.0 < p < 1.0:
            raise ValueError("p must be in (0, 1)")
        if p >= self.fit.exceedance_rate:
            return self.fit.threshold
        return self.fit.quantile(p)

    @property
    def description(self) -> str:
        gpd = self.fit.gpd
        return (
            f"GPD(sigma={gpd.scale:.3f}, xi={gpd.shape:+.4f}) over "
            f"{self.fit.num_excesses} excesses above u={self.fit.threshold:.1f} "
            f"(zeta={self.fit.exceedance_rate:.3f})"
        )
