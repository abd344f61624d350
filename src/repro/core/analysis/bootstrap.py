"""Vectorized bootstrap confidence bands for pWCET curves.

A pWCET point estimate at 1e-15 exceedance probability hides enormous
estimator variance — exactly the kind of number the MBPTA literature
warns against trusting bare.  This module quantifies it: refit the tail
under resampling and report per-cutoff quantile bands.

Two resampling schemes:

* ``parametric`` — draw R synthetic maxima/excess samples from the
  *fitted* distribution and refit each (classical parametric
  bootstrap),
* ``block`` — resample the fitted block maxima (equivalently: blocks of
  the underlying series) or threshold excesses with replacement
  (non-parametric bootstrap at the block level).

All R refits run as **batched numpy array operations** in the spirit of
:mod:`repro.platform.batch`: one ``(R, m)`` sort, one weighted-moment
contraction per L-moment, one closed-form quantile broadcast over the
``(R, cutoffs)`` grid — no per-replicate Python fit loop.  The PWM /
L-moment estimators are closed-form in the order statistics, which is
what makes the batching exact: :func:`naive_bootstrap_band` (the
per-replicate reference loop kept for tests and the benchmark) agrees
to float round-off.

Replicate quantiles are stitched with the high-watermark exactly like
:meth:`repro.core.pwcet.PWCETCurve.quantile` stitches the deep tail
(``max(model, hwm)``), so the band brackets the reported curve, not a
different statistic.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..evt.gev import fit_lmoments
from ..evt.gpd import fit_pwm as gpd_fit_pwm
from ..evt.gumbel import EULER_GAMMA, GumbelDistribution, fit_pwm
from ..evt.tail import BlockMaximaTail, PotTail
from .estimators import TailModel

__all__ = [
    "ConfidenceBand",
    "bootstrap_band",
    "naive_bootstrap_band",
    "path_bootstrap_seed",
]

#: Fewest surviving (non-degenerate) replicates a band may be built on.
MIN_EFFECTIVE_REPLICATES = 20

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ConfidenceBand:
    """Per-cutoff bootstrap confidence band of a pWCET curve.

    ``lower[i]``/``upper[i]`` bracket the pWCET estimate at exceedance
    probability ``cutoffs[i]`` at confidence ``level``; ``effective``
    counts the replicates that survived the degenerate-refit guard.
    """

    level: float
    kind: str
    replicates: int
    effective: int
    cutoffs: Tuple[float, ...]
    lower: Tuple[float, ...]
    upper: Tuple[float, ...]

    def interval(self, p: float) -> Tuple[float, float]:
        """(lower, upper) at exceedance ``p``.

        Exact cutoffs return the stored bounds; probabilities between
        two cutoffs interpolate log-linearly; outside the covered range
        raises :class:`ValueError`.
        """
        for cutoff, lo, hi in zip(self.cutoffs, self.lower, self.upper):
            if math.isclose(cutoff, p, rel_tol=1e-9):
                return lo, hi
        logs = [math.log10(c) for c in self.cutoffs]
        target = math.log10(p)
        order = sorted(range(len(logs)), key=lambda i: logs[i])
        if not logs or target < logs[order[0]] or target > logs[order[-1]]:
            raise ValueError(
                f"p={p:g} outside the band's cutoff range "
                f"[{min(self.cutoffs):g}, {max(self.cutoffs):g}]"
            )
        for a, b in zip(order, order[1:]):
            if logs[a] <= target <= logs[b]:
                f = (target - logs[a]) / (logs[b] - logs[a])
                return (
                    self.lower[a] + f * (self.lower[b] - self.lower[a]),
                    self.upper[a] + f * (self.upper[b] - self.upper[a]),
                )
        raise ValueError(f"p={p:g} not bracketed by the band cutoffs")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (round-trips through :meth:`from_dict`)."""
        return {
            "level": self.level,
            "kind": self.kind,
            "replicates": self.replicates,
            "effective": self.effective,
            "cutoffs": list(self.cutoffs),
            "lower": list(self.lower),
            "upper": list(self.upper),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ConfidenceBand":
        """Inverse of :meth:`to_dict`."""
        return cls(
            level=float(data["level"]),
            kind=str(data["kind"]),
            replicates=int(data["replicates"]),
            effective=int(data["effective"]),
            cutoffs=tuple(float(c) for c in data["cutoffs"]),
            lower=tuple(float(v) for v in data["lower"]),
            upper=tuple(float(v) for v in data["upper"]),
        )


def path_bootstrap_seed(base_seed: int, path: str) -> int:
    """Deterministic per-path bootstrap seed (stable across runs)."""
    return (base_seed & 0xFFFFFFFF) ^ zlib.crc32(path.encode("utf-8"))


# ----------------------------------------------------------------------
# Resampling (shared by the vectorized and the naive reference paths so
# both fit the *same* replicate samples).
# ----------------------------------------------------------------------
def _resample(
    data: np.ndarray,
    kind: str,
    replicates: int,
    rng: np.random.Generator,
    sampler: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """(R, m) replicate samples: resampled rows or parametric draws."""
    m = data.shape[0]
    if kind == "block":
        idx = rng.integers(0, m, size=(replicates, m))
        return data[idx]
    u = rng.random((replicates, m))
    u = np.clip(u, np.finfo(float).tiny, 1.0 - np.finfo(float).epsneg)
    return sampler(u)


def _gumbel_sampler(
    loc: float, scale: float
) -> Callable[[np.ndarray], np.ndarray]:
    def sample(u: np.ndarray) -> np.ndarray:
        return loc - scale * np.log(-np.log(u))

    return sample


def _gev_sampler(
    loc: float, scale: float, shape: float
) -> Callable[[np.ndarray], np.ndarray]:
    def sample(u: np.ndarray) -> np.ndarray:
        y = -np.log(u)
        if abs(shape) < 1e-12:
            return loc - scale * np.log(y)
        return loc + scale * np.expm1(-shape * np.log(y)) / shape

    return sample


def _gpd_sampler(
    scale: float, shape: float
) -> Callable[[np.ndarray], np.ndarray]:
    def sample(u: np.ndarray) -> np.ndarray:
        # isf(u): excess exceeded with probability u.
        if abs(shape) < 1e-12:
            return -scale * np.log(u)
        return scale * np.expm1(-shape * np.log(u)) / shape

    return sample


# ----------------------------------------------------------------------
# Batched moment-style refits: one (R, m) array in, R parameter rows out.
# ----------------------------------------------------------------------
def _batch_gumbel_pwm(
    samples: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`repro.core.evt.gumbel.fit_pwm` over R rows."""
    ordered = np.sort(samples, axis=1)
    m = ordered.shape[1]
    weights = np.arange(m, dtype=float) / (m - 1.0)
    b0 = ordered.sum(axis=1) / m
    b1 = (ordered * weights).sum(axis=1) / m
    scale = (2.0 * b1 - b0) / _LN2
    valid = np.isfinite(scale) & (scale > 0.0)
    loc = b0 - EULER_GAMMA * scale
    return loc, scale, valid


def _batch_gev_lmoments(
    samples: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`repro.core.evt.gev.fit_lmoments` over R rows."""
    from scipy.special import gamma as gamma_fn

    ordered = np.sort(samples, axis=1)
    m = ordered.shape[1]
    i = np.arange(m, dtype=float)
    w1 = i / (m - 1.0)
    w2 = i * (i - 1.0) / ((m - 1.0) * (m - 2.0))
    b0 = ordered.sum(axis=1) / m
    b1 = (ordered * w1).sum(axis=1) / m
    b2 = (ordered * w2).sum(axis=1) / m
    l1 = b0
    l2 = 2.0 * b1 - b0
    l3 = 6.0 * b2 - 6.0 * b1 + b0
    ok = np.isfinite(l2) & (l2 > 0.0)
    t3 = np.where(ok, l3 / np.where(ok, l2, 1.0), 0.0)
    c = 2.0 / (3.0 + t3) - _LN2 / math.log(3.0)
    k = 7.8590 * c + 2.9554 * c * c  # Hosking's k = -xi
    near_zero = np.abs(k) < 1e-9
    # Gumbel member for k ~ 0.
    scale_g = l2 / _LN2
    loc_g = l1 - EULER_GAMMA * scale_g
    # General member; gamma(1 + k) needs 1 + k > 0 for a usable scale.
    k_safe = np.where(near_zero | (k <= -1.0 + 1e-9), 0.5, k)
    with np.errstate(over="ignore", invalid="ignore"):
        g = gamma_fn(1.0 + k_safe)
        scale_k = l2 * k_safe / ((1.0 - 2.0 ** (-k_safe)) * g)
        loc_k = l1 - scale_k * (1.0 - g) / k_safe
    loc = np.where(near_zero, loc_g, loc_k)
    scale = np.where(near_zero, scale_g, scale_k)
    shape = np.where(near_zero, 0.0, -k)
    valid = (
        ok
        & np.isfinite(loc)
        & np.isfinite(scale)
        & (scale > 0.0)
        & (near_zero | (k > -1.0 + 1e-9))
    )
    return loc, scale, shape, valid


def _batch_gpd_pwm(
    samples: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`repro.core.evt.gpd.fit_pwm` over R rows
    (including its exponential-member fallback)."""
    ordered = np.sort(samples, axis=1)
    n = ordered.shape[1]
    i = np.arange(n, dtype=float)
    weights = (n - 1.0 - i) / (n - 1.0)
    b0 = ordered.sum(axis=1) / n
    b1 = (ordered * weights).sum(axis=1) / n
    denom = b0 - 2.0 * b1
    usable = np.isfinite(b0) & (b0 > 0.0) & (denom != 0.0)
    k = np.where(usable, b0 / np.where(usable, denom, 1.0) - 2.0, 0.0)
    scale = b0 * (1.0 + k)
    # fit_pwm falls back to the exponential member when the implied
    # scale is non-positive.
    exponential = usable & (scale <= 0.0)
    scale = np.where(exponential, b0, scale)
    shape = np.where(exponential, 0.0, -k)
    valid = usable & np.isfinite(scale) & (scale > 0.0)
    return scale, shape, valid


# ----------------------------------------------------------------------
# Batched quantile evaluation over the (R, cutoffs) grid.
# ----------------------------------------------------------------------
def _block_maxima_quantiles(
    loc: np.ndarray,
    scale: np.ndarray,
    shape: np.ndarray,
    block_size: int,
    cutoffs: np.ndarray,
) -> np.ndarray:
    """Per-run quantiles of R block-maxima tails at each cutoff
    (vectorizes :meth:`repro.core.evt.tail.BlockMaximaTail.quantile`)."""
    log_qb = block_size * np.log1p(-cutoffs)  # (P,)
    y = -log_qb[None, :]  # (1, P), > 0
    loc_c = loc[:, None]
    scale_c = scale[:, None]
    shape_c = shape[:, None]
    gumbel = loc_c - scale_c * np.log(y)
    with np.errstate(over="ignore", invalid="ignore"):
        shape_safe = np.where(np.abs(shape_c) < 1e-12, 1.0, shape_c)
        general = loc_c + scale_c * np.expm1(-shape_safe * np.log(y)) / shape_safe
    return np.where(np.abs(shape_c) < 1e-12, gumbel, general)


def _pot_quantiles(
    scale: np.ndarray,
    shape: np.ndarray,
    threshold: float,
    exceedance_rate: float,
    cutoffs: np.ndarray,
) -> np.ndarray:
    """Per-run quantiles of R POT tails at each cutoff (vectorizes
    :meth:`repro.core.evt.tail.PotTail.quantile` incl. its clamp)."""
    q = cutoffs[None, :] / exceedance_rate  # (1, P)
    scale_c = scale[:, None]
    shape_c = shape[:, None]
    exponential = threshold - scale_c * np.log(q)
    with np.errstate(over="ignore", invalid="ignore"):
        shape_safe = np.where(np.abs(shape_c) < 1e-12, 1.0, shape_c)
        general = threshold + scale_c * np.expm1(-shape_safe * np.log(q)) / shape_safe
    out = np.where(np.abs(shape_c) < 1e-12, exponential, general)
    # Shallower than the threshold's empirical rate: clamp (PotTail).
    return np.where(cutoffs[None, :] >= exceedance_rate, threshold, out)


def _band_from_quantiles(
    quantiles: np.ndarray,
    valid: np.ndarray,
    hwm: float,
    level: float,
    kind: str,
    replicates: int,
    cutoffs: Sequence[float],
) -> Optional[ConfidenceBand]:
    effective = int(valid.sum())
    if effective < MIN_EFFECTIVE_REPLICATES:
        return None
    stitched = np.maximum(quantiles[valid], hwm)
    lo = np.quantile(stitched, (1.0 - level) / 2.0, axis=0)
    hi = np.quantile(stitched, (1.0 + level) / 2.0, axis=0)
    return ConfidenceBand(
        level=level,
        kind=kind,
        replicates=replicates,
        effective=effective,
        cutoffs=tuple(float(p) for p in cutoffs),
        lower=tuple(float(v) for v in lo),
        upper=tuple(float(v) for v in hi),
    )


def bootstrap_band(
    model: TailModel,
    hwm: float,
    cutoffs: Sequence[float],
    level: float,
    replicates: int = 200,
    kind: str = "parametric",
    seed: int = 2017,
) -> Optional[ConfidenceBand]:
    """Bootstrap the tail refit and return per-cutoff quantile bands.

    ``model.fit_data`` (block maxima or excesses) is resampled, each
    replicate is refitted with the matching moment-style estimator, and
    the refitted tails are evaluated at ``cutoffs`` — all as batched
    numpy operations.  Returns None when the sample cannot support a
    band (degenerate data, or fewer than
    :data:`MIN_EFFECTIVE_REPLICATES` surviving refits).
    """
    data = np.asarray(model.fit_data, dtype=float)
    if data.size < 3 or np.unique(data).size < 2:
        return None
    rng = np.random.default_rng(seed)
    cut = np.asarray(list(cutoffs), dtype=float)
    tail = model.tail
    if isinstance(tail, BlockMaximaTail):
        dist = tail.distribution
        if isinstance(dist, GumbelDistribution):
            sampler = _gumbel_sampler(dist.location, dist.scale)
            samples = _resample(data, kind, replicates, rng, sampler)
            loc, scale, valid = _batch_gumbel_pwm(samples)
            shape = np.zeros_like(loc)
        else:
            sampler = _gev_sampler(dist.location, dist.scale, dist.shape)
            samples = _resample(data, kind, replicates, rng, sampler)
            loc, scale, shape, valid = _batch_gev_lmoments(samples)
        quantiles = _block_maxima_quantiles(
            loc, scale, shape, tail.block_size, cut
        )
    elif isinstance(tail, PotTail):
        gpd = tail.fit.gpd
        sampler = _gpd_sampler(gpd.scale, gpd.shape)
        samples = _resample(data, kind, replicates, rng, sampler)
        scale, shape, valid = _batch_gpd_pwm(samples)
        quantiles = _pot_quantiles(
            scale,
            shape,
            tail.fit.threshold,
            tail.fit.exceedance_rate,
            cut,
        )
    else:  # pragma: no cover - no other FittedTail exists today
        return None
    valid &= np.isfinite(quantiles).all(axis=1)
    return _band_from_quantiles(
        quantiles, valid, hwm, level, kind, replicates, cut
    )


# ----------------------------------------------------------------------
# Naive per-replicate reference (tests + the benchmarks/ speedup gate).
# ----------------------------------------------------------------------
def naive_bootstrap_band(
    model: TailModel,
    hwm: float,
    cutoffs: Sequence[float],
    level: float,
    replicates: int = 200,
    kind: str = "parametric",
    seed: int = 2017,
) -> Optional[ConfidenceBand]:
    """Reference implementation: one Python refit per replicate.

    Draws the *same* replicate samples as :func:`bootstrap_band` (same
    rng stream, same order) and fits each row with the scalar
    :func:`fit_pwm` / :func:`fit_lmoments` / GPD PWM — the loop the
    vectorized path replaces.  Agreement is to float round-off (the
    scalar path sums sequentially, numpy pairwise).
    """
    data = np.asarray(model.fit_data, dtype=float)
    if data.size < 3 or np.unique(data).size < 2:
        return None
    rng = np.random.default_rng(seed)
    cut = list(float(p) for p in cutoffs)
    tail = model.tail
    if isinstance(tail, BlockMaximaTail):
        dist = tail.distribution
        if isinstance(dist, GumbelDistribution):
            sampler = _gumbel_sampler(dist.location, dist.scale)
            fit_row = fit_pwm
        else:
            sampler = _gev_sampler(dist.location, dist.scale, dist.shape)
            fit_row = fit_lmoments
        samples = _resample(data, kind, replicates, rng, sampler)
        rows: List[List[float]] = []
        for row in samples:
            try:
                fitted = fit_row([float(v) for v in row])
            except ValueError:
                continue
            replica = BlockMaximaTail(
                distribution=fitted, block_size=tail.block_size
            )
            rows.append([replica.quantile(p) for p in cut])
    elif isinstance(tail, PotTail):
        gpd = tail.fit.gpd
        samples = _resample(
            data, kind, replicates, rng, _gpd_sampler(gpd.scale, gpd.shape)
        )
        rows = []
        for row in samples:
            try:
                fitted = gpd_fit_pwm([float(v) for v in row])
            except ValueError:
                continue
            quantile_row = []
            for p in cut:
                if p >= tail.fit.exceedance_rate:
                    quantile_row.append(tail.fit.threshold)
                else:
                    quantile_row.append(
                        tail.fit.threshold + fitted.isf(p / tail.fit.exceedance_rate)
                    )
            rows.append(quantile_row)
    else:  # pragma: no cover
        return None
    if len(rows) < MIN_EFFECTIVE_REPLICATES:
        return None
    quantiles = np.asarray(rows, dtype=float)
    finite = np.isfinite(quantiles).all(axis=1)
    return _band_from_quantiles(
        quantiles,
        finite,
        hwm,
        level,
        kind,
        replicates,
        cut,
    )
