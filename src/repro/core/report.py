"""Textual analysis reports.

Renders an :class:`~repro.core.analysis.AnalysisResult` into the sectioned
text report a timing-analysis tool would emit: sample summaries, i.i.d.
gate values (the paper reports 0.83 / 0.45), EVT fit parameters,
per-path fit-quality diagnostics (Anderson-Darling/KS/QQ correlation,
return levels), bootstrap confidence bands when computed, the pWCET
table at the Figure 3 cutoffs, and warnings (rare paths, GoF alarms,
non-converged estimates).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .analysis.result import AnalysisResult, PathAnalysis

__all__ = ["render_report", "render_pwcet_table"]


def _hrule(char: str = "-", width: int = 72) -> str:
    return char * width


def render_pwcet_table(result: "AnalysisResult") -> str:
    """The (cutoff, pWCET, pWCET/HWM) table as aligned text.

    When the analysis carried bootstrap bands, every row additionally
    shows the envelope confidence interval.
    """
    hwm = result.envelope.hwm()
    bands = {p: (lo, hi) for p, lo, hi in result.envelope.band_table(
        result.config.cutoffs
    )}
    header = f"{'cutoff':>10}  {'pWCET':>14}  {'pWCET/HWM':>10}"
    if bands:
        header += f"  {'CI lower':>14}  {'CI upper':>14}"
    header += "  dominated by"
    lines = [header]
    for p, estimate in result.pwcet_table():
        dominating = result.envelope.dominating_path(p)
        row = f"{p:>10.0e}  {estimate:>14.0f}  {estimate / hwm:>10.3f}"
        if bands:
            if p in bands:
                lo, hi = bands[p]
                row += f"  {lo:>14.0f}  {hi:>14.0f}"
            else:
                row += f"  {'-':>14}  {'-':>14}"
        row += f"  {dominating}"
        lines.append(row)
    return "\n".join(lines)


def _fit_quality_lines(analysis: "PathAnalysis") -> List[str]:
    """Per-path fit-quality diagnostics (the wired evt.diagnostics)."""
    from .evt.diagnostics import return_levels
    from .evt.tail import BlockMaximaTail

    lines: List[str] = []
    quality = analysis.quality
    if quality is not None:
        verdict = "ADEQUATE" if quality.adequate else "POOR"
        lines.append(
            f"  fit quality: AD p={quality.anderson_darling_p:.3f}, "
            f"KS p={quality.ks_p:.3f}, "
            f"QQ r={quality.qq_correlation:.4f} -> {verdict}"
        )
    if analysis.selection_note:
        lines.append(f"  selection: {analysis.selection_note}")
    tail = analysis.tail
    if isinstance(tail, BlockMaximaTail) and analysis.method != "constant":
        # The classical return-level check: the block maximum exceeded
        # once every m blocks on average, with the delta-method error.
        try:
            rows = return_levels(
                tail.distribution,
                periods=(1_000, 1_000_000),
                sample_size=max(
                    len(analysis.sample) // max(tail.block_size, 1), 1
                ),
            )
        except (ValueError, OverflowError):
            rows = []
        for m, level, se in rows:
            suffix = f" (se {se:.0f})" if se == se and se > 0.0 else ""
            lines.append(
                f"  return level (1-in-{m:.0f} blocks): {level:.0f}{suffix}"
            )
    return lines


def _band_lines(analysis: "PathAnalysis") -> List[str]:
    """Per-path bootstrap confidence band summary."""
    band = analysis.band
    if band is None:
        return []
    lines = [
        f"  {band.level:.0%} bootstrap band ({band.kind}, "
        f"{band.effective}/{band.replicates} replicates):"
    ]
    for p, lo, hi in zip(band.cutoffs, band.lower, band.upper):
        lines.append(f"    pWCET@{p:.0e}: [{lo:.0f}, {hi:.0f}]")
    return lines


def render_report(result: "AnalysisResult") -> str:
    """Full multi-section report."""
    lines: List[str] = []
    title = f"MBPTA analysis report{': ' + result.label if result.label else ''}"
    lines.append(_hrule("="))
    lines.append(title)
    lines.append(_hrule("="))

    # -- sample overview -------------------------------------------------
    total = sum(len(a.sample) for a in result.paths.values())
    total += sum(r.observations for r in result.rare_paths)
    lines.append(
        f"observations: {total} across {len(result.paths)} fitted path(s)"
        + (f" + {len(result.rare_paths)} rare path(s)" if result.rare_paths else "")
    )
    lines.append(f"high-watermark (all paths): {result.envelope.hwm():.0f}")
    lines.append("")

    # -- per-path sections -------------------------------------------------
    for path, analysis in sorted(result.paths.items()):
        sample = analysis.sample
        lines.append(_hrule())
        lines.append(f"path: {path}  (n={len(sample)})")
        lines.append(
            f"  exec time: min={sample.minimum:.0f} mean={sample.mean:.0f} "
            f"hwm={sample.hwm:.0f} std={sample.std:.1f}"
        )
        iid = analysis.iid
        lines.append(
            f"  i.i.d. gate (alpha={iid.alpha}): "
            f"Ljung-Box p={iid.independence.p_value:.3f}, "
            f"KS-2samp p={iid.identical_distribution.p_value:.3f} "
            f"-> {'PASS' if iid.passed else 'FAIL'}"
        )
        if iid.runs is not None:
            lines.append(f"  runs test (supporting): p={iid.runs.p_value:.3f}")
        if analysis.method:
            lines.append(f"  estimator: {analysis.method}")
        lines.append(f"  tail: {analysis.tail.description}")
        lines.append(f"  tail GoF (Anderson-Darling): p={analysis.gof_p_value:.3f}")
        lines.extend(_fit_quality_lines(analysis))
        if analysis.gev_shape is not None:
            lines.append(
                f"  GEV shape cross-check: xi={analysis.gev_shape:+.4f} "
                f"(LR test of xi=0: p={analysis.gev_shape_p_value:.3f})"
            )
        lines.extend(_band_lines(analysis))
        if analysis.convergence is not None:
            conv = analysis.convergence
            if conv.converged:
                lines.append(
                    f"  convergence: stable after {conv.runs_needed} runs "
                    f"(tol={conv.tolerance:.0%} at p={conv.probability:.0e})"
                )
            else:
                lines.append(
                    "  convergence: NOT yet stable -- collect more runs"
                )

    # -- rare paths ---------------------------------------------------------
    if result.rare_paths:
        lines.append(_hrule())
        lines.append("rare paths (no EVT fit; HWM + margin floors):")
        for rare in result.rare_paths:
            lines.append(
                f"  {rare.path}: n={rare.observations}, hwm={rare.hwm:.0f}, "
                f"floor={rare.floor:.0f}  [path coverage is the user's "
                f"obligation -- collect runs exercising this path]"
            )

    # -- pWCET table ---------------------------------------------------------
    lines.append(_hrule())
    lines.append("pWCET estimates (per-run exceedance probability):")
    lines.append(render_pwcet_table(result))
    lines.append(_hrule("="))
    return "\n".join(lines)
