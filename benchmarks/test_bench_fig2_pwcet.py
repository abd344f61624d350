"""F2 — Figure 2: pWCET estimates obtained with MBPTA for TVCA.

Paper: X-axis execution time, Y-axis exceedance probability in log
scale; the EVT projection (a straight line for a Gumbel tail in this
scale) "tightly upper-bounds the observed values".

The bench fits the MBPTA tail to the dominant path's sample, renders the
curve + observations as an ASCII panel and CSV, and asserts the
upper-bounding and tightness properties.
"""

from repro.core import AnalysisConfig, AnalysisPipeline
from repro.viz import figure2_csv, figure2_panel

from conftest import emit


def test_bench_fig2_pwcet_curve(benchmark, rand_campaign, mbpta_result):
    samples = rand_campaign.samples

    def fit():
        config = AnalysisConfig(
            min_path_samples=120, check_convergence=False
        )
        return AnalysisPipeline(config).run(samples)

    result = benchmark.pedantic(fit, rounds=1, iterations=1)

    dominant = result.dominant_path()
    curve = result.paths[dominant].curve
    curve_points = curve.curve_points(min_probability=1e-16, points_per_decade=1)
    observed = curve.observed_points()

    panel = figure2_panel(curve_points, observed)
    hwm = curve.hwm
    lines = [
        "F2: pWCET curve for TVCA @ RAND (cf. paper Figure 2)",
        f"  dominant path: {dominant} (n={len(result.paths[dominant].sample)})",
        f"  tail: {result.paths[dominant].tail.description}",
        f"  HWM = {hwm:.0f}  pWCET@1e-6 = {curve.quantile(1e-6):.0f} "
        f"({curve.tightness(1e-6):.3f}x HWM)",
        "",
        panel,
    ]
    emit("F2_pwcet_curve", "\n".join(lines))
    emit("F2_pwcet_curve_csv", figure2_csv(curve_points, observed))

    # The paper's visual claims, made exact:
    assert curve.verify_upper_bounds_observations(), (
        "the EVT projection undercuts the observed exceedance"
    )
    assert curve.quantile(1e-6) >= hwm  # upper-bounds all observations
    assert curve.tightness(1e-6) < 2.0  # ... tightly (well under 2x)
