"""Tests for the pWCET curve, multipath envelope, MBTA baseline,
convergence and the MBPTA analysis pipeline."""

import pytest

from repro.core import (
    AnalysisConfig,
    AnalysisPipeline,
    PWCETCurve,
    PWCETEnvelope,
    RarePathFloor,
    STANDARD_CUTOFFS,
    assess_convergence,
    ConvergenceMonitor,
    mbta_bound,
)
from repro.core.evt import BlockMaximaTail, GumbelDistribution
from repro.harness.measurements import PathSamples
from repro.workloads.synthetic import (
    cache_like_samples,
    gumbel_samples,
    mixture_samples,
)


def make_curve(seed=1, n=1000):
    vals = gumbel_samples(n, seed=seed, location=1000.0, scale=10.0)
    from repro.core.evt import block_maxima, gumbel_fit_pwm

    bm = block_maxima(vals, 20)
    tail = BlockMaximaTail(distribution=gumbel_fit_pwm(bm.maxima), block_size=20)
    return PWCETCurve(observations=vals, tail=tail)


class TestPWCETCurve:
    def test_quantile_monotone_in_probability(self):
        curve = make_curve()
        qs = [curve.quantile(p) for p in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15)]
        assert qs == sorted(qs)

    def test_deep_quantile_above_hwm(self):
        curve = make_curve()
        assert curve.quantile(1e-9) >= curve.hwm

    def test_exceedance_empirical_in_body(self):
        curve = make_curve()
        median = sorted(curve.observations)[len(curve.observations) // 2]
        assert curve.exceedance(median) == pytest.approx(0.5, abs=0.05)

    def test_exceedance_decreasing(self):
        curve = make_curve()
        xs = [curve.quantile(p) for p in (1e-2, 1e-6, 1e-12)]
        ps = [curve.exceedance(x) for x in xs]
        assert ps[0] > ps[1] > ps[2]

    def test_pwcet_table_shape(self):
        table = make_curve().pwcet_table()
        assert len(table) == len(STANDARD_CUTOFFS)
        assert all(q > 0 for _, q in table)

    def test_curve_points_for_plotting(self):
        points = make_curve().curve_points(min_probability=1e-12)
        assert len(points) > 10
        probs = [p for _, p in points]
        assert all(p2 < p1 for p1, p2 in zip(probs, probs[1:]))

    def test_observed_points_cover_sample(self):
        curve = make_curve(n=500)
        points = curve.observed_points()
        assert len(points) == 500

    def test_projection_upper_bounds_observations(self):
        curve = make_curve()
        assert curve.verify_upper_bounds_observations()

    def test_tightness(self):
        curve = make_curve()
        assert curve.tightness(1e-6) >= 1.0

    def test_validation(self):
        tail = BlockMaximaTail(
            distribution=GumbelDistribution(0.0, 1.0), block_size=1
        )
        with pytest.raises(ValueError):
            PWCETCurve(observations=[], tail=tail)
        with pytest.raises(ValueError):
            make_curve().quantile(0.0)


class TestEnvelope:
    def test_envelope_is_pointwise_max(self):
        low = make_curve(seed=1)
        # A shifted-up curve dominates everywhere.
        vals = [v + 500 for v in gumbel_samples(1000, seed=2, location=1000, scale=10)]
        from repro.core.evt import block_maxima, gumbel_fit_pwm

        bm = block_maxima(vals, 20)
        high = PWCETCurve(
            observations=vals,
            tail=BlockMaximaTail(gumbel_fit_pwm(bm.maxima), block_size=20),
        )
        env = PWCETEnvelope(curves={"low": low, "high": high})
        for p in (1e-6, 1e-12):
            assert env.quantile(p) == pytest.approx(high.quantile(p))
            assert env.dominating_path(p) == "high"

    def test_rare_path_floor_dominates_when_higher(self):
        curve = make_curve()
        floor = RarePathFloor(path="rare", observations=5, hwm=5000.0, margin=0.2)
        env = PWCETEnvelope(curves={"main": curve}, rare_paths=[floor])
        assert env.quantile(1e-6) == pytest.approx(6000.0)
        assert "rare" in env.dominating_path(1e-6)

    def test_empty_envelope_rejected(self):
        with pytest.raises(ValueError):
            PWCETEnvelope(curves={}, rare_paths=[])

    def test_hwm_across_paths(self):
        curve = make_curve()
        floor = RarePathFloor(path="r", observations=2, hwm=9999.0, margin=0.1)
        env = PWCETEnvelope(curves={"m": curve}, rare_paths=[floor])
        assert env.hwm() == 9999.0


class TestMbta:
    def test_bound_formula(self):
        est = mbta_bound([100.0, 150.0, 120.0], engineering_factor=0.5)
        assert est.hwm == 150.0
        assert est.bound == pytest.approx(225.0)

    def test_default_factor_is_50_percent(self):
        assert mbta_bound([100.0]).bound == pytest.approx(150.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            mbta_bound([])
        with pytest.raises(ValueError):
            mbta_bound([1.0], engineering_factor=-0.1)

    def test_describe(self):
        assert "HWM" in mbta_bound([100.0]).describe()


class TestConvergence:
    def test_converges_on_stationary_data(self):
        vals = gumbel_samples(3000, seed=40, location=1000, scale=5)
        report = assess_convergence(vals, step=200)
        assert report.converged
        assert report.runs_needed is not None
        assert report.runs_needed <= 3000

    def test_history_recorded(self):
        vals = gumbel_samples(2000, seed=41, location=1000, scale=5)
        report = assess_convergence(vals, step=200)
        assert len(report.history) >= 5
        assert report.final_estimate() is not None

    def test_monitor_online(self):
        monitor = ConvergenceMonitor(step=200)
        vals = gumbel_samples(3000, seed=42, location=1000, scale=5)
        for v in vals:
            monitor.add(v)
        assert monitor.converged
        assert monitor.n == 3000
        assert len(monitor.history) >= 5

    def test_validation(self):
        with pytest.raises(ValueError):
            assess_convergence([1.0] * 100, step=5)
        with pytest.raises(ValueError):
            assess_convergence([1.0] * 100, tolerance=2.0)


class TestMBPTAFacade:
    """The whole MBPTA analysis through ``AnalysisPipeline``."""

    def test_single_path_pipeline(self):
        vals = cache_like_samples(1500, seed=43)
        result = AnalysisPipeline().run(vals, label="test")
        assert result.iid_ok
        assert result.quantile(1e-9) > max(vals)
        assert len(result.paths) == 1

    def test_per_path_analysis(self):
        samples = PathSamples(label="multi")
        for v in cache_like_samples(1200, seed=44):
            samples.add("path-A", v)
        for v in cache_like_samples(600, seed=45, base=12000.0):
            samples.add("path-B", v)
        result = AnalysisPipeline().run(samples)
        assert set(result.paths) == {"path-A", "path-B"}
        # Path B sits higher: it must dominate the envelope.
        assert result.envelope.dominating_path(1e-9) == "path-B"

    def test_rare_path_flagged(self):
        samples = PathSamples()
        for v in cache_like_samples(1000, seed=46):
            samples.add("common", v)
        for v in [20000.0] * 10:
            samples.add("rare", v)
        result = AnalysisPipeline().run(samples)
        assert len(result.rare_paths) == 1
        assert result.rare_paths[0].path == "rare"
        # The rare path's floor dominates.
        assert result.quantile(1e-6) >= 20000.0

    def test_pot_method(self):
        vals = cache_like_samples(1500, seed=47)
        result = AnalysisPipeline(AnalysisConfig(method="pot-gpd")).run(vals)
        assert result.quantile(1e-9) >= max(vals)

    def test_bm_and_pot_agree_on_clean_data(self):
        """The two tail routes must give the same order of magnitude."""
        vals = gumbel_samples(4000, seed=48, location=10000, scale=50)
        bm = AnalysisPipeline(AnalysisConfig(check_convergence=False)).run(vals)
        pot = AnalysisPipeline(
            AnalysisConfig(method="pot-gpd", check_convergence=False)
        ).run(vals)
        q_bm = bm.quantile(1e-9)
        q_pot = pot.quantile(1e-9)
        assert q_pot == pytest.approx(q_bm, rel=0.05)

    def test_require_iid_raises_on_bad_data(self):
        from repro.workloads.synthetic import trending_samples

        vals = trending_samples(1000, seed=49, slope=0.5, sigma=0.1)
        with pytest.raises(RuntimeError, match="i.i.d"):
            AnalysisPipeline(AnalysisConfig(require_iid=True)).run(vals)

    def test_constant_path_handled(self):
        result = AnalysisPipeline().run([500.0] * 300)
        assert result.quantile(1e-9) == pytest.approx(500.0, rel=1e-6)

    def test_report_contains_key_sections(self):
        vals = cache_like_samples(1000, seed=50)
        report = AnalysisPipeline().run(vals, label="rpt").report()
        assert "Ljung-Box" in report
        assert "pWCET" in report
        assert "i.i.d." in report

    def test_fixed_block_size(self):
        vals = cache_like_samples(1000, seed=51)
        result = AnalysisPipeline(AnalysisConfig(block_size=25)).run(vals)
        tail = next(iter(result.paths.values())).tail
        assert tail.block_size == 25

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AnalysisConfig(method="magic")
        with pytest.raises(ValueError):
            AnalysisConfig(alpha=2.0)
        with pytest.raises(ValueError):
            AnalysisConfig(min_path_samples=10)

    def test_mixture_data_single_pool_still_bounded(self):
        """Pooled multi-modal data (the anti-pattern per-path analysis
        avoids): the curve must still upper-bound the observations."""
        vals = mixture_samples(2000, seed=52)
        result = AnalysisPipeline().run(vals)
        assert result.quantile(1e-6) >= max(vals)
