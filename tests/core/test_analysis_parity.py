"""Parity pin: the staged pipeline reproduces the seed monolith bit
for bit on the default path.

``_seed_reference_analyse`` below is a line-for-line port of the
pre-refactor ``analyse`` / ``_analyse_path`` / ``_fit_tail`` (the
seed-era monolith), built from the same public EVT primitives.  Every
float it produces — envelope quantiles, i.i.d. p-values, GoF p-values,
tail parameters, rare-path floors — must equal the pipeline's output
exactly (``==``, not approx): the refactor moved
code, it must not have moved a single operation.
"""

import pytest

from repro.core import AnalysisConfig, AnalysisPipeline, STANDARD_CUTOFFS
from repro.core.evt.block_maxima import best_block_size, block_maxima
from repro.core.evt.gumbel import GumbelDistribution, fit_pwm
from repro.core.evt.pot import fit_pot
from repro.core.evt.tail import BlockMaximaTail, PotTail
from repro.core.multipath import PWCETEnvelope, RarePathFloor
from repro.core.pwcet import PWCETCurve
from repro.core.stats.anderson_darling import anderson_darling_test
from repro.core.stats.iid import iid_gate
from repro.harness.measurements import ExecutionTimeSample, PathSamples
from repro.workloads.synthetic import cache_like_samples, gumbel_samples


def _seed_fit_tail(values, cfg):
    """Verbatim port of the seed ``_fit_tail`` (its ``"pot"`` tail
    method is the ``pot-gpd`` estimator)."""
    if cfg.method == "pot-gpd":
        pot = fit_pot(values)
        excesses = [v - pot.threshold for v in values if v > pot.threshold]
        gof = 1.0
        if len(set(excesses)) >= 5:
            gof = anderson_darling_test(excesses, pot.gpd.cdf).p_value
        return PotTail(fit=pot), gof
    size = cfg.block_size or best_block_size(values)
    maxima = block_maxima(values, size).maxima
    fit = fit_pwm(maxima)
    gof = 1.0
    if len(set(maxima)) >= 5:
        gof = anderson_darling_test(maxima, fit.cdf).p_value
    return BlockMaximaTail(distribution=fit, block_size=size), gof


def _seed_reference_analyse(data, cfg):
    """Verbatim port of the seed ``analyse`` (minus the
    report-only GEV cross-check and convergence replay, compared
    separately).  Returns (paths, rare, envelope) where ``paths`` maps
    path -> (iid, tail, curve, gof)."""
    if isinstance(data, PathSamples):
        groups = dict(data.paths)
    elif isinstance(data, ExecutionTimeSample):
        groups = {data.label or "<all>": data}
    else:
        sample = ExecutionTimeSample(values=list(data), label="<all>")
        groups = {sample.label: sample}
    paths = {}
    rare = []
    for path, sample in groups.items():
        if len(sample) < cfg.min_path_samples:
            rare.append(
                RarePathFloor(
                    path=path,
                    observations=len(sample),
                    hwm=sample.hwm,
                    margin=cfg.rare_path_margin,
                )
            )
            continue
        values = list(sample.values)
        iid = iid_gate(values, alpha=cfg.alpha)
        if len(set(values)) == 1:
            constant = values[0]
            tail = BlockMaximaTail(
                distribution=GumbelDistribution(
                    location=constant, scale=max(abs(constant), 1.0) * 1e-9
                ),
                block_size=1,
            )
            curve = PWCETCurve(observations=values, tail=tail)
            paths[path] = (iid, tail, curve, 1.0)
            continue
        tail, gof = _seed_fit_tail(values, cfg)
        curve = PWCETCurve(observations=values, tail=tail)
        paths[path] = (iid, tail, curve, gof)
    envelope = PWCETEnvelope(
        curves={p: entry[2] for p, entry in paths.items()}, rare_paths=rare
    )
    return paths, rare, envelope


def _assert_bit_identical(result, reference):
    ref_paths, ref_rare, ref_envelope = reference
    assert set(result.paths) == set(ref_paths)
    for path, analysis in result.paths.items():
        iid, tail, _curve, gof = ref_paths[path]
        assert analysis.iid.independence.p_value == iid.independence.p_value
        assert (
            analysis.iid.identical_distribution.p_value
            == iid.identical_distribution.p_value
        )
        assert analysis.iid.passed == iid.passed
        assert analysis.gof_p_value == gof
        if isinstance(tail, BlockMaximaTail):
            assert isinstance(analysis.tail, BlockMaximaTail)
            assert analysis.tail.block_size == tail.block_size
            assert analysis.tail.distribution.location == tail.distribution.location
            assert analysis.tail.distribution.scale == tail.distribution.scale
        else:
            assert isinstance(analysis.tail, PotTail)
            assert analysis.tail.fit.threshold == tail.fit.threshold
            assert analysis.tail.fit.gpd.scale == tail.fit.gpd.scale
            assert analysis.tail.fit.gpd.shape == tail.fit.gpd.shape
            assert analysis.tail.fit.exceedance_rate == tail.fit.exceedance_rate
    assert len(result.rare_paths) == len(ref_rare)
    for got, expected in zip(result.rare_paths, ref_rare):
        assert got.path == expected.path
        assert got.observations == expected.observations
        assert got.hwm == expected.hwm
        assert got.floor == expected.floor
    for p in STANDARD_CUTOFFS:
        assert result.quantile(p) == ref_envelope.quantile(p)


class TestDefaultPathParity:
    def test_single_path_block_maxima(self):
        vals = cache_like_samples(1500, seed=43)
        cfg = AnalysisConfig(check_convergence=False)
        result = AnalysisPipeline(cfg).run(vals)
        _assert_bit_identical(result, _seed_reference_analyse(vals, cfg))

    def test_single_path_pot(self):
        vals = cache_like_samples(1500, seed=47)
        cfg = AnalysisConfig(method="pot-gpd", check_convergence=False)
        result = AnalysisPipeline(cfg).run(vals)
        _assert_bit_identical(result, _seed_reference_analyse(vals, cfg))

    def test_multi_path_with_rare_floor(self):
        samples = PathSamples(label="multi")
        for v in cache_like_samples(1200, seed=44):
            samples.add("path-A", v)
        for v in cache_like_samples(600, seed=45, base=12000.0):
            samples.add("path-B", v)
        for v in [20000.0] * 10:
            samples.add("rare", v)
        cfg = AnalysisConfig(check_convergence=False)
        result = AnalysisPipeline(cfg).run(samples)
        _assert_bit_identical(result, _seed_reference_analyse(samples, cfg))

    def test_constant_path(self):
        cfg = AnalysisConfig(check_convergence=False)
        result = AnalysisPipeline(cfg).run([500.0] * 300)
        _assert_bit_identical(
            result, _seed_reference_analyse([500.0] * 300, cfg)
        )

    def test_fixed_block_size(self):
        vals = gumbel_samples(1000, seed=51, location=1000, scale=10)
        cfg = AnalysisConfig(block_size=25, check_convergence=False)
        result = AnalysisPipeline(cfg).run(vals)
        _assert_bit_identical(result, _seed_reference_analyse(vals, cfg))

    def test_gev_cross_check_matches_seed_condition(self):
        """The seed ran the GEV LR cross-check on the default path when
        >= 8 distinct maxima existed; the pipeline must still populate
        those fields there."""
        vals = cache_like_samples(1500, seed=43)
        result = AnalysisPipeline(AnalysisConfig(check_convergence=False)).run(vals)
        analysis = next(iter(result.paths.values()))
        maxima = block_maxima(
            list(analysis.sample.values), analysis.tail.block_size
        ).maxima
        if len(set(maxima)) >= 8:
            assert analysis.gev_shape is not None
            assert analysis.gev_shape_p_value is not None

    def test_convergence_replay_preserved(self):
        """check_convergence=True still replays the stopping rule on
        paths with >= 400 runs (seed behaviour)."""
        vals = gumbel_samples(1000, seed=8, location=1000, scale=10)
        result = AnalysisPipeline(AnalysisConfig()).run(vals)
        analysis = next(iter(result.paths.values()))
        assert analysis.convergence is not None

    def test_empty_input_error_preserved(self):
        with pytest.raises(ValueError):
            AnalysisPipeline().run([])

    def test_require_iid_error_preserved(self):
        from repro.workloads.synthetic import trending_samples

        vals = trending_samples(1000, seed=49, slope=0.5, sigma=0.1)
        with pytest.raises(RuntimeError, match="i.i.d"):
            AnalysisPipeline(AnalysisConfig(require_iid=True)).run(vals)


class TestArtifactRoundTrip:
    def test_run_artifact_reanalysable(self, tmp_path):
        """Artifacts produced by `run` stay loadable by `analyse
        --sample`, with per-path grouping and bit-identical analysis."""
        from repro.api import (
            CampaignArtifact,
            CampaignRequest,
            CampaignRunner,
            load_measurements,
        )

        result = CampaignRunner.run_request(
            CampaignRequest(
                workload="synthetic-cache", platform="rand", runs=300,
                platform_kwargs={"num_cores": 1, "cache_kb": 4},
            )
        )
        artifact = CampaignArtifact.from_result(result)
        path = tmp_path / "campaign.json"
        artifact.save(path)
        loaded = load_measurements(path)
        assert isinstance(loaded, CampaignArtifact)
        cfg = AnalysisConfig(min_path_samples=120, check_convergence=False)
        direct = AnalysisPipeline(cfg).run(result.samples)
        reloaded = AnalysisPipeline(cfg).run(loaded.samples)
        assert set(direct.paths) == set(reloaded.paths)
        for p in STANDARD_CUTOFFS:
            assert direct.quantile(p) == reloaded.quantile(p)
