"""Property-based tests on cross-module invariants (hypothesis)."""


import pytest

pytestmark = pytest.mark.slow  # hypothesis sweeps; full CI lane only
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.evt import (
    BlockMaximaTail,
    GevDistribution,
    GumbelDistribution,
    block_maxima,
    gumbel_fit_pwm,
)
from repro.core.pwcet import PWCETCurve
from repro.core.stats import ks_two_sample, ljung_box_test
from repro.platform.cache import Cache, CacheConfig
from repro.platform.prng import CombinedLfsrPrng, SplitMix64
from repro.workloads.synthetic import gumbel_samples


class TestDistributionProperties:
    @given(
        st.floats(min_value=-1e6, max_value=1e6),
        st.floats(min_value=1e-3, max_value=1e6),
        st.floats(min_value=-1e5, max_value=1e7),
    )
    @settings(max_examples=100, deadline=None)
    def test_gumbel_cdf_sf_complement(self, loc, scale, x):
        d = GumbelDistribution(location=loc, scale=scale)
        assert d.cdf(x) + d.sf(x) == pytest.approx(1.0, abs=1e-9)

    @given(
        st.floats(min_value=-0.45, max_value=0.45),
        st.floats(min_value=1e-9, max_value=0.5),
    )
    @settings(max_examples=100, deadline=None)
    # Just above the |xi| < 1e-12 Gumbel switch, where the power forms
    # (y ** -xi - 1) / xi and t ** (-1 / xi) cancelled catastrophically.
    @example(shape=1e-12, p=0.06295291603530334)
    def test_gev_isf_roundtrip(self, shape, p):
        d = GevDistribution(location=10.0, scale=2.0, shape=shape)
        x = d.isf(p)
        assert d.sf(x) == pytest.approx(p, rel=1e-4)

    @given(
        st.floats(min_value=-0.4, max_value=0.4),
        st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=100, deadline=None)
    def test_tail_exceedance_decreases_with_block_size(self, shape, b):
        """At a fixed budget above the location, the per-run exceedance
        from a block-maxima fit never exceeds the block exceedance."""
        d = GevDistribution(location=100.0, scale=3.0, shape=shape)
        tail = BlockMaximaTail(distribution=d, block_size=b)
        x = 130.0
        assert tail.exceedance(x) <= d.sf(x) + 1e-12

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_fit_projection_bounds_most_observations(self, seed):
        """A PWCETCurve quantile at 1/n-level is at least the sample
        median (sanity of the stitch for arbitrary seeds)."""
        vals = gumbel_samples(400, seed=seed, location=1000.0, scale=5.0)
        bm = block_maxima(vals, 10)
        assume(len(set(bm.maxima)) >= 3)
        tail = BlockMaximaTail(gumbel_fit_pwm(bm.maxima), block_size=10)
        curve = PWCETCurve(observations=vals, tail=tail)
        assert curve.quantile(1e-9) >= curve.quantile(0.5)
        assert curve.quantile(1e-9) >= curve.hwm


class TestStatisticsProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_ks_same_sample_is_zero(self, seed):
        vals = gumbel_samples(100, seed=seed)
        result = ks_two_sample(vals, vals)
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == pytest.approx(1.0, abs=1e-9)

    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3),
            min_size=30,
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_ljung_box_p_value_in_unit_interval(self, values):
        assume(len(set(values)) > 1)
        result = ljung_box_test(values)
        assert 0.0 <= result.p_value <= 1.0

    @given(st.integers(min_value=0, max_value=2**40), st.integers(min_value=2, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_splitmix_streams_do_not_collide(self, seed, n):
        a = SplitMix64(seed)
        b = SplitMix64(seed + 1)
        assert [a.next_u64() for _ in range(n)] != [b.next_u64() for _ in range(n)]


class TestCacheProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=150),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_randomized_cache_hits_after_access(self, addresses, seed):
        cfg = CacheConfig(
            size_bytes=1024, line_bytes=32, ways=2,
            placement="random_modulo", replacement="random",
        )
        cache = Cache(cfg, prng=CombinedLfsrPrng(3))
        cache.reseed(seed)
        for addr in addresses:
            cache.read(addr)
            assert cache.contains(addr)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_stats_consistency(self, seed):
        cfg = CacheConfig(
            size_bytes=1024, line_bytes=32, ways=2,
            placement="random_modulo", replacement="random",
        )
        cache = Cache(cfg, prng=CombinedLfsrPrng(9))
        cache.reseed(seed)
        rng = SplitMix64(seed)
        for _ in range(300):
            cache.read(rng.randint(1 << 14))
        s = cache.stats
        assert s.read_hits + s.read_misses == 300
        assert 0.0 <= s.hit_rate <= 1.0
        # Evictions can never exceed misses.
        assert s.evictions <= s.read_misses
