"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.cache import Cache, CacheConfig
from repro.platform.prng import CombinedLfsrPrng


def make_cache(**kwargs) -> Cache:
    defaults = dict(
        size_bytes=1024, line_bytes=32, ways=2,
        placement="modulo", replacement="lru",
    )
    defaults.update(kwargs)
    return Cache(CacheConfig(**defaults), prng=CombinedLfsrPrng(1))


class TestConfig:
    def test_geometry(self):
        cfg = CacheConfig(size_bytes=16 * 1024, line_bytes=32, ways=4)
        assert cfg.num_sets == 128
        assert cfg.line_shift == 5

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, line_bytes=32, ways=4)

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1024, line_bytes=24, ways=2)


class TestBasicBehaviour:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        assert cache.read(0x100) is False
        assert cache.read(0x100) is True

    def test_same_line_different_bytes_hit(self):
        cache = make_cache()
        cache.read(0x100)
        assert cache.read(0x11F) is True  # same 32B line
        assert cache.read(0x120) is False  # next line

    def test_flush_invalidates(self):
        cache = make_cache()
        cache.read(0x100)
        cache.flush()
        assert cache.contains(0x100) is False
        assert cache.read(0x100) is False

    def test_eviction_on_full_set(self):
        # 16 sets, 2 ways: lines 0, 16, 32 all map to set 0 (modulo).
        cache = make_cache()
        line = 32  # bytes per line
        cache.read(0 * line)
        cache.read(16 * line)
        cache.read(32 * line)  # evicts LRU = line 0
        assert cache.contains(0) is False
        assert cache.contains(16 * line) is True
        assert cache.contains(32 * line) is True
        assert cache.stats.evictions == 1

    def test_lru_order_respected(self):
        cache = make_cache()
        line = 32
        cache.read(0 * line)
        cache.read(16 * line)
        cache.read(0 * line)  # 0 now MRU
        cache.read(32 * line)  # evicts 16
        assert cache.contains(0) is True
        assert cache.contains(16 * line) is False


class TestWritePolicy:
    def test_write_miss_does_not_allocate(self):
        cache = make_cache(write_through_no_allocate=True)
        assert cache.write(0x200) is False
        assert cache.contains(0x200) is False

    def test_write_hit_after_read(self):
        cache = make_cache()
        cache.read(0x200)
        assert cache.write(0x200) is True

    def test_write_allocate_mode(self):
        cache = make_cache(write_through_no_allocate=False)
        cache.write(0x200)
        assert cache.contains(0x200) is True


class TestStats:
    def test_counters(self):
        cache = make_cache()
        cache.read(0)       # miss
        cache.read(0)       # hit
        cache.write(0)      # hit
        cache.write(0x4000)  # miss
        s = cache.stats
        assert s.read_misses == 1
        assert s.read_hits == 1
        assert s.write_hits == 1
        assert s.write_misses == 1
        assert s.accesses == 4
        assert s.hit_rate == pytest.approx(0.5)

    def test_reset_stats(self):
        cache = make_cache()
        cache.read(0)
        cache.reset_stats()
        assert cache.stats.accesses == 0

    def test_hit_rate_idle(self):
        assert make_cache().stats.hit_rate == 0.0


class TestRandomization:
    def test_reseed_changes_random_modulo_mapping(self):
        cache = make_cache(placement="random_modulo", replacement="random")
        line = 32
        # Fill with a conflicting pattern under one seed.
        cache.reseed(1)
        footprint_a = set()
        for k in range(16):
            cache.read(k * line)
        a = sorted(cache.resident_lines())
        cache.flush()
        cache.reseed(2)
        for k in range(16):
            cache.read(k * line)
        b = sorted(cache.resident_lines())
        assert a == b  # same lines resident (capacity not exceeded) ...
        # ... but they sit in different sets, observable through stats on
        # a conflicting working set:
        def misses_with_seed(seed: int, lines) -> int:
            cache.flush()
            cache.reseed(seed)
            cache.reset_stats()
            for _ in range(3):
                for item in lines:
                    cache.read(item * line)
            return cache.stats.read_misses

        # 40 lines > 32-line capacity: miss counts vary with rotation.
        working_set = list(range(0, 80, 2))
        counts = {misses_with_seed(s, working_set) for s in range(12)}
        assert len(counts) > 1

    def test_deterministic_cache_ignores_seed(self):
        cache = make_cache()
        line = 32

        def misses(seed):
            cache.flush()
            cache.reseed(seed)
            cache.reset_stats()
            for _ in range(3):
                for k in range(0, 80, 2):
                    cache.read(k * line)
            return cache.stats.read_misses

        assert misses(1) == misses(999)

    def test_same_seed_reproduces(self):
        cache = make_cache(placement="random_modulo", replacement="random")
        line = 32

        def misses(seed):
            cache.flush()
            cache.reseed(seed)
            cache.reset_stats()
            for _ in range(4):
                for k in range(0, 100, 2):
                    cache.read(k * line)
            return cache.stats.read_misses

        assert misses(42) == misses(42)


class TestInvariants:
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_occupancy_bounded_and_repeat_hits(self, addresses):
        cache = make_cache(ways=4, size_bytes=2048)
        for addr in addresses:
            cache.read(addr)
        assert 0.0 < cache.occupancy() <= 1.0
        # Immediately re-reading the last address must hit.
        assert cache.read(addresses[-1]) is True

    @given(st.integers(min_value=0, max_value=1 << 20))
    @settings(max_examples=50, deadline=None)
    def test_resident_after_read(self, addr):
        cache = make_cache()
        cache.read(addr)
        assert cache.contains(addr)


class TestSetIndexMemo:
    """The per-seed ``line -> set`` memo must never outlive its seed."""

    accesses = st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=4095)),
        min_size=1,
        max_size=120,
    )

    @pytest.mark.parametrize("placement", ["modulo", "random_modulo", "hash_random"])
    @pytest.mark.parametrize("allocate_on_write", [False, True])
    @given(warmup=accesses, accesses=accesses)
    @settings(max_examples=25, deadline=None)
    def test_reseed_matches_fresh_cache(
        self, placement, allocate_on_write, warmup, accesses
    ):
        """After ``reseed(B)``, a cache that ran under seed A answers
        every access as a fresh cache seeded B does."""
        kwargs = dict(
            placement=placement,
            replacement="random",
            write_through_no_allocate=not allocate_on_write,
        )
        reused = make_cache(**kwargs)
        reused.reseed(11)
        for is_write, addr in warmup:
            (reused.write if is_write else reused.read)(addr)
        reused.flush()
        reused.reseed(29)
        reused.reset_stats()
        fresh = make_cache(**kwargs)
        fresh.reseed(29)
        fresh.reset_stats()
        # Replaying the warm-up revisits every line memoized under seed A.
        for is_write, addr in warmup + accesses:
            if is_write:
                assert reused.write(addr) == fresh.write(addr)
            else:
                assert reused.read(addr) == fresh.read(addr)
        assert reused.stats == fresh.stats
        assert sorted(reused.resident_lines()) == sorted(fresh.resident_lines())

    @pytest.mark.parametrize("placement", ["modulo", "random_modulo", "hash_random"])
    @given(warmup=accesses, probes=st.lists(st.integers(0, 4095), max_size=60))
    @settings(max_examples=25, deadline=None)
    def test_contains_agrees_with_read_after_reseed(self, placement, warmup, probes):
        """Lines left resident under seed A are looked up under seed B's
        placement by both ``contains`` and ``read``."""
        line_shift = CacheConfig().line_shift
        cache = make_cache(placement=placement, replacement="lru")
        cache.reseed(3)
        for _, addr in warmup:
            cache.read(addr)
        cache.reseed(4)
        for addr in [a for _, a in warmup] + probes:
            resident = cache.contains(addr)
            line = addr >> line_shift
            assert resident == (line in cache._tags[cache.placement.set_index(line, 4)])
            assert cache.read(addr) == resident
            assert cache.contains(addr)


class _RefCache:
    """List-scan reference: every access computes the set index, scans
    the ways, touches on every hit and fills the first invalid way."""

    def __init__(self, config, seed):
        self.config = config
        self.cache = Cache(config, prng=CombinedLfsrPrng(1))
        self.cache.reseed(seed)
        self.tags = [[None] * config.ways for _ in range(config.num_sets)]
        self.counts = dict(read_hits=0, read_misses=0, write_hits=0,
                           write_misses=0, evictions=0)

    def _probe(self, addr):
        line = addr >> self.config.line_shift
        set_index = self.cache.placement.set_index(line, self.cache.seed)
        return line, set_index, self.tags[set_index]

    def access(self, is_write, addr):
        repl = self.cache.replacement
        line, set_index, ways = self._probe(addr)
        kind = "write" if is_write else "read"
        for way, tag in enumerate(ways):
            if tag == line:
                repl.touch(set_index, way)
                self.counts[kind + "_hits"] += 1
                return True
        self.counts[kind + "_misses"] += 1
        if is_write and self.config.write_through_no_allocate:
            return False
        for way, tag in enumerate(ways):
            if tag is None:
                break
        else:
            way = repl.victim(set_index)
            self.counts["evictions"] += 1
        ways[way] = line
        repl.fill(set_index, way)
        return False


class TestProbeMatchesReference:
    """The one-call probe in ``read``/``write`` against the list scan."""

    accesses = st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=8191)),
        min_size=1,
        max_size=200,
    )

    @pytest.mark.parametrize("replacement", ["random", "lru", "round_robin", "plru"])
    @pytest.mark.parametrize("placement", ["modulo", "random_modulo", "hash_random"])
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        allocate_on_write=st.booleans(),
        accesses=accesses,
    )
    @settings(max_examples=15, deadline=None)
    def test_counters_and_tags(
        self, replacement, placement, seed, allocate_on_write, accesses
    ):
        config = CacheConfig(
            size_bytes=1024, line_bytes=32, ways=4, placement=placement,
            replacement=replacement,
            write_through_no_allocate=not allocate_on_write,
        )
        cache = Cache(config, prng=CombinedLfsrPrng(1))
        cache.reseed(seed)
        ref = _RefCache(config, seed)
        for is_write, addr in accesses:
            got = (cache.write if is_write else cache.read)(addr)
            assert got == ref.access(is_write, addr)
            assert cache.contains(addr) == (
                (addr >> config.line_shift) in ref._probe(addr)[2]
            )
        assert cache._tags == ref.tags
        for name, count in ref.counts.items():
            assert getattr(cache.stats, name) == count, name


class TestTouchSkipping:
    """``touch`` is skipped on hits exactly when ``needs_touch`` is False."""

    @pytest.mark.parametrize(
        "replacement, needs_touch",
        [("random", False), ("round_robin", False), ("lru", True), ("plru", True)],
    )
    def test_touch_calls_on_hits(self, replacement, needs_touch):
        cache = make_cache(ways=4, replacement=replacement)
        assert cache.replacement.needs_touch is needs_touch
        touched = []
        original = cache.replacement.touch
        cache.replacement.touch = lambda s, w: (touched.append((s, w)), original(s, w))
        cache.read(0x40)
        del touched[:]  # the miss's fill may touch; count hits only
        cache.read(0x40)
        cache.write(0x40)
        assert len(touched) == (2 if needs_touch else 0)

    @pytest.mark.parametrize("replacement", ["random", "round_robin"])
    def test_skipped_touch_is_a_no_op(self, replacement):
        """Touching a policy that declares no hit state leaves its victim
        sequence unchanged."""
        from repro.platform.replacement import make_replacement

        plain = make_replacement(replacement, 2, 4, prng=CombinedLfsrPrng(5))
        touched = make_replacement(replacement, 2, 4, prng=CombinedLfsrPrng(5))
        for k in range(40):
            touched.touch(k % 2, k % 4)
            assert plain.victim(k % 2) == touched.victim(k % 2)
