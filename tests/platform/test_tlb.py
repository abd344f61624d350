"""Tests for the TLB model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.prng import CombinedLfsrPrng
from repro.platform.tlb import Tlb, TlbConfig


def make_tlb(**kwargs) -> Tlb:
    defaults = dict(entries=4, replacement="lru", walk_penalty_cycles=30)
    defaults.update(kwargs)
    return Tlb(TlbConfig(**defaults), prng=CombinedLfsrPrng(2))


class TestConfig:
    def test_page_shift(self):
        assert TlbConfig(page_bytes=4096).page_shift == 12

    def test_rejects_bad_page_size(self):
        with pytest.raises(ValueError):
            TlbConfig(page_bytes=3000)

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            TlbConfig(entries=0)


class TestLookup:
    def test_miss_costs_walk(self):
        tlb = make_tlb()
        assert tlb.lookup(0x1000) == 30
        assert tlb.stats.misses == 1

    def test_hit_costs_nothing(self):
        tlb = make_tlb()
        tlb.lookup(0x1000)
        assert tlb.lookup(0x1FFF) == 0  # same 4K page
        assert tlb.stats.hits == 1

    def test_different_page_misses(self):
        tlb = make_tlb()
        tlb.lookup(0x1000)
        assert tlb.lookup(0x2000) == 30

    def test_lru_eviction(self):
        tlb = make_tlb(entries=2)
        tlb.lookup(0x1000)
        tlb.lookup(0x2000)
        tlb.lookup(0x1000)       # page 1 MRU
        tlb.lookup(0x3000)       # evicts page 2
        assert tlb.contains(0x1000)
        assert not tlb.contains(0x2000)

    def test_flush(self):
        tlb = make_tlb()
        tlb.lookup(0x5000)
        tlb.flush()
        assert not tlb.contains(0x5000)
        assert tlb.occupancy() == 0.0

    def test_occupancy(self):
        tlb = make_tlb(entries=4)
        tlb.lookup(0x1000)
        tlb.lookup(0x2000)
        assert tlb.occupancy() == pytest.approx(0.5)


class TestRandomReplacement:
    def test_reseed_reproduces_eviction_pattern(self):
        def misses(seed):
            tlb = make_tlb(entries=4, replacement="random")
            tlb.reseed(seed)
            tlb.reset_stats()
            for _ in range(5):
                for page in range(6):  # 6 pages > 4 entries
                    tlb.lookup(page * 4096)
            return tlb.stats.misses

        assert misses(7) == misses(7)

    def test_seed_changes_pattern(self):
        def misses(seed):
            tlb = make_tlb(entries=4, replacement="random")
            tlb.reseed(seed)
            for _ in range(8):
                for page in range(6):
                    tlb.lookup(page * 4096)
            return tlb.stats.misses

        assert len({misses(s) for s in range(15)}) > 1

    def test_stats_reset(self):
        tlb = make_tlb()
        tlb.lookup(0x1000)
        tlb.reset_stats()
        assert tlb.stats.accesses == 0
        assert tlb.stats.hit_rate == 0.0


class TestDictIndex:
    """The ``page -> way`` index against a list-scan reference TLB."""

    @staticmethod
    def _assert_index_mirrors_entries(tlb):
        assert tlb._index == {
            page: way for way, page in enumerate(tlb._entries) if page is not None
        }

    @pytest.mark.parametrize("replacement", ["random", "lru", "round_robin", "plru"])
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        pages=st.lists(st.integers(min_value=0, max_value=23), min_size=1, max_size=200),
        flush_at=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_list_scan_reference(self, replacement, seed, pages, flush_at):
        tlb = make_tlb(entries=8, replacement=replacement)
        tlb.reseed(seed)
        filled = []
        fill = tlb.replacement.fill
        tlb.replacement.fill = lambda s, w: (filled.append(w), fill(s, w))
        ref = make_tlb(entries=8, replacement=replacement)
        ref.reseed(seed)
        ref_entries = [None] * 8
        misses = 0
        for step, page in enumerate(pages):
            if step == flush_at:
                tlb.flush()
                ref.replacement.reset()
                ref_entries = [None] * 8
                self._assert_index_mirrors_entries(tlb)
            if page in ref_entries:
                ref.replacement.touch(0, ref_entries.index(page))
                expected = 0
            else:
                misses += 1
                expected = 30
                if None in ref_entries:
                    way = ref_entries.index(None)
                else:
                    way = ref.replacement.victim(0)
                ref_entries[way] = page
                ref.replacement.fill(0, way)
            assert tlb.lookup(page * 4096 + 7) == expected
            assert tlb._entries == ref_entries
            self._assert_index_mirrors_entries(tlb)
        assert tlb.stats.misses == misses
        assert tlb.stats.hits == len(pages) - misses
        # Policies that keep no fill state are never asked to fill.
        assert len(filled) == (misses if tlb.replacement.needs_touch else 0)
        assert tlb.occupancy() == sum(e is not None for e in ref_entries) / 8
        tlb.flush()
        self._assert_index_mirrors_entries(tlb)
        assert tlb._index == {}

    @pytest.mark.parametrize(
        "replacement, needs_touch",
        [("random", False), ("round_robin", False), ("lru", True), ("plru", True)],
    )
    def test_touch_only_where_needed(self, replacement, needs_touch):
        tlb = make_tlb(entries=4, replacement=replacement)
        touched = []
        original = tlb.replacement.touch
        tlb.replacement.touch = lambda s, w: (touched.append(w), original(s, w))
        tlb.lookup(0x1000)
        del touched[:]  # the miss's fill may touch; count hits only
        tlb.lookup(0x1004)
        tlb.lookup(0x1008)
        assert touched == ([0, 0] if needs_touch else [])
