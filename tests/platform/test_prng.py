"""Tests for the platform PRNGs and their health tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.prng import (
    CombinedLfsrPrng,
    Lfsr,
    SplitMix64,
    derive_seed,
    monobit_test,
    poker_test,
    run_health_tests,
    runs_test,
)

# ----------------------------------------------------------------------
# Bit-serial reference: one feedback round per output bit, no look-ahead.
# The word-at-a-time generators must reproduce it exactly.
# ----------------------------------------------------------------------

_REF_TAPS = {17: (17, 14), 19: (19, 18, 17, 14), 23: (23, 18), 29: (29, 27)}


class _RefLfsr:
    """Fibonacci LFSR stepped one bit at a time (left shift, feedback in
    at the LSB, output the outgoing MSB)."""

    def __init__(self, degree, seed):
        self.degree = degree
        self.mask = (1 << degree) - 1
        self.state = (seed & self.mask) or 1

    def step(self):
        feedback = 0
        for tap in _REF_TAPS[self.degree]:
            feedback ^= (self.state >> (tap - 1)) & 1
        out = (self.state >> (self.degree - 1)) & 1
        self.state = ((self.state << 1) & self.mask) | feedback
        return out

    def bits(self, n):
        value = 0
        for _ in range(n):
            value = (value << 1) | self.step()
        return value


class _RefCombined:
    """The combined generator with every draw stepping all four LFSRs per
    output bit."""

    def __init__(self, seed):
        self.reseed(seed)

    def reseed(self, seed):
        expander = SplitMix64(seed)
        self.lfsrs = [
            _RefLfsr(degree, expander.next_u64())
            for degree in CombinedLfsrPrng.DEGREES
        ]

    def next_bit(self):
        bit = 0
        for lfsr in self.lfsrs:
            bit ^= lfsr.step()
        return bit

    def next_bits(self, n):
        value = 0
        for _ in range(n):
            value = (value << 1) | self.next_bit()
        return value

    def randint(self, n):
        if n == 1:
            return 0
        bits = (n - 1).bit_length()
        while True:
            value = self.next_bits(bits)
            if value < n:
                return value

    def random(self):
        return self.next_bits(32) / float(1 << 32)

    def fork(self):
        return _RefCombined(self.next_bits(63))


#: Draw operations interleaved by the equivalence property; widths cross
#: the 14-bit word of the degree-17/19 registers, the 29-bit register and
#: the 64-bit look-ahead.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("next_bit"), st.just(0)),
        st.tuples(st.just("next_bits"), st.integers(min_value=1, max_value=70)),
        st.tuples(st.just("randint"), st.integers(min_value=1, max_value=100)),
        st.tuples(st.just("random"), st.just(0)),
        st.tuples(st.just("fork"), st.just(0)),
        st.tuples(st.just("reseed"), st.integers(min_value=0, max_value=2**64)),
    ),
    min_size=1,
    max_size=60,
)


def _apply(prng, op, arg):
    """Run one draw; ``fork`` swaps in the child, as a component would."""
    if op == "next_bit":
        return prng, prng.next_bit()
    if op == "next_bits":
        return prng, prng.next_bits(arg)
    if op == "randint":
        return prng, prng.randint(arg)
    if op == "random":
        return prng, prng.random()
    if op == "reseed":
        prng.reseed(arg)
        return prng, None
    child = prng.fork()
    return child, child.next_bits(9)


class TestWordFormMatchesBitSerial:
    @given(
        degree=st.sampled_from(sorted(_REF_TAPS)),
        seed=st.integers(min_value=0, max_value=2**64),
        widths=st.lists(st.integers(min_value=0, max_value=90), max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_lfsr_bits_and_state(self, degree, seed, widths):
        lfsr = Lfsr(degree, seed)
        ref = _RefLfsr(degree, seed)
        for n in widths:
            assert lfsr.bits(n) == ref.bits(n)
            assert lfsr.state == ref.state
            assert lfsr.step() == ref.step()
            assert lfsr.state == ref.state

    @given(seed=st.integers(min_value=0, max_value=2**64), ops=_OPS)
    @settings(max_examples=80, deadline=None)
    def test_interleaved_draws(self, seed, ops):
        prng = CombinedLfsrPrng(seed)
        ref = _RefCombined(seed)
        for op, arg in ops:
            prng, got = _apply(prng, op, arg)
            ref, want = _apply(ref, op, arg)
            assert got == want, (op, arg)

    @pytest.mark.parametrize("drawn", [1, 7, 63, 64, 65, 130])
    def test_reseed_discards_look_ahead(self, drawn):
        prng = CombinedLfsrPrng(0x5EED)
        prng.next_bits(drawn)
        prng.reseed(0xFACE)
        fresh = CombinedLfsrPrng(0xFACE)
        assert [prng.next_bits(13) for _ in range(20)] == [
            fresh.next_bits(13) for _ in range(20)
        ]

    def test_pinned_draws(self):
        """Absolute draws for seed 0x5EED, recorded from the bit-serial
        implementation this generator replaced."""
        prng = CombinedLfsrPrng(0x5EED)
        assert [prng.next_bits(8) for _ in range(8)] == [
            43, 193, 50, 77, 161, 64, 55, 243,
        ]
        assert [prng.randint(5) for _ in range(8)] == [4, 4, 4, 0, 4, 2, 2, 2]
        assert prng.next_bits(63) == 7385206328233646436
        assert prng.random() == 0.5201873099431396

    def test_non_positive_width_draws_nothing(self):
        prng = CombinedLfsrPrng(3)
        ref = _RefCombined(3)
        prng.next_bits(5)
        ref.next_bits(5)
        assert prng.next_bits(0) == 0 and prng.next_bits(-4) == 0
        assert prng.next_bits(40) == ref.next_bits(40)

    @pytest.mark.parametrize("nbits", [1, 2, 6, 8, 14, 15, 32, 63])
    def test_step_tables_match_reference(self, nbits, monkeypatch):
        """The vector engine's GF(2) step tables, built from
        :meth:`Lfsr.bits`, equal tables built from the bit-serial
        register."""
        pytest.importorskip("numpy")
        from repro.platform import batch

        built = batch._StepTables(nbits, CombinedLfsrPrng.DEGREES)
        monkeypatch.setattr(batch, "Lfsr", _RefLfsr)
        reference = batch._StepTables(nbits, CombinedLfsrPrng.DEGREES)
        for name in batch._StepTables.__slots__:
            assert (getattr(built, name) == getattr(reference, name)).all(), name


class TestLfsr:
    def test_rejects_unsupported_degree(self):
        with pytest.raises(ValueError):
            Lfsr(12, seed=1)

    def test_zero_seed_is_remapped(self):
        lfsr = Lfsr(17, seed=0)
        assert lfsr.state != 0

    def test_period_property(self):
        assert Lfsr(17, seed=1).period == 2**17 - 1

    def test_maximal_period_smallest_register(self):
        """The degree-17 register must cycle through 2^17 - 1 states."""
        lfsr = Lfsr(17, seed=1)
        initial = lfsr.state
        count = 0
        while True:
            lfsr.step()
            count += 1
            if lfsr.state == initial:
                break
            assert count <= 2**17, "period exceeded the maximal length"
        assert count == 2**17 - 1

    def test_never_reaches_zero_state(self):
        lfsr = Lfsr(19, seed=0xBEEF)
        for _ in range(10_000):
            lfsr.step()
            assert lfsr.state != 0

    def test_bits_msb_first(self):
        a = Lfsr(23, seed=77)
        b = Lfsr(23, seed=77)
        collected = [a.step() for _ in range(8)]
        value = b.bits(8)
        expected = 0
        for bit in collected:
            expected = (expected << 1) | bit
        assert value == expected


class TestCombinedLfsrPrng:
    def test_deterministic_given_seed(self):
        a = CombinedLfsrPrng(42)
        b = CombinedLfsrPrng(42)
        assert [a.next_bit() for _ in range(64)] == [b.next_bit() for _ in range(64)]

    def test_reseed_reproduces(self):
        prng = CombinedLfsrPrng(42)
        first = [prng.next_bits(8) for _ in range(16)]
        prng.reseed(42)
        assert [prng.next_bits(8) for _ in range(16)] == first

    def test_distinct_seeds_distinct_streams(self):
        a = CombinedLfsrPrng(1)
        b = CombinedLfsrPrng(2)
        assert [a.next_bit() for _ in range(128)] != [b.next_bit() for _ in range(128)]

    def test_randint_bounds(self):
        prng = CombinedLfsrPrng(7)
        values = [prng.randint(10) for _ in range(500)]
        assert min(values) >= 0
        assert max(values) <= 9
        assert len(set(values)) == 10  # every residue reached

    def test_randint_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CombinedLfsrPrng(1).randint(0)

    def test_randint_one_is_zero(self):
        assert CombinedLfsrPrng(1).randint(1) == 0

    def test_randint_roughly_uniform(self):
        prng = CombinedLfsrPrng(11)
        n = 4000
        counts = [0] * 4
        for _ in range(n):
            counts[prng.randint(4)] += 1
        for c in counts:
            assert abs(c - n / 4) < 5 * (n * 0.25 * 0.75) ** 0.5

    def test_random_unit_interval(self):
        prng = CombinedLfsrPrng(3)
        values = [prng.random() for _ in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_fork_gives_independent_stream(self):
        prng = CombinedLfsrPrng(5)
        child = prng.fork()
        assert isinstance(child, CombinedLfsrPrng)
        assert [child.next_bit() for _ in range(64)] != [
            prng.next_bit() for _ in range(64)
        ]

    def test_health_battery_passes(self):
        results = run_health_tests(CombinedLfsrPrng(0xDA7E), window_bits=20_000)
        assert all(r.passed for r in results), [
            (r.name, r.detail) for r in results if not r.passed
        ]


class TestHealthTests:
    def test_monobit_rejects_stuck_bits(self):
        assert not monobit_test([1] * 20_000).passed

    def test_monobit_accepts_balanced(self):
        bits = [i % 2 for i in range(20_000)]
        assert monobit_test(bits).passed

    def test_runs_rejects_long_run(self):
        bits = [0, 1] * 1000 + [1] * 60 + [0, 1] * 1000
        assert not runs_test(bits).passed

    def test_poker_rejects_periodic_nibbles(self):
        assert not poker_test([1, 0, 1, 0] * 1500).passed

    def test_poker_requires_enough_bits(self):
        with pytest.raises(ValueError):
            poker_test([0, 1] * 100)


class TestSplitMix64:
    def test_deterministic(self):
        assert SplitMix64(9).next_u64() == SplitMix64(9).next_u64()

    def test_mask_64_bits(self):
        rng = SplitMix64(2**70 + 5)
        for _ in range(100):
            assert rng.next_u64() < 2**64

    def test_gauss_moments(self):
        rng = SplitMix64(4)
        values = [rng.gauss(10.0, 2.0) for _ in range(8000)]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        assert abs(mean - 10.0) < 0.15
        assert abs(var - 4.0) < 0.4

    @given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=1, max_value=1000))
    @settings(max_examples=50, deadline=None)
    def test_randint_always_in_range(self, seed, n):
        rng = SplitMix64(seed)
        for _ in range(20):
            assert 0 <= rng.randint(n) < n


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_component_order_matters(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)

    def test_distinct_components_distinct_seeds(self):
        seeds = {derive_seed(99, i) for i in range(200)}
        assert len(seeds) == 200

    @given(st.integers(min_value=0, max_value=2**62))
    @settings(max_examples=50, deadline=None)
    def test_output_is_63_bit(self, base):
        assert 0 <= derive_seed(base, 1) < 2**63
