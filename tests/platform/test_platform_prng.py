"""The platform generator: distribution gates on the modelled SIL3 LFSR
and bit-for-bit parity of the batch engine's lane generator with it.

* **Distribution** — :class:`CombinedLfsrPrng` draws are uniform
  (chi-square / KS / bit balance) and its bit stream passes the
  FIPS-style health battery.  Every draw below is a pure function of
  the literal seeds, so the gates are deterministic.
* **Vector parity** — the batch engine's lane generator (``_VecPrng``)
  replays the scalar generator bit-for-bit, whether lanes are advanced
  through boolean masks or through index lists (the two call forms the
  engine mixes freely).

``test_prng.py`` runs the same health battery from a different seed,
next to the unit tests of the individual health checks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.batch import numpy_available
from repro.platform.prng import CombinedLfsrPrng, run_health_tests


class TestDistribution:
    def test_randint_chi_square_matches_uniform(self):
        # Chi-square over 8 buckets, df=7: the 0.999 quantile is 24.32.
        n = 8000
        prng = CombinedLfsrPrng(0x5EED)
        counts = [0] * 8
        for _ in range(n):
            counts[prng.randint(8)] += 1
        expected = n / 8
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 24.32, (chi2, counts)

    def test_random_ks_uniform(self):
        # One-sample KS against U(0,1); sqrt(n)*D < 1.95 is the
        # asymptotic 0.999 acceptance threshold.
        n = 4000
        prng = CombinedLfsrPrng(0xABCD)
        values = sorted(prng.random() for _ in range(n))
        d = max(
            max((i + 1) / n - v, v - i / n) for i, v in enumerate(values)
        )
        assert d * n**0.5 < 1.95, d

    def test_byte_draws_balance_every_bit(self):
        n = 4000
        prng = CombinedLfsrPrng(0xBEEF)
        ones = [0] * 8
        for _ in range(n):
            value = prng.next_bits(8)
            for bit in range(8):
                ones[bit] += (value >> bit) & 1
        for bit, count in enumerate(ones):
            # 5-sigma window around n/2 for a fair coin.
            assert abs(count - n / 2) < 5 * (n * 0.25) ** 0.5, (bit, count)

    def test_health_battery_passes(self):
        results = run_health_tests(CombinedLfsrPrng(0x5EED), window_bits=20_000)
        assert all(r.passed for r in results), [
            (r.name, r.detail) for r in results if not r.passed
        ]


# ----------------------------------------------------------------------
# Vectorized lane generator (numpy required)
# ----------------------------------------------------------------------

vec = pytest.mark.skipif(
    not numpy_available(), reason="vectorized generators require numpy"
)

SEEDS = [977 + 31 * i for i in range(7)]

# One operation per element: (op kind, width-or-modulus, lane subset
# selector, call form).  The selector picks which lanes participate:
# hypothesis drives both the op mix and the lane patterns.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["bits", "randint"]),
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=0, max_value=(1 << len(SEEDS)) - 1),
        st.booleans(),  # masked (True) or indexed (False) call form
    ),
    min_size=1,
    max_size=40,
)


def _scalar_reference(ops):
    """Drive one scalar generator per lane through its masked subset of
    ``ops``; returns the per-op list of {lane: value} dicts."""
    scalars = [CombinedLfsrPrng(seed) for seed in SEEDS]
    out = []
    for kind, param, lane_bits, _ in ops:
        drawn = {}
        for lane, prng in enumerate(scalars):
            if lane_bits & (1 << lane):
                if kind == "bits":
                    drawn[lane] = prng.next_bits(param)
                else:
                    drawn[lane] = prng.randint(param)
        out.append(drawn)
    return out


def _vector_run(ops):
    """Drive the lane generator through ``ops``, alternating between the
    masked and indexed call forms; returns per-op {lane: value}."""
    import numpy as np

    from repro.platform.batch import _VecPrng

    prng = _VecPrng(SEEDS)
    out = []
    for kind, param, lane_bits, masked in ops:
        lanes = [i for i in range(len(SEEDS)) if lane_bits & (1 << i)]
        if masked:
            mask = np.zeros(len(SEEDS), dtype=bool)
            mask[lanes] = True
            if kind == "bits":
                values = prng.next_bits(param, mask)
            else:
                values = prng.randint(param, mask)
            out.append({lane: int(values[lane]) for lane in lanes})
        else:
            idx = np.array(lanes, dtype=np.int64)
            if kind == "bits":
                values = prng.next_bits_idx(param, idx)
            else:
                values = prng.randint_idx(param, idx)
            out.append(
                {lane: int(values[i]) for i, lane in enumerate(lanes)}
            )
    return out


@vec
class TestVectorParity:
    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_exact_lanes_replay_scalar_lfsr(self, ops):
        assert _vector_run(ops) == _scalar_reference(ops)

    def test_exact_wide_draws_match_scalar(self):
        # 32-bit draws exercise the split hi/lo table composition.
        import numpy as np

        from repro.platform.batch import _VecPrng

        vec_prng = _VecPrng(SEEDS)
        mask = np.ones(len(SEEDS), dtype=bool)
        scalars = [CombinedLfsrPrng(seed) for seed in SEEDS]
        for _ in range(50):
            values = vec_prng.next_bits(32, mask)
            assert [int(v) for v in values] == [
                s.next_bits(32) for s in scalars
            ]
