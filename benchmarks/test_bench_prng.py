"""B2 — platform-PRNG draw throughput: scalar LFSR vs vectorized lanes.

Measures raw draw rates of the platform generators at the call shapes
the batch engine actually issues (8-bit victim/placement draws over a
full lane set):

* ``prng_exact_masked`` — ``_VecPrng.next_bits`` via a boolean mask,
  the GF(2) step-table path that replays the scalar LFSR bit-for-bit.
* ``prng_exact_indexed`` — ``_VecPrng.next_bits_idx`` via a lane index
  list, the call form the engine's miss paths use.

Every row also carries the scalar ``CombinedLfsrPrng`` draw rate at the
same width.  As in ``BENCH_backends``, each leg is timed
``REPEATS`` times between host-speed probes and reported as a
host-normalized rate (draws per second of the reference host at nominal
speed); the gate compares the scalar and the vectorized trajectory
separately, and the vectorized/scalar ratio is reported only.

Emits ``BENCH_prng.json`` (schema ``repro.bench.prng/2``) for the CI
bench-gate plus a human-readable table.
"""

import json
import os
import platform as host_platform
import statistics

import pytest

from repro.platform.batch import numpy_available
from repro.platform.prng import CombinedLfsrPrng

from conftest import (
    BASE_SEED,
    RESULTS_DIR,
    emit,
    normalized_rate,
    normalized_timings,
)

#: Lane count for the vectorized generators — the batch engine's shape
#: for a paper-scale campaign shard.
LANES = 512

#: Draw width; caches and TLBs draw victims/placements at <= 8 bits.
WIDTH_BITS = 8

#: Scalar draws timed for the baseline (scaled in the weekly lane).
SCALAR_DRAWS = int(os.environ.get("REPRO_BENCH_PRNG_SCALAR_DRAWS", "20000"))

#: Vectorized rounds per variant; each round draws one value per lane.
VEC_ROUNDS = int(os.environ.get("REPRO_BENCH_PRNG_ROUNDS", "400"))


#: Timings per leg; the gate reads the median normalized rate.
REPEATS = 9


def _rates(draws_per_call: int, calls: int, draw) -> tuple:
    """Raw and host-normalized draws/sec of ``calls`` calls of ``draw``
    (each yielding ``draws_per_call`` draws), after a warm-up tenth."""

    def leg() -> None:
        for _ in range(calls):
            draw()

    for _ in range(max(1, calls // 10)):
        draw()
    _, walls, indices = normalized_timings(leg, REPEATS)
    count = draws_per_call * calls
    return count / statistics.median(walls), normalized_rate(count, walls, indices)


@pytest.mark.skipif(
    not numpy_available(), reason="vectorized generators require numpy"
)
def test_bench_prng_draw_throughput():
    import numpy as np

    from repro.platform.batch import _VecPrng

    seeds = [BASE_SEED + lane for lane in range(LANES)]
    mask = np.ones(LANES, dtype=bool)
    idx = np.arange(LANES, dtype=np.int64)

    exact_masked = _VecPrng(seeds)
    exact_indexed = _VecPrng(seeds)

    scalar = CombinedLfsrPrng(BASE_SEED)
    scalar_rate, scalar_norm = _rates(
        1, SCALAR_DRAWS, lambda: scalar.next_bits(WIDTH_BITS)
    )
    variants = (
        (
            "prng_exact_masked",
            "exact",
            False,
            lambda: exact_masked.next_bits(WIDTH_BITS, mask),
        ),
        (
            "prng_exact_indexed",
            "exact",
            True,
            lambda: exact_indexed.next_bits_idx(WIDTH_BITS, idx),
        ),
    )

    entries = []
    lines = [
        f"B2: platform-PRNG draw throughput ({LANES} lanes, "
        f"{WIDTH_BITS}-bit draws, {VEC_ROUNDS} rounds; median of {REPEATS})",
        "",
        f"  {'variant':24s} {'scalar d/s':>11s} {'norm':>11s} "
        f"{'batch d/s':>12s} {'norm':>12s} {'ratio':>7s}",
    ]
    for name, mode, indexed, draw in variants:
        rate, norm = _rates(LANES, VEC_ROUNDS, draw)
        entries.append(
            {
                "name": name,
                "mode": mode,
                "indexed": indexed,
                "lanes": LANES,
                "width_bits": WIDTH_BITS,
                "repeats": REPEATS,
                "scalar_runs_per_s": round(scalar_rate, 1),
                "scalar_norm_runs_per_s": round(scalar_norm, 1),
                "batch_runs_per_s": round(rate, 1),
                "batch_norm_runs_per_s": round(norm, 1),
                "speedup": round(rate / scalar_rate, 3),
            }
        )
        lines.append(
            f"  {name:24s} {scalar_rate:11.1f} {scalar_norm:11.1f} "
            f"{rate:12.1f} {norm:12.1f} {rate / scalar_rate:6.1f}x"
        )
    payload = {
        "schema": "repro.bench.prng/2",
        "host": host_platform.machine(),
        "entries": entries,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_prng.json").write_text(json.dumps(payload, indent=2) + "\n")
    lines += [
        "",
        "  (gated metrics: the norm columns, draws/s of the reference host at",
        "   nominal speed; scalar and vectorized are gated separately, the",
        "   ratio is reported only)",
    ]
    emit("BENCH_prng", "\n".join(lines))
