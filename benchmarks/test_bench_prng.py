"""B2 — platform-PRNG draw throughput: scalar LFSR vs vectorized lanes.

Measures raw draw rates of the platform generators at the call shapes
the batch engine actually issues (8-bit victim/placement draws over a
full lane set):

* ``prng_exact_masked`` — ``_VecPrng.next_bits`` via a boolean mask,
  the GF(2) step-table path that replays the scalar LFSR bit-for-bit.
* ``prng_exact_indexed`` — ``_VecPrng.next_bits_idx`` via a lane index
  list, the call form the engine's miss paths use.

Every row is normalized by the same in-session scalar baseline (the
``CombinedLfsrPrng``), so the gated ``speedup`` is host-independent,
exactly like ``BENCH_backends``.

Emits ``BENCH_prng.json`` (schema ``repro.bench.prng/1``) for the CI
bench-gate plus a human-readable table.
"""

import json
import os
import platform as host_platform
import time

import pytest

from repro.platform.batch import numpy_available
from repro.platform.prng import CombinedLfsrPrng

from conftest import BASE_SEED, RESULTS_DIR, emit

#: Lane count for the vectorized generators — the batch engine's shape
#: for a paper-scale campaign shard.
LANES = 512

#: Draw width; caches and TLBs draw victims/placements at <= 8 bits.
WIDTH_BITS = 8

#: Scalar draws timed for the baseline (scaled in the weekly lane).
SCALAR_DRAWS = int(os.environ.get("REPRO_BENCH_PRNG_SCALAR_DRAWS", "20000"))

#: Vectorized rounds per variant; each round draws one value per lane.
VEC_ROUNDS = int(os.environ.get("REPRO_BENCH_PRNG_ROUNDS", "400"))


def _scalar_rate() -> float:
    prng = CombinedLfsrPrng(BASE_SEED)
    for _ in range(SCALAR_DRAWS // 10):  # warm up
        prng.next_bits(WIDTH_BITS)
    started = time.perf_counter()
    for _ in range(SCALAR_DRAWS):
        prng.next_bits(WIDTH_BITS)
    return SCALAR_DRAWS / (time.perf_counter() - started)


def _vector_rate(draw) -> float:
    """Draws/sec of one vectorized call shape (after one warmup round)."""
    for _ in range(max(1, VEC_ROUNDS // 10)):
        draw()
    started = time.perf_counter()
    for _ in range(VEC_ROUNDS):
        draw()
    return LANES * VEC_ROUNDS / (time.perf_counter() - started)


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

    scalar_rate = _scalar_rate()
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
        f"{WIDTH_BITS}-bit draws, {VEC_ROUNDS} rounds)",
        "",
        f"  {'variant':24s} {'scalar d/s':>11s} {'batch d/s':>12s} "
        f"{'speedup':>8s}",
    ]
    for name, mode, indexed, draw in variants:
        rate = _vector_rate(draw)
        speedup = rate / scalar_rate
        entries.append(
            {
                "name": name,
                "mode": mode,
                "indexed": indexed,
                "lanes": LANES,
                "width_bits": WIDTH_BITS,
                "scalar_runs_per_s": round(scalar_rate, 1),
                "batch_runs_per_s": round(rate, 1),
                "speedup": round(speedup, 3),
            }
        )
        lines.append(
            f"  {name:24s} {scalar_rate:11.1f} {rate:12.1f} "
            f"{speedup:7.1f}x"
        )
    payload = {
        "schema": "repro.bench.prng/1",
        "host": host_platform.machine(),
        "entries": entries,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_prng.json").write_text(json.dumps(payload, indent=2) + "\n")
    lines += [
        "",
        "  (gated metric: speedup = vectorized / scalar draws-per-second,",
        "   normalized in-session)",
    ]
    emit("BENCH_prng", "\n".join(lines))
