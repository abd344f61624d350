"""A1 — placement-policy ablation (Section II's cache modifications).

Compares the three set-index functions on a placement-sensitive kernel
(constant power-of-two stride over a large array):

* deterministic **modulo** (DET): the stride maps onto few sets -> a
  fixed, pathological conflict pattern, identical every run,
* **hash_random** (DATE 2013): randomized, but consecutive lines can
  collide within one run,
* **random_modulo** (DAC 2016, the paper's design): randomized across
  runs with no intra-segment conflicts — lowest average misses of the
  randomized pair.

Reported: per-policy execution-time spread (zero for DET — nothing for
MBPTA to work with) and mean misses.
"""

import statistics

from repro.api import CampaignRunner, ProgramWorkload
from repro.harness import CampaignConfig
from repro.platform import leon3_det, leon3_rand
from repro.programs.layout import link
from repro.workloads.kernels import strided_access_kernel

from conftest import emit

RUNS = 120


def run_policy(platform):
    prog = strided_access_kernel(stride_elements=16, accesses=256, elements=8192)
    image = link(prog)
    runner = CampaignRunner(CampaignConfig(runs=RUNS, base_seed=99))
    result = runner.run(ProgramWorkload(prog, image), platform)
    values = result.merged.values
    return {
        "mean": statistics.mean(values),
        "std": statistics.stdev(values),
        "min": min(values),
        "max": max(values),
        "unique": len(set(values)),
    }


def test_bench_placement_policies(benchmark):
    platforms = {
        "modulo (DET)": leon3_det(num_cores=1, cache_kb=4),
        "hash_random (DATE'13)": leon3_rand(
            num_cores=1, cache_kb=4, placement="hash_random"
        ),
        "random_modulo (DAC'16)": leon3_rand(
            num_cores=1, cache_kb=4, placement="random_modulo"
        ),
    }
    stats = benchmark.pedantic(
        lambda: {name: run_policy(p) for name, p in platforms.items()},
        rounds=1,
        iterations=1,
    )

    header = f"{'policy':>24} {'mean':>10} {'std':>8} {'min':>10} {'max':>10} {'unique':>7}"
    rows = [
        f"{name:>24} {s['mean']:>10.0f} {s['std']:>8.1f} {s['min']:>10.0f} "
        f"{s['max']:>10.0f} {s['unique']:>7}"
        for name, s in stats.items()
    ]
    emit(
        "A1_placement_ablation",
        "A1: placement-policy ablation on the strided kernel\n"
        + header + "\n" + "\n".join(rows),
    )

    det = stats["modulo (DET)"]
    hash_random = stats["hash_random (DATE'13)"]
    random_modulo = stats["random_modulo (DAC'16)"]

    # DET: no per-run variation at all (nothing for MBPTA to bound).
    assert det["unique"] == 1
    # Both randomized policies expose per-run variation.
    assert hash_random["unique"] > 1
    assert random_modulo["unique"] > 1
    # Random modulo removes the pathological stride conflicts: it beats
    # deterministic modulo on average on this kernel.
    assert random_modulo["mean"] <= det["mean"]
