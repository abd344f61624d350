#!/usr/bin/env python3
"""CI benchmark regression gate for the ``BENCH_*.json`` trajectories.

Compares freshly emitted benchmark JSON (``benchmarks/results/``)
against the committed baselines (``benchmarks/baselines/``) and fails
when throughput regressed more than the tolerance (default 15%).

Each entry carries two gated trajectories, the scalar leg and the batch
(vectorized) leg, and each is gated on its own: a regression of either
fails.  The gated values are **host-normalized rates**
(``scalar_norm_runs_per_s``, ``batch_norm_runs_per_s``): every timed
repetition is bracketed by ``perfbench``'s host-speed probe, and the
rate is multiplied by the probe's slowness index, so it reads in
operations per second of the reference host at nominal speed and a
baseline captured on one host gates a run on another.  The batch/scalar
``speedup`` is printed for context but not gated, so a faster scalar
engine cannot fail the batch leg.  Raw runs/sec are printed too and
only enforced with ``--absolute`` (same-host lanes).

``--refresh DIR [DIR ...]`` writes new baselines instead: for every
``BENCH_*.json`` in the first directory, each entry's numeric fields
become their median over the directories (fresh results of separate
sessions), which keeps one noisy session from setting the contract.

Exit status: 0 when every gated entry passes, 1 otherwise.  A commit
whose message (or PR title) contains ``[bench-skip]`` skips the CI
job entirely — the escape hatch for changes that knowingly trade
throughput; refresh the baseline in the same PR when using it (see
``benchmarks/README.md``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).parent

#: The gated trajectories of every entry.
GATED = ("scalar_norm_runs_per_s", "batch_norm_runs_per_s")


def load_entries(path: Path) -> dict:
    """``entry name -> entry`` of one BENCH json file."""
    payload = json.loads(path.read_text())
    return {entry["name"]: entry for entry in payload.get("entries", [])}


def gate_file(
    baseline_path: Path,
    results_dir: Path,
    tolerance: float,
    absolute: bool,
) -> list:
    """Gate one baseline file; returns a list of failure strings."""
    failures = []
    fresh_path = results_dir / baseline_path.name
    if not fresh_path.is_file():
        return [
            f"{baseline_path.name}: no fresh result at {fresh_path} "
            "(did the benchmark job run?)"
        ]
    baseline = load_entries(baseline_path)
    fresh = load_entries(fresh_path)
    metrics = GATED + (
        ("scalar_runs_per_s", "batch_runs_per_s") if absolute else ()
    )
    for name, base_entry in sorted(baseline.items()):
        fresh_entry = fresh.get(name)
        if fresh_entry is None:
            failures.append(f"{name}: missing from fresh results")
            continue
        print(
            f"  {name:24s} ratio {float(fresh_entry['speedup']):7.1f}x "
            f"(baseline {float(base_entry['speedup']):.1f}x, not gated); "
            f"raw scalar {float(fresh_entry['scalar_runs_per_s']):.1f}, "
            f"batch {float(fresh_entry['batch_runs_per_s']):.1f} /s"
        )
        for metric in metrics:
            if metric not in base_entry or metric not in fresh_entry:
                failures.append(
                    f"{name}: {metric} missing from the "
                    f"{'baseline' if metric not in base_entry else 'fresh result'}"
                    " (refresh the baseline, benchmarks/README.md)"
                )
                continue
            base_rate = float(base_entry[metric])
            rate = float(fresh_entry[metric])
            floor = base_rate * (1.0 - tolerance)
            status = "ok" if rate >= floor else "REGRESSED"
            print(
                f"  {'':24s} {metric:22s} {rate:12.1f} "
                f"(baseline {base_rate:.1f}, floor {floor:.1f}) {status}"
            )
            if rate < floor:
                failures.append(
                    f"{name}: {metric} {rate:.1f} regressed below "
                    f"{floor:.1f} (baseline {base_rate:.1f}, "
                    f"tolerance {tolerance:.0%})"
                )
    return failures


def refresh(sessions: list, baselines: Path) -> None:
    """Write per-entry medians of several sessions' results as baselines."""
    for first in sorted(sessions[0].glob("BENCH_*.json")):
        payload = json.loads(first.read_text())
        runs = [load_entries(session / first.name) for session in sessions]
        for entry in payload["entries"]:
            for key, value in entry.items():
                if isinstance(value, float):
                    entry[key] = round(
                        statistics.median(
                            float(run[entry["name"]][key]) for run in runs
                        ),
                        3,
                    )
        payload["sessions"] = len(sessions)
        target = baselines / first.name
        target.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"bench-gate: wrote {target} (median of {len(sessions)} sessions)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results", type=Path, default=HERE / "results",
        help="directory with freshly emitted BENCH_*.json",
    )
    parser.add_argument(
        "--baselines", type=Path, default=HERE / "baselines",
        help="directory with committed baseline BENCH_*.json",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.15,
        help="allowed fractional regression before failing (default 0.15)",
    )
    parser.add_argument(
        "--absolute", action="store_true",
        help="additionally gate raw runs/sec (same-host lanes only)",
    )
    parser.add_argument(
        "--refresh", type=Path, nargs="+", metavar="DIR",
        help="write baselines from the medians of these result directories",
    )
    args = parser.parse_args(argv)

    if args.refresh:
        refresh(args.refresh, args.baselines)
        return 0
    baseline_files = sorted(args.baselines.glob("BENCH_*.json"))
    if not baseline_files:
        print(f"bench-gate: no baselines under {args.baselines}", file=sys.stderr)
        return 1
    failures = []
    for baseline_path in baseline_files:
        print(f"bench-gate: {baseline_path.name}")
        failures.extend(
            gate_file(baseline_path, args.results, args.tolerance, args.absolute)
        )
    if failures:
        print("\nbench-gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        print(
            "\nIf the regression is intended, refresh the baseline "
            "(benchmarks/README.md) or mark the commit [bench-skip].",
            file=sys.stderr,
        )
        return 1
    print("\nbench-gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
