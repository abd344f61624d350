"""Repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig2_fixed --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``,
``--trace 1`` every per-layer metric (from a separate, traced run).  A
table of all measured metrics, with units and sample counts, precedes
the final line.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from common import ROOT, SRC, THREAD_VARIABLES, TMP_ROOT, WORKLOADS, load_contract


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--out", type=Path, default=None,
        help="directory to write the recorded spans to (traced runs only)",
    )
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # Pin threaded-math pools before numpy loads: one process does the
    # work (plus the daemon for the service workload).
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(0, str(SRC))
    contract = load_contract()
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    if args.workload == "service":
        import service_load as runner
    else:
        import campaigns as runner

    TMP_ROOT.mkdir(exist_ok=True)
    try:
        result = runner.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.out
        )
    finally:
        try:  # each run's stores are temporary directories inside it
            TMP_ROOT.rmdir()
        except OSError:
            pass
    metrics = contract["per_layer" if args.trace else "end_to_end"]
    result.emit([(m["name"], m["unit"]) for m in metrics])
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
