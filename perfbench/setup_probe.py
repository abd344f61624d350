"""One fresh-process set-up: ``setup_probe.py <workload> <warm-up seed>``.

Prints the set-up phase times as one JSON line when ready to measure;
the parent times the process from spawn to that line.
"""

import json
import sys

from common import setup_steps


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    print(json.dumps(setup_steps(workload, seed)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
