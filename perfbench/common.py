"""Workload definitions, set-up, statistics and result output."""

from __future__ import annotations

import gc
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for temporary stores; created and emptied by each run
#: (git-ignored).
TMP_ROOT = ROOT / ".perfbench-tmp"

WORKLOADS = ("fig2_fixed", "fig2_varied", "contention", "service")

_FIG2_PLATFORM = {"num_cores": 1, "cache_kb": 4}

#: The request each workload measures (run counts are part of the
#: workload: batch throughput depends on the lane count).
CAMPAIGNS: Dict[str, Dict[str, Any]] = {
    "fig2_fixed": dict(
        workload="tvca", platform="rand", runs=1000, vary_inputs=False,
        platform_kwargs=_FIG2_PLATFORM,
    ),
    "fig2_varied": dict(
        workload="tvca", platform="rand", runs=12, vary_inputs=True,
        platform_kwargs=_FIG2_PLATFORM,
    ),
    "contention": dict(
        workload="table-walk", platform="rand", runs=600, vary_inputs=False,
        scenario="opponent-memory-hammer",
        # 4 KB caches, as in Fig. 2: with 16 KB the walk fits in the
        # caches and every run of a campaign measures the same cycles.
        platform_kwargs={"num_cores": 4, "cache_kb": 4},
    ),
    "service": dict(
        workload="tvca", platform="rand", runs=150, vary_inputs=False,
        platform_kwargs=_FIG2_PLATFORM,
    ),
}

#: Warm-up campaign size: enough to touch every process-global cache
#: (numpy import, PRNG step tables) of the workload's engine.
WARMUP_RUNS = {"fig2_fixed": 16, "fig2_varied": 1, "contention": 16, "service": 16}

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SeedStream:
    """Distinct campaign base seeds derived from the benchmark seed."""

    def __init__(self, workload: str, seed: int) -> None:
        self._rng = random.Random(f"{workload}/{seed}")
        self._used: set = set()

    def next(self) -> int:
        while True:
            value = self._rng.randrange(1, 2**31)
            if value not in self._used:
                self._used.add(value)
                return value

    def sample(self, population: Sequence[int], k: int) -> List[int]:
        return sorted(self._rng.sample(list(population), k))


def campaign_request(
    workload: str, base_seed: int, runs: Optional[int] = None,
    analysis: Any = None,
) -> Any:
    from repro.api.requests import CampaignRequest

    spec = dict(CAMPAIGNS[workload])
    if runs is not None:
        spec["runs"] = runs
    return CampaignRequest(
        base_seed=base_seed, shards=1, backend="auto", analysis=analysis, **spec
    )


def setup_steps(workload: str, warmup_seed: int) -> Dict[str, float]:
    """Bring this process to ready-to-measure; returns phase times.

    Imports the package, resolves the request against the registries,
    prepares the workload, and runs a small warm-up campaign so that
    process-global caches are filled before timing.  Per-campaign caches
    are not kept: every measured campaign builds its own workload.
    """
    started = time.perf_counter()
    import repro.api  # noqa: F401
    import repro.api.runner  # noqa: F401
    from repro.api.backend import pin_worker_threads
    from repro.api.requests import execute_request

    pin_worker_threads()
    if workload == "service":
        import repro.service  # noqa: F401
    imported = time.perf_counter()
    request = campaign_request(workload, warmup_seed)
    target = request.build_workload()
    platform = request.build_platform()
    request.execution_digest()
    resolved = time.perf_counter()
    target.prepare(platform)
    prepared = time.perf_counter()
    execute_request(
        campaign_request(workload, warmup_seed, runs=WARMUP_RUNS[workload])
    )
    warmed = time.perf_counter()
    return {
        "import_s": imported - started,
        "request_s": resolved - imported,
        "prepare_s": prepared - resolved,
        "warmup_s": warmed - prepared,
    }


def child_env() -> Dict[str, str]:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for variable in THREAD_VARIABLES:
        env[variable] = "1"
    return env


def setup_sample(workload: str, warmup_seed: int) -> Tuple[float, Dict[str, float]]:
    """Time :func:`setup_steps` in a fresh process: seconds from spawn
    until the child reports ready, and the child's phase times."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(probe), workload, str(warmup_seed)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        line = child.stdout.readline() if child.stdout else ""
        total = time.perf_counter() - started
        child.communicate(timeout=120)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return total, json.loads(line)


def band_analysis() -> Any:
    """The analysis cache hits ask for: GEV with a 95% bootstrap band.

    GEV fits cost about the same on every sample, so hit latency tracks
    the store and artifact layers rather than the data a seed produced.
    """
    from repro.api.requests import AnalysisRequest

    return AnalysisRequest(method="gev", ci=0.95)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    if count <= 10:
        raise ValueError(f"a tail needs more than 10 samples, got {count}")
    return 100.0 * (1.0 - 10.0 / count)


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


_REFERENCE_DOC = [
    {"index": i, "cycles": 1000.0 + i, "path": f"p{i % 7}", "tags": [i, i + 1]}
    for i in range(400)
]


def _reference_work() -> None:
    """Fixed host work in the program's three styles: interpreted loops,
    small-array numpy steps, JSON text.  Benchmark code only."""
    import numpy as np

    table: Dict[int, int] = {}
    total = 0
    for i in range(6000):
        table[i & 255] = table.get(i & 255, 0) + i
        total += i * i
    lanes = np.arange(1024, dtype=np.int64)
    step = np.ones(1024, dtype=np.int64)
    for _ in range(150):
        lanes = (lanes * 5 + step) & 1023
        step = np.where(lanes > 511, step, lanes)
    json.loads(json.dumps(_REFERENCE_DOC))


class HostSpeed:
    """How slow the host runs now, from a fixed reference workload.

    The reference host switches between a fast and a slow state (the
    reference takes 2.5-3 ms or 4.5-5 ms) within a second, and the share
    of slow time drifts between runs, so every timing of a run moves
    with it.  A run times the reference before each operation.  An
    operation shorter than a speed state is divided by the probe just
    before it (:attr:`last`); longer ones by the run's mean
    (:attr:`index`), the share of slow time over the run.  Both read in
    units of the reference host at ``NOMINAL_S``.
    """

    #: Mean reference time on the reference host.
    NOMINAL_S = 0.0038

    def __init__(self) -> None:
        self.samples: List[float] = []

    def probe(self) -> None:
        """Time the reference work with the collector off, so the size of
        the program's heap cannot move the index."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            _reference_work()
            self.samples.append(time.perf_counter() - started)
        finally:
            if enabled:
                gc.enable()

    @property
    def last(self) -> float:
        return self.samples[-1] / self.NOMINAL_S

    @property
    def index(self) -> float:
        return statistics.fmean(self.samples) / self.NOMINAL_S


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Result output
# ----------------------------------------------------------------------
class Result:
    """Every metric a run computed, plus its operation counts."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, Any]] = {}
        #: Host index (see :class:`HostSpeed`) that :meth:`timing` divides by.
        self.host_index = 1.0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def metric(
        self, name: str, value: float, unit: str, n: int = 1, note: str = ""
    ) -> None:
        self.metrics[name] = {
            "value": float(value), "unit": unit, "n": n, "note": note,
        }

    def timing(
        self, name: str, raw: float, unit: str, n: int = 1, note: str = ""
    ) -> None:
        """A host-normalized timing: durations divided by the host index,
        rates (unit ``1/s``) multiplied; the raw value goes in the note."""
        value = raw * self.host_index if unit == "1/s" else raw / self.host_index
        self.metric(name, value, unit, n, f"raw {raw:.6g}  {note}".rstrip())

    def latency(
        self, prefix: str, seconds: Sequence[float], tail: bool,
        host: Optional[Sequence[float]] = None,
    ) -> None:
        """``<prefix>_p50_ms`` and, with ``tail``, ``<prefix>_tail_ms``.

        With ``host`` (one host index per sample, see :class:`HostSpeed`)
        each sample is normalized by its own index, else by the run's.
        """
        raw = [s * 1000.0 for s in seconds]
        scale = host if host is not None else [self.host_index] * len(raw)
        values = [ms / index for ms, index in zip(raw, scale)]
        note = "per-operation host index" if host is not None else ""

        def put(name: str, pick: Any, extra: str) -> None:
            self.metric(name, pick(values), "ms", len(values),
                        f"raw {pick(raw):.6g}  {extra} {note}".rstrip())

        put(f"{prefix}_p50_ms", statistics.median, "")
        if tail:
            q = tail_percentile(len(values))
            put(f"{prefix}_tail_ms", lambda v: percentile(v, q), f"p{q:.1f}")

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(message)

    def emit(self, names: Sequence[Tuple[str, str]]) -> None:
        """Print the metric table, then the one-line JSON result."""
        for message in self.errors[:20]:
            print(f"error: {message}", file=sys.stderr)
        rate = self.failed / self.attempted if self.attempted else 1.0
        self.metric("error_rate", rate, "ratio", self.attempted)
        width = max(len(name) for name in self.metrics)
        for name in sorted(self.metrics):
            entry = self.metrics[name]
            note = f"  {entry['note']}" if entry["note"] else ""
            print(
                f"{name:<{width}}  {entry['value']:>14.6g} {entry['unit']:<6}"
                f"  n={entry['n']}{note}"
            )
        missing = [name for name, _ in names if name not in self.metrics]
        if missing:
            raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
        for name, unit in names:
            if self.metrics[name]["unit"] != unit:
                raise RuntimeError(f"{name}: unit {self.metrics[name]['unit']!r}")
        payload = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name]["value"], "unit": unit}
                for name, unit in names
            },
        }
        print(json.dumps(payload), flush=True)


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return dict(json.load(handle))
