"""Analyzer configuration: rule selection and per-rule path scoping.

Determinism rules are not uniform across the tree — the CLI may read
``os.environ``, the numeric hot paths have stricter accumulation rules
than rendering code — so each scoped rule carries glob patterns
(matched against the POSIX form of the file path) that widen or narrow
where it fires.  The defaults encode this repository's layout; they
can be overridden programmatically or via CLI flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import PurePath
from typing import FrozenSet, Optional, Tuple, Union


def _matches(path: str, patterns: Tuple[str, ...]) -> bool:
    return any(fnmatch(path, pattern) for pattern in patterns)


#: REP002 exemptions: entry points and measurement code legitimately
#: read the clock/environment (benchmark timing, CLI configuration,
#: service request-latency metrics and client polling).
DEFAULT_WALLCLOCK_EXEMPT: Tuple[str, ...] = (
    "*/repro/cli.py",
    "*/repro/__main__.py",
    "*/repro/service/*",
    "*/benchmarks/*",
    "benchmarks/*",
)

#: REP004 scope: the EVT / stats / analysis hot paths where float
#: accumulation error is a correctness concern, not a style nit.
DEFAULT_FLOAT_SUM_PATHS: Tuple[str, ...] = (
    "*/repro/core/evt/*",
    "*/repro/core/stats/*",
    "*/repro/core/analysis/*",
    "*/repro/core/convergence.py",
    "*/repro/core/pwcet.py",
    "*/repro/core/mbta.py",
    "*/repro/core/multipath.py",
)

#: REP005 exemptions: the registry modules themselves — import-time
#: registration of built-ins is their whole purpose.
DEFAULT_REGISTRY_MODULES: Tuple[str, ...] = (
    "*/repro/api/registry.py",
    "*/repro/core/analysis/estimators.py",
    "*/repro/workloads/opponents.py",
)

#: REP007 scope: the execution layers where per-core mappings
#: (``traces_by_core``, ``per_core``, ...) flow between the scalar and
#: vectorized engines and iteration order must not leak.
DEFAULT_CORE_MAP_PATHS: Tuple[str, ...] = (
    "*/repro/platform/*",
    "*/repro/api/*",
)


@dataclass(frozen=True)
class LintConfig:
    """Which rules run, and where.

    ``select`` / ``ignore`` hold rule ids (``REP001`` ...); an empty
    ``select`` means "all registered rules".  The pattern tuples scope
    individual rules as documented on the module-level defaults.
    """

    select: FrozenSet[str] = frozenset()
    ignore: FrozenSet[str] = frozenset()
    wallclock_exempt: Tuple[str, ...] = DEFAULT_WALLCLOCK_EXEMPT
    float_sum_paths: Tuple[str, ...] = DEFAULT_FLOAT_SUM_PATHS
    registry_modules: Tuple[str, ...] = DEFAULT_REGISTRY_MODULES
    core_map_paths: Tuple[str, ...] = DEFAULT_CORE_MAP_PATHS

    def rule_enabled(self, rule_id: str) -> bool:
        """Whether ``rule_id`` survives select/ignore filtering."""
        if self.select and rule_id not in self.select:
            return False
        return rule_id not in self.ignore

    def rule_applies(self, rule_id: str, path: Union[str, PurePath]) -> bool:
        """Whether ``rule_id`` is in scope for ``path``.

        Combines :meth:`rule_enabled` with the per-rule path scoping:
        REP002 skips exempted entry-point/benchmark files, REP004 only
        fires inside the numeric hot paths, REP005 skips the registry
        modules, REP007 only fires in the execution layers that pass
        per-core mappings around.  Every other rule applies everywhere.
        """
        if not self.rule_enabled(rule_id):
            return False
        posix = PurePath(path).as_posix()
        if rule_id == "REP002":
            return not _matches(posix, self.wallclock_exempt)
        if rule_id == "REP004":
            return _matches(posix, self.float_sum_paths)
        if rule_id == "REP005":
            return not _matches(posix, self.registry_modules)
        if rule_id == "REP007":
            return _matches(posix, self.core_map_paths)
        return True

    def with_selection(
        self,
        select: Optional[FrozenSet[str]] = None,
        ignore: Optional[FrozenSet[str]] = None,
    ) -> "LintConfig":
        """Copy with replaced select/ignore sets (None keeps current)."""
        return LintConfig(
            select=self.select if select is None else select,
            ignore=self.ignore if ignore is None else ignore,
            wallclock_exempt=self.wallclock_exempt,
            float_sum_paths=self.float_sum_paths,
            registry_modules=self.registry_modules,
            core_map_paths=self.core_map_paths,
        )
