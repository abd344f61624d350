"""Set-associative cache timing model.

Models the L1 instruction and data caches of the paper's platform:
16 KB, 4-way set-associative, with the DL1 implementing *write-through,
no-write-allocate* — stores always propagate to the bus and a store miss
does not allocate a line.  The model is a timing/state model: it tracks
which line addresses are resident (tags) and reports hits/misses; data
values are irrelevant to execution time and are not stored.

Randomization hooks (the paper's hardware modifications):

* the **placement policy** maps line addresses to sets, optionally
  seed-dependent (random modulo),
* the **replacement policy** selects victims, optionally drawing from the
  platform PRNG (random replacement).

Between measurement runs the harness calls :meth:`Cache.flush` and
:meth:`Cache.reseed`, reproducing the paper's "flush caches ... and set a
new seed for each experiment" protocol.

Placement is a pure function of ``(line, seed)``, and a run touches only
a few hundred distinct lines, so each cache memoizes ``line -> set``
for the current seed.  :meth:`Cache.reseed` clears the memo, so a new
seed never sees a set index computed under the old one; the placement
policies themselves stay stateless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .placement import PlacementPolicy, make_placement
from .replacement import RandomReplacement, ReplacementPolicy, make_replacement
from .prng import CombinedLfsrPrng

__all__ = ["CacheConfig", "CacheStats", "Cache"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy configuration of one cache.

    Attributes
    ----------
    size_bytes:
        Total capacity.  Default 16 KB as in the paper.
    line_bytes:
        Cache line size.  LEON3 uses 32-byte lines.
    ways:
        Associativity.  Default 4 as in the paper.
    placement:
        Placement policy name (see :func:`repro.platform.placement.make_placement`).
    replacement:
        Replacement policy name (see
        :func:`repro.platform.replacement.make_replacement`).
    write_through_no_allocate:
        True for the paper's DL1 write policy; irrelevant for the IL1
        (instruction caches see no stores).
    """

    size_bytes: int = 16 * 1024
    line_bytes: int = 32
    ways: int = 4
    placement: str = "modulo"
    replacement: str = "lru"
    write_through_no_allocate: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.ways):
            raise ValueError(
                "size_bytes must be a multiple of line_bytes * ways "
                f"(got {self.size_bytes} vs {self.line_bytes}*{self.ways})"
            )
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line_bytes must be a power of two")

    @property
    def num_sets(self) -> int:
        """Number of sets implied by the geometry."""
        return self.size_bytes // (self.line_bytes * self.ways)

    @property
    def line_shift(self) -> int:
        """log2(line_bytes): byte address -> line address shift."""
        return self.line_bytes.bit_length() - 1


@dataclass
class CacheStats:
    """Hit/miss counters, reset per run."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    evictions: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses of any kind."""
        return self.read_hits + self.read_misses + self.write_hits + self.write_misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction over all accesses (0.0 when idle)."""
        total = self.accesses
        if total == 0:
            return 0.0
        return (self.read_hits + self.write_hits) / total

    def reset(self) -> None:
        """Zero all counters."""
        self.read_hits = 0
        self.read_misses = 0
        self.write_hits = 0
        self.write_misses = 0
        self.evictions = 0
        self.flushes = 0


class Cache:
    """One set-associative cache with pluggable placement/replacement.

    The tag store is a per-set list of line addresses (``None`` = invalid
    way).  Lookups scan the (small) way list; for the 4-way L1s this is
    both faithful and fast.  :meth:`read` and :meth:`write` each make the
    whole probe in one call — memoized set index, ``in`` scan, and the
    hit touch, which is skipped (as is the fill on allocation) when the
    replacement policy's ``needs_touch`` is False (random and
    round-robin keep no hit or fill state).
    """

    def __init__(
        self,
        config: CacheConfig,
        prng: Optional[CombinedLfsrPrng] = None,
        name: str = "cache",
    ) -> None:
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.ways = config.ways
        self._line_shift = config.line_shift
        self.placement: PlacementPolicy = make_placement(
            config.placement, self.num_sets
        )
        self.replacement: ReplacementPolicy = make_replacement(
            config.replacement, self.num_sets, self.ways, prng=prng
        )
        self._needs_touch = self.replacement.needs_touch
        self.seed = 0
        self.stats = CacheStats()
        self._tags: List[List[Optional[int]]] = []
        # line -> set index under the current seed (see the module
        # docstring); cleared by reseed().
        self._set_memo: Dict[int, int] = {}
        self.flush()

    # ------------------------------------------------------------------
    # Run protocol
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Invalidate every line and reset replacement history."""
        self._tags = [[None] * self.ways for _ in range(self.num_sets)]
        self.replacement.reset()
        self.stats.flushes += 1

    def reseed(self, seed: int) -> None:
        """Install the per-run randomization seed.

        Affects the placement rotation (random modulo / hash) and the
        random-replacement PRNG; a deterministic cache ignores it apart
        from recording it.
        """
        self.seed = int(seed)
        self._set_memo = {}
        if isinstance(self.replacement, RandomReplacement):
            self.replacement.reseed(self.seed)

    def reset_stats(self) -> None:
        """Zero hit/miss counters (start of a measured run)."""
        self.stats.reset()

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def line_address(self, byte_address: int) -> int:
        """Map a byte address to its line address."""
        return byte_address >> self._line_shift

    def _allocate(self, set_index: int, line: int) -> None:
        """Insert ``line`` into ``set_index``, evicting if full."""
        ways = self._tags[set_index]
        if None in ways:
            way = ways.index(None)
        else:
            way = self.replacement.victim(set_index)
            self.stats.evictions += 1
        ways[way] = line
        if self._needs_touch:
            self.replacement.fill(set_index, way)

    def read(self, byte_address: int) -> bool:
        """Look up a read; allocate on miss.  Returns True on hit."""
        line = byte_address >> self._line_shift
        set_index = self._set_memo.get(line)
        if set_index is None:
            set_index = self.placement.set_index(line, self.seed)
            self._set_memo[line] = set_index
        ways = self._tags[set_index]
        if line in ways:
            if self._needs_touch:
                self.replacement.touch(set_index, ways.index(line))
            self.stats.read_hits += 1
            return True
        self.stats.read_misses += 1
        self._allocate(set_index, line)
        return False

    def write(self, byte_address: int) -> bool:
        """Look up a write.  Returns True on hit.

        With write-through no-write-allocate (the paper's DL1): a hit
        updates the line in place (modelled as a replacement touch); a
        miss does *not* allocate.  Either way the store is forwarded to
        the bus by the core model — the cache only answers hit/miss.
        """
        line = byte_address >> self._line_shift
        set_index = self._set_memo.get(line)
        if set_index is None:
            set_index = self.placement.set_index(line, self.seed)
            self._set_memo[line] = set_index
        ways = self._tags[set_index]
        if line in ways:
            if self._needs_touch:
                self.replacement.touch(set_index, ways.index(line))
            self.stats.write_hits += 1
            return True
        self.stats.write_misses += 1
        if not self.config.write_through_no_allocate:
            self._allocate(set_index, line)
        return False

    def contains(self, byte_address: int) -> bool:
        """Non-mutating residency probe (for tests and invariants)."""
        line = byte_address >> self._line_shift
        set_index = self._set_memo.get(line)
        if set_index is None:
            set_index = self.placement.set_index(line, self.seed)
            self._set_memo[line] = set_index
        return line in self._tags[set_index]

    def resident_lines(self) -> List[int]:
        """All resident line addresses (order unspecified)."""
        lines: List[int] = []
        for ways in self._tags:
            for tag in ways:
                if tag is not None:
                    lines.append(tag)
        return lines

    def occupancy(self) -> float:
        """Fraction of ways currently valid."""
        valid = sum(1 for ways in self._tags for tag in ways if tag is not None)
        return valid / float(self.num_sets * self.ways)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cfg = self.config
        return (
            f"Cache({self.name}, {cfg.size_bytes // 1024}KB, {cfg.ways}-way, "
            f"{self.num_sets} sets, placement={self.placement.name}, "
            f"replacement={self.replacement.name})"
        )
