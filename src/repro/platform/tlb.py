"""Translation lookaside buffer timing model.

The paper's platform has 64-entry ITLB and DTLB with *random replacement*
(one of the listed hardware modifications).  TLBs are modelled as
fully-associative tag stores over virtual page numbers: a hit costs
nothing extra (translation overlaps the cache access in the 7-stage
pipeline), a miss costs a fixed page-table-walk penalty.

On the DET baseline platform the TLBs use LRU, making the miss pattern a
deterministic function of the access history (jitter the user would have
to exercise); with random replacement it becomes probabilistic and hence
MBPTA-analysable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, cast

from .prng import CombinedLfsrPrng
from .replacement import RandomReplacement, ReplacementPolicy, make_replacement

__all__ = ["TlbConfig", "TlbStats", "Tlb"]


@dataclass(frozen=True)
class TlbConfig:
    """Geometry and policy of one TLB.

    Attributes
    ----------
    entries:
        Number of entries (the paper: 64).
    page_bytes:
        Page size; LEON3/SPARC V8 uses 4 KB pages.
    replacement:
        ``"random"`` (RAND platform) or ``"lru"`` (DET baseline).
    walk_penalty_cycles:
        Fixed cost of a page-table walk on a miss.  Real walks touch
        memory; a fixed bound keeps the resource jitterless-on-miss,
        which upper-bounds a walk that hits in the data cache.
    """

    entries: int = 64
    page_bytes: int = 4096
    replacement: str = "random"
    walk_penalty_cycles: int = 30

    def __post_init__(self) -> None:
        if self.entries < 1:
            raise ValueError("entries must be >= 1")
        if self.page_bytes & (self.page_bytes - 1):
            raise ValueError("page_bytes must be a power of two")

    @property
    def page_shift(self) -> int:
        """log2(page_bytes)."""
        return self.page_bytes.bit_length() - 1


@dataclass
class TlbStats:
    """Hit/miss counters, reset per run."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction (0.0 when idle)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        """Zero the counters."""
        self.hits = 0
        self.misses = 0


class Tlb:
    """Fully-associative TLB with pluggable replacement.

    Modelled as a single-set cache of virtual page numbers; the
    replacement policy sees set index 0 with ``entries`` ways.
    ``_entries`` is the way array and ``_index`` maps each resident page
    to its way, so a lookup is one dict probe.  Entries fill in way order
    and only :meth:`flush` frees them, so the valid ways are always a
    prefix of ``_entries`` and the first free way is ``len(_index)``.
    """

    def __init__(
        self,
        config: TlbConfig,
        prng: Optional[CombinedLfsrPrng] = None,
        name: str = "tlb",
    ) -> None:
        self.config = config
        self.name = name
        self._page_shift = config.page_shift
        self.replacement: ReplacementPolicy = make_replacement(
            config.replacement, 1, config.entries, prng=prng
        )
        self._needs_touch = self.replacement.needs_touch
        self.stats = TlbStats()
        self._entries: List[Optional[int]] = [None] * config.entries
        self._index: Dict[int, int] = {}

    def flush(self) -> None:
        """Invalidate all entries and reset replacement history."""
        self._entries = [None] * self.config.entries
        self._index = {}
        self.replacement.reset()

    def reseed(self, seed: int) -> None:
        """Install the per-run seed (random replacement only)."""
        if isinstance(self.replacement, RandomReplacement):
            self.replacement.reseed(seed)

    def reset_stats(self) -> None:
        """Zero hit/miss counters."""
        self.stats.reset()

    def page_number(self, byte_address: int) -> int:
        """Virtual page number of ``byte_address``."""
        return byte_address >> self._page_shift

    def lookup(self, byte_address: int) -> int:
        """Translate an access; return the added latency in cycles.

        A hit costs 0 extra cycles (translation overlaps the L1 access),
        a miss costs the configured walk penalty and installs the page.
        """
        page = byte_address >> self._page_shift
        way = self._index.get(page)
        if way is not None:
            if self._needs_touch:
                self.replacement.touch(0, way)
            self.stats.hits += 1
            return 0
        self.stats.misses += 1
        self._install(page)
        return self.config.walk_penalty_cycles

    def _install(self, page: int) -> None:
        entries = self._entries
        index = self._index
        way = len(index)
        if way == len(entries):
            way = self.replacement.victim(0)
            # A full TLB holds no None entry.
            del index[cast(int, entries[way])]
        entries[way] = page
        index[page] = way
        self.replacement.fill(0, way)

    def contains(self, byte_address: int) -> bool:
        """Non-mutating residency probe."""
        return (byte_address >> self._page_shift) in self._index

    def occupancy(self) -> float:
        """Fraction of valid entries."""
        return len(self._index) / float(self.config.entries)
