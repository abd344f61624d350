"""Cache replacement policies (victim selection within a set).

The paper's platform implements *random replacement* for IL1, DL1, ITLB
and DTLB: on a miss in a full set, the victim way is drawn from the
platform PRNG.  Random replacement removes the history dependence of LRU
(whose worst case depends on the exact access interleaving, which MBTA
would have to exercise) and replaces it with a per-access probabilistic
choice that MBPTA can bound with enough runs.

Deterministic comparators are provided for the DET baseline platform and
for ablations:

* :class:`LruReplacement` — least recently used (the DET configuration).
* :class:`PseudoLruTreeReplacement` — tree-PLRU, a common hardware
  approximation of LRU.
* :class:`RoundRobinReplacement` — FIFO-like pointer per set.
* :class:`RandomReplacement` — the MBPTA-compliant policy.

Each policy instance owns its per-set metadata; caches create one policy
object per cache.  ``touch`` is called on every hit and ``fill`` on
every allocation of a policy whose ``needs_touch`` is True, ``victim``
on every allocation into a full set, and ``reset`` between runs.
Policies whose ``touch`` is a no-op (random, round-robin) set
``needs_touch`` to False: they keep no hit state and no fill state, so
caches and TLBs skip both calls.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

from .prng import CombinedLfsrPrng

__all__ = [
    "ReplacementPolicy",
    "LruReplacement",
    "RandomReplacement",
    "RoundRobinReplacement",
    "PseudoLruTreeReplacement",
    "make_replacement",
]


class ReplacementPolicy(ABC):
    """Per-set victim-selection state machine."""

    #: True when victim choice consumes platform randomness.
    randomized: bool = False

    #: False when :meth:`touch` and :meth:`fill` are no-ops (the policy
    #: keeps no hit or fill state), so callers may skip both.
    needs_touch: bool = True

    def __init__(self, num_sets: int, num_ways: int) -> None:
        if num_sets < 1 or num_ways < 1:
            raise ValueError("num_sets and num_ways must be >= 1")
        self.num_sets = num_sets
        self.num_ways = num_ways

    @abstractmethod
    def touch(self, set_index: int, way: int) -> None:
        """Record a hit on ``way`` of ``set_index``."""

    @abstractmethod
    def victim(self, set_index: int) -> int:
        """Choose the way to evict from a *full* ``set_index``."""

    @abstractmethod
    def reset(self) -> None:
        """Clear all history (cache flush / platform reset)."""

    def fill(self, set_index: int, way: int) -> None:
        """Record an allocation into ``way`` (defaults to a touch)."""
        self.touch(set_index, way)

    @property
    def name(self) -> str:
        """Short policy identifier used in reports."""
        return type(self).__name__


class LruReplacement(ReplacementPolicy):
    """True LRU: evict the least recently used way.

    Implemented with a recency order per set (most recent last).  This is
    the deterministic baseline whose worst case depends on access history
    — the behaviour MBTA must control and MBPTA randomizes away.
    """

    randomized = False

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        self._order: List[List[int]] = []
        self.reset()

    def reset(self) -> None:
        self._order = [list(range(self.num_ways)) for _ in range(self.num_sets)]

    def touch(self, set_index: int, way: int) -> None:
        order = self._order[set_index]
        order.remove(way)
        order.append(way)

    def victim(self, set_index: int) -> int:
        return self._order[set_index][0]


class RandomReplacement(ReplacementPolicy):
    """MBPTA-compliant random replacement.

    The victim way is uniform over the set's ways, drawn from the platform
    PRNG (the same generator that seeds placement), so one per-run seed
    reproduces the entire run.
    """

    randomized = True
    needs_touch = False

    def __init__(
        self, num_sets: int, num_ways: int, prng: Optional[CombinedLfsrPrng] = None
    ) -> None:
        super().__init__(num_sets, num_ways)
        self.prng = prng if prng is not None else CombinedLfsrPrng(0xC0FFEE)

    def reseed(self, seed: int) -> None:
        """Install the per-run seed."""
        self.prng.reseed(seed)

    def reset(self) -> None:
        # Random replacement keeps no per-set history; reseeding is done
        # separately by the cache at run start.
        return None

    def touch(self, set_index: int, way: int) -> None:
        return None

    def victim(self, set_index: int) -> int:
        return self.prng.randint(self.num_ways)


class RoundRobinReplacement(ReplacementPolicy):
    """FIFO-like rotation: each set evicts ways in cyclic order."""

    randomized = False
    needs_touch = False

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        self._pointer: List[int] = []
        self.reset()

    def reset(self) -> None:
        self._pointer = [0] * self.num_sets

    def touch(self, set_index: int, way: int) -> None:
        return None

    def victim(self, set_index: int) -> int:
        way = self._pointer[set_index]
        self._pointer[set_index] = (way + 1) % self.num_ways
        return way


class PseudoLruTreeReplacement(ReplacementPolicy):
    """Tree-PLRU for power-of-two associativity.

    A binary tree of direction bits per set; hits flip the bits along the
    path *away* from the touched way, victims follow the bits.  Included
    because it is the common hardware stand-in for LRU and a useful DET
    ablation point.
    """

    randomized = False

    def __init__(self, num_sets: int, num_ways: int) -> None:
        if num_ways & (num_ways - 1):
            raise ValueError("tree-PLRU requires power-of-two ways")
        super().__init__(num_sets, num_ways)
        self._levels = num_ways.bit_length() - 1
        self._bits: List[List[int]] = []
        self.reset()

    def reset(self) -> None:
        nodes = self.num_ways - 1
        self._bits = [[0] * max(nodes, 1) for _ in range(self.num_sets)]

    def touch(self, set_index: int, way: int) -> None:
        if self.num_ways == 1:
            return
        bits = self._bits[set_index]
        node = 0
        for level in range(self._levels):
            bit = (way >> (self._levels - 1 - level)) & 1
            # Point the node away from the way just used.
            bits[node] = 1 - bit
            node = 2 * node + 1 + bit

    def victim(self, set_index: int) -> int:
        if self.num_ways == 1:
            return 0
        bits = self._bits[set_index]
        node = 0
        way = 0
        for _ in range(self._levels):
            bit = bits[node]
            way = (way << 1) | bit
            node = 2 * node + 1 + bit
        return way


_POLICIES = {
    "lru": LruReplacement,
    "random": RandomReplacement,
    "round_robin": RoundRobinReplacement,
    "plru": PseudoLruTreeReplacement,
}


def make_replacement(
    name: str,
    num_sets: int,
    num_ways: int,
    prng: Optional[CombinedLfsrPrng] = None,
) -> ReplacementPolicy:
    """Construct a replacement policy by configuration name.

    ``prng`` is only consulted by the random policy; passing it for other
    policies is harmless.
    """
    if name == "random":
        return RandomReplacement(num_sets, num_ways, prng=prng)
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; known: {sorted(_POLICIES)}"
        ) from None
    return cls(num_sets, num_ways)
