"""Seeded randomness helpers.

Every experiment in the repository must be reproducible run-to-run, so all
stochastic behaviour (jitter on switch processing times, probe packet header
randomisation, traffic start offsets) flows through a :class:`SeededRandom`
instance owned by the experiment configuration rather than the global
``random`` module.
"""

from __future__ import annotations

import random
import zlib
from typing import List, TypeVar

T = TypeVar("T")


class SeededRandom:
    """Thin wrapper around :class:`random.Random` with a few domain helpers."""

    __slots__ = ("seed", "_random")

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._random = random.Random(seed)

    # -- passthroughs -------------------------------------------------------
    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high]``."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def shuffle(self, seq: List[T]) -> List[T]:
        """Return a new list with the elements of ``seq`` shuffled."""
        shuffled = list(seq)
        self._random.shuffle(shuffled)
        return shuffled

    # -- domain helpers --------------------------------------------------------
    def jitter(self, base: float, fraction: float) -> float:
        """``base`` scaled by a uniform factor in ``[1 - fraction, 1 + fraction]``.

        Used to avoid perfectly-synchronised artefacts in the switch and
        traffic models while staying reproducible.
        """
        if fraction <= 0:
            return base
        return base * self.uniform(1.0 - fraction, 1.0 + fraction)

    def fork(self, label: str) -> "SeededRandom":
        """Derive an independent, deterministic child generator.

        Forking keeps unrelated components (e.g. traffic vs. switch jitter)
        statistically independent while still fully determined by the
        top-level experiment seed.
        """
        # A process-stable hash: ``hash()`` on strings is randomized per
        # interpreter (PYTHONHASHSEED), which silently made every forked
        # generator — switch jitter, traffic offsets — vary run to run.
        child_seed = (zlib.crc32(f"{self.seed}:{label}".encode("utf-8"))
                      & 0x7FFFFFFF) or 1
        return SeededRandom(child_seed)
