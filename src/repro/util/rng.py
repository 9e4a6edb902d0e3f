"""Deterministic random number generation for fault injection.

Lossy links need repeatable randomness (message loss and latency jitter).
``DeterministicRng`` is a small facade over :class:`random.Random` that
documents the subset of operations the rest of the code base relies on and
makes the seed explicit everywhere.
"""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A seeded random source with an explicit, minimal API."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._random = random.Random(seed)

    def uniform(self, low: float, high: float) -> float:
        """Return a float uniformly distributed in ``[low, high]``."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Return an integer uniformly distributed in ``[low, high]``."""
        return self._random.randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        """Return a uniformly chosen element of ``items``."""
        return self._random.choice(items)

    def sample(self, items: Sequence[T], count: int) -> list[T]:
        """Return ``count`` distinct elements chosen from ``items``."""
        return self._random.sample(list(items), count)

    def shuffle(self, items: list[T]) -> list[T]:
        """Return a new list containing ``items`` in a shuffled order."""
        shuffled = list(items)
        self._random.shuffle(shuffled)
        return shuffled

    def expovariate(self, rate: float) -> float:
        """Return an exponentially distributed value with the given rate."""
        return self._random.expovariate(rate)

    def gauss(self, mean: float, stddev: float) -> float:
        """Return a normally distributed value."""
        return self._random.gauss(mean, stddev)

    def fork(self, label: str) -> "DeterministicRng":
        """Derive an independent stream identified by ``label``.

        Forked streams let independent subsystems (e.g. the latency model and
        a workload generator) draw random numbers without perturbing each
        other's sequences.
        """
        derived_seed = hash((self.seed, label)) & 0x7FFFFFFF
        return DeterministicRng(derived_seed)
