"""Shared helpers: seeds, generator forks, confidence intervals, search budgets."""

from __future__ import annotations

import hashlib
import math
import random


class StrategyError(ValueError):
    """A strategy was consulted in a position it cannot handle."""


class BudgetExceeded(RuntimeError):
    """A search exceeded its node budget; carries the count at abort time."""

    def __init__(self, nodes: int, what: str = "search") -> None:
        super().__init__(f"{what} exceeded budget after {nodes} nodes")
        self.nodes = nodes


def check_budget(limit: int | None, what: str) -> int | None:
    """``limit`` unchanged if it is None (unlimited) or non-negative, else ValueError."""
    if limit is not None and limit < 0:
        raise ValueError(f"{what} budget must be non-negative, got {limit}")
    return limit


class NodeBudget:
    """Node counter of one search; ``tick`` raises BudgetExceeded once the
    count passes ``limit`` (``None`` means unlimited; a negative limit raises ValueError)."""

    __slots__ = ("limit", "what", "nodes")

    def __init__(self, limit: int | None, what: str) -> None:
        self.limit = check_budget(limit, what)
        self.what = what
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.limit is not None and self.nodes > self.limit:
            raise BudgetExceeded(self.nodes, self.what)


def derive_seed(master: int, *parts: object) -> int:
    """Derive a stable 64-bit sub-seed from a master seed and a label path.

    Uses SHA-256 so results do not depend on the interpreter's hash
    randomization; the same (master, parts) always yields the same seed.
    """
    text = "|".join([str(master), *[str(p) for p in parts]])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def fork_rng(rng: random.Random) -> random.Random:
    """A copy of ``rng`` that draws on independently, ``gauss`` included.

    The copy is made by the C constructor with a constant seed, so no OS
    entropy is read and the Python-level reseed is skipped, then given
    ``rng``'s state; ``setstate`` also restores the cached ``gauss`` value.
    """
    dup = random.Random.__new__(random.Random, 0)
    dup.setstate(rng.getstate())
    return dup


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p = successes / trials
    z = 1.96
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))
