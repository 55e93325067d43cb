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
    """A copy of ``rng`` that draws on independently: a generator seeded with
    a constant, so no OS entropy is read, then given ``rng``'s state."""
    dup = random.Random(0)
    dup.setstate(rng.getstate())
    return dup


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))
