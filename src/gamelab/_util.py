"""Shared helpers: seeds, draw tapes, confidence intervals, search budgets."""

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


_GROWTH = (32,) * 64  # getrandbits arguments of one growth step: 64 words


class DrawTape:
    """The draws of ``random.Random(seed)``, with forks that cost O(1).

    Its 32-bit words (``getrandbits(32)``) are drawn when first needed onto
    one list that every fork shares; a holder owns only its position, so a
    fork continues the stream and leaves its origin's alone.  ``randrange``
    and ``random`` read words as ``random.Random``'s methods do.
    """

    __slots__ = ("_words", "_draw", "pos")

    def __init__(self, seed: int | None = None) -> None:
        self._words: list[int] = []
        self._draw = random.Random(seed).getrandbits
        self.pos = 0

    def fork(self) -> "DrawTape":
        dup = object.__new__(DrawTape)
        dup._words, dup._draw, dup.pos = self._words, self._draw, self.pos
        return dup

    def _grow(self, end: int) -> None:
        """Draw words onto the shared list until it holds ``end`` of them."""
        words = self._words
        while len(words) < end:
            words.extend(map(self._draw, _GROWTH))

    def randrange(self, n: int) -> int:
        """As ``random.Random.randrange(n)``: ``getrandbits(n.bit_length())``,
        least significant word first, until it falls below n."""
        if n <= 0:
            raise ValueError("empty range for randrange()")
        k = n.bit_length()
        words, pos = self._words, self.pos
        if k <= 32:
            shift = 32 - k
            while True:
                try:
                    r = words[pos] >> shift
                except IndexError:
                    self._grow(pos + 1)
                    continue
                pos += 1
                if r < n:
                    self.pos = pos
                    return r
        count = (k + 31) // 32
        while True:  # several words, the top one shifted down to k bits
            self._grow(pos + count)
            *low, top = words[pos : pos + count]
            pos += count
            r = top >> (-k % 32)
            for w in reversed(low):
                r = r << 32 | w
            if r < n:
                self.pos = pos
                return r

    def random(self) -> float:
        """As ``random.Random.random()``: 53 bits from two words."""
        words, pos = self._words, self.pos
        if len(words) < pos + 2:
            self._grow(pos + 2)
        self.pos = pos + 2
        a, b = words[pos] >> 5, words[pos + 1] >> 6
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)


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
