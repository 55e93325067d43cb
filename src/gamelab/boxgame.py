"""The box game: Alice touches boxes, Bob destroys them.

A position is a family of disjoint boxes ``A_1 .. A_s``.  Alice moves first
and claims exactly one element per turn; claiming from a box marks it as
*touched*.  Bob claims up to ``b`` elements per turn (at least one whenever
any element remains).  Bob wins as soon as some box is emptied before Alice
has touched it; Alice wins once every box is touched.

For near-uniform families (sizes differing by at most one) the outcome has a
closed form: Bob wins exactly when the total number of elements is at most a
threshold ``box_threshold(s, b)`` defined by the recurrence

    f(1, b) = 0,        f(s, b) = floor(s / (s - 1) * (f(s - 1, b) + b)).

The module exposes the threshold, the closed-form criterion, an exact minimax
solver used to validate it, and Bob's explicit strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Sequence

from ._util import NodeBudget

ALICE = "alice"
BOB = "bob"
ALICE_WON = "alice_won"
BOB_WON = "bob_won"


class BoxGameError(ValueError):
    """Raised for malformed box-game positions or illegal moves."""


def harmonic_number(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n as an exact fraction (H_0 = 0)."""
    if n < 0:
        raise ValueError("harmonic_number needs n >= 0")
    total = Fraction(0)
    for i in range(1, n + 1):
        total += Fraction(1, i)
    return total


def box_threshold(s: int, b: int) -> int:
    """Largest total size of a near-uniform family of s boxes that Bob wins."""
    if s < 1 or b < 1:
        raise ValueError("box_threshold needs s >= 1 and b >= 1")
    val = 0
    for i in range(2, s + 1):
        val = (i * (val + b)) // (i - 1)
    return val


def threshold_lower_bound(s: int, b: int) -> Fraction:
    """Closed-form lower bound (b - 1) * s * H_{s-1} for the threshold."""
    if s < 1 or b < 1:
        raise ValueError("threshold_lower_bound needs s >= 1 and b >= 1")
    return (b - 1) * s * harmonic_number(s - 1)


def is_near_uniform(sizes: Sequence[int]) -> bool:
    return not sizes or max(sizes) - min(sizes) <= 1


def bob_wins(sizes: Sequence[int], b: int) -> bool:
    """Closed-form outcome for a near-uniform family: does Bob win?"""
    if not sizes:
        raise BoxGameError("need at least one box")
    if any(a < 1 for a in sizes):
        raise BoxGameError("box sizes must be positive")
    if b < 1:
        raise BoxGameError("bias must be at least 1")
    if not is_near_uniform(sizes):
        raise BoxGameError("criterion applies to near-uniform families only")
    return sum(sizes) <= box_threshold(len(sizes), b)


@dataclass
class BoxGameState:
    """Mutable box-game position.

    Bob's turn is split into single claims; ``claims_left`` counts how many he
    may still make this turn.  He may end it (``may_end_bob_turn``) once he
    has claimed at least once, or when no elements remain anywhere.
    """

    remaining: list[int]
    touched: list[bool]
    b: int
    turn: str = ALICE
    claims_left: int = 0

    @classmethod
    def new(cls, sizes: Sequence[int], b: int, first: str = ALICE) -> "BoxGameState":
        if not sizes:
            raise BoxGameError("need at least one box")
        if any(a < 0 for a in sizes):
            raise BoxGameError("box sizes must be nonnegative")
        if b < 1:
            raise BoxGameError("bias must be at least 1")
        if first not in (ALICE, BOB):
            raise BoxGameError(f"unknown first player {first!r}")
        return cls(
            remaining=list(sizes),
            touched=[False] * len(sizes),
            b=b,
            turn=first,
            claims_left=b if first == BOB else 0,
        )

    @property
    def s(self) -> int:
        return len(self.remaining)

    def winner(self) -> str | None:
        if any(r == 0 and not t for r, t in zip(self.remaining, self.touched)):
            return BOB_WON
        if all(self.touched):
            return ALICE_WON
        return None

    def may_end_bob_turn(self) -> bool:
        return self.claims_left < self.b or not any(self.remaining)

    def _claimable(self, i: int) -> None:
        if not 0 <= i < self.s:
            raise BoxGameError(f"box index {i} out of range")
        if self.remaining[i] == 0:
            raise BoxGameError(f"box {i} is empty")

    def alice_claim(self, i: int) -> None:
        if self.winner() is not None:
            raise BoxGameError("game is over")
        if self.turn != ALICE:
            raise BoxGameError("not Alice's turn")
        self._claimable(i)
        self.remaining[i] -= 1
        self.touched[i] = True
        self.turn = BOB
        self.claims_left = self.b

    def bob_claim(self, i: int) -> None:
        if self.winner() is not None:
            raise BoxGameError("game is over")
        if self.turn != BOB:
            raise BoxGameError("not Bob's turn")
        if self.claims_left == 0:
            raise BoxGameError("bias exhausted this turn")
        self._claimable(i)
        self.remaining[i] -= 1
        self.claims_left -= 1
        if self.claims_left == 0 and self.winner() is None:
            self.turn = ALICE

    def end_bob_turn(self) -> None:
        if self.winner() is not None:
            raise BoxGameError("game is over")
        if self.turn != BOB:
            raise BoxGameError("not Bob's turn")
        if not self.may_end_bob_turn():
            raise BoxGameError("Bob must claim at least one element")
        self.turn = ALICE
        self.claims_left = 0

    def clone(self) -> "BoxGameState":
        return replace(self, remaining=list(self.remaining), touched=list(self.touched))


def _children(state: BoxGameState) -> Iterator[BoxGameState]:
    """The positions after each move of the player to move, in search order:
    a claim on the first box of each (remaining, touched) class, since equal
    boxes are interchangeable, then Bob's end of turn where it is legal."""
    seen: set[tuple[int, bool]] = set()
    for i, sig in enumerate(zip(state.remaining, state.touched)):
        if sig[0] == 0 or sig in seen:
            continue
        seen.add(sig)
        child = state.clone()
        if state.turn == ALICE:
            child.alice_claim(i)
        else:
            child.bob_claim(i)
        yield child
    if state.turn == BOB and state.may_end_bob_turn():
        child = state.clone()
        child.end_bob_turn()
        yield child


def solve_boxgame(sizes: Sequence[int], b: int, budget: int | None = None) -> bool:
    """Exact minimax value with Alice moving first: True iff Bob destroys a
    box under optimal play."""
    memo: dict[tuple, bool] = {}
    nodes = NodeBudget(budget, "box-game solver")

    def visit(state: BoxGameState) -> bool:
        nodes.tick()
        w = state.winner()
        if w is not None:
            return w == BOB_WON
        # up to box order, and forgetting the settled (empty, touched) boxes
        boxes = sorted(p for p in zip(state.remaining, state.touched) if p != (0, True))
        key = (tuple(boxes), state.turn, state.claims_left)
        if key not in memo:
            # the mover wins with any child won for him
            children = map(visit, _children(state))
            memo[key] = any(children) if state.turn == BOB else all(children)
        return memo[key]

    return visit(BoxGameState.new(sizes, b))


def bob_strategy(state: BoxGameState) -> int | None:
    """Finish an untouched box if the bias allows it, else keep them level.

    If the smallest untouched box fits inside the claims still available this
    turn, empty it (immediate win).  Otherwise claim from the largest
    untouched box, which keeps the untouched family near-uniform; ends the
    turn when no untouched box remains.
    """
    smallest = None
    largest = None
    for i in range(state.s):
        if state.touched[i] or state.remaining[i] == 0:
            continue
        if smallest is None or state.remaining[i] < state.remaining[smallest]:
            smallest = i
        if largest is None or state.remaining[i] > state.remaining[largest]:
            largest = i
    if smallest is None:
        return None
    if state.remaining[smallest] <= state.claims_left:
        return smallest
    return largest
