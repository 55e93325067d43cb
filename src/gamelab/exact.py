"""Exact game values for the biased edge-coloring game by exhaustive search.

``solve`` runs a boolean minimax over full positions: Maker wins a position
iff some move of his wins, Breaker's turn is expanded into at most ``b``
sequential micro-moves plus (where the rules allow it) a pass.  Two
reductions keep the tree tractable:

* color symmetry -- palette colors are interchangeable, so whenever several
  colors in ``A(e)`` have never been used anywhere on the board, only the
  lowest of them is tried; any two globally-fresh colors lead to positions
  that differ by a color permutation and therefore have the same value.
* transposition table (``memoize=True``) -- positions are cached under a
  canonical key: the coloring vector with colors renumbered by first
  appearance in edge order, the count of palette colors still unused, and
  the turn phase (player to move, Breaker colorings already spent this
  turn).  The round number never affects what moves are legal, so it is
  deliberately absent from the key.

``memoize=False`` runs the same recursion without the table; agreement of
the two modes is the standard self-check for the canonicalization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from .engine import (
    BREAKER,
    BREAKER_WON,
    MAKER,
    MAKER_WON,
    ONGOING,
    STRICT,
    GameConfig,
    GameState,
    MoveLog,
    new_game,
    step,
)
from .graph import Graph
from ._util import BudgetExceeded, NodeBudget

__all__ = [
    "SolveResult",
    "ChiIndexResult",
    "VerifyResult",
    "solve",
    "game_chromatic_index",
    "verify_strategy",
]


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solve: the winner under optimal play."""

    winner: str
    nodes: int


@dataclass
class ChiIndexResult:
    """Per-palette-size winner map over the trivial range [max(1,Δ), 2Δ-1].

    ``value`` is the least k for which Maker wins (the game chromatic
    index); it is ``None`` only when the search ran out of budget before
    any winning k was confirmed.  ``partial`` flags an incomplete map.
    """

    value: int | None
    winners: dict[int, str]
    partial: bool
    nodes: int


@dataclass
class VerifyResult:
    """Result of checking one side's strategy against every opposing line."""

    sound: bool
    counterexample: MoveLog | None
    nodes: int


def _canonical_key(state: GameState) -> tuple[bytes, int, bool, int]:
    """Color-permutation-invariant position key.

    Colors are renumbered 1, 2, ... in order of first appearance along the
    edge index order, so any two positions equal up to a palette
    permutation collapse to the same key, and positions in distinct orbits
    cannot collide (the relabeled vector reconstructs the orbit).
    """
    relabel: dict[int, int] = {}
    out = bytearray(state.g.m)
    nxt = 1
    for e, c in enumerate(state.color):
        if c:
            r = relabel.get(c)
            if r is None:
                r = nxt
                relabel[c] = r
                nxt += 1
            out[e] = r
    unused = state.cfg.k - (nxt - 1)
    return (
        bytes(out),
        unused,
        state.turn == BREAKER,
        state.breaker_moves_this_turn,
    )


def _children(
    state: GameState, edges: Iterable[int], used: int
) -> Iterator[tuple[GameState, int]]:
    """Successor positions of ``state``, each with the color bit it spent.

    Moves of the player to move come first: ``edges`` in the given order,
    and on each edge, in increasing order, the available colors in ``used``
    plus the lowest available one outside it.  Breaker's end of turn comes
    last, where the rules allow it (bit 0).  A move that spends Breaker's
    bias also closes his turn, so no search position has one pending.
    """
    mover = state.turn
    b = state.cfg.b
    for e in edges:
        avail = state.avail_mask(e)
        cand = avail & used
        fresh = avail & ~used
        if fresh:
            cand |= fresh & -fresh
        while cand:
            bit = cand & -cand
            cand ^= bit
            child = state.clone()
            child.apply_move(mover, e, bit.bit_length())
            if child.breaker_moves_this_turn == b and not child.game_over():
                child.end_breaker_turn()
            yield child, bit
    if mover == BREAKER and state.may_end_breaker_turn():
        child = state.clone()
        child.end_breaker_turn()
        yield child, 0


class _Solver:
    def __init__(self, memoize: bool, budget: int | None) -> None:
        self.budget = NodeBudget(budget, "solve")
        self.table: dict | None = {} if memoize else None

    def maker_wins(self, state: GameState, used: int) -> bool:
        self.budget.tick()
        w = state.winner()
        if w != ONGOING:
            return w == MAKER_WON
        key = None
        if self.table is not None:
            key = _canonical_key(state)
            hit = self.table.get(key)
            if hit is not None:
                return hit
        # edges in (availability, index) order; the mover wins with any
        # child won for him
        order = sorted(
            (state.avail_mask(e).bit_count(), e)
            for e in range(state.g.m)
            if state.color[e] == 0
        )
        mover_value = state.turn == MAKER
        val = not mover_value
        for child, bit in _children(state, [e for _, e in order], used):
            if self.maker_wins(child, used | bit) == mover_value:
                val = mover_value
                break
        if self.table is not None:
            self.table[key] = val
        return val


def solve(
    g: Graph,
    k: int,
    cfg: GameConfig,
    *,
    budget: int | None = None,
    memoize: bool = True,
) -> SolveResult:
    """Exact winner of the game on g with palette size k.

    ``cfg`` supplies the variant (first player, skip rule, bias); its own
    palette size is overridden by ``k``.  Strict mode only: in the modified
    process the first blocked edge already settles the winner, so its game
    value is the strict one.
    """
    if cfg.mode != STRICT:
        raise ValueError("exact solver requires strict mode")
    cfg = replace(cfg, k=k)
    solver = _Solver(memoize, budget)
    win = solver.maker_wins(new_game(g, cfg), 0)
    return SolveResult(MAKER if win else BREAKER, solver.budget.nodes)


def game_chromatic_index(
    g: Graph,
    b: int = 1,
    cfg: GameConfig | None = None,
    *,
    budget: int | None = None,
    memoize: bool = True,
) -> ChiIndexResult:
    """Winner for every k in the trivial range [max(1,Δ), 2Δ-1].

    The reported value is the least k with a Maker win; no monotonicity in
    k is assumed, which is why the whole map is computed.  Graphs without
    edges get value 0 (Maker has already won).  If the budget runs out the
    map computed so far is returned with ``partial=True``.
    """
    if cfg is None:
        cfg = GameConfig.skip_variant(k=1, b=b)
    cfg = replace(cfg, b=b)
    if g.m == 0:
        return ChiIndexResult(0, {}, False, 0)
    delta = g.max_degree
    winners: dict[int, str] = {}
    nodes = 0
    partial = False
    for k in range(max(1, delta), 2 * delta):
        remaining = None if budget is None else budget - nodes
        try:
            res = solve(g, k, cfg, budget=remaining, memoize=memoize)
        except BudgetExceeded as exc:
            nodes += exc.nodes
            partial = True
            break
        nodes += res.nodes
        winners[k] = MAKER_WON if res.winner == MAKER else BREAKER_WON
    value = min(
        (k for k, w in winners.items() if w == MAKER_WON), default=None
    )
    return ChiIndexResult(value, winners, partial, nodes)


class _Verifier:
    def __init__(self, side: str, budget: int | None) -> None:
        self.side = side
        self.want = MAKER_WON if side == MAKER else BREAKER_WON
        self.budget = NodeBudget(budget, "verify_strategy")

    def search(self, state: GameState, strategy) -> MoveLog | None:
        """First losing line against full opponent enumeration, else None.

        The scripted side's moves are played in place; at every opponent
        decision point the position *and* the strategy (its RNG stream and
        memory) are cloned per branch, so each line sees the strategy
        exactly as live play would.  No color-symmetry pruning here: a
        concrete strategy need not be equivariant under palette renaming.
        """
        while True:
            self.budget.tick()
            if state.game_over():
                return None if state.winner() == self.want else state.log.copy()
            if state.turn != self.side:
                break
            step(state, strategy, strategy)
        # every legal move: all colors count as used, so none is pruned
        uncolored = [e for e in range(state.g.m) if state.color[e] == 0]
        for child, _ in _children(state, uncolored, state.full_mask):
            bad = self.search(child, strategy.clone())
            if bad is not None:
                return bad
        return None


def verify_strategy(
    g: Graph,
    k: int,
    cfg: GameConfig,
    strategy,
    side: str,
    *,
    budget: int | None = None,
) -> VerifyResult:
    """Check a fixed strategy for one side against all opposing replies.

    ``sound`` means the strategy's side wins every leaf of the opponent's
    full move tree (for Breaker that tree includes every micro-move
    sequence and every legal pass).  Otherwise ``counterexample`` holds the
    move log of one losing line, replayable through the engine.  The caller's
    strategy object is never mutated.  Strict mode only.
    """
    if side not in (MAKER, BREAKER):
        raise ValueError(f"side must be {MAKER!r} or {BREAKER!r}")
    if cfg.mode != STRICT:
        raise ValueError("verify_strategy requires strict mode")
    cfg = replace(cfg, k=k)
    verifier = _Verifier(side, budget)
    bad = verifier.search(new_game(g, cfg), strategy.clone())
    return VerifyResult(bad is None, bad, verifier.budget.nodes)
