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

Both the solver and ``verify_strategy`` play each move on one
``GameState`` and take it back with ``undo`` once its subtree is searched,
so no position is copied; ``GameState.clone`` remains for the tests'
clone-based oracle and the benchmark's tracer.  The solver's state keeps no
move log, since nothing it runs reads one; the verifier's does, because
strategies read it and a counterexample is a copy of it.
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


def _moves(
    state: GameState, edges: Iterable[int], used: int
) -> Iterator[tuple[int | None, int]]:
    """Moves searched from ``state``, each as (edge, color bit).

    Moves of the player to move come first: ``edges`` in the given order,
    and on each edge, in increasing order, the available colors in ``used``
    plus the lowest available one outside it.  Breaker's end of turn comes
    last, where the rules allow it (edge None, bit 0).  The generator reads
    ``state`` between moves, so the consumer must have taken back what it
    played before asking for the next move.
    """
    for e in edges:
        avail = state.avail_mask(e)
        cand = avail & used
        fresh = avail & ~used
        if fresh:
            cand |= fresh & -fresh
        while cand:
            bit = cand & -cand
            cand ^= bit
            yield e, bit
    if state.turn == BREAKER and state.may_end_breaker_turn():
        yield None, 0


def _play(state: GameState, e: int | None, bit: int) -> int:
    """Play one move of ``_moves`` on ``state``; returns the number of
    transitions to take back with ``undo``.  A move that spends Breaker's
    bias also closes his turn, so no search position has one pending."""
    if e is None:
        state.end_breaker_turn()
        return 1
    state.apply_move(state.turn, e, bit.bit_length())
    if state.breaker_moves_this_turn == state.cfg.b and not state.game_over():
        state.end_breaker_turn()
        return 2
    return 1


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
        for e, bit in _moves(state, [e for _, e in order], used):
            plies = _play(state, e, bit)
            won = self.maker_wins(state, used | bit)
            for _ in range(plies):
                state.undo()
            if won == mover_value:
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
    win = solver.maker_wins(GameState(g, cfg, log=False), 0)
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

        The scripted side's moves are played on ``state`` and taken back
        before returning.  At every opponent decision point each branch but
        the last gets a clone of the strategy (its RNG stream and memory),
        and the last gets the node's own, so each line sees the strategy
        exactly as live play would.  No color-symmetry pruning here: a
        concrete strategy need not be equivariant under palette renaming.
        """
        plies = 0
        while True:
            self.budget.tick()
            if state.game_over():
                bad = None if state.winner() == self.want else state.log.copy()
                break
            if state.turn != self.side:
                bad = self._branch(state, strategy)
                break
            step(state, strategy, strategy)
            plies += 1
        for _ in range(plies):
            state.undo()
        return bad

    def _branch(self, state: GameState, strategy) -> MoveLog | None:
        # every legal move: all colors count as used, so none is pruned
        uncolored = [e for e in range(state.g.m) if state.color[e] == 0]
        moves = list(_moves(state, uncolored, state.full_mask))
        last = len(moves) - 1
        for i, (e, bit) in enumerate(moves):
            plies = _play(state, e, bit)
            bad = self.search(state, strategy if i == last else strategy.clone())
            for _ in range(plies):
                state.undo()
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
    move log of one losing line, replayable through the engine.  A strategy
    without per-game state is its own clone, shared across branches; the
    caller's strategy plays the same afterwards.  Strict mode only.
    """
    if side not in (MAKER, BREAKER):
        raise ValueError(f"side must be {MAKER!r} or {BREAKER!r}")
    if cfg.mode != STRICT:
        raise ValueError("verify_strategy requires strict mode")
    cfg = replace(cfg, k=k)
    verifier = _Verifier(side, budget)
    bad = verifier.search(new_game(g, cfg), strategy.clone())
    return VerifyResult(bad is None, bad, verifier.budget.nodes)
