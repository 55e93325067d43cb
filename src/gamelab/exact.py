"""Exact game values for the biased edge-coloring game by exhaustive search.

``solve`` runs a boolean minimax over full positions: Maker wins a position
iff some move of his wins, Breaker's turn is expanded into at most ``b``
sequential micro-moves plus (where the rules allow it) a pass.  Four
reductions keep the tree tractable:

* color symmetry -- palette colors are interchangeable, so whenever several
  colors in ``A(e)`` have never been used anywhere on the board, only the
  lowest of them is tried; any two globally-fresh colors lead to positions
  that differ by a color permutation and therefore have the same value.
* transposition table (``memoize=True``) -- positions are cached under a
  key invariant under palette permutations and graph automorphisms, one
  int.  The solver keeps the mask of the colored edges and, for each
  color, one int whose i-th m-bit field is the mask of that color's edges
  moved by the i-th edge permutation of ``Graph.edge_automorphisms``:
  playing a coloring is two int ORs, and taking it back two assignments.
  Classes of distinct colors are disjoint, so the sorted fields of one
  permutation determine the moved coloring up to a palette permutation.
  The key is the least pair (moved colored set, sorted fields) over the
  permutations, so only those that send the colored set to its least
  image, a coset of its stabilizer, are sorted; the list is packed in
  m-bit fields, with the turn phase (Breaker colorings spent this turn,
  player to move) folded in below it.  That coset depends on the colored
  set alone, which repeats far more often than the coloring, so it is
  computed once per set and kept on the graph (``_Symmetry``), with the
  permutations packed as each edge's images.  The colored set is blind to
  palette renaming, so over the whole group the key is constant on an
  orbit and determines it.  It is sound for any set S of automorphisms
  that holds the identity: equal keys mean s1 C1 = s2 C2 up to palette for
  some s1, s2 in S, so C1 is the image of C2 under the automorphism
  s1^-1 s2 and has its value.  That is why the enumeration may stop at its
  cap (``MAX_EDGE_AUTOMORPHISMS``, which keeps the whole group of K_5) or
  at its step bound.  The graph's table is built when a memoizing solve
  first expands its root and serves every later solve on that graph, so
  a solve settled at the root by a cut builds none.  The round number
  never affects what moves are legal, so it is absent from the key.
* trivial-bound cuts -- the pass that counts each uncolored edge's
  available colors for the move order also settles two kinds of node
  without expanding them; the value goes into the table like any other.
  A *safe* board, where every uncolored e = uv has more available colors
  than uncolored neighbours ((deg u - load u) + (deg v - load v) - 2), is a
  Maker win: a later coloring next to e removes at most one color from
  A(e) and exactly one uncolored neighbour, so the surplus never falls, e
  always keeps a color, and no edge can be blocked.  This is the bound
  chi'_g <= 2*Delta - 1 applied to a position.  A *one-move block* is a
  Breaker win: it is his turn (with bias left, since ``_play`` closes a
  spent turn), some uncolored e has exactly one available color c, and an
  uncolored neighbour f != e can take c; coloring f with c blocks e.
* orbit pruning (``memoize=True``) -- a node that is expanded tries only
  the first uncolored edge, in the move order, of each orbit of its
  coloring's stabilizer (McKay and Piperno's pruning of symmetric
  children).  The key's scan already finds the symmetries s that send the
  coloring C to the packed one; for two of them s2^-1 s1 is an
  automorphism that maps C to itself up to a palette permutation pi, so
  the child (e, c) has the value of (s2^-1 s1 e, pi c).  The colors tried
  on an edge are its available colors on the board plus the lowest fresh
  one, and pi maps the first set of e onto that of its image, so the
  children of the first edge of an orbit stand for those of the rest.
  Each merge rests on two real automorphisms, so the cap leaves it sound;
  under the cap the orbits may be split finer than the group's.

``memoize=False`` runs the same recursion, cuts included, without the
table, the color classes, the automorphisms or the orbit pruning; agreement
of the two modes is the standard self-check for the key and the orbits.
``verify_strategy`` has no cuts: on a safe board any legal Maker strategy
wins, but the verifier also certifies that the strategy moves legally on
every line, so it plays each line out.
It has a memo instead, for a strategy with a ``memo_key`` method: its
later moves are a function of the position and of that int (0 for a
stateless or position-derived strategy, the touched boxes for the box
Breaker), so it plays the same subtree from the same pair, and an opponent
decision point proven sound once is sound again.  A strategy whose class
sets ``memo_key = None`` (one that holds a draw tape) gets no memo.  The
memo keeps only such points (coloring, Breaker's spent count and the
strategy's key, one int); an unsound one ends the whole search.  The
search order is unchanged and a hit only skips a subtree already proven
sound, so the verdict and the first counterexample are those of the
memo-free search, and only ``nodes`` falls.

Both the solver and ``verify_strategy`` play each move on one
``GameState`` and take it back with ``undo`` once its subtree is searched,
so no position is copied; ``GameState.clone`` remains for the tests'
clone-based oracle and the benchmark's tracer.  The solver's state keeps no
move log, since nothing it runs reads one; the verifier's does, because
strategies read it and a counterexample is a copy of it.  The verifier
forks the scripted strategy lazily: a line shares the strategy of the line
it branched from until it first asks it for a move.  A fork copies the
strategy's memory and its position on a shared draw tape (``DrawTape``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from struct import Struct
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
    transitions to take back with ``undo``.  ``_moves`` yields legal moves
    only, so a coloring or an end of turn is committed without the rule
    checks.  A move that spends Breaker's bias also closes his turn, so no
    search position has one pending."""
    if e is None:
        state._close_turn()
        return 1
    state._commit(e, bit.bit_length())
    if state.breaker_moves_this_turn == state.cfg.b and not state.game_over():
        state._close_turn()
        return 2
    return 1


def _one_move_block(state: GameState, order: list[tuple[int, int]]) -> bool:
    """Whether Breaker, to move with bias left, blocks an edge with his next
    coloring: some uncolored e has one available color c, and an uncolored
    neighbour f != e can take c.  ``order`` lists the uncolored edges as
    (availability, index) pairs, ascending, so those with one color lead."""
    g, color = state.g, state.color
    for a, e in order:
        if a > 1:
            return False
        c = state.avail_mask(e)
        for w in g.edges[e]:
            for f in g.incident[w]:
                if f != e and color[f] == 0 and state.avail_mask(f) & c:
                    return True
    return False


class _Symmetry:
    """A graph's edge permutations, packed for the solver's key, and the
    coset of each colored set met so far.  ``images[e]`` sets bit
    i * m + s_i(e) for the i-th permutation s_i; ``cosets`` maps a colored
    set, as an edge mask, to the ascending indices of the permutations
    that send it to its least image.  Kept on the graph by ``_Solver.load``,
    so every solve on the graph shares it."""

    __slots__ = ("perms", "images", "cosets")

    def __init__(self, g: Graph) -> None:
        self.perms = g.edge_automorphisms()
        m = g.m
        self.images = [
            sum(1 << (i * m + p[e]) for i, p in enumerate(self.perms)) for e in range(m)
        ]
        self.cosets: dict[int, tuple[int, ...]] = {}

    def coset(self, colored: int) -> tuple[int, ...]:
        """Compute and keep the coset of ``colored``: OR its edges' packed
        images and read the field of each permutation back."""
        m = len(self.images)
        packed = 0
        for e, image in enumerate(self.images):
            if colored >> e & 1:
                packed |= image
        full = (1 << m) - 1
        moved = [packed >> shift & full for shift in range(0, len(self.perms) * m, m)]
        low = min(moved)
        coset = self.cosets[colored] = tuple(i for i, u in enumerate(moved) if u == low)
        return coset


class _Solver:
    def __init__(self, state: GameState, memoize: bool, budget: int | None) -> None:
        self.budget = NodeBudget(budget, "solve")
        self.table: dict[int, bool] | None = {} if memoize else None
        self.m = state.g.m
        self.full = (1 << self.m) - 1
        self.deg = [len(inc) for inc in state.g.incident]
        # Loaded when a memoizing solve expands its root.  classes[c - 1]:
        # the edges colored c, packed like ``_Symmetry.images`` (its i-th
        # m-bit field is their image under the i-th permutation of
        # Graph.edge_automorphisms, the identity being i = 0); colored: the
        # mask of all colored edges.  coset: the permutations whose image
        # of the coloring is the one ``key`` last packed.
        self.sym: _Symmetry | None = None
        self.classes: list[int] | None = None
        self.colored = 0
        self.coset: list[int] = []

    def load(self, state: GameState) -> None:
        """Build the classes of ``state``'s coloring, and the graph's
        ``_Symmetry`` if it has none.  A fresh color is the lowest unused
        one, so the search adds none above min(k, m)."""
        g = state.g
        if g._symmetry is None:
            g._symmetry = _Symmetry(g)
        self.sym = g._symmetry
        self.classes = [0] * max(min(state.cfg.k, self.m), *state.color)
        self.colored = 0
        for e, c in enumerate(state.color):
            if c:
                self.paint(e, c - 1)

    def paint(self, e: int, c: int) -> tuple[int, int]:
        """Add edge e to color c + 1's class and to the colored set; returns
        the old pair, which ``classes[c], colored = old`` puts back."""
        classes = self.classes
        old = classes[c], self.colored
        classes[c] = old[0] | self.sym.images[e]
        self.colored = old[1] | 1 << e
        return old

    def key(self, state: GameState) -> int:
        """The table key: over the permutations that send the colored set
        to its least image, the least sorted list of the classes' fields,
        packed in m-bit fields, then the turn phase.  An empty class would
        pack to a leading zero under every permutation, so it is left out.
        The permutations that reach the least list are kept in ``coset``."""
        m, full, colored = self.m, self.full, self.colored
        cands = self.sym.cosets.get(colored) or self.sym.coset(colored)
        live = list(filter(None, self.classes))
        i = cands[0]
        best = sorted([mask >> i * m & full for mask in live])
        coset = [i]
        for i in cands[1:]:
            moved = sorted([mask >> i * m & full for mask in live])
            if moved < best:
                best, coset = moved, [i]
            elif moved == best:
                coset.append(i)
        self.coset = coset
        key = 0
        for mask in best:
            key = key << m | mask
        return (key * state.cfg.b + state.breaker_moves_this_turn) * 2 + (
            state.turn == BREAKER
        )

    def orbit_reps(self, edges: list[int]) -> list[int]:
        """The first of ``edges`` in each orbit of the last keyed coloring's
        stabilizer.  Two edges are merged when some s1, s2 of ``coset`` send
        them to one edge: s2^-1 s1 is an automorphism that maps the coloring
        to itself up to a palette permutation and the one edge to the
        other.  When ``coset`` is a whole coset of the stabilizer, the
        least image names the orbit."""
        coset = self.coset
        if len(coset) == 1:
            return edges
        perms, seen, reps = self.sym.perms, set(), []
        for e in edges:
            label = min([perms[i][e] for i in coset])
            if label not in seen:
                seen.add(label)
                reps.append(e)
        return reps

    def maker_wins(self, state: GameState, used: int) -> bool:
        self.budget.tick()
        w = state.winner()
        if w != ONGOING:
            return w == MAKER_WON
        key = None
        if self.classes is not None:
            key = self.key(state)
            hit = self.table.get(key)
            if hit is not None:
                return hit
        # one pass over the uncolored edges: availability for the move
        # order, and whether each edge has more colors left than uncolored
        # neighbours (edges at u other than e number deg u - load u - 1)
        color, edges, umask, load, deg = (
            state.color, state.g.edges, state.umask, state.load, self.deg
        )
        full = state.full_mask
        order = []
        safe = True
        for e in range(self.m):
            if color[e] == 0:
                u, v = edges[e]
                a = (full & ~(umask[u] | umask[v])).bit_count()
                order.append((a, e))
                if a <= deg[u] - load[u] + deg[v] - load[v] - 2:
                    safe = False
        mover_value = state.turn == MAKER
        if safe:
            val = True
        else:
            # edges in (availability, index) order; the mover wins with
            # any child won for him
            order.sort()
            if not mover_value and _one_move_block(state, order):
                val = False
            else:
                edges = [e for _, e in order]
                if self.table is not None:
                    if self.classes is None:
                        # the root: no descendant repeats it, so it is
                        # keyed only to find its coset
                        self.load(state)
                        self.key(state)
                    edges = self.orbit_reps(edges)
                classes = self.classes
                val = not mover_value
                for e, bit in _moves(state, edges, used):
                    plies = _play(state, e, bit)
                    if classes is not None and e is not None:
                        c = bit.bit_length() - 1
                        old = self.paint(e, c)
                        won = self.maker_wins(state, used | bit)
                        classes[c], self.colored = old
                    else:
                        won = self.maker_wins(state, used | bit)
                    for _ in range(plies):
                        state.undo()
                    if won == mover_value:
                        val = mover_value
                        break
        if key is not None:
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
    state = GameState(g, cfg, log=False)
    solver = _Solver(state, memoize, budget)
    win = solver.maker_wins(state, 0)
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
    def __init__(self, side: str, budget: int | None, m: int, memoize: bool) -> None:
        self.side = side
        self.wants_block = side == BREAKER  # a strict game's winner, as blocked_seen
        self.budget = NodeBudget(budget, "verify_strategy")
        # keys of opponent decision points proven sound, for a strategy
        # whose later moves depend on the position and its memo key alone
        self.proven: set[int] | None = set() if memoize else None
        # one 32-bit word per edge holds any palette GameConfig allows
        self.words = Struct(f"<{m}I")
        self.width = 32 * m

    def key(self, state: GameState, strategy) -> int:
        """The memo's key of an opponent decision point: the strategy's
        ``memo_key``, the coloring, then Breaker's colorings spent this turn.
        The opponent is always the one to move there, and the round never
        affects what moves are legal."""
        packed = int.from_bytes(self.words.pack(*state.color), "little")
        packed |= strategy.memo_key(state) << self.width
        return packed * state.cfg.b + state.breaker_moves_this_turn

    def search(self, state: GameState, strategy, owned: bool) -> MoveLog | None:
        """First losing line against full opponent enumeration, else None.

        The scripted side's moves are played on ``state`` and taken back
        before returning.  A line borrows the strategy of the line it
        branched from until it first asks the strategy for a move; only
        then, unless it ``owned`` it, does it fork its own copy (tape
        position and memory).  At every opponent decision point each branch
        borrows the node's strategy, and the last inherits its ownership.
        A borrowed strategy is never moved, so each line sees the strategy
        exactly as live play would.  No symmetry pruning here: a concrete
        strategy need not be equivariant under palette renaming or graph
        automorphisms.
        """
        plies = 0
        while True:
            self.budget.tick()
            # verify_strategy refuses modified mode, so the game is strict
            if state.blocked_seen or not state.uncolored:
                bad = None if state.blocked_seen == self.wants_block else state.log.copy()
                break
            if state.turn != self.side:
                bad = self._branch(state, strategy, owned)
                break
            if not owned:
                strategy = strategy.clone()
                owned = True
            step(state, strategy, strategy)
            plies += 1
        for _ in range(plies):
            state.undo()
        return bad

    def _branch(self, state: GameState, strategy, owned: bool) -> MoveLog | None:
        proven = self.proven
        if proven is not None:
            key = self.key(state, strategy)
            if key in proven:
                return None
        # every legal move: all colors count as used, so none is pruned
        uncolored = [e for e in range(state.g.m) if state.color[e] == 0]
        moves = list(_moves(state, uncolored, state.full_mask))
        last = len(moves) - 1
        for i, (e, bit) in enumerate(moves):
            plies = _play(state, e, bit)
            bad = self.search(state, strategy, owned and i == last)
            for _ in range(plies):
                state.undo()
            if bad is not None:
                return bad
        if proven is not None:
            proven.add(key)
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
    move log of one losing line, replayable through the engine.  A line
    forks the strategy when it first asks it for a move, which copies the
    strategy's tape position and memory, not a generator state; a strategy
    without per-game state is its own clone, shared across every line.  Any
    other caller's strategy is never asked for a move, so it plays the same
    afterwards.  A strategy with a ``memo_key(state)`` method promises that
    its later moves depend only on the position (coloring, player to move,
    Breaker's colorings this turn) and that int; the search then skips any
    opponent decision point it has already proven sound with the same key,
    which lowers ``nodes`` and changes nothing else.  A strategy whose
    ``memo_key`` is None, or that has none, is searched without the memo.
    Strict mode only.
    """
    if side not in (MAKER, BREAKER):
        raise ValueError(f"side must be {MAKER!r} or {BREAKER!r}")
    if cfg.mode != STRICT:
        raise ValueError("verify_strategy requires strict mode")
    cfg = replace(cfg, k=k)
    verifier = _Verifier(side, budget, g.m, getattr(strategy, "memo_key", None) is not None)
    bad = verifier.search(GameState(g, cfg), strategy, False)
    return VerifyResult(bad is None, bad, verifier.budget.nodes)
