"""Referee for the biased Maker-Breaker edge-coloring game.

Players alternately color edges of a graph properly from a palette 1..k.
Maker colors one edge per round; Breaker colors up to b edges per turn and
(in the default variant) moves first in round 1 and may sit out.  Breaker
wins as soon as some uncolored edge has every color blocked at its
endpoints; Maker wins when the whole graph is colored.

Two referee modes exist.  In ``strict`` mode the game stops at the first
blocked edge.  In ``modified`` mode play continues to a full coloring:
Maker is allowed (and flagged) to place a non-proper color when his chosen
edge is blocked, while Breaker must always stay proper and sits out when
stuck.  Maker wins a modified game only if he was never forced.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from typing import NamedTuple

from gamelab.graph import MAX_EDGE_LIST_VERTICES, Graph

MAKER = "maker"
BREAKER = "breaker"

STRICT = "strict"
MODIFIED = "modified"

VARIANTS = ("skip", "classic")  # as built by skip_variant() and classic()

ONGOING = "ongoing"
MAKER_WON = "maker_won"
BREAKER_WON = "breaker_won"


class IllegalMove(ValueError):
    """A move or turn action violating the game rules."""


@dataclass(frozen=True)
class GameConfig:
    k: int
    b: int = 1
    variant: str = "skip"
    mode: str = STRICT

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("palette size k must be at least 1")
        # Maker wins outright from k = 2*Delta - 1, and Delta < MAX_EDGE_LIST_VERTICES
        if self.k > 2 * MAX_EDGE_LIST_VERTICES:
            raise ValueError(f"palette size k must be at most {2 * MAX_EDGE_LIST_VERTICES}")
        if self.b < 1:
            raise ValueError("bias b must be at least 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.mode not in (STRICT, MODIFIED):
            raise ValueError(f"bad mode {self.mode!r}")

    @classmethod
    def skip_variant(cls, k: int, b: int = 1, mode: str = STRICT) -> GameConfig:
        """Breaker opens the game and may sit out on any turn."""
        return cls(k, b, "skip", mode)

    @classmethod
    def classic(cls, k: int, b: int = 1, mode: str = STRICT) -> GameConfig:
        """Maker opens; Breaker must color when he legally can."""
        return cls(k, b, "classic", mode)


class MoveRecord(NamedTuple):
    """One half-move.  ``skip=True`` marks the end of a Breaker turn
    (a pure sit-out is an end-of-turn with no preceding colorings).  A named
    tuple, half a frozen dataclass's cost to build: verifier nodes make one."""

    round: int
    player: str
    edge: int | None
    color: int | None
    skip: bool = False
    ann: dict | None = None


class MoveLog(list):
    """A list of MoveRecords with JSON-lines (de)serialization."""

    def copy(self) -> MoveLog:
        return MoveLog(self)

    def to_jsonl(self, g: Graph) -> str:
        lines = []
        for rec in self:
            obj: dict = {
                "r": rec.round,
                "p": "M" if rec.player == MAKER else "B",
                "e": list(g.edges[rec.edge]) if rec.edge is not None else None,
                "c": rec.color,
                "skip": rec.skip,
            }
            if rec.ann is not None:
                obj["ann"] = rec.ann
            lines.append(json.dumps(obj, separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str, g: Graph) -> MoveLog:
        """Parse a log written by ``to_jsonl``; a malformed line raises
        ValueError naming its line number."""
        records = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(_parse_record(line, g))
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"log line {lineno}: {exc}") from None
        return cls(records)


def _parse_record(line: str, g: Graph) -> MoveRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    rnd, p, e, c, ann = (obj.get(key) for key in ("r", "p", "e", "c", "ann"))
    if type(rnd) is not int:
        raise ValueError(f"'r' must be an integer, got {rnd!r}")
    if p not in ("M", "B"):
        raise ValueError(f"'p' must be \"M\" or \"B\", got {p!r}")
    if e is not None:
        if not (isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)):
            raise ValueError(f"'e' must be null or a pair of vertices, got {e!r}")
        e = g.index_of(*e)
    if c is not None and type(c) is not int:
        raise ValueError(f"'c' must be null or an integer, got {c!r}")
    if ann is not None and not isinstance(ann, dict):
        raise ValueError(f"'ann' must be null or an object, got {ann!r}")
    skip = obj.get("skip", False)
    if type(skip) is not bool:
        raise ValueError(f"'skip' must be a boolean, got {skip!r}")
    if skip:
        if e is not None or c is not None:
            raise ValueError("an end-of-turn record must have null 'e' and 'c'")
    elif e is None or c is None:
        raise ValueError("a coloring record needs both 'e' and 'c'")
    return MoveRecord(rnd, MAKER if p == "M" else BREAKER, e, c, skip, ann)


class GameState:
    """Live game position: the rule state and per-vertex loads.

    ``umask[v]`` is the bitmask of colors used at v (bit i = color i+1), kept
    for the blocked-edge check, and ``load[v]`` the number of colored edges at
    v.  Anything else a strategy or a report needs, such as the uncolored
    neighborhoods or Breaker's last turn, it derives from ``color``, ``log``
    or ``trail``.

    Every transition pushes onto ``trail`` one new tuple of what it
    overwrote, whose first field is the colored edge, or None for an end of
    turn, and ``undo`` pops it again, so a search plays and takes back
    positions on one state.  A strategy may therefore keep data derived at
    one trail entry and catch up on the entries pushed above it.
    ``apply_move`` and ``end_breaker_turn`` check a move against the rules,
    then commit it with ``_commit`` or ``_close_turn``; a search whose
    generator yields only legal moves commits them directly.
    ``log=False`` keeps no move log (``log`` is None), for a search that runs
    no strategy.  ``clone`` remains for the tests' clone-based oracle and the
    benchmark's tracer.
    """

    __slots__ = (
        "g",
        "cfg",
        "color",
        "uncolored",
        "round",
        "turn",
        "breaker_moves_this_turn",
        "load",
        "umask",
        "full_mask",
        "screen",
        "blocked_seen",
        "forced_count",
        "log",
        "trail",
    )

    def __init__(self, g: Graph, cfg: GameConfig, *, log: bool = True) -> None:
        self.g = g
        self.cfg = cfg
        self.color: list[int] = [0] * g.m
        self.uncolored = g.m
        self.round = 1
        self.turn = BREAKER if cfg.variant == "skip" else MAKER
        self.breaker_moves_this_turn = 0
        self.load: list[int] = [0] * g.n
        self.umask: list[int] = [0] * g.n
        self.full_mask = (1 << cfg.k) - 1
        # an uncolored edge wx gets at most Delta - 1 colors from x, so no
        # edge at a vertex w with at most k - Delta colors can be blocked
        self.screen = cfg.k - g.max_degree
        self.blocked_seen = False
        self.forced_count = 0
        self.log: MoveLog | None = MoveLog() if log else None
        # per transition: (edge, umask of both endpoints, turn, Breaker
        # colorings this turn, blocked_seen, forced_count) before a coloring,
        # (None, Breaker colorings this turn, round) before an end of turn
        self.trail: list[tuple] = []

    # -- queries ---------------------------------------------------------

    def avail_mask(self, e: int) -> int:
        u, v = self.g.edges[e]
        return self.full_mask & ~(self.umask[u] | self.umask[v])

    def available_colors(self, e: int) -> set[int]:
        """Colors of 1..k legal on the uncolored edge e."""
        if self.color[e] != 0:
            raise IllegalMove(f"edge {e} is already colored")
        mask = self.avail_mask(e)
        return {i + 1 for i in range(self.cfg.k) if mask >> i & 1}

    def winner(self) -> str:
        if self.blocked_seen:
            return BREAKER_WON
        if self.uncolored == 0:
            return MAKER_WON
        return ONGOING

    def game_over(self) -> bool:
        if self.cfg.mode == MODIFIED:
            return self.uncolored == 0
        return self.blocked_seen or self.uncolored == 0

    def breaker_has_legal_move(self) -> bool:
        return any(
            self.color[e] == 0 and self.avail_mask(e) != 0 for e in range(self.g.m)
        )

    def may_end_breaker_turn(self) -> bool:
        """Breaker may close his turn after a coloring, in the skip variant,
        or when no legal coloring is left."""
        return (
            self.breaker_moves_this_turn >= 1
            or self.cfg.variant == "skip"
            or not self.breaker_has_legal_move()
        )

    # -- transitions -------------------------------------------------------

    def apply_move(self, player: str, e: int, c: int, ann: dict | None = None) -> None:
        cfg = self.cfg
        if self.uncolored == 0 or (self.blocked_seen and cfg.mode == STRICT):
            raise IllegalMove("game is over")
        if player != self.turn:
            raise IllegalMove(f"not {player}'s turn")
        if not 0 <= e < len(self.color):
            raise IllegalMove(f"no edge with index {e}")
        if self.color[e] != 0:
            raise IllegalMove(f"edge {e} is already colored")
        if not 1 <= c <= cfg.k:
            raise IllegalMove(f"color {c} outside palette 1..{cfg.k}")
        if player == BREAKER and self.breaker_moves_this_turn >= cfg.b:
            raise IllegalMove(f"bias exceeded: already colored {cfg.b} edges this turn")
        if (player == BREAKER or cfg.mode == STRICT) and not self.avail_mask(e) >> (c - 1) & 1:
            raise IllegalMove(f"color {c} blocked on edge {e}")
        self._commit(e, c, ann)

    def _commit(self, e: int, c: int, ann: dict | None = None) -> None:
        """Color e with c for the player to move, unchecked.

        ``apply_move`` is this after the rule checks; a search whose move
        generator yields only legal moves calls it directly.
        """
        u, v = self.g.edges[e]
        umask = self.umask
        bit = 1 << (c - 1)
        proper = not (umask[u] | umask[v]) & bit
        player = self.turn
        self.trail.append((
            e, umask[u], umask[v], player, self.breaker_moves_this_turn,
            self.blocked_seen, self.forced_count,
        ))
        if not proper:
            self.forced_count += 1
            self.blocked_seen = True
        self.color[e] = c
        self.uncolored -= 1
        load = self.load
        load[u] += 1
        load[v] += 1
        umask[u] |= bit
        umask[v] |= bit

        if player == BREAKER:
            self.breaker_moves_this_turn += 1
        else:
            self.turn = BREAKER
            self.breaker_moves_this_turn = 0

        if self.log is not None:
            self.log.append(MoveRecord(self.round, player, e, c, False, ann))

        # only edges at the two endpoints can have lost their last color
        if not self.blocked_seen:
            full, color, edges = self.full_mask, self.color, self.g.edges
            for w in (u, v):
                if umask[w].bit_count() <= self.screen:
                    continue
                for f in self.g.incident[w]:
                    if color[f] == 0:
                        a, bb = edges[f]
                        if full & ~(umask[a] | umask[bb]) == 0:
                            self.blocked_seen = True
                            return

    def end_breaker_turn(self) -> None:
        """Close Breaker's turn; a turn with zero colorings is a sit-out.

        Logged as a ``skip`` record so that replay needs no inference about
        turn boundaries.
        """
        if self.game_over():
            raise IllegalMove("game is over")
        if self.turn != BREAKER:
            raise IllegalMove("not breaker's turn")
        if not self.may_end_breaker_turn():
            raise IllegalMove("breaker may not sit out in this variant")
        self._close_turn()

    def _close_turn(self) -> None:
        """Close Breaker's turn, unchecked.

        ``end_breaker_turn`` is this after the rule checks; a search whose
        move generator has already checked them calls it directly.
        """
        self.trail.append((None, self.breaker_moves_this_turn, self.round))
        if self.log is not None:
            self.log.append(MoveRecord(self.round, BREAKER, None, None, True, None))
        self.turn = MAKER
        self.round += 1
        self.breaker_moves_this_turn = 0

    def undo(self) -> None:
        """Take back the last ``apply_move`` or ``end_breaker_turn``."""
        rec = self.trail.pop()
        if self.log is not None:
            self.log.pop()
        e = rec[0]
        if e is None:
            self.turn = BREAKER
            _, self.breaker_moves_this_turn, self.round = rec
            return
        (_, mu, mv, self.turn, self.breaker_moves_this_turn,
         self.blocked_seen, self.forced_count) = rec
        u, v = self.g.edges[e]
        self.color[e] = 0
        self.uncolored += 1
        self.load[u] -= 1
        self.load[v] -= 1
        self.umask[u] = mu
        self.umask[v] = mv

    # -- copying -----------------------------------------------------------

    def clone(self) -> GameState:
        """An independent copy; searches use ``undo`` instead.  Every slot
        is copied by reference, then each mutable one is renewed here."""
        s = copy.copy(self)
        s.color, s.load, s.umask = list(self.color), list(self.load), list(self.umask)
        s.log = None if self.log is None else self.log.copy()
        s.trail = list(self.trail)
        return s


def step(s: GameState, maker, breaker) -> None:
    """One transition of live play: the player to move is asked for a move.

    A spent bias, or a ``None`` micro-move, ends Breaker's turn.
    """
    if s.turn == MAKER:
        e, c, ann = maker.move(s)
        s.apply_move(MAKER, e, c, ann)
    elif s.breaker_moves_this_turn >= s.cfg.b:
        s.end_breaker_turn()
    else:
        mv = breaker.micro_move(s)
        if mv is None:
            s.end_breaker_turn()
        else:
            e, c, ann = mv
            s.apply_move(BREAKER, e, c, ann)


def uniform_legal_move(s: GameState, rng) -> tuple[int, int] | None:
    """A uniformly random legal (edge, color) pair, or None if there is none.

    The edge is drawn with weight equal to its number of legal colors, then
    the color uniformly among those, from ``rng`` in that order.
    """
    counts = [
        s.avail_mask(e).bit_count() if s.color[e] == 0 else 0 for e in range(s.g.m)
    ]
    total = sum(counts)
    if total == 0:
        return None
    pick = rng.randrange(total)
    e = 0
    while pick >= counts[e]:
        pick -= counts[e]
        e += 1
    colors = sorted(s.available_colors(e))
    return e, colors[rng.randrange(len(colors))]


def apply_record(s: GameState, rec: MoveRecord) -> None:
    """Apply one logged record to s, checking its round and its kind."""
    if rec.round != s.round:
        raise IllegalMove(f"expected round {s.round}, record says {rec.round}")
    if rec.skip:
        if rec.player != BREAKER:
            raise IllegalMove("skip recorded for maker")
        if rec.edge is not None or rec.color is not None:
            raise IllegalMove("end-of-turn record carries an edge or a color")
        s.end_breaker_turn()
    else:
        if rec.edge is None or rec.color is None:
            raise IllegalMove("coloring record lacks edge or color")
        s.apply_move(rec.player, rec.edge, rec.color, rec.ann)


def replay(g: Graph, cfg: GameConfig, log: MoveLog) -> GameState:
    """Re-run a logged game, validating every step; returns the final state."""
    s = GameState(g, cfg)
    for i, rec in enumerate(log):
        try:
            apply_record(s, rec)
        except IllegalMove as exc:
            raise IllegalMove(f"replay failed at record {i}: {exc}") from None
    return s
