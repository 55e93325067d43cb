"""Box game: threshold recurrence, closed-form criterion vs minimax, strategies."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from gamelab.boxgame import (
    ALICE,
    ALICE_WON,
    BOB,
    BOB_WON,
    BoxGameError,
    BoxGameState,
    bob_strategy,
    bob_wins,
    box_threshold,
    harmonic_number,
    is_near_uniform,
    solve_boxgame,
    threshold_lower_bound,
)
from helpers import verify_bob_strategy


def oracle_threshold(s: int, b: int) -> int:
    """Same recurrence evaluated in exact rational arithmetic."""
    val = Fraction(0)
    for i in range(2, s + 1):
        val = Fraction(math.floor(Fraction(i, i - 1) * (val + b)))
    return int(val)


def alice_strategy(state: BoxGameState) -> int:
    """Touch the most endangered box: untouched with fewest elements left."""
    best = None
    for i in range(state.s):
        if state.touched[i] or state.remaining[i] == 0:
            continue
        if best is None or state.remaining[i] < state.remaining[best]:
            best = i
    if best is None:
        # nothing untouched is claimable; take any remaining element
        for i in range(state.s):
            if state.remaining[i] > 0:
                return i
        raise BoxGameError("no claimable box")
    return best


def play_boxgame(sizes, b, bob=bob_strategy, max_plies=10_000) -> BoxGameState:
    """Play the scripted Alice against ``bob`` (a None choice ends his turn)
    to the end, Alice first, and return the final state."""
    state = BoxGameState.new(sizes, b)
    for _ in range(max_plies):
        if state.winner() is not None:
            return state
        if state.turn == ALICE:
            state.alice_claim(alice_strategy(state))
        elif (choice := bob(state)) is None:
            state.end_bob_turn()
        else:
            state.bob_claim(choice)
    raise BoxGameError("game did not terminate")


def near_uniform_families(max_s: int, max_size: int):
    for s in range(1, max_s + 1):
        for lo in range(1, max_size + 1):
            for n_hi in range(s + 1):
                if lo + 1 > max_size and n_hi > 0:
                    continue
                sizes = [lo + 1] * n_hi + [lo] * (s - n_hi)
                if n_hi == s and s > 0:
                    continue  # identical to the all-(lo+1) family at lo+1
                yield sizes


class TestThreshold:
    def test_pinned_values(self):
        assert box_threshold(1, 1) == 0
        assert box_threshold(2, 1) == 2
        assert box_threshold(3, 1) == 4
        assert box_threshold(4, 1) == 6
        assert box_threshold(2, 2) == 4
        assert box_threshold(3, 2) == 9
        assert box_threshold(4, 2) == 14
        assert box_threshold(5, 2) == 20

    def test_matches_rational_oracle(self):
        for s in range(1, 60):
            for b in range(1, 6):
                assert box_threshold(s, b) == oracle_threshold(s, b)

    def test_harmonic_lower_bound(self):
        for s in range(1, 200):
            for b in (1, 2, 3, 5, 10):
                assert box_threshold(s, b) >= threshold_lower_bound(s, b)

    def test_monotone_in_bias(self):
        for s in range(1, 30):
            for b in range(1, 5):
                assert box_threshold(s, b + 1) >= box_threshold(s, b)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            box_threshold(0, 1)
        with pytest.raises(ValueError):
            box_threshold(3, 0)

    def test_harmonic_number(self):
        assert harmonic_number(0) == 0
        assert harmonic_number(1) == 1
        assert harmonic_number(4) == Fraction(25, 12)
        with pytest.raises(ValueError):
            harmonic_number(-1)


class TestCriterion:
    def test_criterion_matches_minimax_small(self):
        # every near-uniform family with s <= 3 boxes of size <= 4, bias <= 2
        for sizes in near_uniform_families(3, 4):
            for b in (1, 2):
                assert bob_wins(sizes, b) == solve_boxgame(sizes, b), (sizes, b)

    def test_requires_near_uniform(self):
        assert not is_near_uniform([1, 3])
        with pytest.raises(BoxGameError):
            bob_wins([1, 3], 1)

    def test_rejects_degenerate(self):
        with pytest.raises(BoxGameError):
            bob_wins([], 1)
        with pytest.raises(BoxGameError):
            bob_wins([0, 1], 1)
        with pytest.raises(BoxGameError):
            bob_wins([1, 1], 0)

    def test_single_box(self):
        # f(1, b) = 0: Alice touches the lone box immediately
        assert not bob_wins([1], 1)
        assert not solve_boxgame([3], 2)


class TestRules:
    def test_alice_touch_and_turn_cycle(self):
        st = BoxGameState.new([2, 2], b=2)
        st.alice_claim(0)
        assert st.touched == [True, False] and st.turn == BOB
        st.bob_claim(1)
        st.bob_claim(1)
        assert st.winner() == BOB_WON

    def test_bob_must_claim_when_possible(self):
        st = BoxGameState.new([2, 2], b=1)
        st.alice_claim(0)
        with pytest.raises(BoxGameError):
            st.end_bob_turn()

    def test_bob_may_end_after_one_claim(self):
        st = BoxGameState.new([2, 2, 2], b=3)
        st.alice_claim(0)
        st.bob_claim(1)
        st.end_bob_turn()
        assert st.turn == ALICE

    def test_bias_exhausted(self):
        st = BoxGameState.new([5, 5], b=1)
        st.alice_claim(0)
        st.bob_claim(1)
        assert st.turn == ALICE
        with pytest.raises(BoxGameError):
            st.bob_claim(1)

    def test_claims_from_empty_box_rejected(self):
        st = BoxGameState.new([1, 2], b=1)
        st.alice_claim(0)
        with pytest.raises(BoxGameError):
            st.bob_claim(0)

    def test_winner_alice(self):
        st = BoxGameState.new([1, 1], b=1)
        st.alice_claim(0)
        st.bob_claim(1)
        assert st.winner() == BOB_WON
        st2 = BoxGameState.new([2, 2], b=1)
        st2.alice_claim(0)
        st2.bob_claim(0)
        st2.alice_claim(1)
        assert st2.winner() == ALICE_WON


class TestStrategies:
    def test_scripted_bob_wins_threshold_positions(self):
        # uniform families sitting at or below the threshold
        for s in range(2, 5):
            for b in (1, 2):
                f = box_threshold(s, b)
                base, extra = divmod(f, s)
                if base == 0:
                    continue
                sizes = [base + 1] * extra + [base] * (s - extra)
                final = play_boxgame(sizes, b)
                assert final.winner() == BOB_WON, (sizes, b)

    def test_scripted_alice_wins_above_threshold(self):
        for s in range(2, 5):
            for b in (1, 2):
                f = box_threshold(s, b)
                base, extra = divmod(f + 1, s)
                sizes = [base + 1] * extra + [base] * (s - extra)
                if not is_near_uniform(sizes) or min(sizes) == 0:
                    continue
                final = play_boxgame(sizes, b)
                assert final.winner() == ALICE_WON, (sizes, b)

    def test_bob_strategy_sound_against_all_alice_lines(self):
        for sizes in near_uniform_families(3, 4):
            for b in (1, 2):
                if min(sizes) >= 1 and bob_wins(sizes, b):
                    sound, nodes = verify_bob_strategy(sizes, b)
                    assert sound, (sizes, b)
                    assert nodes >= 1

    def test_alice_strategy_sound_against_all_bob_lines(self):
        # exhaustive Bob enumeration with scripted Alice on winning positions
        def all_bob_lines(state: BoxGameState) -> bool:
            w = state.winner()
            if w is not None:
                return w == ALICE_WON
            if state.turn == ALICE:
                nxt = state.clone()
                nxt.alice_claim(alice_strategy(nxt))
                return all_bob_lines(nxt)
            moves: list[int | None] = [
                i for i in range(state.s) if state.remaining[i] > 0
            ]
            if state.may_end_bob_turn():
                moves.append(None)
            for mv in moves:
                nxt = state.clone()
                if mv is None:
                    nxt.end_bob_turn()
                else:
                    nxt.bob_claim(mv)
                if not all_bob_lines(nxt):
                    return False
            return True

        for sizes in near_uniform_families(3, 3):
            for b in (1, 2):
                if min(sizes) >= 1 and not bob_wins(sizes, b):
                    assert all_bob_lines(BoxGameState.new(sizes, b)), (sizes, b)

    def test_play_rejects_sitout_happy_bob(self):
        with pytest.raises(BoxGameError):
            play_boxgame([2, 2], 1, bob=lambda st: None)
