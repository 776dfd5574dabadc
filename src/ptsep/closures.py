"""Subsequence embedding and the downward closure.

``down(L)`` holds every subsequence of every word of L.  The closure machine
adds a silent move alongside every transition and determinizes over
reachability-closed subsets: reach[q] holds the states silently reachable
from q, q included, and a subset moves under sym to the union of reach[t]
over the sym-moves q' -> t of its members.  Subsets with the same closure
are one state, and a closed subset is final iff it holds a final state.
The closed move table keeps, per state, only the letters that move, so a
subset costs the live letters of its picks, not the whole alphabet.

A closed subset is expanded from a cover of picks (see
:func:`~ptsep.automata._subset_construction`): 1.8 picks for 43 members
on average over the benchmark's chain instances.  That is exact for any
state numbering: q' in reach[q] gives reach[q'] inside reach[q], so q'
moves inside q's move, and the OR over the picks equals the OR over all
members.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .automata import (
    Automaton,
    _automaton,
    _moves,
    _subset_construction,
    bits,
    mask_of,
    strongly_connected_components,
)


def is_subsequence(v: Sequence[str], w: Sequence[str]) -> bool:
    """Greedy left-to-right matching of v inside w."""
    it = iter(w)
    return all(sym in it for sym in v)


def is_prefix(v: Sequence[str], w: Sequence[str]) -> bool:
    return len(v) <= len(w) and tuple(w[: len(v)]) == tuple(v)


def _down_tables(moves):
    """(reach, move) for the automaton whose state q has the (letter,
    target) moves ``moves[q]`` (see :func:`~ptsep.automata._moves`): move[q]
    maps each letter to the union of reach[t] over the moves q' -> t under
    it with q' in reach[q], and holds only the letters with such a move.
    One pass over the condensation of the silent-move digraph, successors
    first: a component ORs in its successors' finished rows, and its own
    moves' targets lie in it or after it, so no closure is enumerated state
    by state."""
    silent = [list({t for _, t in row} - {q}) for q, row in enumerate(moves)]
    reach = [0] * len(moves)
    move = [None] * len(moves)
    for comp in strongly_connected_components(silent):
        acc, closed = mask_of(comp), {}
        for v in {v for q in comp for v in silent[q]}.difference(comp):
            acc |= reach[v]
            for sym, mask in move[v].items():
                closed[sym] = closed.get(sym, 0) | mask
        for q in comp:
            reach[q] = acc
        for q in comp:
            for sym, t in moves[q]:
                closed[sym] = closed.get(sym, 0) | reach[t]
            move[q] = closed  # one row, read only, for the whole component
    return reach, move


def _down_subsets(moves, m: int, final_mask: int, start_mask: int, budget=None):
    """The closure machine: the flat DFA of the down-closure of the NFA with
    the moves ``moves`` over m letters, by the subset construction over
    closed subsets expanded from their reach cover."""
    reach, move = _down_tables(moves)
    start = mask_of(t for q in bits(start_mask) for t in bits(reach[q]))
    return _subset_construction(m, move, start, final_mask, budget, reach)


def down_determinize(a: Automaton, budget: Optional[int] = None) -> Automaton:
    """Complete DFA for down(L(a)) from the closure machine: one state per
    reachable reachability-closed subset of a's states, and the sink when
    the empty subset is reached."""
    return _automaton(a.alphabet, _down_subsets(
        _moves(a), len(a.alphabet), a.final_mask, a.initial_mask, budget))
