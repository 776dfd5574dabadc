"""Subsequence embedding and the downward closure.

``down(L)`` holds every subsequence of every word of L.  The closure machine
adds a silent move alongside every transition, eliminates the silent moves
with one :func:`~ptsep.automata.fold_reachable` pass, and determinizes the
result in the same subset construction, so the dense eliminated relation is
never materialized.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .automata import (
    Automaton,
    _automaton,
    _rows,
    _subset_construction,
    fold_reachable,
    mask_of,
)


def is_subsequence(v: Sequence[str], w: Sequence[str]) -> bool:
    """Greedy left-to-right matching of v inside w."""
    it = iter(w)
    return all(sym in it for sym in v)


def is_prefix(v: Sequence[str], w: Sequence[str]) -> bool:
    return len(v) <= len(w) and tuple(w[: len(v)]) == tuple(v)


def _down_tables(rows, m: int, final_mask: int):
    """Per-state masks for the silent-move elimination of the automaton with
    successor rows ``rows`` (see :func:`~ptsep.automata._rows`).

    Returns (move, final_mask) where move[sym][q] is the target mask of the
    eliminated automaton and final_mask marks states with a silent path into
    an original final state.  Both come from one
    :func:`~ptsep.automata.fold_reachable` pass of the letter moves and the
    final bits over the silent-move digraph (q -> q' whenever some letter
    moves q to q'), so dense closures are never enumerated state by state.
    """
    n = len(rows) // m
    move = [[0] * n for _ in range(m)]
    silent = [set() for _ in range(n)]
    for i, targets in enumerate(rows):
        q, sym = divmod(i, m)
        for t in targets:
            move[sym][q] |= 1 << t
            silent[q].add(t)
    silent = [list(succ - {q}) for q, succ in enumerate(silent)]
    *move, final = fold_reachable(silent, [*move, [(final_mask >> q) & 1 for q in range(n)]])
    return move, mask_of(q for q in range(n) if final[q])


def _down_subsets(rows, m: int, final_mask: int, start_mask: int, budget=None):
    """The closure machine: the flat DFA of the down-closure of the NFA with
    successor rows ``rows``, by one fused subset construction that never
    materializes the dense eliminated relation."""
    move, final_mask = _down_tables(rows, m, final_mask)
    return _subset_construction(move, start_mask, final_mask, budget)


def down_determinize(a: Automaton, budget: Optional[int] = None) -> Automaton:
    """Complete DFA for down(L(a)) from the closure machine: one subset per
    reachable set of states of the silent-move-eliminated automaton."""
    return _automaton(a.alphabet, _down_subsets(
        _rows(a), len(a.alphabet), a.final_mask, a.initial_mask, budget))
