"""Subsequence embedding and the downward closure.

``down(L)`` holds every subsequence of every word of L.  The closure machine
adds a silent move alongside every transition and determinizes over
reachability-closed subsets: reach[q] holds the states silently reachable
from q, q included, and a subset moves under sym to the union of reach[t]
over the sym-moves q' -> t of its members.  Subsets with the same closure
are one state, and a closed subset is final iff it holds a final state.

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
    _rows,
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


def _down_tables(rows, m: int):
    """(reach, move) for the automaton with successor rows ``rows`` (see
    :func:`~ptsep.automata._rows`): move[sym][q] is the union of reach[t]
    over the sym-moves q' -> t with q' in reach[q].  One pass over the
    condensation of the silent-move digraph, successors first as in
    :func:`~ptsep.automata.fold_reachable`: a component ORs in its
    successors' finished entries, and its own moves' targets lie in it or
    after it, so no closure is enumerated state by state."""
    n = len(rows) // m
    silent = [list(set().union(*rows[b:b + m]) - {q}) for q, b in enumerate(range(0, n * m, m))]
    reach = [0] * n
    move = [[0] * n for _ in range(m)]
    for comp in strongly_connected_components(silent):
        after = {v for q in comp for v in silent[q]}  # the component's own entries are 0
        acc = mask_of(comp)
        for v in after:
            acc |= reach[v]
        for q in comp:
            reach[q] = acc
        for sym, row in enumerate(move):
            acc = 0
            for v in after:
                acc |= row[v]
            for q in comp:
                for t in rows[q * m + sym]:
                    acc |= reach[t]
            for q in comp:
                row[q] = acc
    return reach, move


def _down_subsets(rows, m: int, final_mask: int, start_mask: int, budget=None):
    """The closure machine: the flat DFA of the down-closure of the NFA with
    successor rows ``rows``, by the subset construction over closed subsets
    expanded from their reach cover."""
    reach, move = _down_tables(rows, m)
    start = mask_of(t for q in bits(start_mask) for t in bits(reach[q]))
    return _subset_construction(move, start, final_mask, budget, reach)


def down_determinize(a: Automaton, budget: Optional[int] = None) -> Automaton:
    """Complete DFA for down(L(a)) from the closure machine: one state per
    reachable reachability-closed subset of a's states."""
    return _automaton(a.alphabet, _down_subsets(
        _rows(a), len(a.alphabet), a.final_mask, a.initial_mask, budget))
