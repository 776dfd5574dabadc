"""Piecewise testability of regular languages.

A minimal complete DFA fails to be piecewise testable exactly when its
transition graph contains a cycle through at least two distinct states
(condition 1), or when three distinct states p, q, q' exist with paths from
p to q and from p to q' inside the graph restricted to the letters that
self-loop on both q and q' (condition 2).  NFAs are handled by determinizing
and minimizing first.  Condition 2 is tested only once condition 1 holds,
when every component of the graph is one state: the ancestor sets are then
one forward fold in topological order.
"""
from __future__ import annotations

from typing import Optional

from .automata import (
    Automaton,
    _completed,
    _minimal,
    bits,
    mask_of,
    strongly_connected_components,
)


def language_pt_violation(a: Automaton, budget=None) -> Optional[tuple]:
    """First violated PT condition of the minimal complete DFA of L(a), which
    is built once, or None when L(a) is piecewise testable: ("cycle", states)
    for a non-self-loop cycle, or ("fork", (p, q, q')) for a common ancestor
    reaching two distinct states inside the shared self-loop subgraph, in
    the state numbering of ``minimal_dfa(a)``."""
    return _violation(_completed(len(a.alphabet), _minimal(a, budget))[1])


def _violation(rows) -> Optional[tuple]:
    """The test itself, on the rows of a minimal complete flat DFA (see
    :func:`~ptsep.automata._completed`)."""
    n = len(rows)
    adj = [sorted(set(row.values()) - {q}) for q, row in enumerate(rows)]
    comps = strongly_connected_components(adj)
    for comp in comps:
        if len(comp) > 1:
            return ("cycle", tuple(sorted(comp)))
    # every component is one state, listed sinks first
    order = [q for (q,) in reversed(comps)]

    # bitmask of self-looping symbols per state
    loops = [mask_of(sym for sym, t in row.items() if t == q) for q, row in enumerate(rows)]

    # ancestor masks per restriction alphabet, computed once per distinct mask
    ancestors_cache = {}

    def ancestors(gamma: int):
        anc = ancestors_cache.get(gamma)
        if anc is None:
            # the ancestors of q within the gamma-restricted graph, q
            # included: a state's set is final before its successors read it
            anc = [1 << q for q in range(n)]
            for s in order:
                for sym in bits(gamma):
                    anc[rows[s][sym]] |= anc[s]
            ancestors_cache[gamma] = anc
        return anc

    for q in range(n):
        for q2 in range(q + 1, n):
            gamma = loops[q] & loops[q2]
            if not gamma:
                continue
            anc = ancestors(gamma)
            common = anc[q] & anc[q2] & ~((1 << q) | (1 << q2))
            if common:
                p = (common & -common).bit_length() - 1
                return ("fork", (p, q, q2))
    return None


def is_piecewise_testable(a: Automaton, budget=None) -> bool:
    """Piecewise testability of L(a) for an arbitrary NFA."""
    return language_pt_violation(a, budget) is None
