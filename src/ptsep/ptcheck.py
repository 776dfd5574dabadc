"""Piecewise testability of regular languages.

A minimal complete DFA fails to be piecewise testable exactly when its
transition graph contains a cycle through at least two distinct states
(condition 1), or when three distinct states p, q, q' exist with paths from
p to q and from p to q' inside the graph restricted to the letters that
self-loop on both q and q' (condition 2).  NFAs are handled by determinizing
and minimizing first.  Condition 2 reads ancestor sets off
:func:`~ptsep.automata.fold_reachable` over the reversed restricted graph.
"""
from __future__ import annotations

from typing import Optional

from .automata import (
    Automaton,
    bits,
    complete,
    fold_reachable,
    minimal_dfa,
    minimize,
    strongly_connected_components,
)
from .errors import NotDeterministic, NotMinimal


def self_loop_alphabet(d: Automaton, q: int) -> frozenset:
    """The set of letters with a self-loop at q."""
    if not d.deterministic:
        raise NotDeterministic("self_loop_alphabet expects a DFA")
    if not (0 <= q < d.state_count):
        raise ValueError(f"state id {q} out of range")
    return frozenset(d.alphabet[sym] for s, sym, t in d.transitions if s == t == q)


def _require_minimal(d: Automaton) -> Automaton:
    if not d.deterministic:
        raise NotDeterministic("piecewise testability test expects a DFA")
    d = complete(d)
    mini = minimize(d)
    if mini.state_count != d.state_count:
        raise NotMinimal(
            f"automaton has {d.state_count} states but its minimal DFA has "
            f"{mini.state_count}")
    return d


def pt_violation(d: Automaton) -> Optional[tuple]:
    """First violated condition of a minimal complete DFA, or None when the
    language is piecewise testable.

    Returns ("cycle", states) for a non-self-loop cycle, or
    ("fork", (p, q, q')) for a common ancestor reaching two distinct states
    inside the shared self-loop subgraph.
    """
    d = _require_minimal(d)
    n = d.state_count
    m = len(d.alphabet)

    succ = [set() for _ in range(n)]
    for s, sym, t in d.transitions:
        if s != t:
            succ[s].add(t)
    adj = [sorted(x) for x in succ]
    for comp in strongly_connected_components(adj):
        if len(comp) > 1:
            return ("cycle", tuple(sorted(comp)))

    loops = [0] * n  # bitmask of self-looping symbols per state
    by_sym = [[] for _ in range(m)]
    for s, sym, t in d.transitions:
        if s == t:
            loops[s] |= 1 << sym
        by_sym[sym].append((s, t))

    # ancestor masks per restriction alphabet, computed once per distinct mask
    ancestors_cache = {}

    def ancestors(gamma: int):
        anc = ancestors_cache.get(gamma)
        if anc is None:
            # ancestors of q = states reachable from q in the reversed
            # gamma-restricted graph
            radj = [[] for _ in range(n)]
            for sym in bits(gamma):
                for s, t in by_sym[sym]:
                    radj[t].append(s)
            (anc,) = fold_reachable(radj, [[1 << q for q in range(n)]])
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


def is_pt_minimal_dfa(d: Automaton) -> bool:
    """Piecewise testability of the language of a minimal complete DFA."""
    return pt_violation(d) is None


def is_piecewise_testable(a: Automaton, budget=None) -> bool:
    """Piecewise testability of L(a) for an arbitrary NFA: test its minimal
    DFA, which a DFA input reaches without the subset construction."""
    return pt_violation(minimal_dfa(a, budget)) is None
