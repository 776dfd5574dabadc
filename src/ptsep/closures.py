"""Subsequence embedding and downward/upward closure constructions.

``down(L)`` holds every subsequence of every word of L and is built by adding
a silent move alongside every transition, then eliminating silent moves with
one :func:`~ptsep.automata.fold_reachable` pass, so the result is a plain NFA
over the same state set.  ``up(L)`` holds every supersequence and is built
by adding self-loops under all letters.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .automata import (
    Automaton,
    _subset_construction,
    bits,
    fold_reachable,
    includes,
    mask_of,
)
from .errors import AlphabetMismatch


def is_subsequence(v: Sequence[str], w: Sequence[str]) -> bool:
    """Greedy left-to-right matching of v inside w."""
    it = iter(w)
    return all(sym in it for sym in v)


def is_prefix(v: Sequence[str], w: Sequence[str]) -> bool:
    return len(v) <= len(w) and tuple(w[: len(v)]) == tuple(v)


def _down_tables(a: Automaton):
    """Per-state masks for the silent-move elimination.

    Returns (move, final_mask) where move[sym][q] is the target mask of the
    eliminated automaton and final_mask marks states with a silent path into
    an original final state.  Both come from one
    :func:`~ptsep.automata.fold_reachable` pass of the letter moves and the
    final bits over the silent-move digraph (q -> q' whenever some letter
    moves q to q'), so dense closures are never enumerated state by state.
    """
    n = a.state_count
    succ = [set() for _ in range(n)]
    for src, _, dst in a.transitions:
        if src != dst:
            succ[src].add(dst)
    fmask = a.final_mask
    *move, final = fold_reachable([list(s) for s in succ],
                                  [*a.move_masks(), [(fmask >> q) & 1 for q in range(n)]])
    return move, mask_of(q for q in range(n) if final[q])


def down_closure(a: Automaton) -> Automaton:
    """NFA for all subsequences of L(a); state ids are unchanged."""
    move, final_mask = _down_tables(a)
    transitions = set()
    for sym in range(len(a.alphabet)):
        row = move[sym]
        for q in range(a.state_count):
            for t in bits(row[q]):
                transitions.add((q, sym, t))
    finals = set(bits(final_mask))
    return Automaton(a.state_count, a.alphabet, a.initials, finals, transitions)


def up_closure(a: Automaton) -> Automaton:
    """NFA for all supersequences of L(a): self-loops under every letter."""
    transitions = set(a.transitions)
    for q in range(a.state_count):
        for sym in range(len(a.alphabet)):
            transitions.add((q, sym, q))
    return Automaton(a.state_count, a.alphabet, a.initials, a.finals, transitions)


def down_determinize(a: Automaton, budget: Optional[int] = None) -> Automaton:
    """Complete DFA for down(L(a)), fused subset construction.

    Equivalent to ``determinize(down_closure(a))`` but never materializes the
    (dense) eliminated transition relation.
    """
    move, final_mask = _down_tables(a)
    return _subset_construction(a.alphabet, move, a.initial_mask, final_mask, budget)


def word_embeds_into_language(w: Sequence[str], a: Automaton) -> bool:
    """True iff w is a subsequence of some word of L(a)."""
    move, final_mask = _down_tables(a)
    current = a.initial_mask
    for name in w:
        sym = a.symbol_id(name)
        row = move[sym]
        target = 0
        for q in bits(current):
            target |= row[q]
        current = target
        if not current:
            return False
    return bool(current & final_mask)


def language_embeds(a: Automaton, b: Automaton, budget: Optional[int] = None) -> bool:
    """True iff every word of L(a) embeds into some word of L(b)."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(f"alphabets differ: {a.alphabet} vs {b.alphabet}")
    return includes(down_determinize(b, budget), a, budget)
