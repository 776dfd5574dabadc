"""Piecewise testability of regular languages.

By Klíma and Polák (DLT 2013), a minimal complete DFA is piecewise testable
exactly when two conditions hold.  Condition 1: its transition graph has no
cycle through two or more distinct states.  Condition 2: it is locally
confluent, that is, for every state q and letters a, b some word w over
{a, b} has q·a·w = q·b·w.  NFAs are handled by determinizing and minimizing
first.

Condition 2 is tested only once condition 1 holds, when every component of
the graph is one state.  Call a state {a,b}-stable when both a and b loop on
it.  A state that is not stable has a move on a or b to another state, and
no path leads back, so ``(ab)^n`` with n the number of states leads every
state to a stable one, which a and b do not leave.  So if q·a·w = q·b·w,
then q·a and q·b reach a common stable state by words over {a, b}.
Conversely, if they do so at every state q, then every state reaches just
one stable state by such words (by induction, successors first), and
``(ab)^n`` leads q·a and q·b to it.  The test is therefore: for each pair of
letters with different moves, one pass over the states, successors first,
gives each state the bitmask of the stable states that it reaches by words
over {a, b}, and q fails when the masks of q·a and q·b are disjoint.

A failure gives the witness (q, s, s'), s and s' the least states of the
two masks, s < s'.  It is a fork, which no piecewise testable minimal DFA
has: three distinct states, the first reaching the other two by words over
letters that loop on both.  Here q reaches s and s' by words over {a, b},
and a and b loop on both.  The three are distinct, since the masks are
disjoint and q, whose moves on a and b differ, is not stable.
"""
from __future__ import annotations

from itertools import combinations
from typing import Optional

from .automata import Automaton, _completed, _minimal, strongly_connected_components


def language_pt_violation(a: Automaton, budget=None) -> Optional[tuple]:
    """First violated PT condition of the minimal complete DFA of L(a), which
    is built once, or None when L(a) is piecewise testable: ("cycle", states)
    for a non-self-loop cycle, or ("fork", (q, s, s')) for a state q that two
    letters a, b split, then the stable states s < s' that q·a and q·b reach
    over {a, b}, in the state numbering of ``minimal_dfa(a)``."""
    return _violation(_completed(len(a.alphabet), _minimal(a, budget))[1])


def _violation(rows) -> Optional[tuple]:
    """The test itself, on the rows of a minimal complete flat DFA (see
    :func:`~ptsep.automata._completed`).  A fork is (q, s, s') with s < s',
    from the first letter pair a < b, then the first state q, that fails.
    Letters with the same moves from every state give the same forks, so
    one letter of each such class is tried."""
    adj = [sorted(set(row.values()) - {q}) for q, row in enumerate(rows)]
    comps = strongly_connected_components(adj)
    for comp in comps:
        if len(comp) > 1:
            return ("cycle", tuple(sorted(comp)))
    # every component is one state, listed sinks first
    order = [q for (q,) in comps]

    columns = dict.fromkeys(tuple(row[sym] for row in rows) for sym in range(len(rows[0])))
    for by_a, by_b in combinations(columns, 2):
        # the stable states that {a, b}-words reach; a state reads its
        # successors' final masks, and its own (0 so far) on a self-loop
        stable = [0] * len(rows)
        for s in order:
            stable[s] = stable[by_a[s]] | stable[by_b[s]] or 1 << s
        for q, (qa, qb) in enumerate(zip(by_a, by_b)):
            if not stable[qa] & stable[qb]:
                low = sorted((m & -m).bit_length() - 1 for m in (stable[qa], stable[qb]))
                return ("fork", (q, *low))
    return None


def is_piecewise_testable(a: Automaton, budget=None) -> bool:
    """Piecewise testability of L(a) for an arbitrary NFA."""
    return language_pt_violation(a, budget) is None
