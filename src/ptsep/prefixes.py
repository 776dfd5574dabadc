"""Prefix towers: pattern detection, infinite-prefix-tower decision, and the
maximal finite prefix-tower height.

A pattern is a seven-tuple (S, sigma, sigma1, sigma2, tau, tau1, tau2) of
product-automaton data: S is a nontrivial strongly connected component
reachable from the initial state, sigma1 accepts on the left side, tau1 on
the right side, and sigma1/sigma2 (resp. tau1/tau2) are reachable from sigma
(resp. tau) under a common string.  For disjoint languages its existence is
equivalent to an infinite tower of prefixes, and the witness words assemble
the tower u (x u1 y u2)* (x + x u1 y).

The height is read off the trim reachable product of the two canonical
minimal DFAs, which have no sink.  Completed with sinks, the DFAs would lead
every word to one state pair, and a tower of prefixes would be a walk whose
elements land alternately in X = F_A x (Q_B \\ F_B) and
Y = (Q_A \\ F_A) x F_B; disjointness leaves F_A x F_B empty.  One pass over
the product's condensation, successors first, finds the longest alternation.
A component holding both an X and a Y state makes it infinite: the two are
mutually reachable by nonempty words, so the walk can alternate forever, and
any state pair that alternates forever is mutually reachable, hence in one
component.  Any other component meets one class at most, and all its states
reach the same states outside it, so its best X-bottomed and Y-bottomed
heights follow from those of its successors.

The trim product holds the pairs of live states.  The completed one also
holds the sink pairs, and nothing else: a word that leaves one side lands in
that side's sink.  If the left side moves on a letter and the right side has
none, the word goes on in the left language alone.  Its right state is the
sink, which never accepts, so every state pair it reaches lies in X or in
neither class.  The left DFA is trim, so such a state in X is reached.  A
tower along this tail has one element only, since two would need an element
in Y.  So a component gets X-bottomed height at least 1 when one of its
states has a left-only letter, and Y-bottomed height at least 1 when one
has a right-only letter.  A sink pair never shares a component with a live
pair, and meets one class at most, so the infinite case is found on the
live pairs alone.  When one language is empty there is no product: the
height is 1 when the other language has a word, and 0 when it has none.

Both searches read the reachable product straight off the product kernel
:func:`~ptsep.automata._product`: its state ids follow the order of the
(left, right) state pairs, every state is reachable, and the languages are
disjoint exactly when no state is final on both sides.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .automata import (
    Automaton,
    Word,
    _minimal,
    _moves,
    _product,
    _require_same_alphabet,
    _rows,
    strongly_connected_components,
)
from .towers import LEFT, PREFIX, RIGHT, Tower

INFINITE = math.inf


@dataclass(frozen=True)
class Pattern:
    """Witness for an infinite tower of prefixes between two automata."""

    scc: tuple  # reachable-product state ids of the component, ascending
    sigma: int
    sigma1: int
    sigma2: int
    tau: int
    tau1: int
    tau2: int
    u: Word
    x: Word
    y: Word
    u1: Word
    u2: Word
    state_pairs: tuple  # reachable-product id -> (left, right), in pair order

    def to_dict(self) -> dict:
        def pair(pid):
            return list(self.state_pairs[pid])

        return {
            "scc": [pair(p) for p in self.scc],
            "sigma": pair(self.sigma),
            "sigma1": pair(self.sigma1),
            "sigma2": pair(self.sigma2),
            "tau": pair(self.tau),
            "tau1": pair(self.tau1),
            "tau2": pair(self.tau2),
            "words": {
                "u": list(self.u),
                "x": list(self.x),
                "y": list(self.y),
                "u1": list(self.u1),
                "u2": list(self.u2),
            },
        }


def _reachable_product(a: Automaton, b: Automaton):
    """(pairs, adj, starts) of the reachable product of disjoint languages:
    the (left, right) pair of each state in sorted pair order, the sorted
    (symbol, target) moves of each state, and the start states, ascending.
    Raises ValueError when a state is final on both sides."""
    _require_same_alphabet(a, b)
    nb = b.state_count
    starts = {p * nb + q for p in a.initials for q in b.initials}
    keys, moves, finals = _product(_moves(a), _rows(_moves(b)), nb, starts, a.finals, b.finals)
    if finals:
        raise ValueError("languages must be disjoint")
    adj = [[] for _ in keys]
    for s, sym, t in moves:
        adj[s].append((sym, t))
    for row in adj:
        row.sort()
    return (tuple(divmod(key, nb) for key in keys), adj,
            sorted(bisect_left(keys, key) for key in starts))


def _bfs_word(adj, sources, target, alphabet) -> Optional[tuple]:
    """Shortlex-least word labelling a path from any source to target."""
    parents = {}
    queue = deque()
    for s in sources:
        if s not in parents:
            parents[s] = None
            queue.append(s)
    if target in parents:
        return ()
    while queue:
        v = queue.popleft()
        for sym, t in adj[v]:
            if t not in parents:
                parents[t] = (v, sym)
                queue.append(t)
                if t == target:
                    return _square_word(parents, t, alphabet)
    return None


def _pair_walk(adj, start):
    """Synchronized-square BFS from (start, start): every reachable pair of
    product states under a common string, with shortlex parents."""
    root = (start, start)
    parents = {root: None}
    queue = deque([root])
    while queue:
        v1, v2 = queue.popleft()
        moves2 = {}
        for sym, t in adj[v2]:
            moves2.setdefault(sym, []).append(t)
        for sym, t1 in adj[v1]:
            for t2 in moves2.get(sym, ()):
                key = (t1, t2)
                if key not in parents:
                    parents[key] = ((v1, v2), sym)
                    queue.append(key)
    return parents


def _square_word(parents, key, alphabet) -> tuple:
    word = []
    cur = key
    while parents[cur] is not None:
        prev, sym = parents[cur]
        word.append(alphabet[sym])
        cur = prev
    word.reverse()
    return tuple(word)


def find_pattern(a: Automaton, b: Automaton) -> Optional[Pattern]:
    """Deterministic search for a pattern; None when there is no infinite
    tower of prefixes.  Components are scanned by their least state id, so
    the result is reproducible.

    One synchronized-square walk per nontrivial component settles it.  For
    members s and s' of one component, a path from s' to s, taken in both
    coordinates, leads the square from (s', s') to (s, s), so the walks from
    all members reach the same pairs.  Hence sigma = tau = the least member
    fits whenever any member does, and (sigma1, sigma2), x and (tau1, tau2),
    y are the least left-final and right-final hits of its one walk."""
    labels, adj, starts = _reachable_product(a, b)
    plain = [sorted({t for _, t in row}) for row in adj]
    for comp in sorted(strongly_connected_components(plain), key=min):
        members = sorted(comp)
        sigma = members[0]
        if len(members) == 1 and sigma not in plain[sigma]:
            continue
        walk = _pair_walk(adj, sigma)
        member_set = set(members)
        inside = [pair for pair in walk if pair[1] in member_set]
        left = [pair for pair in inside if labels[pair[0]][0] in a.finals]
        right = [pair for pair in inside if labels[pair[0]][1] in b.finals]
        if not (left and right):
            continue
        (sigma1, sigma2), (tau1, tau2) = min(left), min(right)
        return Pattern(
            scc=tuple(members),
            sigma=sigma, sigma1=sigma1, sigma2=sigma2,
            tau=sigma, tau1=tau1, tau2=tau2,
            u=_bfs_word(adj, starts, sigma, a.alphabet),
            x=_square_word(walk, (sigma1, sigma2), a.alphabet),
            y=_square_word(walk, (tau1, tau2), a.alphabet),
            u1=_bfs_word(adj, [sigma2], sigma, a.alphabet),
            u2=_bfs_word(adj, [tau2], sigma, a.alphabet),
            state_pairs=labels,
        )
    return None


def materialize_prefix_tower(pattern: Pattern, count: int) -> Tower:
    """First ``count`` elements of the infinite prefix tower
    u (x u1 y u2)* (x + x u1 y)."""
    cycle = pattern.x + pattern.u1 + pattern.y + pattern.u2
    elements = []
    for i in range(1, count + 1):
        reps = (i - 1) // 2
        word = pattern.u + cycle * reps + pattern.x
        if i % 2 == 0:
            word = word + pattern.u1 + pattern.y
        elements.append((word, LEFT if i % 2 == 1 else RIGHT))
    return Tower(PREFIX, tuple(elements))


def max_prefix_tower_height(a: Automaton, b: Automaton, budget=None):
    """Exact maximal height of a finite tower of prefixes between disjoint
    languages, or ``math.inf`` when an infinite one exists.  A height is a
    property of the languages, so it is measured on the canonical minimal
    DFAs of the inputs (:func:`~ptsep.automata._minimal`), trim and without
    a sink, by the kernel :func:`_flat_height`."""
    _require_same_alphabet(a, b)
    return _flat_height(_minimal(a, budget), _minimal(b, budget))


def _flat_height(da, db):
    """The height kernel on two trim flat DFAs: one pass over the
    condensation of their trim reachable product, with the single-side tails
    of the sink pairs counted per component (module docstring)."""
    (na, succ_a, finals_a), (nb, succ_b, finals_b) = da, db
    if not (na and nb):
        # one side has no word: a tower is one word of the other side, or none
        return int(bool(na or nb))
    keys, moves, both = _product([row.items() for row in succ_a],
                                 _rows([row.items() for row in succ_b]), nb, (0,),
                                 finals_a, finals_b)
    if both:
        raise ValueError("languages must be disjoint")
    succ = [[] for _ in keys]
    for s, _, t in moves:
        succ[s].append(t)
    comp_of = [0] * len(keys)
    # per component: the highest tower whose first element lies in X (in Y)
    # at a state reachable from the component
    best_x, best_y = [], []
    for c, comp in enumerate(strongly_connected_components(succ)):
        for v in comp:
            comp_of[v] = c
        later = {comp_of[t] for v in comp for t in succ[v]} - {c}
        below_x = max((best_x[d] for d in later), default=0)
        below_y = max((best_y[d] for d in later), default=0)
        has_x = has_y = False
        for v in comp:
            p, q = divmod(keys[v], nb)
            has_x = has_x or p in finals_a
            has_y = has_y or q in finals_b
            # the product moves on the common letters only; a letter that
            # moves on one side alone starts a tail of one element on it
            common = len(succ[v])
            if len(succ_a[p]) > common:
                below_x = max(below_x, 1)
            if len(succ_b[q]) > common:
                below_y = max(below_y, 1)
        if has_x and has_y:
            return INFINITE
        best_x.append(max(below_x, below_y + 1) if has_x else below_x)
        best_y.append(max(below_y, below_x + 1) if has_y else below_y)
    # the start state 0 reaches every state, so its component comes last
    return max(best_x[-1], best_y[-1])
