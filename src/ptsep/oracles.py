"""Brute-force reference implementations.

These are deliberately naive: they enumerate words up to a length budget and
answer questions by exhaustive search, so the clever algorithms elsewhere in
the package can be validated against them.  Budgets are hard errors, and a
truncated search is reported as a distinct ``at_least`` result so it can
never be mistaken for a proof of finiteness.
"""
from __future__ import annotations

from itertools import product as iter_product
from typing import NamedTuple, Optional, Sequence

from .automata import Automaton
from .errors import BudgetExceeded

ENUM_BUDGET = 2_000_000
HEIGHT_CAP = 1_000_000  # the height reported for an unbounded tower


class TowerSearch(NamedTuple):
    """Result of a bounded tower search.

    ``exact=True`` means the chain provably cannot be extended within the
    enumerated words (finite(h)); ``exact=False`` means a tower of height at
    least ``height`` exists and the search ran out of room (at_least(h)).
    """

    height: int
    exact: bool


def _check_enumeration_budget(alphabet_size: int, max_len: int, budget: Optional[int]):
    """Raise BudgetExceeded past ``budget`` words of length <= max_len, counting no further."""
    budget = budget if budget is not None else ENUM_BUDGET
    total = power = 1
    for _ in range(max_len):
        power *= alphabet_size
        total += power
        if total > budget:
            break
    if total > budget:
        raise BudgetExceeded(
            f"enumerating words up to length {max_len} means more than {budget} words")


def enumerate_language(a: Automaton, max_len: int, budget: Optional[int] = None) -> list:
    """All accepted words of length <= max_len, in shortlex order."""
    _check_enumeration_budget(len(a.alphabet), max_len, budget)
    fmask = a.final_mask
    out = []
    frontier = [((), a.initial_mask)]
    if a.initial_mask & fmask:
        out.append(())
    m = len(a.alphabet)
    for _ in range(max_len):
        grown = []
        for word, states in frontier:
            for sym in range(m):
                nxt = a.step(states, sym)
                if not nxt:
                    continue
                w2 = word + (a.alphabet[sym],)
                if nxt & fmask:
                    out.append(w2)
                grown.append((w2, nxt))
        frontier = grown
        if not frontier:
            break
    return out


def _later(states: int, automaton: Automaton) -> int:
    """The states that nonempty words lead to from the state set."""
    out, frontier = 0, states
    while frontier:
        nxt = 0
        for sym in range(len(automaton.alphabet)):
            nxt |= automaton.step(frontier, sym)
        frontier = nxt & ~out
        out |= nxt
    return out


def brute_max_tower_height(
    a: Automaton,
    b: Automaton,
    relation: str = "subsequence",
    max_len: int = 8,
    budget: Optional[int] = None,
) -> TowerSearch:
    """Longest alternating tower over all words of length <= max_len.

    Works on the whole word lattice: for every word w the best chain heights
    ending on either side are propagated from w's one-letter-shorter
    predecessors, which covers every strict relation step.  A word accepted
    by both automata yields the unbounded tower w, w, w, ... and is reported
    as at_least(HEIGHT_CAP).  The height found is always a sound lower
    bound: it is the height of a tower of enumerated words.

    For prefixes the answer is exact when every word w of length max_len
    shares its pair of state sets with a shorter word whose chain heights are
    at least w's, or has accepted strict extensions on one side at most and
    too low a chain below it to gain from them.  A taller tower with the
    shortest top would pass through such a w, and swapping w for the shorter
    word would give a taller tower with a shorter top.

    For subsequences the answer is exact when no tower is one element taller
    than the one found.  A subsequence tower need not pass through any word
    of length max_len, so the horizon proves this only when both languages
    lie inside it; :func:`_tower_exists` decides it for any pair, on a
    finite product of copies of the two automata.  ``budget`` bounds that
    search too, and when it runs out the answer is at_least.
    """
    if relation not in ("subsequence", "prefix"):
        raise ValueError(f"unknown relation {relation!r}")
    if a.alphabet != b.alphabet:
        raise ValueError("oracle needs a shared alphabet")
    _check_enumeration_budget(len(a.alphabet), max_len, budget)

    fa, fb = a.final_mask, b.final_mask
    sets = {(): (a.initial_mask, b.initial_mask)}  # word -> its state sets
    # best[w] = (tallest chain ending on the a-side with top v related-below w,
    #            same for the b-side); both include v == w itself.
    best = {}
    height = 0  # the tallest chain ending at any word so far
    for length in range(max_len + 1):
        for word in iter_product(range(len(a.alphabet)), repeat=length):
            if word:
                sa, sb = sets[word[:-1]]
                sets[word] = (sa and a.step(sa, word[-1]), sb and b.step(sb, word[-1]))
            sa, sb = sets[word]
            if sa & fa and sb & fb:
                return TowerSearch(HEIGHT_CAP, False)
            if relation == "prefix":
                prop_a, prop_b = best[word[:-1]] if word else (0, 0)
            else:
                prop_a = prop_b = 0
                for shorter in {word[:i] + word[i + 1:] for i in range(length)}:
                    pa, pb = best[shorter]
                    if pa > prop_a:
                        prop_a = pa
                    if pb > prop_b:
                        prop_b = pb
            here_a = prop_b + 1 if sa & fa else 0
            here_b = prop_a + 1 if sb & fb else 0
            height = max(height, here_a, here_b)
            best[word] = (max(prop_a, here_a), max(prop_b, here_b))

    if relation == "prefix":
        earlier = {}  # state-set pair -> chain heights of shorter words
        for word, pair in sets.items():
            if len(word) < max_len:
                earlier.setdefault(pair, set()).add(best[word])

        def settled(word):
            """No tower taller than ``height`` passes beyond this horizon word."""
            (sa, sb), (x, y) = sets[word], best[word]
            if any(p >= x and q >= y for p, q in earlier.get((sa, sb), ())):
                return True
            grow_a, grow_b = _later(sa, a) & fa, _later(sb, b) & fb
            # beyond the word, one side alone adds one element at most
            return not (grow_a and grow_b) and (
                y + 1 if grow_a else x + 1 if grow_b else 0) <= height

        return TowerSearch(height, all(settled(w) for w in sets if len(w) == max_len))
    return TowerSearch(height, _tower_exists(a, b, height + 1, budget) is False)


def _tower_exists(a: Automaton, b: Automaton, h: int, budget: Optional[int]):
    """Whether a subsequence tower of height h exists, with its bottom on
    either side: True, False, or None when ``budget`` state tuples are met
    before the search ends.

    Embed each element of a tower w_1 <= ... <= w_h into the next and compose
    the embeddings, so every element sits inside the top w_h, each inside
    the next.  Label each position of w_h with the lowest level i whose w_i
    uses it: w_i is then the subsequence of the positions labelled i or less.
    So a tower of height h is a word of labelled letters that h copies of
    the automata accept together, copy i of the side of w_i reading the
    letters labelled i or less; and every such word gives a tower.  Each copy
    is a subset run, so the product of the copies is finite and a search
    over it decides the question.  It uses nothing but :meth:`Automaton.step`.
    """
    budget = budget if budget is not None else ENUM_BUDGET
    m = len(a.alphabet)
    met = 0
    for bottom, top in ((a, b), (b, a)):
        copies = [(bottom, top)[i % 2] for i in range(h)]
        start = tuple(x.initial_mask for x in copies)
        if not all(start):
            continue
        seen = {start}
        stack = [start]
        while stack:
            sets = stack.pop()
            if all(s & x.final_mask for s, x in zip(sets, copies)):
                return True
            for sym in range(m):
                for level in range(h):
                    moved = tuple(x.step(s, sym) for s, x in zip(sets[level:], copies[level:]))
                    if not all(moved):
                        continue  # a copy with no state left accepts nothing
                    nxt = sets[:level] + moved
                    if nxt not in seen:
                        met += 1
                        if met > budget:
                            return None
                        seen.add(nxt)
                        stack.append(nxt)
    return False


def reachability(n_vertices: int, edges: Sequence, s: int, t: int) -> bool:
    """Plain BFS reachability of t from s in a digraph given as edge pairs."""
    if s == t:
        return True
    adj = [[] for _ in range(n_vertices)]
    for u, v in edges:
        adj[u].append(v)
    seen = {s}
    queue = [s]
    while queue:
        u = queue.pop()
        for v in adj[u]:
            if v == t:
                return True
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return False
