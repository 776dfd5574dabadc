"""Separability by refinement: the decreasing language chain, the separator
construction, tower verification, and the closed-form height bound.

Starting from a pair (L0, R0) over one alphabet, each step replaces the
current pair with ``L_k = L0 n down(R_{k-1})`` and ``R_k = R0 n down(L_k)``,
where R_0 = R0.  The chain either empties out or stabilizes on a nonempty,
mutually embeddable pair (an infinite tower exists).  It always ends: by
Higman's lemma subsequence is a well-quasi-order, so the descending
down-closed languages down(R_k) stabilize, and L_{k+1} = L0 n down(R_k) and
R_{k+1} = R0 n down(L_{k+1}) with them; only a step cap leaves it undecided.

When it empties out at step b (L_b = R_b = empty), the pair is separable and
the union over j < b of ``down(R_j) minus down(L_{j+1})`` is a piecewise
testable separator: it contains R0 and misses L0.  It is built from the
down-closures that the chain's steps compute: ``decide_separability``
gathers them while it runs the chain and passes them to
``build_separator``.  The chain keeps no languages: its record is the
verdict, the step count b and the state counts of each step.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count, zip_longest
from typing import Optional

from .automata import (
    Automaton,
    _automaton,
    _complement,
    _meet,
    _minimal,
    _minimize,
    _require_same_alphabet,
    mask_of,
)
from .closures import _down_subsets, is_prefix, is_subsequence
from .errors import BudgetExceeded, SchemaError

SUBSEQUENCE = "subsequence"
PREFIX = "prefix"
LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True)
class Tower:
    """Alternating sequence of (word, side) pairs under a declared relation."""

    relation: str
    elements: tuple

    def __post_init__(self):
        if self.relation not in (SUBSEQUENCE, PREFIX):
            raise ValueError(f"unknown relation {self.relation!r}")
        object.__setattr__(
            self,
            "elements",
            tuple((tuple(word), side) for word, side in self.elements),
        )
        for _, side in self.elements:
            if side not in (LEFT, RIGHT):
                raise ValueError(f"unknown side {side!r}")

    @property
    def height(self) -> int:
        return len(self.elements)

    def to_dict(self) -> dict:
        return {
            "relation": self.relation,
            "elements": [
                {"word": list(word), "side": side} for word, side in self.elements
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Tower":
        if not isinstance(data, dict) or "relation" not in data or "elements" not in data:
            raise SchemaError("tower document needs 'relation' and 'elements'")
        if not isinstance(data["elements"], list):
            raise SchemaError("elements: must be a list of {'word': [...], 'side': ...}")
        elements = []
        for i, item in enumerate(data["elements"]):
            if not isinstance(item, dict) or "word" not in item or "side" not in item:
                raise SchemaError(f"elements[{i}]: expected {{'word': [...], 'side': ...}}")
            word = item["word"]
            if not (isinstance(word, list) and all(isinstance(s, str) for s in word)):
                raise SchemaError(f"elements[{i}].word: must be a list of symbol names")
            elements.append((tuple(word), item["side"]))
        try:
            return cls(data["relation"], tuple(elements))
        except ValueError as exc:
            raise SchemaError(str(exc)) from None


def check_tower(left: Automaton, right: Automaton, tower: Tower) -> Optional[str]:
    """Validate a tower; returns None when it holds, else a first-failure
    diagnostic: alternation, the declared relation between neighbours, and
    membership of every word in its side's language."""
    related = is_prefix if tower.relation == PREFIX else is_subsequence
    previous_side = None
    previous_word = None
    for i, (word, side) in enumerate(tower.elements):
        if side == previous_side:
            return f"elements {i - 1} and {i} are both on the {side} side"
        if previous_word is not None and not related(previous_word, word):
            return (
                f"element {i - 1} is not a {tower.relation} of element {i}: "
                f"{''.join(previous_word) or 'eps'} vs {''.join(word) or 'eps'}"
            )
        automaton = left if side == LEFT else right
        if not automaton.accepts(word):
            return f"element {i} ({''.join(word) or 'eps'}) not accepted on the {side} side"
        previous_side = side
        previous_word = word
    return None


def verify_tower(left: Automaton, right: Automaton, tower: Tower) -> bool:
    return check_tower(left, right, tower) is None


def upper_bound_height(n: int, m: int) -> int:
    """Closed-form bound sum_{i=0}^{m} n^i on finite tower heights for a pair
    of automata of depth at most n over m letters (depth is over-approximated
    by the state count)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    return sum(n ** i for i in range(m + 1))


# ---------------------------------------------------------------------------
# the refinement chain
#
# Chain languages are canonical minimal flat DFAs (see ptsep.automata): trim,
# without a sink, so every kernel of a step costs the live moves.  Two of
# them are language-equal iff they are equal as tuples, and a language is
# empty iff it has no state.


def _down(m: int, dfa, budget=None):
    """Canonical minimal flat DFA of down(L) from that of L."""
    n, succ, finals = dfa
    return _minimize(_down_subsets([row.items() for row in succ], m, mask_of(finals), int(n > 0),
                                   budget))


def _refine(m: int, l_prev, r_prev, l0, r0, budget=None):
    """One chain step on flat DFAs: (L_k, R_k) and the two down DFAs it
    built, down(R_{k-1}) and down(L_k).  ``l_prev`` is L_{k-1} for k >= 2
    and None at k = 1.  If L_k = L_{k-1}, then R_k = R0 n down(L_k) =
    R_{k-1}, so the step reuses R_{k-1} and builds no down(L_k) (None in
    its place); the chain then stops with an infinite tower, so a separator
    never reads it.  Not at k = 1: R_0 is the input R0, which need not be
    R0 n down(L0)."""
    down_r = _down(m, r_prev, budget)
    lk = _meet(l0, down_r)
    if lk == l_prev:
        return lk, r_prev, (down_r, None)
    down_l = _down(m, lk, budget)
    return lk, _meet(r0, down_l), (down_r, down_l)


class RefinementChain:
    """The verdict of the decreasing sequence (L_k, R_k), the step b at
    which it was reached, and ``sizes``: the state counts (|L_k|, |R_k|) of
    the trimmed minimal DFAs of each step.  The chain keeps no languages.
    """

    def __init__(self):
        self.sizes = []
        self.verdict = "undecided"  # | "separable" | "infinite_tower"
        self.b_index: Optional[int] = None

    def to_dict(self) -> dict:
        """Verdict and the trimmed state counts of every step."""
        return {
            "verdict": self.verdict,
            "b_index": self.b_index,
            "steps": [{"left_states": nl, "right_states": nr} for nl, nr in self.sizes],
        }


@dataclass
class SeparationResult:
    status: str  # "separable" | "infinite_tower" | "undecided"
    chain: RefinementChain
    separator: Optional[Automaton] = None
    witness: Optional[Tower] = None


def _superword(dfa, w):
    """The one superword BFS: the shortlex-least word, as letter ids, of the
    language of the canonical minimal flat DFA ``dfa`` that has the letter
    ids ``w`` as a subsequence, or None.  It walks the pairs (state, length
    of the prefix of w matched greedily) from (0, 0) along the live moves,
    letters in alphabet order.  The DFA is deterministic, so each pair is
    first reached by its shortlex-least word, and the answer depends only on
    the language."""
    n, succ, finals = dfa
    goal = len(w)
    width = goal + 1
    if not n:
        return None
    if not goal and 0 in finals:
        return []
    back = {0: None}  # pair key state*width + matched -> (previous key, letter)
    queue = [0]
    for key in queue:  # grows while it is scanned
        q, pos = divmod(key, width)
        want = w[pos] if pos < goal else -1
        for sym, t in succ[q].items():  # canonical rows list letters in order
            matched = pos + (sym == want)
            nxt = t * width + matched
            if nxt in back:
                continue
            back[nxt] = (key, sym)
            if matched == goal and t in finals:
                word = []
                while back[nxt] is not None:
                    nxt, sym = back[nxt]
                    word.append(sym)
                return word[::-1]
            queue.append(nxt)
    return None


def materialize_witness(alphabet, l_fix, r_fix, height: int) -> Tower:
    """A finite prefix of the infinite tower living on a nonempty fixpoint,
    given as the minimal flat DFAs of its two languages: start from the
    shortest left word, then alternately pick the shortest superword on the
    other side."""
    words, fixpoint = [], (l_fix, r_fix)
    while len(words) < height:
        word = _superword(fixpoint[len(words) % 2], words[-1] if words else [])
        if word is None:
            raise ValueError("fixpoint pair is not mutually embeddable" if words
                             else "fixpoint left language is empty")
        words.append(word)
    return Tower(SUBSEQUENCE, tuple((tuple(alphabet[sym] for sym in word), (LEFT, RIGHT)[i % 2])
                                    for i, word in enumerate(words)))


def decide_separability(
    left: Automaton,
    right: Automaton,
    max_steps: Optional[int] = None,
    budget=None,
    witness_height: int = 3,
    with_separator: bool = False,
) -> SeparationResult:
    """Iterate the refinement chain until both languages are empty
    (separable), two consecutive steps are language-equal and nonempty
    (infinite tower), or a given ``max_steps`` runs out (undecided)."""
    _require_same_alphabet(left, right)
    m = len(left.alphabet)
    chain = RefinementChain()
    originals = previous = (_minimal(left, budget), _minimal(right, budget))
    downs = []  # (down(R_{k-1}), down(L_k)) of each step, for the separator only
    for k in count(1) if max_steps is None else range(1, max_steps + 1):
        try:
            lk, rk, step_downs = _refine(m, previous[0] if k > 1 else None, previous[1],
                                         *originals, budget)
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"{exc} at chain step {k}") from None
        chain.sizes.append((lk[0], rk[0]))
        if with_separator:
            downs.append(step_downs)
        # L_k empty makes R_k = R0 n down(L_k) empty: separable
        if not lk[0] or (lk, rk) == previous:
            chain.verdict = "infinite_tower" if lk[0] else "separable"
            chain.b_index = k
            break
        previous = (lk, rk)

    result = SeparationResult(status=chain.verdict, chain=chain)
    if chain.verdict == "separable" and with_separator:
        result.separator = build_separator(left.alphabet, downs)
    elif chain.verdict == "infinite_tower" and witness_height > 0:
        result.witness = materialize_witness(left.alphabet, *previous, witness_height)
    return result


def build_separator(alphabet, downs) -> Automaton:
    """The PT separator of a separable chain, as a canonical minimal complete
    DFA.  ``downs[j]`` is the pair of flat DFAs (down(R_j), down(L_{j+1})) of
    chain step j + 1, with R_0 = R0 and L_b empty; the separator is the union
    of the pieces down(R_j) minus down(L_{j+1}).  The pieces are disjoint:
    L_{j+1} is in down(R_j) and R_{j+1} in down(L_{j+1}), so the 2b
    down-closures are nested, and a word is in the separator iff an odd
    number of them contain it.  The union is balanced: the pieces'
    complements are met in neighbouring pairs, level by level, an odd one
    carried up, and the result is complemented once at the end."""
    # Soundness.  Contains R0: for w in R0 take the largest j with w in R_j;
    # w is not in R_{j+1} = R0 n down(L_{j+1}), so w lies in piece j.
    # Misses L0: w in L0 n down(R_j) is in L_{j+1}, so in down(L_{j+1}).
    # PT: down-closed languages are PT and PT is closed under Boolean ops.
    m = len(alphabet)
    level = (_complement(m, _meet(down_r, _complement(m, down_l))) for down_r, down_l in downs)
    while True:  # each pair is met as soon as both exist, so few complements live at once
        pairs = iter(level)
        level = [a if b is None else _meet(a, b) for a, b in zip_longest(pairs, pairs)]
        if len(level) < 2:
            return _automaton(alphabet, _minimize(_complement(m, level[0])))
