"""Finite automata and the standard constructions every other module consumes.

States are integers ``0 .. state_count-1`` and symbols are indices into a
tuple of distinct symbol names.  An :class:`Automaton` stores its moves once,
as successor mask rows: ``rows[q]`` maps each letter with a move from q to
the nonzero bitmask of its targets, and :func:`_subset_construction` reads
them as its move table.  Its ``transitions`` triples are derived from the
rows.  Automata are immutable after construction; every operation returns a
new automaton.  Words are tuples of symbol names, so they can travel between
automata that share an alphabet.

Partial transition functions are allowed in stored automata; completion with
an explicit sink happens inside :func:`determinize`, :func:`complement` and
:func:`minimal_dfa`.

The constructions run on one flat form, a partial DFA ``(n, succ, finals)``
with initial state 0: ``succ[q]`` maps each letter with a move from q to its
target, and there is no sink.  A missing move leads out of the language.
Every flat DFA keeps one contract, as :func:`_subset_construction`,
:func:`_completed`, :func:`_minimal`, :func:`_meet` and :func:`_minimize`
build it: each state is reachable, and the states are numbered by a BFS
from 0 with letters in alphabet order, each row listing them in that order.
Chain languages are canonical minimal flat DFAs: trim as well, and
``n == 0`` for the empty language.  The kernels cost the live moves, not
states times letters.  :func:`_completed` builds the complete table, with
its sink, only where a caller needs it: :class:`Automaton` output,
complements and the PT test.
:class:`Automaton` validates every field and is built only at the boundary,
by the public functions and by :func:`automaton_from_dict`.
"""
from __future__ import annotations

import json
from bisect import bisect_left
from collections import defaultdict
from itertools import count
from typing import Iterable, Optional, Sequence

from .errors import (
    AlphabetMismatch,
    BudgetExceeded,
    InvalidWord,
    NotDeterministic,
    SchemaError,
)

Word = tuple  # tuple of symbol names

DEFAULT_BUDGET = 1 << 20

EMPTY = (0, [], frozenset())  # the flat DFA of the empty language


def bits(mask: int):
    """Yield the set bit positions of an integer mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(states: Iterable[int]) -> int:
    m = 0
    for q in states:
        m |= 1 << q
    return m


class Automaton:
    """An NFA (or DFA when the flag is set) over a named alphabet.

    ``rows[q]``, the one stored form of the moves, maps the id of each
    letter with a move from q to the nonzero bitmask of its targets; it is
    :func:`_subset_construction`'s move table.  The read-only
    ``transitions`` derives the (source, symbol id, target) triples."""

    __slots__ = (
        "state_count",
        "alphabet",
        "initials",
        "finals",
        "rows",
        "deterministic",
        "_sym_index",
    )

    def __init__(
        self,
        state_count: int,
        alphabet: Sequence[str],
        initials: Iterable[int],
        finals: Iterable[int],
        transitions: Iterable[tuple],
        deterministic: bool = False,
    ):
        alphabet = tuple(alphabet)
        if not alphabet:
            raise ValueError("alphabet must be nonempty")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet symbols must be distinct")
        sym_index = {name: i for i, name in enumerate(alphabet)}
        n = int(state_count)
        if n < 0:
            raise ValueError("state_count must be >= 0")

        # the one check of each transition; the messages name its position
        rows = [{} for _ in range(n)]
        for i, (src, sym, dst) in enumerate(transitions):
            if not 0 <= src < n:
                raise ValueError(
                    f"transitions[{i}]: source {src!r} is not a state id (states={n})")
            if not 0 <= dst < n:
                raise ValueError(
                    f"transitions[{i}]: target {dst!r} is not a state id (states={n})")
            if isinstance(sym, str):
                name, sym = sym, sym_index.get(sym)
                if sym is None:
                    raise InvalidWord(f"transitions[{i}]: unknown symbol {name!r}")
            elif not 0 <= sym < len(alphabet):
                raise ValueError(f"transitions[{i}]: symbol id {sym} out of range")
            mask, bit = rows[src].get(sym, 0), 1 << dst
            if deterministic and mask | bit != bit:
                raise ValueError(f"transitions[{i}]: state {src} has two moves on "
                                 f"{alphabet[sym]!r} but deterministic is true")
            rows[src][sym] = mask | bit  # a repeated move changes nothing

        initials = frozenset(initials)
        finals = frozenset(finals)
        for q in initials | finals:
            if not (0 <= q < n):
                raise ValueError(f"state id {q} out of range")
        if deterministic and len(initials) != 1:
            raise ValueError("initials: a deterministic automaton needs exactly one initial state")

        self.state_count = n
        self.alphabet = alphabet
        self.initials = initials
        self.finals = finals
        self.rows = rows
        self.deterministic = bool(deterministic)
        self._sym_index = sym_index

    @property
    def transitions(self) -> frozenset:
        """The (source, symbol id, target) triples, derived from ``rows``."""
        return frozenset((q, sym, t) for q, moves in enumerate(_moves(self)) for sym, t in moves)

    def symbol_id(self, name: str) -> int:
        try:
            return self._sym_index[name]
        except KeyError:
            raise InvalidWord(f"unknown symbol {name!r}") from None

    def word_ids(self, word: Sequence[str]) -> list:
        return [self.symbol_id(s) for s in word]

    @property
    def initial_mask(self) -> int:
        return mask_of(self.initials)

    @property
    def final_mask(self) -> int:
        return mask_of(self.finals)

    def step(self, state_mask: int, sym: int) -> int:
        out = 0
        for q in bits(state_mask):
            out |= self.rows[q].get(sym, 0)
        return out

    def accepts(self, word: Sequence[str]) -> bool:
        """State-set simulation; unknown symbols raise InvalidWord."""
        ids = self.word_ids(word)
        current = self.initial_mask
        for sym in ids:
            if not current:
                return False
            current = self.step(current, sym)
        return bool(current & self.final_mask)

    def __repr__(self):
        return (
            f"Automaton(states={self.state_count}, alphabet={list(self.alphabet)}, "
            f"initials={sorted(self.initials)}, finals={sorted(self.finals)}, "
            f"transitions={len(self.transitions)}, dfa={self.deterministic})"
        )


def _require_same_alphabet(a: Automaton, b: Automaton):
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(f"alphabets differ: {a.alphabet} vs {b.alphabet}")


def strongly_connected_components(adj):
    """Tarjan's algorithm, iterative.

    ``adj`` is a list of neighbor lists.  Components come back in reverse
    topological order (every edge leaving a component points to an earlier
    entry in the result).
    """
    n = len(adj)
    num = [-1] * n  # -1: not visited yet
    low = [0] * n
    on_stack = [False] * n
    stack, comps, work = [], [], []
    counter = count()

    def enter(v):
        num[v] = low[v] = next(counter)
        stack.append(v)
        on_stack[v] = True
        work.append((v, iter(adj[v])))

    for root in range(n):
        if num[root] < 0:
            enter(root)
        while work:
            v, neighbors = work[-1]
            for w in neighbors:  # resumes after the last child entered
                if num[w] < 0:
                    enter(w)
                    break
                if on_stack[w] and num[w] < low[v]:
                    low[v] = num[w]
            else:
                work.pop()
                if low[v] == num[v]:
                    comp = []
                    w = -1
                    while w != v:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                    comps.append(comp)
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return comps


# ---------------------------------------------------------------------------
# reachability and trimming


def _reach(adj, mask: int) -> int:
    """The states reachable from the states of ``mask``, as a mask, where
    ``adj[q]`` is the mask of the states one edge leads to from q."""
    todo = mask
    while todo:
        low = todo & -todo
        new = adj[low.bit_length() - 1] & ~mask
        mask |= new
        todo = (todo ^ low) | new
    return mask


def trim(a: Automaton) -> Automaton:
    """Drop states that are not on any accepting path; language preserved."""
    n = a.state_count
    succ, pred = [0] * n, [0] * n  # the states that q moves to, and that move to q
    for q, row in enumerate(a.rows):
        for mask in row.values():
            succ[q] |= mask
        for t in bits(succ[q]):
            pred[t] |= 1 << q
    useful = _reach(succ, a.initial_mask) & _reach(pred, a.final_mask)
    if useful == (1 << n) - 1:
        return a
    remap = {q: i for i, q in enumerate(bits(useful))}
    transitions = [(i, sym, remap[t]) for q, i in remap.items()
                   for sym, mask in a.rows[q].items() for t in bits(mask & useful)]
    initials = {remap[q] for q in a.initials if q in remap}
    finals = {remap[q] for q in a.finals if q in remap}
    deterministic = a.deterministic and len(initials) == 1
    return Automaton(len(remap), a.alphabet, initials, finals, transitions, deterministic)


def is_empty(a: Automaton) -> bool:
    return not trim(a).finals


# ---------------------------------------------------------------------------
# the flat form and its boundary


def _moves(a: Automaton) -> list:
    """``moves[q]`` lists the (letter, target) pairs of q's moves, read off
    ``a.rows``, for the NFA product and the closure tables.  The kernels read
    a flat DFA's moves as ``succ[q].items()``."""
    if a.deterministic:  # one bit per mask: no bits() generator per move
        return [[(sym, mask.bit_length() - 1) for sym, mask in row.items()] for row in a.rows]
    return [[(sym, t) for sym, mask in row.items() for t in bits(mask)] for row in a.rows]


def _rows(moves) -> list:
    """Successor rows: ``rows[q]`` maps each letter of the (letter, target)
    moves ``moves[q]`` to the list of its targets."""
    rows = [{} for _ in moves]
    for row, pairs in zip(rows, moves):
        for sym, t in pairs:
            row.setdefault(sym, []).append(t)
    return rows


def _renumber(succ, block_of, members, start: int, finals):
    """The quotient of the DFA ``succ`` by ``block_of`` (-1 drops a dead
    state and the moves into it), with ``members[b]`` a state of block b,
    numbered by a BFS from the block of ``start`` as the contract asks.
    ``block_of`` is read only at ``start``, ``finals`` and the row values."""
    order, out = [block_of[start]], []
    number = [-1] * len(members)
    number[order[0]] = 0
    for block in order:  # order grows while it is scanned
        row = succ[members[block]]
        moves = {}
        for sym in sorted(row):
            target = block_of[row[sym]]
            if target < 0:
                continue
            dst = number[target]
            if dst < 0:
                dst = number[target] = len(order)
                order.append(target)
            moves[sym] = dst
        out.append(moves)
    return len(order), out, {number[block_of[q]] for q in finals} - {-1}


def _completed(m: int, dfa):
    """The complete form of a flat DFA numbered by a BFS from 0 with letters
    in alphabet order: the sink is inserted where that BFS first meets a
    missing move, and every missing move leads to it.  On a canonical
    minimal DFA this gives the canonical minimal complete DFA.  No other
    flat-form code builds a sink; :func:`complete` adds one to an
    :class:`Automaton` in the caller's numbering."""
    n, succ, finals = dfa
    sink, top = (None, 0) if n else (0, -1)  # states 0..top are met
    for row in succ:
        if len(row) == m:
            top = max(top, *row.values())
            continue
        sym = 0
        while sym in row:
            top = max(top, row[sym])
            sym += 1
        sink = top + 1
        break
    if sink is None:
        return dfa
    full = [dict.fromkeys(range(m), sink) for _ in range(n + 1)]
    for q, row in enumerate(succ):
        full[q + (q >= sink)].update({sym: t + (t >= sink) for sym, t in row.items()})
    return n + 1, full, {q + (q >= sink) for q in finals}


def _automaton(alphabet, dfa) -> Automaton:
    """The public, validated form of a flat DFA: complete, numbered as in
    :func:`_completed`."""
    n, succ, finals = _completed(len(alphabet), dfa)
    return Automaton(n, alphabet, {0}, finals,
                     [(q, sym, t) for q, row in enumerate(succ) for sym, t in row.items()],
                     True)


# ---------------------------------------------------------------------------
# product and boolean operations


def _product(moves_a, rows_b, nb: int, starts, finals_a, finals_b):
    """The NFA product, for :func:`intersection` and the prefix heights (the
    chain's DFA product is :func:`_meet`): the part of the synchronized
    product that one common word reaches from a start pair, for the
    (letter, target) moves of the left automaton (:func:`_moves`, or a flat
    DFA's ``succ[q].items()``) and the target lists of the right one
    (:func:`_rows` of such moves), not mask rows.  It follows the left moves
    whose letter moves on the right too, so its cost is the live moves it
    meets.  Pair (p, q) has key p*nb + q.  Returns (keys, moves, finals): the
    reached keys in ascending order, the moves as (source, symbol, target)
    triples over positions in ``keys``, and the positions where both sides
    accept."""
    seen = set(starts)
    stack = list(seen)
    edges = []
    while stack:
        key = stack.pop()
        p, q = divmod(key, nb)
        row_b = rows_b[q]
        for sym, ta in moves_a[p]:
            targets_b = row_b.get(sym)
            if targets_b is None:
                continue
            base = ta * nb
            for tb in targets_b:
                dst = base + tb
                edges.append((key, sym, dst))
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
    keys = sorted(seen)
    index = {key: i for i, key in enumerate(keys)}
    moves = [(index[s], sym, index[t]) for s, sym, t in edges]
    finals = {i for i, key in enumerate(keys)
              if key // nb in finals_a and key % nb in finals_b}
    return keys, moves, finals


def intersection(a: Automaton, b: Automaton) -> Automaton:
    """Reachable part of the synchronized product, accepting where both sides
    accept.  Its states are the pairs (p, q) that one common word reaches
    from a pair of initial states; they are numbered in sorted pair order
    (the order of p*|Q_b|+q).  So every state is reachable, and a final
    state is a common word of L(a) and L(b)."""
    _require_same_alphabet(a, b)
    nb = b.state_count
    starts = {p * nb + q for p in a.initials for q in b.initials}
    keys, moves, finals = _product(_moves(a), _rows(_moves(b)), nb, starts, a.finals, b.finals)
    return Automaton(len(keys), a.alphabet, {bisect_left(keys, key) for key in starts},
                     finals, moves, a.deterministic and b.deterministic)


def _meet(a, b):
    """Canonical minimal flat DFA of L(a) n L(b) for two flat DFAs: one walk
    over the pairs that a common word reaches from (0, 0), along the shorter
    row of each, numbering a pair when it is found, which keeps the
    contract, and filling the rows and the predecessor lists at once."""
    (na, succ_a, finals_a), (nb, succ_b, finals_b) = a, b
    if not (na and nb):
        return EMPTY
    keys = [0]  # pair (p, q) has key p*nb + q
    index = {0: 0}
    succ, pred = [], [[]]
    for i, key in enumerate(keys):  # keys grows while it is scanned
        p, q = divmod(key, nb)
        row_a, row_b = succ_a[p], succ_b[q]
        flip = len(row_b) < len(row_a)
        short, other = (row_b, row_a) if flip else (row_a, row_b)
        row = {}
        for sym, t in short.items():
            u = other.get(sym)
            if u is None:
                continue
            key = u * nb + t if flip else t * nb + u
            dst = index.get(key)
            if dst is None:
                dst = index[key] = len(keys)
                keys.append(key)
                pred.append([])
            row[sym] = dst
            pred[dst].append((sym, i))
        succ.append(row)
    finals = {i for i, key in enumerate(keys) if key // nb in finals_a and key % nb in finals_b}
    return _minimize((len(keys), succ, finals), pred)


def complete(d: Automaton) -> Automaton:
    """Make a deterministic automaton complete by adding an explicit sink,
    state ``state_count``, when some move is missing."""
    if not d.deterministic and d.state_count > 0:
        raise NotDeterministic("complete() expects a deterministic automaton")
    m, n = len(d.alphabet), d.state_count
    if n and all(len(row) == m for row in d.rows):
        return d
    return Automaton(n + 1, d.alphabet, d.initials or {n}, d.finals,
                     [(q, sym, row[sym].bit_length() - 1 if sym in row else n)
                      for q, row in enumerate([*d.rows, {}]) for sym in range(m)], True)


def complement(d: Automaton) -> Automaton:
    """Complement of a deterministic automaton (completed first)."""
    d = complete(d)
    finals = set(range(d.state_count)) - set(d.finals)
    return Automaton(d.state_count, d.alphabet, d.initials, finals, d.transitions, True)


def _complement(m: int, dfa):
    """The complement of a flat DFA, on its complete form."""
    n, succ, finals = _completed(m, dfa)
    return n, succ, set(range(n)) - finals


def _subset_construction(m: int, move, start_mask: int, final_mask: int,
                         budget: Optional[int], cover=None):
    """The one subset construction.  ``move[q]`` maps each letter with a move
    from state q to its nonzero target mask: the ``rows`` of an
    :class:`Automaton` as they are stored (see :func:`_subsets`), or the
    closure machine's closed tables.  A subset is final when it meets
    ``final_mask``.  The result is the flat DFA over the nonempty explored
    subsets, numbered in BFS order with letters in alphabet order.  The
    empty subset is no state, but it counts towards the budget once some
    subset lacks a move on one of the m letters: more than ``budget``
    subsets (:data:`DEFAULT_BUDGET` when None) raise BudgetExceeded.

    A subset moves to the OR of ``move`` over its members or, given a
    ``cover`` table, over picks only: pick the lowest member q left, strike
    ``cover[q]``, repeat.  In the closure machine's closed tables
    ``move[q']`` lies inside ``move[q]`` for q' in ``cover[q]``, letter by
    letter, and every member is a pick or in a pick's cover, so the picks'
    OR is the members' OR (see :mod:`ptsep.closures`)."""
    budget = DEFAULT_BUDGET if budget is None else budget
    what = "subset construction" if cover is None else "down-closure subset construction"
    if not start_mask:
        return EMPTY
    cover = [1 << q for q in range(len(move))] if cover is None else cover
    index = {start_mask: 0}
    subsets = [start_mask]
    succ = []
    empty = 0  # 1 once the empty subset is reached
    for current in subsets:  # grows while it is scanned
        q = (current & -current).bit_length() - 1
        targets = move[q]
        rest = current & ~cover[q]
        if rest:
            targets = dict(targets)
            while rest:
                q = (rest & -rest).bit_length() - 1
                rest &= ~cover[q]
                for sym, mask in move[q].items():
                    targets[sym] = targets.get(sym, 0) | mask
        if len(targets) < m:
            empty = 1
        row = {}
        for sym in sorted(targets):
            target = targets[sym]
            dst = index.get(target)
            if dst is None:
                dst = index[target] = len(subsets)
                subsets.append(target)
            row[sym] = dst
        succ.append(row)
        if len(subsets) + empty > budget:
            raise BudgetExceeded(f"{what} exceeded budget of {budget} states")
    return len(subsets), succ, {i for i, s in enumerate(subsets) if s & final_mask}


def _subsets(a: Automaton, budget: Optional[int]):
    """The flat DFA of the subset construction on a's rows."""
    return _subset_construction(len(a.alphabet), a.rows, a.initial_mask, a.final_mask, budget)


def determinize(a: Automaton, budget: Optional[int] = None) -> Automaton:
    """Subset construction; the result is a complete DFA with one state per
    reachable subset of source states (the empty subset is the sink)."""
    return _automaton(a.alphabet, _subsets(a, budget))


def _minimize(dfa, pred=None):
    """The one minimization: the canonical minimal flat DFA of the language
    of a flat DFA that keeps the contract, so it starts at state 0.
    ``pred[t]``, when the caller has it, lists the (letter, source) pairs of
    the moves into t.  When every state is live and no two are equivalent,
    the input is canonical already and comes back as it is, unrenumbered.

    Hopcroft refinement on the partial transition function (Valmari and
    Lehtinen, STACS 2008): states that reach no final state are dropped,
    together with the moves into them.  The rest start in one block per
    (finality, set of letters with a live move): two states that differ in
    either are inequivalent, and a letter into a dead state counts as no
    move.  Every block is queued as a splitter, because a missing move is
    no move into another block; when every block is a singleton there is
    nothing to refine.  Then a block that splits queues its smaller half,
    as in the complete case.  A splitter is read through the inverse of the
    live moves, grouped by letter, so a pass costs the moves into the
    splitter.  A source in a singleton block is skipped: a singleton never
    splits.  The blocks are numbered by :func:`_renumber`."""
    n, succ, finals = dfa
    if not n:
        return EMPTY
    if pred is None:
        pred = [[] for _ in range(n)]
        for q, row in enumerate(succ):
            for sym, t in row.items():
                pred[t].append((sym, q))
    block_of = [-1] * n  # -1: no final state is reachable
    stack = list(finals)
    for q in stack:
        block_of[q] = 0
    while stack:
        for _, q in pred[stack.pop()]:
            if block_of[q] < 0:
                block_of[q] = 1
                stack.append(q)
    if block_of[0] < 0:
        return EMPTY
    all_live = -1 not in block_of
    groups = defaultdict(list)
    for q, (b, row) in enumerate(zip(block_of, succ)):
        if b >= 0:
            live = row if all_live else (sym for sym, t in row.items() if block_of[t] >= 0)
            groups[b, frozenset(live)].append(q)
    if len(groups) == n:  # every state is live and alone in its block
        return dfa
    blocks = [set(group) for group in groups.values()]
    for bid, block in enumerate(blocks):
        for q in block:
            block_of[q] = bid
    work = [tuple(block) for block in blocks] if any(len(block) > 1 for block in blocks) else []
    while work:
        by_letter = defaultdict(list)  # a DFA: each list holds a source once
        for t in work.pop():
            for sym, q in pred[t]:
                if len(blocks[block_of[q]]) > 1:  # a singleton never splits
                    by_letter[sym].append(q)
        for sources in by_letter.values():
            touched = defaultdict(list)
            for q in sources:
                touched[block_of[q]].append(q)
            for bid, inside in touched.items():
                block = blocks[bid]
                if len(inside) == len(block):
                    continue
                if 2 * len(inside) > len(block):
                    inside = block.difference(inside)
                block.difference_update(inside)
                new_bid = len(blocks)
                blocks.append(set(inside))
                for q in inside:
                    block_of[q] = new_bid
                work.append(tuple(inside))
    if len(blocks) == n:  # the refinement left every state alone
        return dfa
    return _renumber(succ, block_of, [next(iter(block)) for block in blocks], 0, finals)


def _minimal(a: Automaton, budget: Optional[int] = None):
    """The canonical minimal flat DFA of L(a).  A DFA's rows go to
    :func:`_renumber` as stored, ``block_of`` mapping one-bit masks to
    states; no unreachable state is numbered, and :func:`_minimize` drops
    dead ones.  An NFA is trimmed, then determinized."""
    if a.deterministic:
        states = range(a.state_count)
        return _minimize(_renumber(a.rows, {1 << q: q for q in states}, states,
                                   1 << min(a.initials), {1 << q for q in a.finals}))
    return _minimize(_subsets(trim(a), budget))


def minimal_dfa(a: Automaton, budget: Optional[int] = None) -> Automaton:
    """The canonical minimal complete DFA of L(a), numbered as in
    :func:`_completed`."""
    return _automaton(a.alphabet, _minimal(a, budget))


def includes(a: Automaton, b: Automaton, budget: Optional[int] = None) -> bool:
    """True iff L(a) contains L(b); decided by emptiness of L(b) minus L(a).
    Every state of an intersection is reachable, so that difference is empty
    exactly when it has no final state."""
    _require_same_alphabet(a, b)
    dfa = a if a.deterministic else determinize(a, budget)
    return not intersection(b, complement(dfa)).finals


def normalize_alphabets(a: Automaton, b: Automaton):
    """Re-index both automata onto the merged alphabet (a's symbols first,
    then b's extras in b's order)."""
    merged = list(dict.fromkeys(a.alphabet + b.alphabet))

    def reindex(x: Automaton) -> Automaton:
        if tuple(merged) == x.alphabet:
            return x
        transitions = [(q, x.alphabet[sym], t)
                       for q, moves in enumerate(_moves(x)) for sym, t in moves]
        return Automaton(x.state_count, merged, x.initials, x.finals,
                         transitions, x.deterministic)

    return reindex(a), reindex(b)


# ---------------------------------------------------------------------------
# JSON interchange

_SCHEMA_KEYS = ("alphabet", "states", "initials", "finals", "transitions")


def whole(value, bound=None) -> bool:
    """A JSON non-negative integer below ``bound``; JSON true and false are
    ints in Python and are refused."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and 0 <= value and (bound is None or value < bound))


def automaton_to_dict(a: Automaton) -> dict:
    """The JSON document of ``a``, its transitions sorted by (source, symbol
    name, target)."""
    names = a.alphabet
    transitions = []
    for q, row in enumerate(a.rows):
        for sym, mask in row.items():
            name = names[sym]
            while mask:  # bits(mask), inline: this runs once per move
                low = mask & -mask
                transitions.append([q, name, low.bit_length() - 1])
                mask ^= low
    transitions.sort()
    return {
        "alphabet": list(names),
        "states": a.state_count,
        "initials": sorted(a.initials),
        "finals": sorted(a.finals),
        "deterministic": a.deterministic,
        "transitions": transitions,
    }


def automaton_from_dict(data: dict) -> Automaton:
    if not isinstance(data, dict):
        raise SchemaError("automaton document must be a JSON object")
    for key in _SCHEMA_KEYS:
        if key not in data:
            raise SchemaError(f"missing required field {key!r}")
    alphabet = data["alphabet"]
    if not isinstance(alphabet, list) or not alphabet:
        raise SchemaError("alphabet: must be a nonempty list of symbol names")
    seen = set()
    for i, name in enumerate(alphabet):
        if not isinstance(name, str):
            raise SchemaError(f"alphabet[{i}]: symbol names must be strings")
        if name in seen:
            raise SchemaError(f"alphabet[{i}]: duplicate symbol {name!r}")
        seen.add(name)

    states = data["states"]
    if not whole(states):
        raise SchemaError("states: must be a non-negative integer")

    for field in ("initials", "finals"):
        ids = data[field]
        if not isinstance(ids, list):
            raise SchemaError(f"{field}: must be a list of state ids")
        for i, q in enumerate(ids):
            if not whole(q, states):
                raise SchemaError(
                    f"{field}[{i}]: {q!r} is not a state id (states={states})")
    transitions = data["transitions"]
    if not isinstance(transitions, list):
        raise SchemaError("transitions: must be a list of [source, symbol, target]")
    # the JSON shape and types only: Automaton checks ranges, symbols and
    # determinism, with the same transitions[i] locations
    for i, item in enumerate(transitions):
        if not (isinstance(item, list) and len(item) == 3):
            raise SchemaError(f"transitions[{i}]: expected [source, symbol, target]")
        src, sym, dst = item
        if type(src) is not int:  # a JSON int, not a bool
            raise SchemaError(
                f"transitions[{i}]: source {src!r} is not a state id (states={states})")
        if type(dst) is not int:
            raise SchemaError(
                f"transitions[{i}]: target {dst!r} is not a state id (states={states})")
        if not isinstance(sym, str):
            raise SchemaError(f"transitions[{i}]: unknown symbol {sym!r}")
    deterministic = data.get("deterministic", False)
    if not isinstance(deterministic, bool):
        raise SchemaError("deterministic: must be a JSON boolean (true or false)")
    try:
        return Automaton(states, alphabet, data["initials"], data["finals"],
                         transitions, deterministic)
    except (ValueError, InvalidWord) as exc:
        raise SchemaError(str(exc)) from None


def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as exc:  # bad JSON, or a file that is not UTF-8
            raise SchemaError(f"{path}: {exc}") from None


def _save_json(data, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_automaton(path) -> Automaton:
    return automaton_from_dict(_load_json(path))


def save_automaton(a: Automaton, path):
    _save_json(automaton_to_dict(a), path)
