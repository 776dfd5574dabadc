"""Finite automata and the standard constructions every other module consumes.

States are integers ``0 .. state_count-1``, symbols are indices into a tuple
of distinct symbol names, and transitions form a finite relation of
``(source, symbol, target)`` triples.  Automata are immutable after
construction; every operation returns a new automaton.  Words are tuples of
symbol names, so they can travel between automata that share an alphabet.

Partial transition functions are allowed in stored automata; completion with
an explicit sink happens inside :func:`determinize`, :func:`complement` and
:func:`minimize`.
"""
from __future__ import annotations

import json
import os
from collections import deque
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
BUDGET_ENV = "PTSEP_BUDGET"


def resolve_budget(budget: Optional[int] = None) -> int:
    """Explicit argument wins, then PTSEP_BUDGET, then the built-in default."""
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV)
    if env:
        return int(env)
    return DEFAULT_BUDGET


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
    """An NFA (or DFA when the flag is set) over a named alphabet."""

    __slots__ = (
        "state_count",
        "alphabet",
        "initials",
        "finals",
        "transitions",
        "deterministic",
        "state_labels",
        "_sym_index",
        "_masks",
    )

    def __init__(
        self,
        state_count: int,
        alphabet: Sequence[str],
        initials: Iterable[int],
        finals: Iterable[int],
        transitions: Iterable[tuple],
        deterministic: bool = False,
        state_labels: Optional[tuple] = None,
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

        norm = set()
        seen_pairs = {}
        for src, sym, dst in transitions:
            if isinstance(sym, str):
                if sym not in sym_index:
                    raise InvalidWord(f"unknown symbol {sym!r}")
                sym = sym_index[sym]
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"transition ({src},{sym},{dst}) out of range")
            if not (0 <= sym < len(alphabet)):
                raise ValueError(f"transition symbol id {sym} out of range")
            norm.add((src, sym, dst))

        initials = frozenset(initials)
        finals = frozenset(finals)
        for q in initials | finals:
            if not (0 <= q < n):
                raise ValueError(f"state id {q} out of range")
        if deterministic:
            if len(initials) != 1:
                raise ValueError("deterministic automaton needs exactly one initial state")
            for src, sym, dst in norm:
                prev = seen_pairs.setdefault((src, sym), dst)
                if prev != dst:
                    raise ValueError(f"state {src} is nondeterministic on symbol {sym}")
        if state_labels is not None and len(state_labels) != n:
            raise ValueError("state_labels length must equal state_count")

        self.state_count = n
        self.alphabet = alphabet
        self.initials = initials
        self.finals = finals
        self.transitions = frozenset(norm)
        self.deterministic = bool(deterministic)
        self.state_labels = state_labels
        self._sym_index = sym_index
        self._masks = None

    def symbol_id(self, name: str) -> int:
        try:
            return self._sym_index[name]
        except KeyError:
            raise InvalidWord(f"unknown symbol {name!r}") from None

    def word_ids(self, word: Sequence[str]) -> list:
        return [self.symbol_id(s) for s in word]

    def move_masks(self):
        """masks[sym][state] -> bitmask of targets; built lazily and cached."""
        if self._masks is None:
            masks = [[0] * self.state_count for _ in self.alphabet]
            for src, sym, dst in self.transitions:
                masks[sym][src] |= 1 << dst
            self._masks = masks
        return self._masks

    @property
    def initial_mask(self) -> int:
        return mask_of(self.initials)

    @property
    def final_mask(self) -> int:
        return mask_of(self.finals)

    def step(self, state_mask: int, sym: int) -> int:
        row = self.move_masks()[sym]
        out = 0
        for q in bits(state_mask):
            out |= row[q]
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

    def adjacency(self):
        """adjacency[state] -> sorted list of (symbol, target)."""
        adj = [[] for _ in range(self.state_count)]
        for src, sym, dst in self.transitions:
            adj[src].append((sym, dst))
        for lst in adj:
            lst.sort()
        return adj

    def __repr__(self):
        return (
            f"Automaton(states={self.state_count}, alphabet={list(self.alphabet)}, "
            f"initials={sorted(self.initials)}, finals={sorted(self.finals)}, "
            f"transitions={len(self.transitions)}, dfa={self.deterministic})"
        )


def accepts(a: Automaton, word: Sequence[str]) -> bool:
    return a.accepts(word)


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
    UNSEEN = -1
    num = [UNSEEN] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if num[root] != UNSEEN:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                num[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            neighbors = adj[v]
            i = pi
            while i < len(neighbors):
                w = neighbors[i]
                i += 1
                if num[w] == UNSEEN:
                    work[-1] = (v, i)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w] and num[w] < low[v]:
                    low[v] = num[w]
            if advanced:
                continue
            if low[v] == num[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            work.pop()
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
    return comps


def fold_reachable(adj, vectors):
    """OR each int vector over reachability in the digraph ``adj``.

    ``adj`` is a list of neighbor lists and every vector holds one int per
    node.  For each vector the result holds, at q, the OR of its entries at
    every node reachable from q, q included.  One SCC pass; components are
    folded in reverse topological order, so a component reads its
    successors' finished entries and no reachable set is enumerated.
    """
    out = [list(vec) for vec in vectors]
    for comp in strongly_connected_components(adj):
        sources = set(comp)
        for q in comp:
            sources.update(adj[q])
        for vec in out:
            acc = 0
            for v in sources:
                acc |= vec[v]
            for q in comp:
                vec[q] = acc
    return out


# ---------------------------------------------------------------------------
# reachability and trimming


def _forward_reachable(a: Automaton) -> set:
    adj = [[] for _ in range(a.state_count)]
    for src, _, dst in a.transitions:
        adj[src].append(dst)
    seen = set(a.initials)
    queue = deque(seen)
    while queue:
        q = queue.popleft()
        for t in adj[q]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


def _backward_reachable(a: Automaton) -> set:
    radj = [[] for _ in range(a.state_count)]
    for src, _, dst in a.transitions:
        radj[dst].append(src)
    seen = set(a.finals)
    queue = deque(seen)
    while queue:
        q = queue.popleft()
        for t in radj[q]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


def trim(a: Automaton) -> Automaton:
    """Drop states that are not on any accepting path; language preserved."""
    useful = _forward_reachable(a) & _backward_reachable(a)
    if len(useful) == a.state_count:
        return a
    order = sorted(useful)
    remap = {q: i for i, q in enumerate(order)}
    transitions = {
        (remap[s], sym, remap[t])
        for s, sym, t in a.transitions
        if s in useful and t in useful
    }
    initials = {remap[q] for q in a.initials if q in useful}
    finals = {remap[q] for q in a.finals if q in useful}
    labels = None
    if a.state_labels is not None:
        labels = tuple(a.state_labels[q] for q in order)
    deterministic = a.deterministic and len(initials) == 1
    return Automaton(len(order), a.alphabet, initials, finals, transitions,
                     deterministic, labels)


def is_empty(a: Automaton) -> bool:
    return not (_forward_reachable(a) & set(a.finals))


# ---------------------------------------------------------------------------
# product and boolean operations


def intersection(a: Automaton, b: Automaton) -> Automaton:
    """Reachable part of the synchronized product, accepting where both sides
    accept.  Its states are the pairs (p, q) that one common word reaches
    from a pair of initial states; they are numbered in sorted pair order
    (the order of p*|Q_b|+q) and labelled with their pairs.  So every state
    is reachable, and a final state is a common word of L(a) and L(b)."""
    _require_same_alphabet(a, b)
    nb = b.state_count
    succ_a = [[] for _ in range(a.state_count)]
    for src, sym, dst in a.transitions:
        succ_a[src].append((sym, dst))
    succ_b = [{} for _ in range(nb)]
    for src, sym, dst in b.transitions:
        succ_b[src].setdefault(sym, []).append(dst)
    starts = {p * nb + q for p in a.initials for q in b.initials}
    seen = set(starts)
    stack = list(starts)
    edges = []
    while stack:
        key = stack.pop()
        p, q = divmod(key, nb)
        moves_b = succ_b[q]
        for sym, ta in succ_a[p]:
            for tb in moves_b.get(sym, ()):
                dst = ta * nb + tb
                edges.append((key, sym, dst))
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
    order = sorted(seen)
    index = {key: i for i, key in enumerate(order)}
    labels = tuple(divmod(key, nb) for key in order)
    finals = {i for i, (p, q) in enumerate(labels) if p in a.finals and q in b.finals}
    return Automaton(len(order), a.alphabet, {index[key] for key in starts}, finals,
                     [(index[s], sym, index[t]) for s, sym, t in edges],
                     a.deterministic and b.deterministic, labels)


def union(a: Automaton, b: Automaton) -> Automaton:
    _require_same_alphabet(a, b)
    off = a.state_count
    transitions = set(a.transitions)
    for src, sym, dst in b.transitions:
        transitions.add((src + off, sym, dst + off))
    initials = set(a.initials) | {q + off for q in b.initials}
    finals = set(a.finals) | {q + off for q in b.finals}
    return Automaton(off + b.state_count, a.alphabet, initials, finals, transitions)


def complete(d: Automaton) -> Automaton:
    """Make a deterministic automaton complete by adding an explicit sink."""
    if not d.deterministic and d.state_count > 0:
        raise NotDeterministic("complete() expects a deterministic automaton")
    n = d.state_count
    m = len(d.alphabet)
    defined = {(s, sym) for s, sym, _ in d.transitions}
    if n > 0 and len(defined) == n * m:
        return d
    sink = n
    transitions = set(d.transitions)
    for q in range(n):
        for sym in range(m):
            if (q, sym) not in defined:
                transitions.add((q, sym, sink))
    for sym in range(m):
        transitions.add((sink, sym, sink))
    initials = set(d.initials) if d.initials else {sink}
    labels = None
    if d.state_labels is not None:
        labels = tuple(d.state_labels) + (None,)
    return Automaton(n + 1, d.alphabet, initials, d.finals, transitions, True, labels)


def complement(d: Automaton) -> Automaton:
    """Complement of a deterministic automaton (completed first)."""
    d = complete(d)
    finals = set(range(d.state_count)) - set(d.finals)
    return Automaton(d.state_count, d.alphabet, d.initials, finals,
                     d.transitions, True, d.state_labels)


def _subset_construction(alphabet, move, start_mask: int, final_mask: int,
                         budget: Optional[int]) -> Automaton:
    """The one subset construction.  ``move[sym][q]`` is the target mask of
    state q under sym; a subset is final when it meets ``final_mask``.  The
    result is a complete DFA over the explored subsets, numbered in BFS order
    (the empty subset, when reached, is the sink); more than ``budget``
    subsets raise BudgetExceeded."""
    budget = resolve_budget(budget)
    m = len(alphabet)
    index = {start_mask: 0}
    subsets = [start_mask]
    transitions = []
    queue = deque([start_mask])
    while queue:
        current = queue.popleft()
        src = index[current]
        for sym in range(m):
            row = move[sym]
            target = 0
            rest = current
            while rest:
                low = rest & -rest
                target |= row[low.bit_length() - 1]
                rest ^= low
            dst = index.get(target)
            if dst is None:
                if len(subsets) >= budget:
                    raise BudgetExceeded(
                        f"subset construction exceeded budget of {budget} states")
                dst = len(subsets)
                index[target] = dst
                subsets.append(target)
                queue.append(target)
            transitions.append((src, sym, dst))
    finals = {i for i, s in enumerate(subsets) if s & final_mask}
    return Automaton(len(subsets), alphabet, {0}, finals, transitions, True)


def determinize(a: Automaton, budget: Optional[int] = None) -> Automaton:
    """Subset construction; the result is a complete DFA with one state per
    reachable subset of source states (the empty subset is the sink)."""
    return _subset_construction(a.alphabet, a.move_masks(), a.initial_mask,
                                a.final_mask, budget)


def _hopcroft_blocks(n, m, delta, finals):
    """Hopcroft partition refinement on a complete DFA given as a flat
    ``delta[q*m + sym]`` table.  Returns the block id of every state."""
    finals = set(finals)
    part_f = [q for q in range(n) if q in finals]
    part_n = [q for q in range(n) if q not in finals]
    blocks = []
    block_of = [0] * n
    for group in (part_f, part_n):
        if group:
            bid = len(blocks)
            for q in group:
                block_of[q] = bid
            blocks.append(set(group))
    if len(blocks) < 2:
        return block_of
    inv = [[[] for _ in range(n)] for _ in range(m)]
    for q in range(n):
        base = q * m
        for sym in range(m):
            inv[sym][delta[base + sym]].append(q)
    smaller = min(range(len(blocks)), key=lambda i: len(blocks[i]))
    work = deque((frozenset(blocks[smaller]), sym) for sym in range(m))
    while work:
        splitter, sym = work.popleft()
        pre = set()
        rows = inv[sym]
        for t in splitter:
            pre.update(rows[t])
        touched = {}
        for q in pre:
            touched.setdefault(block_of[q], set()).add(q)
        for bid, inside in touched.items():
            block = blocks[bid]
            if len(inside) == len(block):
                continue
            rest = block - inside
            if len(inside) > len(rest):
                inside, rest = rest, inside
            blocks[bid] = rest
            new_bid = len(blocks)
            blocks.append(inside)
            for q in inside:
                block_of[q] = new_bid
            frozen = frozenset(inside)
            for s2 in range(m):
                work.append((frozen, s2))
    return block_of


def minimize(d: Automaton) -> Automaton:
    """Minimal complete DFA via Hopcroft refinement, canonically numbered:
    blocks get ids in BFS order from the initial block, letters in alphabet
    order, so language-equal inputs give identical automata.  Blocks of
    unreachable states are never visited.  The sink counts as a state
    whenever it is reachable."""
    if not d.deterministic and d.state_count > 0:
        raise NotDeterministic("minimize() expects a deterministic automaton")
    d = complete(d)
    n, m = d.state_count, len(d.alphabet)
    delta = [0] * (n * m)
    for s, sym, t in d.transitions:
        delta[s * m + sym] = t
    block_of = _hopcroft_blocks(n, m, delta, d.finals)
    repr_of = {}
    for q in range(n):
        repr_of.setdefault(block_of[q], q)
    order = [block_of[next(iter(d.initials))]]
    number = {order[0]: 0}
    transitions = []
    for src, block in enumerate(order):  # order grows while it is scanned
        base = repr_of[block] * m
        for sym in range(m):
            target = block_of[delta[base + sym]]
            dst = number.get(target)
            if dst is None:
                dst = number[target] = len(order)
                order.append(target)
            transitions.append((src, sym, dst))
    final_blocks = {block_of[q] for q in d.finals}
    finals = {i for i, block in enumerate(order) if block in final_blocks}
    return Automaton(len(order), d.alphabet, {0}, finals, transitions, True)


def minimal_dfa(a: Automaton, budget: Optional[int] = None) -> Automaton:
    """The canonical minimal complete DFA of L(a): trim, then the subset
    construction only when the input is nondeterministic, then minimize."""
    a = trim(a)
    return minimize(a if a.deterministic else determinize(a, budget))


def includes(a: Automaton, b: Automaton, budget: Optional[int] = None) -> bool:
    """True iff L(a) contains L(b); decided by emptiness of L(b) minus L(a).
    Every state of an intersection is reachable, so that difference is empty
    exactly when it has no final state."""
    _require_same_alphabet(a, b)
    dfa = a if a.deterministic else determinize(a, budget)
    return not intersection(b, complement(dfa)).finals


def equivalent(a: Automaton, b: Automaton, budget: Optional[int] = None) -> bool:
    _require_same_alphabet(a, b)
    return includes(a, b, budget) and includes(b, a, budget)


def difference(a: Automaton, b: Automaton, budget: Optional[int] = None) -> Automaton:
    """L(a) minus L(b), as intersection with the complemented determinization."""
    _require_same_alphabet(a, b)
    return intersection(a, complement(determinize(b, budget)))


def normalize_alphabets(a: Automaton, b: Automaton):
    """Re-index both automata onto the merged alphabet (a's symbols first,
    then b's extras in b's order)."""
    merged = list(a.alphabet)
    have = set(merged)
    for name in b.alphabet:
        if name not in have:
            merged.append(name)
            have.add(name)

    def reindex(x: Automaton) -> Automaton:
        if tuple(merged) == x.alphabet:
            return x
        transitions = {
            (s, x.alphabet[sym], t) for s, sym, t in x.transitions
        }
        return Automaton(x.state_count, merged, x.initials, x.finals,
                         transitions, x.deterministic, x.state_labels)

    return reindex(a), reindex(b)


# ---------------------------------------------------------------------------
# JSON interchange

_SCHEMA_KEYS = ("alphabet", "states", "initials", "finals", "transitions")


def automaton_to_dict(a: Automaton) -> dict:
    return {
        "alphabet": list(a.alphabet),
        "states": a.state_count,
        "initials": sorted(a.initials),
        "finals": sorted(a.finals),
        "deterministic": a.deterministic,
        "transitions": sorted(
            [s, a.alphabet[sym], t] for s, sym, t in a.transitions
        ),
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
    if not isinstance(states, int) or states < 0:
        raise SchemaError("states: must be a non-negative integer")
    for field in ("initials", "finals"):
        ids = data[field]
        if not isinstance(ids, list):
            raise SchemaError(f"{field}: must be a list of state ids")
        for i, q in enumerate(ids):
            if not isinstance(q, int) or not (0 <= q < states):
                raise SchemaError(
                    f"{field}[{i}]: state id {q!r} out of range (states={states})")
    transitions = data["transitions"]
    if not isinstance(transitions, list):
        raise SchemaError("transitions: must be a list of [source, symbol, target]")
    triples = []
    for i, item in enumerate(transitions):
        if not (isinstance(item, list) and len(item) == 3):
            raise SchemaError(f"transitions[{i}]: expected [source, symbol, target]")
        src, sym, dst = item
        if not isinstance(src, int) or not (0 <= src < states):
            raise SchemaError(
                f"transitions[{i}]: source {src!r} out of range (states={states})")
        if not isinstance(dst, int) or not (0 <= dst < states):
            raise SchemaError(
                f"transitions[{i}]: target {dst!r} out of range (states={states})")
        if not isinstance(sym, str) or sym not in seen:
            raise SchemaError(f"transitions[{i}]: unknown symbol {sym!r}")
        triples.append((src, sym, dst))
    deterministic = data.get("deterministic", False)
    if not isinstance(deterministic, bool):
        raise SchemaError("deterministic: must be a JSON boolean (true or false)")
    try:
        return Automaton(states, alphabet, data["initials"], data["finals"],
                         triples, deterministic)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def load_automaton(path) -> Automaton:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: {exc}") from None
    return automaton_from_dict(data)


def save_automaton(a: Automaton, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(automaton_to_dict(a), handle, indent=2, sort_keys=True)
        handle.write("\n")
