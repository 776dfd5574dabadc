"""Shared helpers: tiny automaton builders, seeded random instances, an
independent Moore-style minimization used as an oracle for the fast path, and
reference constructions (down-closure NFA, the refinement chain by its
definition, union, equivalence, self-loop letters, the PT conditions by plain
searches, the alternation-graph prefix-tower height, the state-set superword
search) that the package does not need."""
from __future__ import annotations

import math
import random
from collections import deque
from itertools import product as iter_product

import pytest

from ptsep import Automaton, Circuit, Gate, automaton_to_dict, intersection, minimal_dfa, trim


def dfa(alphabet, transitions, initial, finals, states=None):
    """Build a DFA from a {state: {symbol: state}} table."""
    if states is None:
        states = set(transitions)
        for row in transitions.values():
            states.update(row.values())
        states.add(initial)
        states |= set(finals)
        states = max(states) + 1
    triples = {
        (src, sym, dst)
        for src, row in transitions.items()
        for sym, dst in row.items()
    }
    return Automaton(states, alphabet, {initial}, finals, triples, True)


def nfa(alphabet, transitions, initials, finals, states):
    """Build an NFA from (src, symbol, dst) triples."""
    return Automaton(states, alphabet, initials, finals, transitions)


def literal(word, alphabet):
    """Automaton accepting exactly one word."""
    n = len(word) + 1
    triples = {(i, sym, i + 1) for i, sym in enumerate(word)}
    return Automaton(n, alphabet, {0}, {n - 1}, triples, True)


def sigma_star(alphabet):
    return Automaton(1, alphabet, {0}, {0},
                     {(0, sym, 0) for sym in alphabet}, True)


def empty_language(alphabet):
    return Automaton(1, alphabet, {0}, set(), set(), True)


def ends_with(symbol, alphabet):
    triples = {(0, sym, 0) for sym in alphabet}
    triples.add((0, symbol, 1))
    return Automaton(2, alphabet, {0}, {1}, triples)


def random_nfa(rng: random.Random, max_states=3, alphabet=("a", "b"),
               density=0.3):
    n = rng.randint(1, max_states)
    triples = set()
    for src in range(n):
        for sym in alphabet:
            for dst in range(n):
                if rng.random() < density:
                    triples.add((src, sym, dst))
    initials = {q for q in range(n) if rng.random() < 0.5} or {rng.randrange(n)}
    finals = {q for q in range(n) if rng.random() < 0.4}
    return Automaton(n, alphabet, initials, finals, triples)


def random_circuit(rng: random.Random, max_gates):
    n = rng.randint(1, max_gates)
    gates = []
    for i in range(1, n + 1):
        if i <= 2 or rng.random() < 0.3:
            gates.append(Gate(rng.choice(("ZERO", "ONE"))))
        else:
            kind = rng.choice(("AND", "OR"))
            gates.append(Gate(kind, rng.randint(1, i - 1), rng.randint(1, i - 1)))
    return Circuit(tuple(gates))


def random_complete_dfa(rng: random.Random, max_states=4, alphabet=("a", "b")):
    n = rng.randint(1, max_states)
    triples = set()
    for src in range(n):
        for sym in alphabet:
            triples.add((src, sym, rng.randrange(n)))
    finals = {q for q in range(n) if rng.random() < 0.4}
    return Automaton(n, alphabet, {rng.randrange(n)}, finals, triples, True)


def reachable_pairs(a, b):
    """State pairs that one common word reaches from a pair of initials."""
    seen = {(p, q) for p in a.initials for q in b.initials}
    stack = list(seen)
    while stack:
        p, q = stack.pop()
        for sp, sym, tp in a.transitions:
            for sq, sym2, tq in b.transitions:
                if sp == p and sq == q and sym == sym2 and (tp, tq) not in seen:
                    seen.add((tp, tq))
                    stack.append((tp, tq))
    return seen


def all_words(alphabet, max_len):
    for length in range(max_len + 1):
        yield from iter_product(alphabet, repeat=length)


def accepted_set(a, max_len):
    return {w for w in all_words(a.alphabet, max_len) if a.accepts(w)}


def moore_minimize(d) -> dict:
    """Independent minimal DFA, as an ``automaton_to_dict`` document: completes
    the DFA, restricts to reachable states, refines classes by (finality,
    class signature) until stable, then numbers the classes in BFS order from
    the initial class, letters in alphabet order.  Used as an oracle for
    minimal_dfa()."""
    from ptsep import complete

    d = complete(d)
    m = len(d.alphabet)
    delta = {}
    for s, sym, t in d.transitions:
        delta[(s, sym)] = t
    start = next(iter(d.initials))
    reach = {start}
    stack = [start]
    while stack:
        q = stack.pop()
        for sym in range(m):
            t = delta[(q, sym)]
            if t not in reach:
                reach.add(t)
                stack.append(t)
    states = sorted(reach)
    cls = {q: (q in d.finals) for q in states}
    while True:
        sig = {
            q: (cls[q],) + tuple(cls[delta[(q, sym)]] for sym in range(m))
            for q in states
        }
        renum = {}
        new_cls = {}
        for q in states:
            new_cls[q] = renum.setdefault(sig[q], len(renum))
        if len(set(new_cls.values())) == len(set(cls.values())):
            break
        cls = new_cls
    member = {c: q for q, c in new_cls.items()}
    order = [new_cls[start]]
    number = {order[0]: 0}
    transitions = []
    for i, c in enumerate(order):
        for sym in range(m):
            target = new_cls[delta[(member[c], sym)]]
            if target not in number:
                number[target] = len(order)
                order.append(target)
            transitions.append([i, d.alphabet[sym], number[target]])
    return {
        "alphabet": list(d.alphabet),
        "states": len(order),
        "initials": [0],
        "finals": [i for i, c in enumerate(order) if member[c] in d.finals],
        "deterministic": True,
        "transitions": sorted(transitions),
    }


def moore_minimize_size(d) -> int:
    return moore_minimize(d)["states"]


def subset_construction(a):
    """Independent subset construction: (document, subsets), the DFA as an
    ``automaton_to_dict`` document and its subsets of states as frozensets,
    numbered in BFS order with letters in alphabet order, the empty subset a
    state like any other.  The reference for determinize()."""
    moves = {}
    for s, sym, t in a.transitions:
        moves.setdefault((s, sym), set()).add(t)
    order = [frozenset(a.initials)]
    number = {order[0]: 0}
    transitions = []
    for i, subset in enumerate(order):
        for sym, name in enumerate(a.alphabet):
            target = frozenset(t for s in subset for t in moves.get((s, sym), ()))
            if target not in number:
                number[target] = len(order)
                order.append(target)
            transitions.append([i, name, number[target]])
    return {
        "alphabet": list(a.alphabet),
        "states": len(order),
        "initials": [0],
        "finals": [i for i, subset in enumerate(order) if subset & a.finals],
        "deterministic": True,
        "transitions": sorted(transitions),
    }, order


def down_closure(a):
    """NFA for all subsequences of L(a) on the same state ids: a silent move
    runs alongside every transition, and the silent moves are eliminated by
    a search per state.  The reference for down_determinize()."""
    succ = [set() for _ in range(a.state_count)]
    for s, _, t in a.transitions:
        succ[s].add(t)
    transitions, finals = set(), set()
    for q in range(a.state_count):
        closure, stack = {q}, [q]
        while stack:
            for t in succ[stack.pop()]:
                if t not in closure:
                    closure.add(t)
                    stack.append(t)
        transitions |= {(q, sym, t) for s, sym, t in a.transitions if s in closure}
        if closure & a.finals:
            finals.add(q)
    return Automaton(a.state_count, a.alphabet, a.initials, finals, transitions)


def chain_reference(left, right):
    """The refinement chain by its definition: L_k = L0 n down(R_{k-1}) and
    R_k = R0 n down(L_k), with R_0 = R0, each the trimmed minimal DFA of an
    intersection with the minimal DFA of a :func:`down_closure`.  It stops
    by decide's rule: at the first empty L_k, or at the first pair equal to
    the pair before it (before step 1, the originals).  Returns (originals,
    steps, downs): the trimmed minimal L0 and R0, the pairs (L_k, R_k), and
    each step's minimal DFAs (down(R_{k-1}), down(L_k))."""
    def meet(base, other):
        down = minimal_dfa(down_closure(other))
        return trim(minimal_dfa(intersection(base, down))), down

    l0, r0 = originals = previous = tuple(trim(minimal_dfa(x)) for x in (left, right))
    steps, downs = [], []
    while True:
        lk, down_r = meet(l0, previous[1])
        rk, down_l = meet(r0, lk)
        steps.append((lk, rk))
        downs.append((down_r, down_l))
        if lk.state_count == 0 or [automaton_to_dict(x) for x in (lk, rk)] == [
                automaton_to_dict(x) for x in previous]:
            return originals, steps, downs
        previous = (lk, rk)


def union(a, b):
    """NFA for L(a) or L(b): the disjoint sum of the two automata."""
    off = a.state_count
    transitions = set(a.transitions)
    for src, sym, dst in b.transitions:
        transitions.add((src + off, sym, dst + off))
    initials = set(a.initials) | {q + off for q in b.initials}
    finals = set(a.finals) | {q + off for q in b.finals}
    return Automaton(off + b.state_count, a.alphabet, initials, finals, transitions)


def equivalent(a, b):
    """Language equality, as inclusion both ways."""
    from ptsep import includes

    return includes(a, b) and includes(b, a)


def self_loop_alphabet(d, q) -> frozenset:
    """The set of letters with a self-loop at state q of a DFA."""
    if not (0 <= q < d.state_count):
        raise ValueError(f"state id {q} out of range")
    return frozenset(d.alphabet[sym] for s, sym, t in d.transitions if s == t == q)


def search(sources, moves):
    """The nodes that ``moves`` (a list of successor lists) reach from
    ``sources``, sources included."""
    seen, stack = set(sources), list(sources)
    while stack:
        for t in moves[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def pt_violation_reference(rows):
    """Reference for the PT conditions on the rows of a minimal complete DFA
    (``rows[q][sym]`` is the target of q on letter id sym), by plain
    searches.  Returns ("cycle", classes) with every set of at least two
    mutually reachable states over the moves that leave their state, as
    sorted tuples; else ("fork", (p, q, q')) for the first pair q < q' in
    order whose backward searches, over the letters that loop on both, share
    a state p other than q and q', p the least; else None."""
    n = len(rows)
    leaving = [[t for t in row.values() if t != s] for s, row in enumerate(rows)]
    forward = [search([q], leaving) for q in range(n)]
    classes = {tuple(sorted(r for r in forward[q] if q in forward[r])) for q in range(n)}
    cycles = {c for c in classes if len(c) > 1}
    if cycles:
        return ("cycle", cycles)
    loops = [{sym for sym, t in row.items() if t == q} for q, row in enumerate(rows)]
    for q in range(n):
        for q2 in range(q + 1, n):
            gamma = loops[q] & loops[q2]
            if not gamma:
                continue
            back = [[] for _ in range(n)]
            for s, row in enumerate(rows):
                for sym in gamma:
                    back[row[sym]].append(s)
            common = (search([q], back) & search([q2], back)) - {q, q2}
            if common:
                return ("fork", (min(common), q, q2))
    return None


def confluence_violation_reference(rows):
    """Reference for the fork that the local-confluence test reports on the
    rows of a minimal complete DFA with no cycle but self-loops, by plain
    searches.  For letter pairs a < b, then states q in order with
    q·a != q·b, it collects the states that a- and b-moves reach from q·a
    and from q·b where both letters loop.  The first q whose two sets are
    disjoint gives ("fork", (q, s, s')), s < s' the least of each set; else
    None."""
    letters = range(len(rows[0]))
    for a in letters:
        for b in letters[a + 1:]:
            moves = [(row[a], row[b]) for row in rows]

            def stable(start):
                return {s for s in search([start], moves) if moves[s] == (s, s)}

            for q, (qa, qb) in enumerate(moves):
                if qa != qb:
                    here, there = stable(qa), stable(qb)
                    if not here & there:
                        return ("fork", (q, *sorted((min(here), min(there)))))
    return None


def is_fork(rows, triple):
    """Whether (p, q, q') are three distinct states of a complete DFA, given
    by its rows, with paths from p to q and to q' over the letters that loop
    on both q and q', by plain search."""
    p, q, q2 = triple
    gamma = [sym for sym, t in rows[q].items() if t == q and rows[q2][sym] == q2]
    moves = [[row[sym] for sym in gamma] for row in rows]
    return len({p, q, q2}) == 3 and {q, q2} <= search([p], moves)


def alternation_height(a, b, budget=None):
    """Reference prefix-tower height: the longest path in the transitive
    alternation graph.  Both inputs become complete DFAs.  Each left-final (X)
    or right-final (Y) state of their reachable product has an edge to every
    state of the other class that a nonempty word leads to, and a cycle means
    an infinite tower."""
    from ptsep import complete, determinize, trim
    from ptsep.automata import bits, mask_of, strongly_connected_components

    da, db = (complete(x) if x.deterministic else determinize(trim(x), budget)
              for x in (a, b))
    moves = [{(s, sym): t for s, sym, t in x.transitions} for x in (da, db)]
    labels = [(p, q) for p in da.initials for q in db.initials]
    index = {pair: i for i, pair in enumerate(labels)}
    succ = []
    for p, q in labels:  # grows while it is scanned
        row = set()
        for sym in range(len(da.alphabet)):
            pair = (moves[0][p, sym], moves[1][q, sym])
            if pair not in index:
                index[pair] = len(labels)
                labels.append(pair)
            row.add(index[pair])
        succ.append(list(row))
    in_x = [p in da.finals for p, _ in labels]
    in_y = [q in db.finals for _, q in labels]
    if any(map(min, in_x, in_y)):
        raise ValueError("languages must be disjoint")
    nodes = [v for v in range(len(labels)) if in_x[v] or in_y[v]]
    if not nodes:
        return 0
    # reach[v]: the states reachable from v, v included, swept to a fixpoint
    reach = [1 << v for v in range(len(labels))]
    changed = True
    while changed:
        changed = False
        for v in reversed(range(len(labels))):
            acc = reach[v]
            for t in succ[v]:
                acc |= reach[t]
            if acc != reach[v]:
                reach[v] = acc
                changed = True
    x_mask = mask_of(v for v in nodes if in_x[v])
    y_mask = mask_of(v for v in nodes if in_y[v])
    node_index = {v: i for i, v in enumerate(nodes)}
    alt_adj = []
    for v in nodes:
        later = 0
        for t in succ[v]:
            later |= reach[t]
        later &= y_mask if in_x[v] else x_mask
        alt_adj.append([node_index[t] for t in bits(later)])
    comps = strongly_connected_components(alt_adj)
    if any(len(comp) > 1 for comp in comps):
        return math.inf
    # components arrive successors first
    height = [0] * len(nodes)
    for (i,) in comps:
        height[i] = 1 + max((height[j] for j in alt_adj[i]), default=0)
    return max(height)


def shortest_superword(w, a):
    """Reference for towers._superword: a breadth-first search over
    (state set of a, length of the prefix of w matched greedily), letters in
    alphabet order, straight on the NFA."""
    w = tuple(w)
    fmask = a.final_mask
    goal = len(w)
    start = (a.initial_mask, 0)
    if start[0] & fmask and goal == 0:
        return ()
    seen = {start}
    queue = deque([(start, ())])
    m = len(a.alphabet)
    while queue:
        (states, pos), word = queue.popleft()
        for sym in range(m):
            nxt = a.step(states, sym)
            if not nxt:
                continue
            npos = pos + 1 if pos < goal and a.alphabet[sym] == w[pos] else pos
            key = (nxt, npos)
            if key in seen:
                continue
            w2 = word + (a.alphabet[sym],)
            if npos == goal and nxt & fmask:
                return w2
            seen.add(key)
            queue.append((key, w2))
    return None


@pytest.fixture
def rng():
    return random.Random(20240817)
