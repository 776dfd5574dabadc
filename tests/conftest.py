"""Shared helpers: tiny automaton builders, seeded random instances, and an
independent Moore-style minimization used as an oracle for the fast path."""
from __future__ import annotations

import random
from itertools import product as iter_product

import pytest

from ptsep import Automaton


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


def random_complete_dfa(rng: random.Random, max_states=4, alphabet=("a", "b")):
    n = rng.randint(1, max_states)
    triples = set()
    for src in range(n):
        for sym in alphabet:
            triples.add((src, sym, rng.randrange(n)))
    finals = {q for q in range(n) if rng.random() < 0.4}
    return Automaton(n, alphabet, {rng.randrange(n)}, finals, triples, True)


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
    minimize()."""
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


@pytest.fixture
def rng():
    return random.Random(20240817)
