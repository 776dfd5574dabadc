"""Closure constructions, cross-checked against itertools-based subsequence
enumeration."""
import random
from itertools import combinations

import pytest

from ptsep import (
    Automaton,
    BudgetExceeded,
    automaton_to_dict,
    decide_separability,
    determinize,
    down_determinize,
    gen_exp,
    gen_quadratic,
    includes,
    is_empty,
    is_subsequence,
    minimal_dfa,
)
from ptsep.automata import strongly_connected_components
from conftest import (
    accepted_set,
    all_words,
    down_closure,
    empty_language,
    ends_with,
    equivalent,
    literal,
    random_nfa,
    sigma_star,
)


def brute_subsequences(word):
    out = set()
    for r in range(len(word) + 1):
        for picks in combinations(range(len(word)), r):
            out.add(tuple(word[i] for i in picks))
    return out


def test_is_subsequence_basics():
    assert is_subsequence((), ("x", "y"))
    assert is_subsequence(("a", "b"), ("a", "x", "b", "y"))
    assert not is_subsequence(("b", "a"), ("a", "b"))


def test_is_subsequence_exp_prefix():
    u2 = ("b", "a1", "b", "a2", "b", "a1")
    assert is_subsequence(("b", "a1"), u2)


def test_is_subsequence_matches_brute():
    for v in all_words(("a", "b"), 4):
        for w in all_words(("a", "b"), 5):
            expected = v in brute_subsequences(w)
            assert is_subsequence(v, w) == expected


def test_down_closure_of_literal():
    ab = literal(("a", "b"), ("a", "b"))
    down = down_closure(ab)
    expected = brute_subsequences(("a", "b"))
    assert accepted_set(down, 4) == expected
    # membership oracle equivalence for single-word languages
    for w in all_words(("a", "b"), 4):
        single = literal(w, ("a", "b"))
        d = down_closure(single)
        for v in all_words(("a", "b"), 4):
            assert d.accepts(v) == is_subsequence(v, w)


def test_down_closure_sigma_star_b():
    ends_b = ends_with("b", ("a", "b"))
    assert equivalent(down_closure(ends_b), sigma_star(("a", "b")))


def test_down_closure_empty():
    assert is_empty(down_closure(empty_language(("a",))))


def test_down_closure_state_ids_preserved():
    a = ends_with("b", ("a", "b"))
    d = down_closure(a)
    assert d.state_count == a.state_count
    assert d.initials == a.initials


def test_closure_properties_on_random_nfas():
    rng = random.Random(31)
    for _ in range(20):
        a = random_nfa(rng)
        down = down_determinize(a)
        # extensive
        assert includes(down, a)
        # idempotent at the language level
        assert equivalent(down_determinize(down), down)
        if not is_empty(a):
            # eps embeds into any word of a nonempty language
            assert down.accepts(())


def test_closure_monotone():
    rng = random.Random(37)
    for _ in range(20):
        a = random_nfa(rng)
        b = random_nfa(rng)
        if not includes(b, a):
            continue
        assert includes(down_determinize(b), down_determinize(a))


def test_down_determinize_matches_plain_path():
    rng = random.Random(41)
    for _ in range(40):
        a = random_nfa(rng, max_states=4, density=0.35)
        fused = down_determinize(a)
        assert fused.deterministic
        assert equivalent(fused, down_closure(a))


def test_subset_construction_enforces_budget_on_both_routes():
    # {ab, aa} with a nondeterministic first move; 4 subsets on either route
    nfa = Automaton(4, ("a", "b"), {0}, {3},
                    {(0, "a", 1), (0, "a", 2), (1, "b", 3), (2, "a", 3)})
    # one state looping on its only letter: the start subset counts too
    loop = Automaton(1, ("a",), {0}, {0}, {(0, "a", 0)})
    for construct in (determinize, down_determinize):
        assert construct(nfa, budget=4).state_count == 4
        with pytest.raises(BudgetExceeded):
            construct(nfa, budget=3)
        assert construct(loop, budget=1).state_count == 1
        with pytest.raises(BudgetExceeded):
            construct(loop, budget=0)


def test_budget_errors_name_the_construction_and_the_chain_step():
    nfa = Automaton(4, ("a", "b"), {0}, {3},
                    {(0, "a", 1), (0, "a", 2), (1, "b", 3), (2, "a", 3)})
    with pytest.raises(BudgetExceeded, match="^subset construction exceeded budget of 3 states$"):
        determinize(nfa, budget=3)
    with pytest.raises(BudgetExceeded,
                       match="^down-closure subset construction exceeded budget of 3 states$"):
        down_determinize(nfa, budget=3)
    # quadratic(4): its NFA side takes 7 subsets, a down-closure of chain step 2 takes 15
    inst = gen_quadratic(4)
    with pytest.raises(BudgetExceeded, match="^subset construction exceeded budget of 4 states$"):
        decide_separability(inst.left, inst.right, budget=4)
    with pytest.raises(BudgetExceeded, match="^down-closure subset construction exceeded "
                                             "budget of 7 states at chain step 2$"):
        decide_separability(inst.left, inst.right, budget=7)


def _closure_draw(rng):
    """A random NFA, 1-7 states over 2-3 letters, with state ids shuffled and,
    in half of the draws, a cycle of moves through two or more states."""
    n = rng.randint(1, 7)
    alphabet = ("a", "b", "c")[: rng.randint(2, 3)]
    ids = list(range(n))
    rng.shuffle(ids)
    triples = {(rng.randrange(n), rng.choice(alphabet), rng.randrange(n))
               for _ in range(rng.randint(0, 2 * n))}
    if n > 1 and rng.random() < 0.5:
        loop = ids[: rng.randint(2, n)]
        triples |= {(s, rng.choice(alphabet), t) for s, t in zip(loop, loop[1:] + loop[:1])}
    initials = {q for q in range(n) if rng.random() < 0.3} or {ids[0]}
    finals = {q for q in range(n) if rng.random() < 0.3}
    return Automaton(n, alphabet, initials, finals, triples)


def test_down_determinize_matches_reference_closure():
    # the closed-subset DFA has the language of the reference down-closure
    # and never more states than the plain subset construction of it
    rng = random.Random(9101)
    cyclic = 0
    for _ in range(600):
        a = _closure_draw(rng)
        silent = [[t for s, _, t in a.transitions if s == q] for q in range(a.state_count)]
        cyclic += any(len(comp) > 1 for comp in strongly_connected_components(silent))
        reference = down_closure(a)
        closed = down_determinize(a)
        assert automaton_to_dict(minimal_dfa(closed)) == automaton_to_dict(minimal_dfa(reference))
        assert closed.state_count <= determinize(reference).state_count
    assert cyclic >= 200


def test_word_embeds_into_language():
    exp1 = gen_exp(1)
    # a1 embeds into a1b, confirmed by enumerating words of length <= 2
    short = accepted_set(exp1.right, 2)
    assert any(is_subsequence(("a1",), w) for w in short)
    assert down_determinize(exp1.right).accepts(("a1",))
    assert down_determinize(exp1.right).accepts(())
    assert not down_determinize(empty_language(("a",))).accepts(("a",))


def test_language_embeds():
    # L(x) embeds into L(y) when down(L(y)) includes L(x)
    full = sigma_star(("a", "b"))
    a = ends_with("a", ("a", "b"))
    assert includes(down_determinize(a), empty_language(("a", "b")))
    assert includes(down_determinize(a), a)
    assert includes(down_determinize(a), full)  # every w embeds into wa
    assert not includes(down_determinize(empty_language(("a", "b"))), a)
