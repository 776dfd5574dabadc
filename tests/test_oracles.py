"""The brute-force reference layer itself: enumeration order, budget errors,
and the bounded tower search."""
import random
import time

import pytest

from ptsep import (
    Automaton,
    BudgetExceeded,
    brute_max_tower_height,
    decide_separability,
    enumerate_language,
    gen_exp,
    gen_reachability,
    intersection,
    is_empty,
    reachability,
    upper_bound_height,
)
from ptsep.oracles import HEIGHT_CAP
from conftest import empty_language, ends_with, literal, random_nfa


def test_enumerate_empty_language():
    assert enumerate_language(empty_language(("a", "b")), 4) == []


def test_enumerate_shortlex_order():
    ends_b = ends_with("b", ("a", "b"))
    assert enumerate_language(ends_b, 2) == [("b",), ("a", "b"), ("b", "b")]


def test_enumerate_exp_left():
    # hand-simulation of the two-state fan automaton: state 1 loops on b and
    # falls to the accepting state 0 on a1; state 0 is initial and final
    words = enumerate_language(gen_exp(1).left, 3)
    assert words == [(), ("a1",), ("b", "a1"), ("b", "b", "a1")]


def test_enumerate_budget():
    ends_b = ends_with("b", ("a", "b"))
    with pytest.raises(BudgetExceeded):
        enumerate_language(ends_b, 10, budget=100)
    # the word count is summed only until it passes the budget, so a huge
    # max_len fails at once instead of summing 2**i for every i up to it
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="^enumerating words up to length 1000000 "
                                             "means more than 2000000 words$"):
        enumerate_language(ends_b, 10**6)
    with pytest.raises(BudgetExceeded, match="more than 100 words$"):
        brute_max_tower_height(ends_b, ends_b, "prefix", 10**6, budget=100)
    assert time.perf_counter() - start < 0.5


def test_brute_tower_simple_pair():
    k = literal(("a",), ("a", "b"))
    l = literal(("a", "b"), ("a", "b"))
    result = brute_max_tower_height(k, l, "subsequence", 3)
    assert result == (2, True)


def test_brute_tower_exp1():
    inst = gen_exp(1)
    # no accepted word extends the height-4 chain eps, b, ba1, ba1b
    result = brute_max_tower_height(inst.left, inst.right, "subsequence", 3)
    assert result == (4, True)
    result = brute_max_tower_height(inst.left, inst.right, "subsequence", 4)
    assert result == (4, True)


def test_brute_tower_shared_word_unbounded():
    k = literal(("a",), ("a",))
    result = brute_max_tower_height(k, k, "subsequence", 3)
    assert result == (HEIGHT_CAP, False)


def test_brute_tower_prefix_relation():
    inst = gen_exp(1)
    result = brute_max_tower_height(inst.left, inst.right, "prefix", 4)
    assert result == (4, True)
    # a(ba)* vs b(ab)*: prefix towers stop at height 1
    a = Automaton(2, ("a", "b"), {0}, {1}, {(0, "a", 1), (1, "b", 0)}, True)
    b = Automaton(2, ("a", "b"), {0}, {1}, {(0, "b", 1), (1, "a", 0)}, True)
    assert brute_max_tower_height(a, b, "prefix", 6) == (1, True)
    # a horizon is no proof of finiteness: the path 0 -> 1 -> 2 gives an
    # infinite tower, and the tallest tower inside length 3 has a top that
    # neither side extends
    left, right = gen_reachability(3, [(0, 1), (1, 2)], 0, 2, dfa=True)
    assert brute_max_tower_height(left, right, "prefix", 3) == (3, False)
    # nor is an empty horizon: a^11, a^12 is a tower beyond length 10
    far = literal(("a",) * 11, ("a",)), literal(("a",) * 12, ("a",))
    assert brute_max_tower_height(*far, "prefix", 10) == (0, False)
    # but subsequence towers keep alternating: a, bab, ababa, ... and every
    # maximal chain inside the horizon is extendable
    sub = brute_max_tower_height(a, b, "subsequence", 6)
    assert not sub.exact


def test_brute_tower_empty_languages():
    e = empty_language(("a",))
    assert brute_max_tower_height(e, e, "subsequence", 3) == (0, True)
    one = literal(("a",), ("a",))
    assert brute_max_tower_height(one, e, "subsequence", 3) == (1, True)


def test_brute_height_respects_closed_form_bound():
    # separable instances never beat the closed-form bound
    for m in (0, 1, 2):
        inst = gen_exp(m)
        n = max(inst.left.state_count, inst.right.state_count)
        bound = upper_bound_height(n, len(inst.left.alphabet))
        result = brute_max_tower_height(inst.left, inst.right, "subsequence",
                                        max_len=4)
        assert result.height <= bound


def test_reachability():
    assert reachability(3, [(0, 1), (1, 2)], 0, 2)
    assert reachability(2, [], 1, 1)
    assert not reachability(2, [], 0, 1)
    assert not reachability(4, [(1, 2), (2, 3)], 0, 3)


def test_brute_tower_paths_of_two_edges_are_not_exact():
    # the tallest towers inside length 3 end in words that no longer extend,
    # while lower chains alternate past the horizon forever: a path of two
    # edges from s to t, in each of its 6 labellings, as a minimal-DFA pair
    paths = [([(0, 1), (1, 2)], 0, 2), ([(0, 1), (2, 0)], 2, 1),
             ([(0, 2), (1, 0)], 1, 2), ([(0, 2), (2, 1)], 0, 1),
             ([(1, 0), (2, 1)], 2, 0), ([(1, 2), (2, 0)], 1, 0)]
    for edges, s, t in paths:
        left, right = gen_reachability(3, edges, s, t, dfa=True)
        assert decide_separability(left, right).status == "infinite_tower"
        assert brute_max_tower_height(left, right, "subsequence", 3) == (3, False)


def test_brute_tower_exact_only_where_the_chain_is_finite():
    # 200 random pairs of disjoint languages and 200 graph reductions, where
    # infinite towers that share no word are common
    draws = random.Random(1204)
    pairs = []
    while len(pairs) < 200:
        a, b = (random_nfa(draws, max_states=4, alphabet=("a", "b"), density=0.3)
                for _ in "ab")
        if is_empty(intersection(a, b)):
            pairs.append((a, b, 6))
    while len(pairs) < 400:
        n = draws.randint(2, 4)
        edges = [(u, v) for u in range(n) for v in range(n) if draws.random() < 0.3]
        s, t = draws.sample(range(n), 2)
        a, b = gen_reachability(n, edges, s, t, dfa=draws.random() < 0.5)
        k = len(a.alphabet)
        max_len = max(length for length in range(1, 7)
                      if sum(k ** i for i in range(length + 1)) <= 4096)
        pairs.append((a, b, max_len))
    exact = infinite = 0
    for a, b, max_len in pairs:
        brute = brute_max_tower_height(a, b, "subsequence", max_len, budget=4096)
        status = decide_separability(a, b, max_steps=64).status
        assert status in ("separable", "infinite_tower")
        if status == "infinite_tower":
            assert not brute.exact
            infinite += 1
        exact += brute.exact
    assert exact >= 250 and infinite >= 50
