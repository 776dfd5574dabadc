"""Pattern detection and prefix-tower heights, cross-validated against the
brute-force search and graph reachability."""
import math
import random

import pytest

from ptsep import (
    Automaton,
    brute_max_tower_height,
    check_tower,
    determinize,
    find_pattern,
    gen_2exp,
    gen_exp,
    gen_expdfa,
    gen_mcvp,
    gen_quadratic,
    gen_reachability,
    intersection,
    is_empty,
    materialize_prefix_tower,
    max_prefix_tower_height,
    minimal_dfa,
    reachability,
    verify_tower,
)
from ptsep.families import Circuit, Gate
from conftest import (
    alternation_height,
    empty_language,
    literal,
    random_complete_dfa,
    random_nfa,
    reachable_pairs,
)


def test_pattern_requires_disjoint():
    one = literal(("a",), ("a",))
    with pytest.raises(ValueError):
        find_pattern(one, one)
    with pytest.raises(ValueError):
        max_prefix_tower_height(one, one)


def test_no_pattern_for_first_letter_split():
    a = Automaton(2, ("a", "b"), {0}, {1}, {(0, "a", 1), (1, "b", 0)}, True)
    b = Automaton(2, ("a", "b"), {0}, {1}, {(0, "b", 1), (1, "a", 0)}, True)
    assert find_pattern(a, b) is None
    assert max_prefix_tower_height(a, b) == 1


def test_no_pattern_for_exp_family():
    inst = gen_exp(2)
    assert find_pattern(inst.left, inst.right) is None


def test_pattern_for_reachable_instance():
    left, right = gen_reachability(2, [(0, 1)], 0, 1)
    pattern = find_pattern(left, right)
    assert pattern is not None
    assert max_prefix_tower_height(left, right) == math.inf
    # the materialized tower is a genuine prefix tower of any length
    for count in (0, 2, 5):
        tower = materialize_prefix_tower(pattern, count)
        assert tower.height == count
        assert verify_tower(left, right, tower)
    two = materialize_prefix_tower(pattern, 2)
    first, second = two.elements
    assert first[0] == pattern.u + pattern.x
    assert second[0] == pattern.u + pattern.x + pattern.u1 + pattern.y


def test_no_pattern_for_unreachable_instance():
    left, right = gen_reachability(3, [(1, 2)], 0, 2)
    assert find_pattern(left, right) is None
    assert max_prefix_tower_height(left, right) != math.inf


def test_pattern_for_true_circuit():
    left, right = gen_mcvp(Circuit((Gate("ONE"),)))
    pattern = find_pattern(left, right)
    assert pattern is not None
    tower = materialize_prefix_tower(pattern, 6)
    assert verify_tower(left, right, tower)
    # prefix towers are subsequence towers too
    from ptsep import Tower

    as_sub = Tower("subsequence", tower.elements)
    assert verify_tower(left, right, as_sub)


def test_pattern_sides():
    left, right = gen_reachability(2, [(0, 1)], 0, 1)
    pattern = find_pattern(left, right)
    pa, pb = pattern.state_pairs[pattern.sigma1]
    assert pa in left.finals
    pa, pb = pattern.state_pairs[pattern.tau1]
    assert pb in right.finals
    # product states are numbered in sorted pair order
    assert pattern.state_pairs == tuple(sorted(reachable_pairs(left, right)))
    data = pattern.to_dict()
    assert set(data["words"]) == {"u", "x", "y", "u1", "u2"}


def test_exp_minimal_dfas_meet_prefix_bound():
    for m in (1, 2, 3):
        inst = gen_exp(m)
        da = minimal_dfa(determinize(inst.left))
        db = minimal_dfa(determinize(inst.right))
        height = max_prefix_tower_height(da, db)
        assert height == 2 ** (m + 1)
        assert height == (da.state_count * db.state_count) // 2


def test_singleton_pair_heights():
    k = literal(("a",), ("a", "b"))
    l = literal(("b",), ("a", "b"))
    assert max_prefix_tower_height(k, l) == 1
    # L = {a}, R = {ab}: the trim product stops at the pair reached by a,
    # where only the right side moves (on b), so ab lives in R's tail alone
    prefix_pair = literal(("a",), ("a", "b")), literal(("a", "b"), ("a", "b"))
    assert max_prefix_tower_height(*prefix_pair) == alternation_height(*prefix_pair) == 2
    assert max_prefix_tower_height(*reversed(prefix_pair)) == 2
    # a(ba)* against (ab)+: a < ab < aba < ... cycles through two states
    odd = Automaton(3, ("a", "b"), {0}, {1}, {(0, "a", 1), (1, "b", 2), (2, "a", 1)}, True)
    even = Automaton(3, ("a", "b"), {0}, {2}, {(0, "a", 1), (1, "b", 2), (2, "a", 1)}, True)
    assert max_prefix_tower_height(odd, even) == math.inf


def assert_pattern_tower(a, b, pattern):
    """The pattern is anchored at the least state of its component, and its
    materialized tower is a genuine prefix tower."""
    assert pattern.sigma == pattern.tau == pattern.scc[0]
    assert check_tower(a, b, materialize_prefix_tower(pattern, 6)) is None


def test_agreement_pattern_vs_height_vs_brute(rng):
    agree = 0
    for _ in range(120):
        a = random_nfa(rng, max_states=3, alphabet=("a", "b"), density=0.3)
        b = random_nfa(rng, max_states=3, alphabet=("a", "b"), density=0.3)
        if not is_empty(intersection(a, b)):
            continue
        pattern = find_pattern(a, b)
        height = max_prefix_tower_height(a, b)
        assert (pattern is not None) == (height == math.inf)
        if pattern is not None:
            assert pattern.state_pairs == tuple(sorted(reachable_pairs(a, b)))
            assert_pattern_tower(a, b, pattern)
        brute = brute_max_tower_height(a, b, "prefix", max_len=10, budget=4096)
        if height == math.inf:
            assert not brute.exact
        else:
            assert brute.exact
            assert brute.height == height
        agree += 1
    assert agree >= 50

    # graph reductions, half of them reachable: a pattern exactly when t is
    # reachable from s, in both variants
    graphs = random.Random(8102)
    wanted = {True: 20, False: 20}
    patterns = exact = 0
    while any(wanted.values()):
        n = graphs.randint(2, 4)
        edges = [(u, v) for u in range(n) for v in range(n) if graphs.random() < 0.3]
        s, t = graphs.sample(range(n), 2)
        reachable = reachability(n, edges, s, t)
        if not wanted[reachable]:
            continue
        wanted[reachable] -= 1
        for dfa in (False, True):
            a, b = gen_reachability(n, edges, s, t, dfa=dfa)
            pattern = find_pattern(a, b)
            height = max_prefix_tower_height(a, b)
            assert (pattern is not None) == (height == math.inf) == reachable
            assert height == alternation_height(a, b)
            if pattern is not None:
                assert_pattern_tower(a, b, pattern)
                patterns += 1
            # the longest horizon within 4096 words
            k = len(a.alphabet)
            max_len = max(length for length in range(1, 11)
                          if sum(k ** i for i in range(length + 1)) <= 4096)
            brute = brute_max_tower_height(a, b, "prefix", max_len=max_len, budget=4096)
            if brute.exact:
                assert brute.height == height
                exact += 1
    assert patterns >= 30 and exact >= 30


def test_height_matches_alternation_graph_reference():
    draws = random.Random(8101)
    compared = overlapping = 0
    for i in range(2400):
        alphabet = ("a", "b", "c")[:draws.randint(2, 3)]
        if i % 2:
            a, b = (random_nfa(draws, max_states=6, alphabet=alphabet) for _ in "ab")
        else:
            a, b = (random_complete_dfa(draws, max_states=6, alphabet=alphabet)
                    for _ in "ab")
        try:
            expected = alternation_height(a, b)
        except ValueError:
            with pytest.raises(ValueError, match="languages must be disjoint"):
                max_prefix_tower_height(a, b)
            overlapping += 1
            continue
        assert max_prefix_tower_height(a, b) == expected
        compared += 1
    assert compared >= 1000 and overlapping >= 500
    families = ((gen_quadratic, range(4, 17, 2)), (gen_exp, range(1, 10)),
                (gen_2exp, range(1, 6)), (gen_expdfa, range(1, 7)))
    for gen, params in families:
        for param in params:
            inst = gen(param)
            assert (max_prefix_tower_height(inst.left, inst.right)
                    == alternation_height(inst.left, inst.right))


def test_dfa_bound_on_random_instances(rng):
    # the mn/2 bound needs mn >= 2: a single accepting state against a
    # single rejecting one already carries a height-1 tower
    checked = 0
    for _ in range(120):
        a = random_complete_dfa(rng, max_states=4)
        b = random_complete_dfa(rng, max_states=4)
        if a.state_count * b.state_count < 2:
            continue
        if not is_empty(intersection(a, b)):
            continue
        height = max_prefix_tower_height(a, b)
        if height == math.inf:
            continue
        assert height <= (a.state_count * b.state_count) // 2
        # NFA bound from the determinization corollary
        assert height <= 2 ** (a.state_count + b.state_count - 1)
        checked += 1
    assert checked >= 20


def test_reachability_reduction_against_bfs(rng):
    for _ in range(30):
        n = rng.randint(2, 8)
        edges = []
        for u in range(n):
            for v in range(n):
                if rng.random() < 0.18:
                    edges.append((u, v))
        s, t = rng.randrange(n), rng.randrange(n)
        if s == t:
            continue
        expected = reachability(n, edges, s, t)
        left, right = gen_reachability(n, edges, s, t)
        assert (find_pattern(left, right) is not None) == expected
        # the minimal-DFA variant behaves identically
        left2, right2 = gen_reachability(n, edges, s, t, dfa=True)
        assert (find_pattern(left2, right2) is not None) == expected


def random_sparse(rng, alphabet, deterministic):
    """A partial automaton with about one move per state, so a word often
    moves on one side only."""
    n = rng.randint(1, 5)
    triples = set()
    for src in range(n):
        for sym in alphabet:
            if rng.random() < 1.5 / len(alphabet):
                targets = [rng.randrange(n)] if deterministic else rng.sample(
                    range(n), rng.randint(1, 2) if n > 1 else 1)
                triples.update((src, sym, dst) for dst in targets)
    initials = {0} if deterministic else {q for q in range(n) if rng.random() < 0.4} or {0}
    finals = {q for q in range(n) if rng.random() < 0.4}
    return Automaton(n, alphabet, initials, finals, triples, deterministic)


def test_single_side_tails_match_the_completed_reference():
    # the kernel walks the trim product and counts a letter that moves on
    # one side only as a one-element tail; the reference completes both
    draws = random.Random(1209)
    compared = positive = empty = 0
    while compared < 400:
        alphabet = tuple(f"s{i}" for i in range(draws.randint(6, 12)))
        deterministic = draws.random() < 0.5
        a, b = (random_sparse(draws, alphabet, deterministic) for _ in "ab")
        try:
            expected = alternation_height(a, b)
        except ValueError:
            continue
        height = max_prefix_tower_height(a, b)
        assert height == expected
        compared += 1
        empty += is_empty(a) or is_empty(b)
        positive += 0 < height < math.inf
    assert positive >= 100 and empty >= 20


def test_empty_sides_have_height_of_the_other_side():
    alphabet = tuple("abcdefg")
    dead = Automaton(2, alphabet, {0}, {1}, {(0, "a", 0)}, True)
    word = literal(("a", "b"), alphabet)
    for e in (empty_language(alphabet), dead):
        assert max_prefix_tower_height(e, e) == alternation_height(e, e) == 0
        assert max_prefix_tower_height(e, word) == alternation_height(e, word) == 1
        assert max_prefix_tower_height(word, e) == alternation_height(word, e) == 1

