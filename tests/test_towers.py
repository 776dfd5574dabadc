"""The refinement chain, separator construction, tower verification, and the
closed-form height bound."""
import random

import pytest

from ptsep import (
    Automaton,
    Tower,
    automaton_to_dict,
    brute_max_tower_height,
    check_tower,
    complement,
    decide_separability,
    determinize,
    down_determinize,
    gen_2exp,
    gen_exp,
    gen_expdfa,
    gen_mcvp,
    gen_quadratic,
    includes,
    intersection,
    is_empty,
    is_piecewise_testable,
    minimal_dfa,
    refine_step,
    trim,
    upper_bound_height,
    verify_tower,
)
from ptsep.automata import _minimal
from ptsep.families import Circuit, Gate
from ptsep.towers import materialize_witness, shortest_superword_in, shortest_word
from conftest import (
    empty_language,
    equivalent,
    literal,
    random_circuit,
    random_complete_dfa,
    random_nfa,
    shortest_superword,
    sigma_star,
    union,
)


def chain_pair(alphabet=("a", "b")):
    # a(ba)* and b(ab)*: the classic mutually embeddable, disjoint pair
    a = Automaton(2, alphabet, {0}, {1}, {(0, "a", 1), (1, "b", 0)}, True)
    b = Automaton(2, alphabet, {0}, {1}, {(0, "b", 1), (1, "a", 0)}, True)
    return a, b


def test_verify_tower_families():
    quad = gen_quadratic(6)
    assert verify_tower(quad.left, quad.right, quad.tower)
    assert quad.tower.height == 31
    exp3 = gen_exp(3)
    assert verify_tower(exp3.left, exp3.right, exp3.tower)
    assert exp3.tower.height == 16


def test_verify_tower_rejects_bad_towers():
    inst = gen_exp(1)
    same_side = Tower("subsequence", (((), "left"), (("a1",), "left")))
    assert not verify_tower(inst.left, inst.right, same_side)
    assert "side" in check_tower(inst.left, inst.right, same_side)
    not_related = Tower("subsequence", ((("a1",), "left"), (("b",), "right")))
    assert "subsequence" in check_tower(inst.left, inst.right, not_related)
    not_member = Tower("subsequence", ((("b",), "left"),))
    assert "not accepted" in check_tower(inst.left, inst.right, not_member)
    empty = Tower("subsequence", ())
    assert verify_tower(inst.left, inst.right, empty)


def test_upper_bound_height_values():
    assert upper_bound_height(6, 2) == 43
    assert 43 >= gen_quadratic(6).expected_height
    assert upper_bound_height(1, 5) == 6
    assert upper_bound_height(2, 1) == 3
    with pytest.raises(ValueError):
        upper_bound_height(0, 2)


def test_refine_step_trivial():
    alphabet = ("a",)
    empty = empty_language(alphabet)
    lk, rk = refine_step(empty, empty, empty)
    assert is_empty(lk) and is_empty(rk)


def test_refine_step_shared_singleton_fixpoint():
    word_a = literal(("a",), ("a",))
    lk, rk = refine_step(word_a, word_a, word_a)
    assert equivalent(lk, word_a)
    assert equivalent(rk, word_a)


def test_refine_step_chain_reaches_empty():
    inst = gen_quadratic(4)
    cur_l, cur_r = inst.left, inst.right
    for _ in range(40):
        cur_l, cur_r = refine_step(cur_r, inst.left, inst.right)
        if is_empty(cur_l) and is_empty(cur_r):
            break
    assert is_empty(cur_l) and is_empty(cur_r)


def test_refine_step_matches_definition():
    # spot-check L_k = L0 n down(R_{k-1}) by brute enumeration
    from conftest import all_words, down_closure

    inst = gen_exp(1)
    lk, rk = refine_step(inst.right, inst.left, inst.right)
    down_r = down_closure(inst.right)
    for w in all_words(inst.left.alphabet, 4):
        assert lk.accepts(w) == (inst.left.accepts(w) and down_r.accepts(w))


def test_decide_infinite_with_witness():
    a, b = chain_pair()
    result = decide_separability(a, b, witness_height=3)
    assert result.status == "infinite_tower"
    words = ["".join(w) for w, _ in result.witness.elements]
    assert words == ["a", "bab", "ababa"]
    assert verify_tower(a, b, result.witness)


def test_decide_shared_word_infinite():
    one = literal(("a",), ("a",))
    result = decide_separability(one, one, witness_height=4)
    assert result.status == "infinite_tower"
    assert verify_tower(one, one, result.witness)
    assert result.witness.height == 4


def test_decide_mcvp_example_separable():
    circuit = Circuit((Gate("ZERO"), Gate("ONE"), Gate("AND", 1, 2),
                       Gate("OR", 3, 3)))
    left, right = gen_mcvp(circuit)
    assert decide_separability(left, right).status == "separable"


def test_decide_budget_exhaustion_is_explicit():
    a, b = chain_pair()
    result = decide_separability(a, b, max_steps=0)
    assert result.status == "undecided"
    assert result.separator is None and result.witness is None


def test_chain_monotone_decreasing():
    inst = gen_quadratic(6)
    result = decide_separability(inst.left, inst.right)
    prev_l, prev_r = result.chain.originals
    for lk, rk in result.chain.steps:
        assert includes(prev_l, lk)
        assert includes(prev_r, rk)
        prev_l, prev_r = lk, rk


@pytest.mark.parametrize("pair", [
    lambda: (gen_quadratic(6).left, gen_quadratic(6).right),
    lambda: (gen_exp(3).left, gen_exp(3).right),
    chain_pair,
])
def test_chain_steps_are_the_refine_step_fold(pair):
    left, right = pair()
    chain = decide_separability(left, right).chain
    assert [automaton_to_dict(x) for x in chain.originals] == [
        automaton_to_dict(trim(minimal_dfa(x))) for x in (left, right)]
    cur_r = right
    for lk, rk in chain.steps:
        assert isinstance(lk, Automaton) and isinstance(rk, Automaton)
        want_l, cur_r = refine_step(cur_r, left, right)
        assert automaton_to_dict(lk) == automaton_to_dict(want_l)
        assert automaton_to_dict(rk) == automaton_to_dict(cur_r)
    assert len(chain.steps) == chain.b_index
    assert chain.to_dict()["steps"] == [
        {"left_states": lk.state_count, "right_states": rk.state_count}
        for lk, rk in chain.steps]


def test_chain_step_counts_are_the_public_state_counts():
    # to_dict reads each count off a trim flat DFA, without a sink; the
    # public automata are built from the same DFAs, and minimizing and
    # trimming them again changes nothing
    rng = random.Random(9104)
    pairs = [(inst.left, inst.right) for inst in (
        gen_quadratic(6), gen_2exp(2), gen_exp(3), gen_expdfa(3))]
    pairs += [gen_mcvp(random_circuit(rng, 12)) for _ in range(20)]
    verdicts = set()
    for left, right in pairs:
        chain = decide_separability(left, right).chain
        verdicts.add(chain.verdict)
        assert chain.to_dict()["steps"] == [
            {"left_states": lk.state_count, "right_states": rk.state_count}
            for lk, rk in chain.steps]
        for step in chain.steps:
            for x in step:
                assert trim(minimal_dfa(x)).state_count == x.state_count
    assert verdicts == {"separable", "infinite_tower"}


def test_fixpoint_is_mutually_embeddable():
    a, b = chain_pair()
    result = decide_separability(a, b)
    l_fix, r_fix = result.chain.steps[-1]
    assert includes(down_determinize(r_fix), l_fix)
    assert includes(down_determinize(l_fix), r_fix)


def test_separator_on_exp2():
    inst = gen_exp(2)
    result = decide_separability(inst.left, inst.right, with_separator=True)
    s = result.separator
    assert includes(s, inst.right)
    assert is_empty(intersection(s, inst.left))
    assert is_piecewise_testable(s)


def test_separator_trivial_empty_right():
    alphabet = ("a",)
    left = sigma_star(alphabet)
    right = empty_language(alphabet)
    result = decide_separability(left, right, with_separator=True)
    assert result.status == "separable"
    assert result.chain.b_index == 1
    assert is_empty(result.separator)


def reference_separator(chain):
    """The union of the pieces down(R_j) minus down(L_{j+1}), joined by NFA
    union and the subset construction, as the separator was first built."""
    _, r_j = chain.originals
    acc = None
    for l_next, r_next in chain.steps[: chain.b_index]:
        down_r = minimal_dfa(down_determinize(r_j))
        down_l = minimal_dfa(down_determinize(l_next))
        r_j = r_next
        piece = minimal_dfa(intersection(down_r, complement(down_l)))
        acc = piece if acc is None else minimal_dfa(determinize(union(acc, piece)))
    return acc


@pytest.mark.parametrize("family,param,states", [
    (gen_quadratic, 6, 102),
    (gen_2exp, 3, 91),
    (gen_exp, 5, 64),
    (gen_expdfa, 5, 33),
])
def test_separator_matches_reference_on_families(family, param, states):
    inst = family(param)
    result = decide_separability(inst.left, inst.right, with_separator=True)
    assert result.status == "separable"
    assert result.separator.state_count == states
    reference = reference_separator(result.chain)
    assert automaton_to_dict(result.separator) == automaton_to_dict(reference)


def test_separator_matches_reference_on_random_pairs():
    # the right side is made disjoint from the left, which lengthens chains
    rng = random.Random(71)
    compared = multi_piece = 0
    for _ in range(200):
        a = random_nfa(rng, max_states=4, density=0.35)
        b = intersection(random_nfa(rng, max_states=4, density=0.35),
                         complement(determinize(a)))
        result = decide_separability(a, b, with_separator=True)
        if result.status != "separable":
            continue
        reference = reference_separator(result.chain)
        assert automaton_to_dict(result.separator) == automaton_to_dict(reference)
        compared += 1
        multi_piece += result.chain.b_index >= 2
    assert compared >= 150 and multi_piece >= 25


def test_separator_requires_separable_chain():
    a, b = chain_pair()
    result = decide_separability(a, b, with_separator=True)
    assert result.status == "infinite_tower"
    assert result.separator is None
    assert check_tower(a, b, result.witness) is None


def test_witness_helpers():
    inst = gen_exp(1)
    assert shortest_word(inst.right) == ("b",)
    assert shortest_word(empty_language(("a",))) is None
    # shortest word of Sigma*b embedding a1: a1b
    assert shortest_superword_in(("a1",), inst.right) == ("a1", "b")
    # the left language is eps + b*a1, so the shortest word embedding b is ba1
    assert shortest_superword_in(("b",), inst.left) == ("b", "a1")
    # eps is its own shortest superword in a language containing eps
    assert shortest_superword_in((), inst.left) == ()


def test_shortest_superword_matches_state_set_reference():
    rng = random.Random(9102)
    found = missing = empty = 0
    for i in range(400):
        alphabet = ("a", "b", "c")[: rng.randint(2, 3)]
        if i % 20 == 0:
            a = empty_language(alphabet)
        elif i % 4 == 1:
            a = random_complete_dfa(rng, max_states=4, alphabet=alphabet)
        else:
            a = random_nfa(rng, max_states=5, alphabet=alphabet, density=0.3)
        w = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
        got = shortest_superword_in(w, a)
        assert got == shortest_superword(w, a), (a, w)
        assert shortest_word(a) == shortest_superword((), a)
        empty += got is None and shortest_word(a) is None
        missing += got is None and shortest_word(a) is not None
        found += got is not None
    assert found >= 150 and missing >= 30 and empty >= 20


def test_materialize_witness_alternates():
    a, b = chain_pair()
    tower = materialize_witness(a.alphabet, _minimal(a), _minimal(b), 5)
    assert tower.height == 5
    assert verify_tower(a, b, tower)
    sides = [side for _, side in tower.elements]
    assert sides == ["left", "right", "left", "right", "left"]


def test_decide_agrees_with_brute_oracle_small():
    rng = random.Random(59)
    checked = 0
    for _ in range(60):
        a = random_nfa(rng, max_states=4, alphabet=("a", "b"), density=0.3)
        b = random_nfa(rng, max_states=4, alphabet=("a", "b"), density=0.3)
        result = decide_separability(a, b, max_steps=64)
        assert result.status in ("separable", "infinite_tower")
        brute = brute_max_tower_height(a, b, "subsequence", max_len=12,
                                       budget=20000)
        if result.status == "separable":
            bound = upper_bound_height(4, 2)
            assert brute.height <= bound
        else:
            assert not brute.exact
            assert brute.height >= 10
        checked += 1
    assert checked == 60


def test_tower_json_roundtrip():
    inst = gen_exp(2)
    data = inst.tower.to_dict()
    back = Tower.from_dict(data)
    assert back == inst.tower
    assert data["relation"] == "prefix"
    assert data["elements"][1] == {"word": ["b"], "side": "right"}
