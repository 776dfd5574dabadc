"""The refinement chain, separator construction, tower verification, and the
closed-form height bound."""
import gc
import random
import tracemalloc

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
    upper_bound_height,
    verify_tower,
)
from ptsep import automata, towers
from ptsep.automata import _automaton, _meet, _minimal
from ptsep.families import Circuit, Gate
from ptsep.towers import _superword, materialize_witness
from conftest import (
    all_words,
    chain_reference,
    down_closure,
    empty_language,
    literal,
    moore_minimize,
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


def test_refine_step_matches_definition():
    # spot-check the reference's first step, L_1 = L0 n down(R0) and
    # R_1 = R0 n down(L_1), by brute enumeration
    inst = gen_exp(1)
    _, [(l1, r1), *_], _ = chain_reference(inst.left, inst.right)
    down_r, down_l = down_closure(inst.right), down_closure(l1)
    for w in all_words(inst.left.alphabet, 4):
        assert l1.accepts(w) == (inst.left.accepts(w) and down_r.accepts(w))
        assert r1.accepts(w) == (inst.right.accepts(w) and down_l.accepts(w))


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
    (prev_l, prev_r), steps, _ = chain_reference(inst.left, inst.right)
    for lk, rk in steps:
        assert includes(prev_l, lk)
        assert includes(prev_r, rk)
        prev_l, prev_r = lk, rk


@pytest.mark.parametrize("pair", [
    lambda: (gen_quadratic(6).left, gen_quadratic(6).right),
    lambda: (gen_exp(3).left, gen_exp(3).right),
    chain_pair,
])
def test_chain_steps_are_the_refine_step_fold(pair):
    # the chain against the reference chain, which runs neither the chain's
    # step nor the closure machine
    left, right = pair()
    chain = decide_separability(left, right).chain
    _, steps, _ = chain_reference(left, right)
    assert len(steps) == chain.b_index
    assert chain.to_dict()["steps"] == [
        {"left_states": lk.state_count, "right_states": rk.state_count}
        for lk, rk in steps]


def test_chain_step_counts_are_the_public_state_counts():
    # to_dict reads each count off a trim flat DFA, without a sink; the
    # reference chain builds each step as a trimmed minimal automaton
    rng = random.Random(9104)
    pairs = [(inst.left, inst.right) for inst in (
        gen_quadratic(6), gen_2exp(2), gen_exp(3), gen_expdfa(3))]
    pairs += [gen_mcvp(random_circuit(rng, 12)) for _ in range(20)]
    verdicts = set()
    for left, right in pairs:
        chain = decide_separability(left, right).chain
        verdicts.add(chain.verdict)
        _, steps, _ = chain_reference(left, right)
        assert chain.to_dict()["steps"] == [
            {"left_states": lk.state_count, "right_states": rk.state_count}
            for lk, rk in steps]
    assert verdicts == {"separable", "infinite_tower"}


def test_chain_keeps_no_languages():
    # the chain's record is its verdict and step sizes, so a second run
    # leaves almost nothing allocated; the 31 step DFAs take about 100 kB
    inst = gen_2exp(3)
    decide_separability(inst.left, inst.right)  # fills the inputs' caches
    gc.collect()
    tracemalloc.start()
    try:
        result = decide_separability(inst.left, inst.right)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.status == "separable" and result.chain.b_index == 31
    assert retained < 50_000


@pytest.mark.parametrize("gates", [
    (Gate("ONE"), Gate("ZERO"), Gate("OR", 1, 2)),
    (Gate("ONE"), Gate("ZERO"), Gate("OR", 1, 1), Gate("AND", 2, 1), Gate("AND", 3, 4),
     Gate("OR", 4, 5), Gate("AND", 5, 2), Gate("OR", 5, 1)),
], ids=["b2", "b4"])
def test_fixpoint_step_reuses_the_last_right_language(gates, monkeypatch):
    # L_b = L_{b-1} gives R_b = R_{b-1}, so the last step builds one
    # down-closure, not two: 2b - 1 in all
    left, right = gen_mcvp(Circuit(gates))
    calls = []
    down = towers._down
    monkeypatch.setattr(towers, "_down", lambda *args: calls.append(args) or down(*args))
    result = decide_separability(left, right, witness_height=4)
    _, steps, _ = chain_reference(left, right)
    b = result.chain.b_index
    assert result.status == "infinite_tower" and b == len(steps) >= 2
    assert len(calls) == 2 * b - 1
    assert result.chain.sizes == [(lk.state_count, rk.state_count) for lk, rk in steps]
    assert result.witness == materialize_witness(left.alphabet, *map(_minimal, steps[-1]), 4)


def test_fixpoint_is_mutually_embeddable():
    a, b = chain_pair()
    assert decide_separability(a, b).status == "infinite_tower"
    _, steps, _ = chain_reference(a, b)
    l_fix, r_fix = steps[-1]
    assert includes(down_determinize(r_fix), l_fix)
    assert includes(down_determinize(l_fix), r_fix)


# the chain kernels on random partial DFAs over small and wide alphabets
KERNEL_ALPHABETS = [("a", "b"), ("a", "b", "c"), tuple(f"x{i:02d}" for i in range(41))]


def random_flat_dfa(rng, m, max_states):
    """A random partial flat DFA built in BFS order: each state in turn gets
    a move on each letter in order, with a chance that leaves about three
    moves a state, to a new state while there is room or to one met
    already.  So every state is reachable and the numbering is the BFS one,
    with letters in alphabet order.  Dead states come by chance; a state
    may also copy the row and finality of an earlier one, which makes the
    two equivalent even over a wide alphabet."""
    succ, n, twins = [], 1, {}
    while len(succ) < n:
        if succ and rng.random() < 0.15:
            twins[len(succ)] = p = rng.randrange(len(succ))
            succ.append(dict(succ[p]))
            continue
        row = {}
        for sym in range(m):
            if rng.random() < min(0.8, 3 / m):
                if n < max_states and rng.random() < 0.4:
                    row[sym], n = n, n + 1
                else:
                    row[sym] = rng.randrange(n)
        succ.append(row)
    finals = {q for q in range(n) if rng.random() < 0.4}
    for q, p in sorted(twins.items()):  # p < q, so p's finality is settled
        if p in finals:
            finals.add(q)
        else:
            finals.discard(q)
    return n, succ, finals


def as_automaton(alphabet, dfa, rng):
    """The flat DFA as a DFA Automaton whose states are renamed at random."""
    n, succ, finals = dfa
    name = rng.sample(range(n), n)
    return Automaton(n, alphabet, {name[0]}, {name[q] for q in finals},
                     {(name[q], sym, name[t]) for q, row in enumerate(succ)
                      for sym, t in row.items()}, True)


def live_states(dfa) -> set:
    """The states of a flat DFA that reach a final state."""
    n, succ, finals = dfa
    live, grew = set(finals), True
    while grew:
        grew = False
        for q, row in enumerate(succ):
            if q not in live and live.intersection(row.values()):
                live.add(q)
                grew = True
    return live


@pytest.mark.parametrize("alphabet", KERNEL_ALPHABETS, ids=["2", "3", "41"])
def test_minimize_matches_moore_on_bfs_numbered_dfas(alphabet):
    # a minimal input comes back as it is; one with a dead state or an
    # equivalent pair is minimized as the Moore reference does it
    rng = random.Random(3100 + len(alphabet))
    seen = set()
    for _ in range(150):
        dfa = random_flat_dfa(rng, len(alphabet), 7)
        out = automata._minimize(dfa)
        assert (automaton_to_dict(_automaton(alphabet, out))
                == moore_minimize(as_automaton(alphabet, dfa, rng)))
        live = live_states(dfa)
        if len(live) == dfa[0]:
            seen.add("all live")
        else:
            seen.add("dead")
        if out[0] < len(live):
            seen.add("equivalent pair")
        elif out[0] == dfa[0]:
            assert out == dfa
            seen.add("minimal")
    assert seen == {"all live", "dead", "equivalent pair", "minimal"}


@pytest.mark.parametrize("alphabet", KERNEL_ALPHABETS, ids=["2", "3", "41"])
def test_meet_and_down_match_the_references(alphabet):
    # the DFA product walk and the down-closure step, each followed by the
    # minimization, against the public product and closure machine
    # minimized by the Moore reference
    rng = random.Random(4100 + len(alphabet))
    m = len(alphabet)
    for _ in range(60):
        a, b = (as_automaton(alphabet, random_flat_dfa(rng, m, 6), rng) for _ in range(2))
        meet = _meet(_minimal(a), _minimal(b))
        assert automaton_to_dict(_automaton(alphabet, meet)) == moore_minimize(intersection(a, b))
        down = towers._down(m, _minimal(a))
        assert automaton_to_dict(_automaton(alphabet, down)) == moore_minimize(down_determinize(a))
        for canonical in (meet, down):
            assert automata._minimize(canonical) == canonical


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


def reference_separator(left, right):
    """The union of the pieces down(R_j) minus down(L_{j+1}) over the
    reference chain's down DFAs, joined by NFA union and the subset
    construction, as the separator was first built."""
    acc = None
    for down_r, down_l in chain_reference(left, right)[2]:
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
    reference = reference_separator(inst.left, inst.right)
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
        reference = reference_separator(a, b)
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


def superword(w, a):
    """The shortlex-least word of L(a) that has w as a subsequence, or None,
    from the package's one superword BFS on the minimal DFA of a."""
    word = _superword(_minimal(a), [a.alphabet.index(s) for s in w])
    return None if word is None else tuple(a.alphabet[sym] for sym in word)


def test_witness_helpers():
    inst = gen_exp(1)
    assert superword((), inst.right) == ("b",)
    assert superword((), empty_language(("a",))) is None
    # shortest word of Sigma*b embedding a1: a1b
    assert superword(("a1",), inst.right) == ("a1", "b")
    # the left language is eps + b*a1, so the shortest word embedding b is ba1
    assert superword(("b",), inst.left) == ("b", "a1")
    # eps is its own shortest superword in a language containing eps
    assert superword((), inst.left) == ()


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
        got = superword(w, a)
        shortest = superword((), a)
        assert got == shortest_superword(w, a), (a, w)
        assert shortest == shortest_superword((), a)
        empty += got is None and shortest is None
        missing += got is None and shortest is not None
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
