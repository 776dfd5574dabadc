"""Family generators: structure frozen against the source constructions,
towers validated by membership, reductions against their oracles."""
import random

import pytest

from ptsep import (
    Automaton,
    Circuit,
    Gate,
    SchemaError,
    determinize,
    enumerate_language,
    eval_circuit,
    find_accepting_path,
    gen_2exp,
    gen_exp,
    gen_expdfa,
    gen_mcvp,
    gen_quadratic,
    gen_reachability,
    is_empty,
    intersection,
    minimal_dfa,
    single_initial,
    tower_preserving_determinization,
    verify_tower,
)
from ptsep.towers import Tower
from conftest import accepted_set, equivalent


def test_gen_quadratic_structure():
    inst = gen_quadratic(6)
    left, right = inst.left, inst.right
    assert left.state_count == right.state_count == 6
    assert left.alphabet == ("a", "b")
    assert left.initials == frozenset(range(5)) and left.finals == {4}
    assert right.deterministic and right.initials == {0}
    assert right.finals == {1, 3, 5}
    assert inst.tower.relation == "prefix"
    assert inst.tower.height == 31
    with pytest.raises(ValueError):
        gen_quadratic(5)
    with pytest.raises(ValueError):
        gen_quadratic(2)


def test_gen_quadratic_sides_by_trailing_parity():
    inst = gen_quadratic(4)
    for word, side in inst.tower.elements:
        trailing = 0
        for sym in reversed(word):
            if sym != "b":
                break
            trailing += 1
        assert side == ("left" if trailing % 2 == 0 else "right")


def test_gen_exp_structure():
    inst = gen_exp(3)
    left = inst.left
    assert left.state_count == 4
    assert left.alphabet == ("b", "a1", "a2", "a3")
    assert left.initials == frozenset(range(4)) and left.finals == {0}
    # the fan automaton of size 3: self-loops below the diagonal, fан on it
    expected = set()
    for i in (1, 2, 3):
        expected.add((i, 0, i))  # b self-loop
        for j in range(1, i):
            expected.add((i, j, i))
        for j in range(i):
            expected.add((i, i, j))
    assert left.transitions == expected
    assert inst.tower.height == 16
    assert minimal_dfa(determinize(inst.right)).state_count == 2


def test_gen_exp_zero():
    inst = gen_exp(0)
    assert inst.left.alphabet == ("b",)
    assert inst.tower.height == 2
    assert verify_tower(inst.left, inst.right, inst.tower)


def test_gen_2exp_structure_matches_m3_figure():
    inst = gen_2exp(3)
    left, right = inst.left, inst.right
    assert left.alphabet == ("b", "a1", "a2", "a3", "c1", "c2")
    # left: the fan automaton plus restarts from 0 under every c-letter
    for c in ("c1", "c2"):
        sym = left.alphabet.index(c)
        targets = {t for s, x, t in left.transitions if s == 0 and x == sym}
        assert targets == {1, 2, 3}
    # right: self-loops grow with the state index; c-fan cascades down
    def loops(q):
        return {right.alphabet[x] for s, x, t in right.transitions if s == t == q}

    assert loops(1) == {"b", "a1", "a2", "a3"}
    assert loops(2) == {"b", "a1", "a2", "a3"}
    assert loops(3) == {"b", "a1", "a2", "a3", "c1"}
    c1 = right.alphabet.index("c1")
    c2 = right.alphabet.index("c2")
    fan = lambda sym: {(s, t) for s, x, t in right.transitions
                       if x == sym and s != t}
    assert fan(c1) == {(2, 1)}
    assert fan(c2) == {(3, 1), (3, 2)}
    assert right.initials == {1, 2, 3} and right.finals == {0}


@pytest.mark.parametrize("m,height", [(1, 4), (2, 14), (3, 58)])
def test_gen_2exp_heights(m, height):
    inst = gen_2exp(m)
    assert inst.expected_height == height
    assert inst.tower.height == height
    assert verify_tower(inst.left, inst.right, inst.tower)


def test_gen_2exp_brute_membership_validation():
    # before trusting the reconstruction at higher m, re-check every element
    # of the small instances against independent word enumeration
    for m in (1, 2):
        inst = gen_2exp(m)
        for horizon in (5,):
            left_words = accepted_set(inst.left, horizon)
            right_words = accepted_set(inst.right, horizon)
            for word, side in inst.tower.elements:
                if len(word) > horizon:
                    continue
                expected = left_words if side == "left" else right_words
                assert word in expected


def test_gen_expdfa_structure():
    inst = gen_expdfa(3)
    left, right = inst.left, inst.right
    assert left.deterministic and right.deterministic
    assert len(left.alphabet) == 3 * 4 // 2 + 1 == 7
    assert left.initials == {3} and left.finals == {0}
    assert inst.tower.relation == "subsequence"
    # figure-frozen top element of the n=3 tower
    assert inst.tower.elements[-1][0] == (
        "a3_2", "a3_1", "a3_0", "b", "a1_0", "b", "a2_1", "a2_0", "b",
        "a1_0", "b")
    assert inst.tower.elements[0][0] == ("a3_0",)


def test_gen_expdfa_heights():
    for n in (1, 2, 3, 4):
        inst = gen_expdfa(n)
        assert inst.tower.height == 2 ** n
        assert verify_tower(inst.left, inst.right, inst.tower)


def test_eval_circuit():
    fig = Circuit((Gate("ZERO"), Gate("ONE"), Gate("AND", 1, 2),
                   Gate("OR", 3, 3)))
    assert eval_circuit(fig) is False
    assert eval_circuit(Circuit((Gate("ONE"),))) is True
    assert eval_circuit(Circuit((Gate("ONE"), Gate("ZERO"),
                                 Gate("OR", 1, 2)))) is True
    with pytest.raises(ValueError):
        Circuit((Gate("AND", 1, 2),))
    with pytest.raises(ValueError):
        Circuit(())


def test_circuit_json():
    fig = Circuit((Gate("ZERO"), Gate("ONE"), Gate("AND", 1, 2)))
    back = Circuit.from_dict(fig.to_dict())
    assert back == fig
    with pytest.raises(SchemaError):
        Circuit.from_dict({"gates": [{"kind": "AND", "left": 1, "right": 1}]})


def test_gen_mcvp_matches_figure():
    fig = Circuit((Gate("ZERO"), Gate("ONE"), Gate("AND", 1, 2),
                   Gate("OR", 3, 3)))
    left, right = gen_mcvp(fig, padded=False)
    # left: s -x-> 4 -a4,b4-> 3 -a3-> 1, -b3-> 2; 1 -> ZERO; 2 -> ONE; ONE -y-> s
    assert left.deterministic and right.deterministic
    assert is_empty(intersection(left, right))
    s, zero, one = 0, 5, 6
    names = {(src, left.alphabet[sym], dst) for src, sym, dst in left.transitions}
    assert (s, "x", 4) in names
    assert (4, "a4", 3) in names and (4, "b4", 3) in names
    assert (3, "a3", 1) in names and (3, "b3", 2) in names
    assert (1, "a1", zero) in names and (2, "b2", one) in names
    assert (one, "y", s) in names
    # right: q -x-> t with loops for the OR and ONE gates, a3/b3 bouncing
    rnames = {(src, right.alphabet[sym], dst) for src, sym, dst in right.transitions}
    assert (0, "x", 1) in rnames and (1, "y", 0) in rnames
    assert (1, "a2", 1) in rnames and (1, "b4", 1) in rnames
    assert (1, "a3", 2) in rnames and (2, "b3", 1) in rnames
    assert not any(right.alphabet[sym] in ("a1", "b1")
                   for _, sym, _ in right.transitions)


def test_gen_mcvp_padding_flag():
    fig = Circuit((Gate("ONE"), Gate("OR", 1, 1)))
    bare_left, _ = gen_mcvp(fig, padded=False)
    padded_left, _ = gen_mcvp(fig, padded=True)
    assert len(padded_left.alphabet) == len(bare_left.alphabet) + 2 * 2
    # padding makes the left automaton minimal
    complete_states = minimal_dfa(determinize(padded_left)).state_count
    assert complete_states == padded_left.state_count + 1  # plus the sink


def random_circuit(rng, max_gates=12):
    n = rng.randint(1, max_gates)
    gates = []
    for i in range(1, n + 1):
        if i <= 2 or rng.random() < 0.3:
            gates.append(Gate(rng.choice(("ZERO", "ONE"))))
        else:
            kind = rng.choice(("AND", "OR"))
            gates.append(Gate(kind, rng.randint(1, i - 1), rng.randint(1, i - 1)))
    return Circuit(tuple(gates))


def test_gen_mcvp_against_eval_oracle():
    from ptsep import decide_separability

    rng = random.Random(61)
    for _ in range(20):
        circuit = random_circuit(rng, max_gates=8)
        left, right = gen_mcvp(circuit)
        verdict = decide_separability(left, right, max_steps=64).status
        expected = "infinite_tower" if eval_circuit(circuit) else "separable"
        assert verdict == expected


def test_gen_reachability_labels():
    left, right = gen_reachability(3, [(0, 1), (1, 2)], 0, 2)
    assert "e0" in left.alphabet and "e1" in left.alphabet
    assert left.deterministic and right.deterministic
    assert is_empty(intersection(left, right))
    dleft, dright = gen_reachability(3, [(0, 1), (1, 2)], 0, 2, dfa=True)
    assert minimal_dfa(determinize(dleft)).state_count == dleft.state_count + 1
    assert len(dleft.finals) == 2


def test_single_initial():
    inst = gen_exp(2)
    normalized = single_initial(inst.left)
    assert len(normalized.initials) == 1
    assert equivalent(normalized, inst.left)
    already = single_initial(inst.right)
    assert already is inst.right


def test_find_accepting_path():
    inst = gen_exp(1)
    path = find_accepting_path(inst.left, ("b", "a1"))
    assert path == [1, 1, 0]
    assert find_accepting_path(inst.left, ("b",)) is None
    assert find_accepting_path(inst.left, ()) == [0]
    # the path is picked from its end, so [1, 2] wins over [0, 5]
    a = Automaton(6, ("a",), {0, 1}, {2, 5}, {(0, "a", 5), (1, "a", 2)})
    assert find_accepting_path(a, ("a",)) == [1, 2]


@pytest.mark.parametrize("variant", ["per-state", "per-letter-state"])
def test_determinization_transform_exp(variant):
    for m in (1, 2, 3):
        inst = gen_exp(m)
        tr = tower_preserving_determinization(inst.left, inst.right, variant)
        n_a, n_b = inst.left.state_count, inst.right.state_count
        letters = len(inst.left.alphabet)
        for out, n in ((tr.left, n_a), (tr.right, n_b)):
            assert out.deterministic
            if variant == "per-state":
                assert out.state_count <= n + n * n
            else:
                assert out.state_count <= n + letters * n
        carried = tr.carry(inst.tower)
        assert carried.height == inst.tower.height
        assert verify_tower(tr.left, tr.right, carried)


def test_determinization_projection_property():
    # erasing the fresh letters from the transformed language gives back the
    # original one; checked on all transformed words up to length 4
    inst = gen_exp(1)
    tr = tower_preserving_determinization(inst.left, inst.right)
    fresh = set(tr.left.alphabet) - set(inst.left.alphabet)
    for word in enumerate_language(tr.left, 4, budget=100000):
        projected = tuple(sym for sym in word if sym not in fresh)
        assert inst.left.accepts(projected)


def test_transform_tower_edge_cases():
    inst = gen_exp(1)
    tr = tower_preserving_determinization(inst.left, inst.right)
    assert tr.carry(Tower("subsequence", ())).height == 0
    single = Tower("prefix", ((("b",), "right"),))
    carried = tr.carry(single)
    assert carried.height == 1
    assert verify_tower(tr.left, tr.right, carried)


def test_transformed_pair_keeps_verdict():
    from ptsep import decide_separability

    a = Automaton(2, ("a", "b"), {0}, {1}, {(0, "a", 1), (1, "b", 0)}, True)
    b = Automaton(2, ("a", "b"), {0}, {1}, {(0, "b", 1), (1, "a", 0)}, True)
    for variant in ("per-state", "per-letter-state"):
        tr = tower_preserving_determinization(a, b, variant)
        assert decide_separability(tr.left, tr.right).status == "infinite_tower"
