"""Piecewise testability: the minimal-DFA conditions, the NFA pipeline, and
the universality reduction, against a hand-labeled fixture set and a
reference made of plain searches."""
import random
import tracemalloc

import pytest

from ptsep import (
    Automaton,
    NotDeterministic,
    complete,
    decide_separability,
    determinize,
    gen_exp,
    gen_expdfa,
    gen_quadratic,
    gen_universality,
    intersection,
    is_piecewise_testable,
    minimal_dfa,
    complement,
)
from ptsep.automata import _completed, _minimal
from ptsep.ptcheck import _violation, language_pt_violation
from conftest import (
    confluence_violation_reference,
    dfa,
    empty_language,
    ends_with,
    is_fork,
    literal,
    pt_violation_reference,
    random_nfa,
    self_loop_alphabet,
    sigma_star,
    union,
)


def aa_star():
    return Automaton(2, ("a",), {0}, {0}, {(0, "a", 1), (1, "a", 0)}, True)


def test_self_loop_alphabet():
    d = minimal_dfa(determinize(literal(("a",), ("a", "b"))))
    # the sink of a complete DFA loops on the whole alphabet
    sink = next(
        q for q in range(d.state_count)
        if self_loop_alphabet(d, q) == frozenset(("a", "b"))
    )
    assert sink is not None
    # the initial state of {a} has no self-loops
    assert self_loop_alphabet(d, 0) == frozenset()
    with pytest.raises(ValueError):
        self_loop_alphabet(d, 99)


def test_self_loop_alphabet_quadratic_right():
    # the b-counting DFA never self-loops outside its sink
    inst = gen_quadratic(6)
    assert self_loop_alphabet(inst.right, 0) == frozenset()


def test_condition_one_cycle():
    assert language_pt_violation(aa_star()) is not None
    kind, states = language_pt_violation(aa_star())
    assert kind == "cycle"
    assert set(states) == {0, 1}


def test_condition_two_fork():
    # L = a Sigma* + b a* : from the start, a-paths reach two different
    # looping states; detected by the fork condition, not by a cycle
    d = dfa(
        ("a", "b"),
        {
            0: {"a": 1, "b": 2},
            1: {"a": 1, "b": 1},
            2: {"a": 2, "b": 3},
            3: {"a": 3, "b": 3},
        },
        0,
        {1, 2},
    )
    violation = language_pt_violation(d)
    assert violation is not None and violation[0] == "fork"
    assert not is_piecewise_testable(d)


def test_minimal_dfa_guards():
    with pytest.raises(NotDeterministic):
        complete(Automaton(2, ("a",), {0, 1}, {0}, set()))


def test_exp_left_languages_are_pt():
    for m in range(4):
        inst = gen_exp(m)
        assert is_piecewise_testable(inst.left)
        assert language_pt_violation(determinize(inst.left)) is None


def test_trivial_minimal_dfas_are_pt():
    just_eps = minimal_dfa(determinize(literal((), ("a",))))
    assert language_pt_violation(just_eps) is None
    assert is_piecewise_testable(sigma_star(("a", "b")))
    assert is_piecewise_testable(empty_language(("a", "b")))


def test_universality_reduction():
    # universal input: the padded language is total, hence PT
    assert is_piecewise_testable(gen_universality(sigma_star(("a", "b"))))
    # empty input maps to (aa)*
    out = gen_universality(empty_language(("a", "b")))
    assert not is_piecewise_testable(out)
    assert out.alphabet == ("a",)
    # nonempty non-universal input: a cycle through the fresh letter
    assert not is_piecewise_testable(gen_universality(literal(("a",), ("a", "b"))))
    # multiple initial states are normalized away first
    two_init = Automaton(2, ("a", "b"), {0, 1}, {1}, {(0, "a", 1)})
    assert not is_piecewise_testable(gen_universality(two_init))


def test_boolean_combinations_stay_pt():
    # PT languages are closed under boolean combinations
    contains_a = Automaton(
        2, ("a", "b"), {0}, {1},
        {(0, "a", 0), (0, "b", 0), (0, "a", 1), (1, "a", 1), (1, "b", 1)})
    p1 = minimal_dfa(determinize(literal(("a", "b"), ("a", "b"))))  # {ab}
    p2 = minimal_dfa(determinize(contains_a))
    assert is_piecewise_testable(p1) and is_piecewise_testable(p2)
    assert is_piecewise_testable(union(p1, p2))
    assert is_piecewise_testable(intersection(p1, p2))
    assert is_piecewise_testable(complement(p1))
    assert is_piecewise_testable(complement(p2))


def test_power_families_not_pt():
    # (a^k)* for k >= 2 fails through the cycle condition
    for k in (2, 3, 4):
        triples = {(i, "a", (i + 1) % k) for i in range(k)}
        d = Automaton(k, ("a",), {0}, {0}, triples, True)
        violation = language_pt_violation(d)
        assert violation is not None and violation[0] == "cycle"


PT_FIXTURES = [
    # (name, automaton factory, expected piecewise testability)
    ("empty", lambda: empty_language(("a", "b")), True),
    ("total", lambda: sigma_star(("a", "b")), True),
    ("just-eps", lambda: literal((), ("a", "b")), True),
    ("one-a", lambda: literal(("a",), ("a", "b")), True),
    ("word-ab", lambda: literal(("a", "b"), ("a", "b")), True),
    ("word-aba", lambda: literal(("a", "b", "a"), ("a", "b")), True),
    ("ends-a", lambda: ends_with("a", ("a", "b")), False),
    ("contains-a", lambda: Automaton(
        2, ("a", "b"),
        {0}, {1},
        {(0, "a", 0), (0, "b", 0), (0, "a", 1), (1, "a", 1), (1, "b", 1)}), True),
    ("a-star", lambda: Automaton(1, ("a", "b"), {0}, {0}, {(0, "a", 0)}), True),
    ("a-star-b-star", lambda: dfa(
        ("a", "b"), {0: {"a": 0, "b": 1}, 1: {"b": 1}}, 0, {0, 1}), True),
    ("even-as", lambda: dfa(
        ("a", "b"),
        {0: {"a": 1, "b": 0}, 1: {"a": 0, "b": 1}}, 0, {0}), False),
    ("aa-star", aa_star, False),
    ("ab-star", lambda: dfa(("a", "b"), {0: {"a": 1}, 1: {"b": 0}}, 0, {0}), False),
    ("a-ba-star", lambda: dfa(("a", "b"), {0: {"a": 1}, 1: {"b": 0}}, 0, {1}), False),
    ("b-ab-star", lambda: dfa(("a", "b"), {0: {"b": 1}, 1: {"a": 0}}, 0, {1}), False),
    ("exp2-left", lambda: gen_exp(2).left, True),
    ("exp3-left", lambda: gen_exp(3).left, True),
    ("one-block-of-as", lambda: dfa(
        ("a", "b"),
        {0: {"a": 1, "b": 0}, 1: {"a": 1, "b": 2}, 2: {"b": 2, "a": 3},
         3: {"a": 3, "b": 3}},
        0, {0, 1, 2}), True),
    ("up-of-ab", lambda: Automaton(
        3, ("a", "b"), {0}, {2},
        {(0, "a", 0), (0, "b", 0), (0, "a", 1), (1, "a", 1), (1, "b", 1),
         (1, "b", 2), (2, "a", 2), (2, "b", 2)}), True),
    ("b-then-a-forever", lambda: dfa(
        ("a", "b"), {0: {"b": 1}, 1: {"a": 1}}, 0, {1}), True),
]


@pytest.mark.parametrize("name,factory,expected",
                         [(n, f, e) for n, f, e in PT_FIXTURES],
                         ids=[n for n, _, _ in PT_FIXTURES])
def test_hand_labeled_fixture(name, factory, expected):
    assert is_piecewise_testable(factory()) == expected


def test_nfa_and_minimal_dfa_agree():
    for name, factory, expected in PT_FIXTURES:
        a = factory()
        mini = minimal_dfa(determinize(a))
        assert (language_pt_violation(mini) is None) == is_piecewise_testable(a) == expected


def test_audit_minimizes_once(monkeypatch):
    # the PT conditions are read off the one minimal DFA of the input, so
    # one minimization serves the whole check
    from ptsep import automata

    calls = []
    real = automata._minimize
    monkeypatch.setattr(automata, "_minimize", lambda *args: calls.append(args) or real(*args))
    for name, factory, expected in PT_FIXTURES:
        calls.clear()
        assert is_piecewise_testable(factory()) == expected
        assert len(calls) == 1, name


def random_po_dfa(rng, max_states=8, alphabet=("a", "b", "c")):
    """A random partially ordered complete DFA: every move of state q goes to
    a state drawn from q .. n-1, so the only cycles are self-loops."""
    n = rng.randint(1, max_states)
    triples = {(q, sym, rng.randint(q, n - 1)) for q in range(n) for sym in alphabet}
    finals = {q for q in range(n) if rng.random() < 0.5}
    return Automaton(n, alphabet, {0}, finals, triples, True)


def test_violation_matches_plain_search_reference():
    """The verdict and condition kind equal the reference's on the minimal
    DFA; a cycle is one of its classes of mutually reachable states, and a
    fork is exactly the local-confluence reference's and a fork by plain
    search, like the reference's own."""
    rng = random.Random(9201)
    forks = cycles = 0
    for i in range(20000):
        alphabet = ("a", "b", "c", "d")[:rng.randint(1, 4)]
        if i < 16000:
            a = random_po_dfa(rng, alphabet=alphabet)
        else:
            a = random_nfa(rng, max_states=4, alphabet=alphabet)
        d = minimal_dfa(a)
        rows = [{} for _ in range(d.state_count)]
        for s, sym, t in d.transitions:
            rows[s][sym] = t
        got, want = language_pt_violation(a), pt_violation_reference(rows)
        if want is not None and want[0] == "cycle":
            assert got[0] == "cycle" and got[1] in want[1], (a, got, want)
            cycles += 1
        elif want is not None:
            assert got[0] == "fork", (a, got, want)
            assert got == confluence_violation_reference(rows), (a, got, want)
            assert is_fork(rows, got[1]) and is_fork(rows, want[1]), (a, got, want)
            forks += 1
        else:
            assert got is None, (a, got)
    assert forks >= 1500 and cycles >= 800


def test_violation_memory_on_a_large_separator():
    # the PT audit of a 129-state separator over 29 letters keeps one mask
    # per state for one letter pair at a time: about 0.07 MB, where one list
    # of ancestor masks per shared self-loop alphabet took 0.82 MB
    inst = gen_expdfa(7)
    sep = decide_separability(inst.left, inst.right, with_separator=True).separator
    rows = _completed(len(sep.alphabet), _minimal(sep))[1]
    tracemalloc.start()
    try:
        violation = _violation(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert violation is None and peak < 250_000
