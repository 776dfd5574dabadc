"""Core automaton operations, validated against exhaustive small-word
enumeration and an independent Moore minimization."""
import random

import pytest

from ptsep import (
    Automaton,
    AlphabetMismatch,
    InvalidWord,
    SchemaError,
    automaton_from_dict,
    automaton_to_dict,
    brute_max_tower_height,
    complement,
    complete,
    decide_separability,
    determinize,
    find_pattern,
    gen_2exp,
    gen_exp,
    gen_expdfa,
    gen_mcvp,
    gen_quadratic,
    gen_reachability,
    gen_universality,
    includes,
    intersection,
    is_empty,
    max_prefix_tower_height,
    minimal_dfa,
    normalize_alphabets,
    tower_preserving_determinization,
    trim,
)
from conftest import (
    accepted_set,
    all_words,
    dfa,
    empty_language,
    ends_with,
    equivalent,
    literal,
    moore_minimize,
    moore_minimize_size,
    random_circuit,
    random_complete_dfa,
    random_nfa,
    reachable_pairs,
    sigma_star,
    subset_construction,
    union,
)


def test_construction_validation():
    with pytest.raises(ValueError):
        Automaton(2, (), {0}, {1}, set())
    with pytest.raises(ValueError):
        Automaton(2, ("a", "a"), {0}, {1}, set())
    with pytest.raises(ValueError):
        Automaton(2, ("a",), {5}, set(), set())
    with pytest.raises(ValueError):
        Automaton(2, ("a",), {0}, set(), {(0, "a", 7)})
    with pytest.raises(ValueError):
        Automaton(2, ("a",), {0, 1}, set(), set(), deterministic=True)
    with pytest.raises(ValueError):
        Automaton(2, ("a",), {0}, set(), {(0, "a", 0), (0, "a", 1)},
                  deterministic=True)
    with pytest.raises(InvalidWord):
        Automaton(1, ("a",), {0}, {0}, {(0, "zz", 0)})
    # rows hold one nonzero target mask per letter that moves; a repeated
    # move ORs in nothing new, by name or by symbol id
    twice = Automaton(2, ("a", "b"), {0}, {1}, [(0, "a", 1), (0, 0, 1)], True)
    assert twice.rows == [{0: 0b10}, {}] and len(twice.transitions) == 1
    nfa = Automaton(2, ("a", "b"), {0}, {1}, [(0, "b", 1), (0, "b", 0), (0, "b", 1)])
    assert nfa.rows == [{1: 0b11}, {}]
    assert nfa.transitions == {(0, 1, 0), (0, 1, 1)}
    with pytest.raises(ValueError, match=r"transitions\[2\]: state 0 has two moves"):
        Automaton(2, ("a",), {0}, set(), [(0, "a", 1), (0, "a", 1), (0, "a", 0)],
                  deterministic=True)


def test_accepts_rejects_unknown_symbols():
    a = sigma_star(("a", "b"))
    assert a.accepts(("a", "b", "a"))
    with pytest.raises(InvalidWord):
        a.accepts(("a", "c"))


def test_accepts_paper_examples():
    exp1 = gen_exp(1)
    assert exp1.left.accepts(())
    exp2 = gen_exp(2)
    assert exp2.right.accepts(("b",))
    assert not exp2.right.accepts(("a1",))
    quad = gen_quadratic(6)
    word = (("b",) * 5 + ("a",)) * 4 + ("b",) * 6
    assert quad.left.accepts(word)


def pair_product(a, b) -> dict:
    """The reachable product as an ``automaton_to_dict`` document, its states
    numbered in sorted pair order."""
    number = {pair: i for i, pair in enumerate(sorted(reachable_pairs(a, b)))}
    return {
        "alphabet": list(a.alphabet),
        "states": len(number),
        "initials": sorted(number[(p, q)] for p in a.initials for q in b.initials),
        "finals": sorted(i for (p, q), i in number.items()
                         if p in a.finals and q in b.finals),
        "deterministic": a.deterministic and b.deterministic,
        "transitions": sorted(
            [number[(sp, sq)], a.alphabet[sym], number[(tp, tq)]]
            for sp, sym, tp in a.transitions for sq, sym2, tq in b.transitions
            if sym == sym2 and (sp, sq) in number),
    }


def test_product_both_matches_conjunction():
    # the reachable product is built by intersection()
    rng = random.Random(7)
    for _ in range(25):
        a = random_nfa(rng)
        b = random_nfa(rng)
        prod = intersection(a, b)
        assert automaton_to_dict(prod) == pair_product(a, b)
        for w in all_words(("a", "b"), 5):
            assert prod.accepts(w) == (a.accepts(w) and b.accepts(w))


def test_product_single_state_loops():
    a = sigma_star(("a",))
    prod = intersection(a, a)
    assert prod.state_count == 1
    assert automaton_to_dict(prod) == pair_product(a, a)
    assert prod.accepts(("a", "a"))


@pytest.mark.parametrize("operation", [
    intersection, includes, decide_separability, find_pattern, max_prefix_tower_height,
    brute_max_tower_height, tower_preserving_determinization,
], ids=lambda operation: operation.__name__)
def test_product_alphabet_mismatch(operation):
    # every operation on a pair checks the alphabets the same way
    with pytest.raises(AlphabetMismatch, match="^alphabets differ: "):
        operation(sigma_star(("a",)), sigma_star(("a", "b")))


def test_determinize_preserves_language():
    rng = random.Random(11)
    for _ in range(30):
        a = random_nfa(rng, max_states=4, alphabet=("a", "b", "c"), density=0.25)
        d = determinize(a)
        assert d.deterministic
        # complete: every state has every symbol defined
        defined = {(s, sym) for s, sym, _ in d.transitions}
        assert len(defined) == d.state_count * len(d.alphabet)
        for w in all_words(("a", "b", "c"), 4):
            assert d.accepts(w) == a.accepts(w)


def test_determinize_small_words_exhaustive():
    rng = random.Random(13)
    for _ in range(10):
        a = random_nfa(rng, max_states=3, alphabet=("a", "b"), density=0.4)
        d = determinize(a)
        for w in all_words(("a", "b"), 8):
            assert d.accepts(w) == a.accepts(w)


def sink_heavy_dfa(rng, letters, max_states=8):
    """A random complete DFA over ``letters`` letters whose moves go to a
    nonfinal sink, the last state, four times in five."""
    n = rng.randint(1, max_states)
    alphabet = tuple(f"x{i}" for i in range(letters))
    triples = {(q, sym, n - 1 if q == n - 1 or rng.random() < 0.8 else rng.randrange(n))
               for q in range(n) for sym in alphabet}
    finals = {q for q in range(n - 1) if rng.random() < 0.4}
    return Automaton(n, alphabet, {rng.randrange(n)}, finals, triples, True)


def sparse_dfa(rng, letters, complete=False, max_states=8):
    """A random DFA over ``letters`` letters with at most four live moves per
    state.  Partial, or completed through a nonfinal state that every other
    move enters."""
    n = rng.randint(1, max_states)
    alphabet = tuple(f"x{i}" for i in range(letters))
    triples = {(q, sym, rng.randrange(n))
               for q in range(n) for sym in rng.sample(alphabet, rng.randint(0, 4))}
    finals = {q for q in range(n) if rng.random() < 0.4}
    if complete:
        moved = {(q, sym) for q, sym, _ in triples}
        triples |= {(q, sym, n) for q in range(n + 1) for sym in alphabet
                    if (q, sym) not in moved}
        n += 1
    return Automaton(n, alphabet, {rng.randrange(n)}, finals, triples, True)


def untrimmed_dfa(rng):
    """A random partial DFA that is not trim: 20 to 300 states over 2 to 100
    letters, with states times letters at most 3000 so that the completion
    the Moore oracle builds stays small.  A live part hangs off the initial
    state by a random tree plus a few moves per state; some live states then
    copy the row and finality of another, so the minimal DFA merges them.
    Dead states move only among themselves, in cycles, and live states move
    into them.  Unreachable states move anywhere, into the reachable part
    too, and nothing moves into them."""
    letters = rng.randint(2, 100)
    n = rng.randint(20, min(300, 3000 // letters))
    states = list(range(n))
    rng.shuffle(states)
    dead = states[:rng.randint(0, n // 4)]
    unreachable = states[len(dead):len(dead) + rng.randint(0, n // 4)]
    live = states[len(dead) + len(unreachable):]
    succ = {q: {} for q in states}
    for i, q in enumerate(live[1:], 1):
        succ[live[rng.randrange(i)]][rng.randrange(letters)] = q
    for sources, targets, least, most in ((live, live + dead, 0, 3), (dead, dead, 1, 2),
                                          (unreachable, states, 0, 3)):
        for q in sources:
            for _ in range(rng.randint(least, most)):
                succ[q][rng.randrange(letters)] = rng.choice(targets)
    finals = {q for q in live + unreachable if rng.random() < 0.3}
    for _ in range(rng.randint(0, len(live) // 3)):
        p, q = rng.sample(live, 2)
        succ[q] = dict(succ[p])
        finals.discard(q)
        if p in finals:
            finals.add(q)
    return Automaton(n, tuple(f"x{i}" for i in range(letters)), {live[0]}, finals,
                     {(q, sym, t) for q, row in succ.items() for sym, t in row.items()}, True)


def reached(edges, sources) -> set:
    """The states that the (source, target) edges lead to from ``sources``."""
    seen = set(sources)
    while True:
        more = {t for s, t in edges if s in seen} - seen
        if not more:
            return seen
        seen |= more


def test_minimize_against_moore_oracle():
    rng = random.Random(17)
    for _ in range(200):
        d = random_complete_dfa(rng, max_states=5)
        mini = minimal_dfa(d)
        assert mini.state_count == moore_minimize_size(d)
        assert automaton_to_dict(mini) == moore_minimize(d)
        for w in all_words(("a", "b"), 5):
            assert mini.accepts(w) == d.accepts(w)
    # wide alphabets, most letters into the sink: a block is queued as a
    # splitter only under the letters that lead into it
    for letters in (3, 8, 17, 30):
        for _ in range(60):
            d = sink_heavy_dfa(rng, letters)
            assert automaton_to_dict(minimal_dfa(d)) == moore_minimize(d)
    # 40 to 100 letters and few live moves, partial and complete: the
    # minimization sees only the live moves, and the sink comes back at its
    # BFS place
    for complete_input in (False, True):
        for _ in range(150):
            d = sparse_dfa(rng, rng.randint(40, 100), complete_input)
            assert automaton_to_dict(minimal_dfa(d)) == moore_minimize(d)
    wide = tuple(f"x{i}" for i in range(60))
    empty = Automaton(2, wide, {0}, set(), {(0, "x3", 1), (1, "x7", 0)}, True)
    assert automaton_to_dict(minimal_dfa(empty)) == moore_minimize(empty)
    assert minimal_dfa(empty).state_count == 1 and not minimal_dfa(empty).finals
    full = sigma_star(wide)  # no sink: every move is live
    assert automaton_to_dict(minimal_dfa(full)) == moore_minimize(full)
    assert minimal_dfa(full).state_count == 1
    # x0 is missing at the start, so the sink is met before the x1-successor
    second = dfa(wide, {0: {"x1": 1}, 1: {"x1": 1}}, 0, {1})
    mini = minimal_dfa(second)
    assert automaton_to_dict(mini) == moore_minimize(second)
    assert mini.finals == {2}
    assert {(0, 0, 1), (0, 1, 2), (2, 1, 2), (2, 0, 1)} <= mini.transitions
    assert all((1, sym, 1) in mini.transitions for sym in range(len(wide)))
    # untrimmed inputs at scale: the refinement skips sources in singleton
    # blocks, unreachable states are never numbered and dead ones are
    # dropped, so trimming first changes nothing
    both = 0
    for _ in range(300):
        d = untrimmed_dfa(rng)
        got = automaton_to_dict(minimal_dfa(d))
        assert got == moore_minimize(d)
        assert got == automaton_to_dict(minimal_dfa(trim(d)))
        moves = [(s, t) for s, _, t in d.transitions]
        reachable = reached(moves, d.initials)
        useful = reached([(t, s) for s, t in moves], d.finals)
        both += len(reachable) < d.state_count and len(useful) < d.state_count
    assert both >= 100
    # the start blocks are keyed on the letters into live states: 1 and 2
    # are equivalent although only 2 has a move, into the dead state 3
    twins = dfa(("a", "b", "c"), {0: {"a": 1, "b": 2}, 1: {"a": 1}, 2: {"a": 2, "c": 3},
                                  3: {"c": 3}}, 0, {1, 2})
    assert automaton_to_dict(minimal_dfa(twins)) == moore_minimize(twins)
    assert minimal_dfa(twins).state_count == 3  # 0, {1, 2} and the sink
    # a discrete start partition: the padded left DFA of a circuit reduction
    left = gen_mcvp(random_circuit(rng, 12))[0]
    assert automaton_to_dict(minimal_dfa(left)) == moore_minimize(left)


def test_determinize_against_reference_subsets():
    # the empty subset is a state once it is reached, at its BFS place
    rng = random.Random(29)
    empty_reached = empty_inside = 0
    for letters in (2, 3, 40, 70):
        alphabet = tuple(f"x{i}" for i in range(letters))
        for _ in range(60):
            a = random_nfa(rng, max_states=4, alphabet=alphabet,
                           density=0.3 if letters < 4 else 0.02)
            want, subsets = subset_construction(a)
            assert automaton_to_dict(determinize(a)) == want
            assert automaton_to_dict(minimal_dfa(a)) == moore_minimize(determinize(a))
            if frozenset() in subsets:
                empty_reached += 1
                empty_inside += subsets.index(frozenset()) < len(subsets) - 1
    assert empty_reached >= 200 and empty_inside >= 100


def test_minimize_paper_counts():
    # the right automaton of the exponential family minimizes to two states
    for m in (1, 2, 3):
        inst = gen_exp(m)
        assert minimal_dfa(determinize(inst.right)).state_count == 2
    assert minimal_dfa(determinize(gen_exp(3).left)).state_count == 16


def test_minimize_idempotent_and_canonical():
    rng = random.Random(19)
    for _ in range(40):
        d = random_complete_dfa(rng, max_states=5)
        m1 = minimal_dfa(d)
        m2 = minimal_dfa(m1)
        assert m1.state_count == m2.state_count
        assert m1.transitions == m2.transitions
        assert m1.finals == m2.finals


def test_boolean_ops_language_level():
    a = ends_with("a", ("a", "b"))
    comp2 = complement(complement(determinize(a)))
    assert equivalent(comp2, a)
    assert is_empty(intersection(a, complement(determinize(a))))
    full = sigma_star(("a", "b"))
    assert equivalent(
        intersection(full, complement(determinize(empty_language(("a", "b"))))), full)
    for w in all_words(("a", "b"), 5):
        b = ends_with("b", ("a", "b"))
        assert union(a, b).accepts(w) == (a.accepts(w) or b.accepts(w))
        assert intersection(a, b).accepts(w) == (a.accepts(w) and b.accepts(w))
        break  # union/intersection scanned once; word loop below does the rest


def test_union_intersection_exhaustive():
    a = ends_with("a", ("a", "b"))
    b = ends_with("b", ("a", "b"))
    u = union(a, b)
    i = intersection(a, b)
    for w in all_words(("a", "b"), 6):
        assert u.accepts(w) == (a.accepts(w) or b.accepts(w))
        assert i.accepts(w) == (a.accepts(w) and b.accepts(w))


def test_includes_and_equivalent():
    full = sigma_star(("a", "b"))
    a = ends_with("a", ("a", "b"))
    assert includes(full, a)
    assert not includes(a, full)
    assert equivalent(a, a)
    assert includes(a, a) and includes(full, full)
    # mutual inclusion iff the canonical minimal DFAs agree, on random pairs
    rng = random.Random(23)
    for _ in range(30):
        x, y = random_nfa(rng), random_nfa(rng)
        same = automaton_to_dict(minimal_dfa(x)) == automaton_to_dict(minimal_dfa(y))
        assert same == (includes(x, y) and includes(y, x))


def test_is_empty_on_exp_intersection():
    inst = gen_exp(2)
    # brute-force cross-check: disjoint up to length 6
    left_words = accepted_set(inst.left, 6)
    right_words = accepted_set(inst.right, 6)
    assert not (left_words & right_words)
    assert is_empty(intersection(inst.left, inst.right))


def test_trim():
    # unreachable accepting component disappears
    a = Automaton(4, ("a",), {0}, {1, 3},
                  {(0, "a", 1), (2, "a", 3), (3, "a", 3)})
    t = trim(a)
    assert t.state_count == 2
    for w in all_words(("a",), 5):
        assert t.accepts(w) == a.accepts(w)
    t2 = trim(t)
    assert t2.state_count == t.state_count and t2.transitions == t.transitions
    dead = trim(empty_language(("a",)))
    assert dead.state_count == 0
    assert is_empty(dead)


def test_normalize_alphabets():
    a = sigma_star(("a",))
    b = sigma_star(("b", "a"))
    a2, b2 = normalize_alphabets(a, b)
    assert a2.alphabet == b2.alphabet == ("a", "b")
    assert a2.accepts(("a",)) and not a2.accepts(("b",))
    assert b2.accepts(("b", "a"))


def test_complete_adds_sink():
    d = literal(("a",), ("a", "b"))
    c = complete(d)
    assert c.state_count == d.state_count + 1
    assert not c.accepts(("b",))
    assert c.accepts(("a",))


def test_json_roundtrip():
    inst = gen_quadratic(4)
    data = automaton_to_dict(inst.left)
    back = automaton_from_dict(data)
    assert back.alphabet == inst.left.alphabet
    assert back.transitions == inst.left.transitions
    assert back.initials == inst.left.initials and back.finals == inst.left.finals
    # the stored rows survive the document and the derived triples
    rng = random.Random(31)
    circuit = random_circuit(rng, 8)
    pairs = [gen_quadratic(4), gen_exp(2), gen_2exp(2), gen_expdfa(3)]
    sides = [x for inst in pairs for x in (inst.left, inst.right)]
    sides += [*gen_mcvp(circuit), *gen_reachability(6, [(0, 1), (1, 2), (2, 0)], 0, 2)]
    sides.append(gen_universality(sides[0]))
    for x in sides:
        assert automaton_from_dict(automaton_to_dict(x)).rows == x.rows
        assert Automaton(x.state_count, x.alphabet, x.initials, x.finals,
                         x.transitions, x.deterministic).rows == x.rows
    # every stored mask is nonzero and names states only
    for _ in range(200):
        x = random_nfa(rng, max_states=5, alphabet=("a", "b", "c"))
        assert len(x.rows) == x.state_count
        assert all(0 < mask < 1 << x.state_count for row in x.rows for mask in row.values())
        assert automaton_from_dict(automaton_to_dict(x)).rows == x.rows


@pytest.mark.parametrize("doc,fragment", [
    ({"alphabet": ["a", "a"], "states": 1, "initials": [], "finals": [],
      "transitions": []}, "alphabet[1]"),
    ({"alphabet": ["a"], "states": 1, "initials": [3], "finals": [],
      "transitions": []}, "initials[0]"),
    ({"alphabet": ["a"], "states": 2, "initials": [0], "finals": [],
      "transitions": [[0, "a", 5]]}, "transitions[0]"),
    ({"alphabet": ["a"], "states": 2, "initials": [0], "finals": [],
      "transitions": [[0, "q", 1]]}, "transitions[0]"),
    ({"alphabet": ["a"], "states": 1, "initials": [0], "finals": []},
     "transitions"),
    ({"alphabet": ["a"], "states": 2, "initials": [0], "finals": [],
      "transitions": [[0, "a", 0], [0, "a", 1]], "deterministic": "false"},
     "deterministic:"),
    ({"alphabet": ["a"], "states": True, "initials": [], "finals": [],
      "transitions": []}, "states:"),
    ({"alphabet": ["a"], "states": 2, "initials": [False], "finals": [True],
      "transitions": []}, "initials[0]"),
    ({"alphabet": ["a"], "states": 2, "initials": [0], "finals": [],
      "transitions": [[True, "a", 0]]}, "transitions[0]"),
    ({"alphabet": ["a", "b"], "states": 2, "initials": [0], "finals": [],
      "transitions": [[0, "a", 1], [0, "b", 0], [0, "b", 1]], "deterministic": True},
     "transitions[2]: state 0 has two moves on 'b' but deterministic is true"),
    ({"alphabet": ["a"], "states": 2, "initials": [0], "finals": [],
      "transitions": [[0, "a", 1], "0a1"]}, "transitions[1]: expected"),
    ({"alphabet": ["a"], "states": 2, "initials": [0], "finals": [],
      "transitions": [[0, "a"]]}, "transitions[0]: expected"),
    ({"alphabet": ["a"], "states": 2, "initials": [0], "finals": [],
      "transitions": [[0, "a", 1], [2, "a", 0]]}, "transitions[1]: source 2"),
    ({"alphabet": ["a"], "states": 2, "initials": [0], "finals": [],
      "transitions": [[0, "a", False]]}, "transitions[0]: target False"),
    ({"alphabet": ["a"], "states": 2, "initials": [0], "finals": [],
      "transitions": [[0, 0, 1]]}, "transitions[0]: unknown symbol 0"),
    ({"alphabet": ["a"], "states": 2, "initials": [0, 1], "finals": [],
      "transitions": [], "deterministic": True}, "initials: "),
], ids=["dup-symbol", "bad-initial", "bad-target", "bad-symbol", "missing",
        "bad-deterministic", "bool-states", "bool-initial", "bool-source",
        "nondeterministic", "not-a-list", "two-entries", "bad-source", "bool-target",
        "int-symbol", "deterministic-two-initials"])
def test_json_schema_errors(doc, fragment):
    with pytest.raises(SchemaError) as err:
        automaton_from_dict(doc)
    assert fragment in str(err.value)
