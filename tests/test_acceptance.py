"""Acceptance gate: one test per criterion, exact-integer tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -v -s`` or in
failure output).  Family instances and separability runs are cached at module
level so later criteria reuse earlier work.

Criterion 6 note: the separator soundness sweep covers every instance whose
separable verdict is established by the criteria above (the quadratic and
doubly-indexed families) plus the exponential families at the sizes where the
separator construction is tractable, plus the 50 random pairs.  The timings
behind the cutoffs (exp up to 6, expdfa up to 5) are recorded in CHANGES.md.
"""
import math
import random
import time

from ptsep import (
    Automaton,
    Circuit,
    Gate,
    brute_max_tower_height,
    decide_separability,
    determinize,
    enumerate_language,
    eval_circuit,
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
    is_piecewise_testable,
    max_prefix_tower_height,
    minimal_dfa,
    reachability,
    tower_preserving_determinization,
    upper_bound_height,
    verify_tower,
)
from conftest import random_circuit, random_nfa

QUADRATIC_PARAMS = (4, 6, 8, 10, 12)
EXP_PARAMS = tuple(range(1, 9))
TWOEXP_PARAMS = (1, 2, 3, 4)
EXPDFA_PARAMS = tuple(range(1, 9))

# separator sweep: every instance with a separable verdict from criteria 1
# and 3, plus the exponential families at tractable sizes
SEPARATOR_SET = (
    [("quadratic", n) for n in QUADRATIC_PARAMS]
    + [("2exp", m) for m in TWOEXP_PARAMS]
    + [("exp", m) for m in range(1, 7)]
    + [("expdfa", n) for n in range(1, 6)]
)

_GEN = {"quadratic": gen_quadratic, "exp": gen_exp, "2exp": gen_2exp,
        "expdfa": gen_expdfa}
_instances = {}
_decisions = {}


def instance(family, param):
    key = (family, param)
    if key not in _instances:
        _instances[key] = _GEN[family](param)
    return _instances[key]


def decision(family, param, with_separator=False):
    key = (family, param)
    cached = _decisions.get(key)
    if cached is not None and (cached.separator is not None or not with_separator):
        return cached
    inst = instance(family, param)
    result = decide_separability(inst.left, inst.right, max_steps=512,
                                 with_separator=with_separator)
    _decisions[key] = result
    return result


def report(num, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num:2d} [{name}]: {status}"
          + (f" -- {failures[0]}" if failures else ""))
    assert not failures, f"criterion {num} ({name}): {failures}"


def test_criterion_01_quadratic_family():
    failures = []
    for n in QUADRATIC_PARAMS:
        start = time.perf_counter()
        inst = instance("quadratic", n)
        if not verify_tower(inst.left, inst.right, inst.tower):
            failures.append(f"n={n}: tower failed to verify")
        if inst.tower.height != n * n - n + 1:
            failures.append(f"n={n}: height {inst.tower.height}")
        if decision("quadratic", n).status != "separable":
            failures.append(f"n={n}: not separable")
        elapsed = time.perf_counter() - start
        if elapsed >= 10.0:
            failures.append(f"n={n}: took {elapsed:.1f}s")
    report(1, "quadratic family", failures)


def test_criterion_02_exponential_family():
    failures = []
    for m in EXP_PARAMS:
        inst = instance("exp", m)
        if not verify_tower(inst.left, inst.right, inst.tower):
            failures.append(f"m={m}: tower failed to verify")
        if inst.tower.height != 2 ** (m + 1):
            failures.append(f"m={m}: height {inst.tower.height}")
        if minimal_dfa(determinize(inst.right)).state_count != 2:
            failures.append(f"m={m}: right minimal DFA not 2 states")
        if m <= 6:
            size = minimal_dfa(determinize(inst.left)).state_count
            if size != 2 ** (m + 1):
                failures.append(f"m={m}: left minimal DFA {size}")
        if m <= 5 and not is_piecewise_testable(inst.left):
            failures.append(f"m={m}: left language not PT")
    report(2, "exponential family", failures)


def test_criterion_03_doubly_indexed_family():
    failures = []
    # brute-force validation step at m <= 2: every tower element re-checked
    # against independent enumeration of its side's language
    for m in (1, 2):
        inst = instance("2exp", m)
        horizon = 6
        sides = {
            "left": set(enumerate_language(inst.left, horizon)),
            "right": set(enumerate_language(inst.right, horizon)),
        }
        for word, side in inst.tower.elements:
            if len(word) <= horizon and word not in sides[side]:
                failures.append(f"m={m}: element {word} not in {side} language")
    for m in TWOEXP_PARAMS:
        inst = instance("2exp", m)
        expected = 2 ** m * (2 ** m - 1) + 2
        if not verify_tower(inst.left, inst.right, inst.tower):
            failures.append(f"m={m}: tower failed to verify")
        if inst.tower.height != expected:
            failures.append(f"m={m}: height {inst.tower.height} != {expected}")
        if decision("2exp", m).status != "separable":
            failures.append(f"m={m}: not separable")
    report(3, "doubly-indexed family", failures)


def test_criterion_04_dfa_family():
    failures = []
    figure_top = ("a3_2", "a3_1", "a3_0", "b", "a1_0", "b", "a2_1", "a2_0",
                  "b", "a1_0", "b")
    for n in EXPDFA_PARAMS:
        inst = instance("expdfa", n)
        if not verify_tower(inst.left, inst.right, inst.tower):
            failures.append(f"n={n}: tower failed to verify")
        if inst.tower.height != 2 ** n:
            failures.append(f"n={n}: height {inst.tower.height}")
        for side in (inst.left, inst.right):
            if not side.deterministic:
                failures.append(f"n={n}: side not deterministic")
            seen = set()
            for src, sym, _ in side.transitions:
                if (src, sym) in seen:
                    failures.append(f"n={n}: duplicate transition at {src}")
                seen.add((src, sym))
        if len(inst.left.alphabet) != n * (n + 1) // 2 + 1:
            failures.append(f"n={n}: alphabet {len(inst.left.alphabet)}")
    if instance("expdfa", 3).tower.elements[-1][0] != figure_top:
        failures.append("n=3: top element differs from the figure")
    report(4, "exponential DFA family", failures)


def test_criterion_05_upper_bound():
    failures = []
    everything = (
        [("quadratic", n) for n in QUADRATIC_PARAMS]
        + [("exp", m) for m in EXP_PARAMS]
        + [("2exp", m) for m in TWOEXP_PARAMS]
        + [("expdfa", n) for n in EXPDFA_PARAMS]
    )
    for family, param in everything:
        inst = instance(family, param)
        n = max(inst.left.state_count, inst.right.state_count)
        m = len(inst.left.alphabet)
        bound = upper_bound_height(n, m)
        if inst.tower.height > bound:
            failures.append(
                f"{family}({param}): height {inst.tower.height} > bound {bound}")
    report(5, "closed-form height bound", failures)


def test_criterion_06_separator_soundness():
    failures = []
    for family, param in SEPARATOR_SET:
        inst = instance(family, param)
        result = decision(family, param, with_separator=True)
        if result.status != "separable":
            failures.append(f"{family}({param}): verdict {result.status}")
            continue
        separator = result.separator
        if not includes(separator, inst.right):
            failures.append(f"{family}({param}): separator misses right side")
        if not is_empty(intersection(separator, inst.left)):
            failures.append(f"{family}({param}): separator meets left side")
        if not is_piecewise_testable(separator):
            failures.append(f"{family}({param}): separator not PT")
    rng = random.Random(66001)
    found = 0
    while found < 50:
        a = random_nfa(rng, max_states=4, alphabet=("a", "b", "c"), density=0.22)
        b = random_nfa(rng, max_states=4, alphabet=("a", "b", "c"), density=0.22)
        result = decide_separability(a, b, max_steps=64, with_separator=True)
        if result.status != "separable":
            continue
        found += 1
        separator = result.separator
        if not includes(separator, b):
            failures.append(f"random {found}: separator misses right side")
        if not is_empty(intersection(separator, a)):
            failures.append(f"random {found}: separator meets left side")
        if not is_piecewise_testable(separator):
            failures.append(f"random {found}: separator not PT")
    report(6, "separator soundness", failures)


def test_criterion_07_mcvp_equivalence():
    failures = []
    rng = random.Random(77002)
    circuits = [random_circuit(rng, 12) for _ in range(100)]
    circuits.append(Circuit((Gate("ZERO"), Gate("ONE"), Gate("AND", 1, 2),
                             Gate("OR", 3, 3))))
    for i, circuit in enumerate(circuits):
        left, right = gen_mcvp(circuit)
        verdict = decide_separability(left, right, max_steps=64).status
        expected = "infinite_tower" if eval_circuit(circuit) else "separable"
        if verdict != expected:
            failures.append(f"circuit {i}: {verdict} but value "
                            f"{eval_circuit(circuit)}")
    report(7, "circuit-value equivalence", failures)


def test_criterion_08_prefix_pattern_equivalence():
    failures = []
    rng = random.Random(88003)
    for i in range(50):
        n = rng.randint(2, 8)
        edges = []
        for u in range(n):
            for v in range(n):
                if rng.random() < 0.15:
                    edges.append((u, v))
        s, t = rng.randrange(n), rng.randrange(n)
        left, right = gen_reachability(n, edges, s, t)
        expected = reachability(n, edges, s, t)
        pattern = find_pattern(left, right)
        if (pattern is not None) != expected:
            failures.append(f"graph {i}: pattern {pattern is not None}, "
                            f"bfs {expected}")
        height = max_prefix_tower_height(left, right)
        if (height == math.inf) != (pattern is not None):
            failures.append(f"graph {i}: height/pattern disagree")
    report(8, "prefix pattern equivalence", failures)


def test_criterion_09_prefix_bounds():
    failures = []
    for m in range(1, 6):
        inst = instance("exp", m)
        da = minimal_dfa(determinize(inst.left))
        db = minimal_dfa(determinize(inst.right))
        height = max_prefix_tower_height(da, db)
        tight = (da.state_count * db.state_count) // 2
        if height != 2 ** (m + 1) or height != tight:
            failures.append(f"m={m}: height {height}, mn/2 {tight}")
    rng = random.Random(99004)
    checked = 0
    while checked < 40:
        a, b = (Automaton(  # complete random DFAs with 2..4 states
            n, ("a", "b"), {rng.randrange(n)},
            {q for q in range(n) if rng.random() < 0.4},
            {(q, sym, rng.randrange(n)) for q in range(n) for sym in ("a", "b")},
            True)
            for n in (rng.randint(2, 4), rng.randint(2, 4)))
        if not is_empty(intersection(a, b)):
            continue
        height = max_prefix_tower_height(a, b)
        if height == math.inf:
            continue
        checked += 1
        if height > (a.state_count * b.state_count) // 2:
            failures.append(
                f"random DFA pair: height {height} beats "
                f"{(a.state_count * b.state_count) // 2}")
    report(9, "prefix height bounds", failures)


def test_criterion_10_determinization_transforms():
    failures = []
    for variant in ("per-state", "per-letter-state"):
        for m in range(1, 5):
            inst = instance("exp", m)
            tr = tower_preserving_determinization(inst.left, inst.right, variant)
            letters = len(inst.left.alphabet)
            for out, n in ((tr.left, inst.left.state_count),
                           (tr.right, inst.right.state_count)):
                if not out.deterministic:
                    failures.append(f"{variant} m={m}: output not deterministic")
                limit = n + n * n if variant == "per-state" else n + letters * n
                if out.state_count > limit:
                    failures.append(
                        f"{variant} m={m}: {out.state_count} states > {limit}")
            carried = tr.carry(inst.tower)
            if carried.height != inst.tower.height:
                failures.append(f"{variant} m={m}: height changed")
            if not verify_tower(tr.left, tr.right, carried):
                failures.append(f"{variant} m={m}: carried tower invalid")
            verdict = decide_separability(tr.left, tr.right, max_steps=256).status
            if verdict != "separable":
                failures.append(f"{variant} m={m}: verdict {verdict}")
    report(10, "determinization transforms", failures)


def test_criterion_11_oracle_gate():
    failures = []
    rng = random.Random(110005)
    bound = upper_bound_height(3, 2)
    for i in range(200):
        a = random_nfa(rng, max_states=3, alphabet=("a", "b"), density=0.3)
        b = random_nfa(rng, max_states=3, alphabet=("a", "b"), density=0.3)
        verdict = decide_separability(a, b, max_steps=64).status
        brute = brute_max_tower_height(a, b, "subsequence", max_len=10,
                                       budget=4096)
        if verdict == "separable":
            if brute.height > bound:
                failures.append(f"pair {i}: separable but brute {brute}")
        elif verdict == "infinite_tower":
            if brute.exact:
                failures.append(f"pair {i}: infinite but brute exact {brute}")
        else:
            failures.append(f"pair {i}: engine undecided")
        if is_empty(intersection(a, b)):
            engine_height = max_prefix_tower_height(a, b)
            brute_prefix = brute_max_tower_height(a, b, "prefix", max_len=10,
                                                  budget=4096)
            if engine_height == math.inf:
                if brute_prefix.exact:
                    failures.append(f"pair {i}: prefix inf vs {brute_prefix}")
            elif brute_prefix.exact:
                if brute_prefix.height != engine_height:
                    failures.append(
                        f"pair {i}: prefix {engine_height} vs {brute_prefix}")
            elif brute_prefix.height > engine_height:
                failures.append(
                    f"pair {i}: prefix lower bound {brute_prefix.height} "
                    f"beats exact {engine_height}")
    report(11, "brute-force oracle gate", failures)


def test_criterion_12_pt_cross_validation():
    from test_ptcheck import PT_FIXTURES, aa_star
    from conftest import literal, sigma_star

    failures = []
    if is_piecewise_testable(aa_star()):
        failures.append("(aa)* reported PT")
    if not is_piecewise_testable(gen_universality(sigma_star(("a", "b")))):
        failures.append("universal input: padded language not PT")
    nonuniversal = literal(("a",), ("a", "b"))
    if is_piecewise_testable(gen_universality(nonuniversal)):
        failures.append("nonempty non-universal input reported PT")
    if len(PT_FIXTURES) != 20:
        failures.append(f"fixture set has {len(PT_FIXTURES)} entries")
    for name, factory, expected in PT_FIXTURES:
        if is_piecewise_testable(factory()) != expected:
            failures.append(f"fixture {name}: expected PT={expected}")
    report(12, "piecewise-testability cross-validation", failures)
