"""Generators for the automata families, explicit towers, and reductions
used as test fixtures: the quadratic binary family, the exponential and
doubly exponential NFA families, the exponential DFA family, the circuit
and graph reductions, the universality reduction, and the two
tower-preserving determinization transforms.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .automata import Automaton, _require_same_alphabet, bits, is_empty, whole
from .errors import SchemaError
from .towers import LEFT, PREFIX, RIGHT, SUBSEQUENCE, Tower


@dataclass(frozen=True)
class Gate:
    kind: str  # "ZERO" | "ONE" | "AND" | "OR"
    left: Optional[int] = None  # 1-based gate index, None for constants
    right: Optional[int] = None


@dataclass(frozen=True)
class Circuit:
    """Monotone circuit: gates indexed 1..n, wires only point backwards."""

    gates: tuple

    def __post_init__(self):
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        if not gates:
            raise ValueError("circuit needs at least one gate")
        for i, gate in enumerate(gates, start=1):
            if gate.kind in ("ZERO", "ONE"):
                continue
            if gate.kind not in ("AND", "OR"):
                raise ValueError(f"gate {i}: unknown kind {gate.kind!r}")
            for side, ref in (("left", gate.left), ("right", gate.right)):
                if not whole(ref, i) or ref < 1:
                    raise ValueError(
                        f"gate {i}: {side} wire {ref!r} must point to an earlier gate")

    def __len__(self):
        return len(self.gates)

    def to_dict(self) -> dict:
        return {
            "gates": [
                {"kind": g.kind, "left": g.left, "right": g.right}
                for g in self.gates
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Circuit":
        if not isinstance(data, dict) or "gates" not in data:
            raise SchemaError("circuit document needs a 'gates' list")
        if not isinstance(data["gates"], list):
            raise SchemaError("gates: must be a list of gate objects")
        gates = []
        for i, item in enumerate(data["gates"]):
            if not isinstance(item, dict) or "kind" not in item:
                raise SchemaError(f"gates[{i}]: expected an object with 'kind'")
            gates.append(Gate(item["kind"], item.get("left"), item.get("right")))
        try:
            return cls(tuple(gates))
        except ValueError as exc:
            raise SchemaError(str(exc)) from None


def eval_circuit(circuit: Circuit) -> bool:
    """Bottom-up evaluation; returns the value of the last gate."""
    values = [False]
    for gate in circuit.gates:
        if gate.kind == "ZERO":
            values.append(False)
        elif gate.kind == "ONE":
            values.append(True)
        elif gate.kind == "AND":
            values.append(values[gate.left] and values[gate.right])
        else:
            values.append(values[gate.left] or values[gate.right])
    return values[-1]


@dataclass
class FamilyInstance:
    family: str
    param: int
    left: Automaton
    right: Automaton
    tower: Optional[Tower]
    expected_height: int


# ---------------------------------------------------------------------------
# quadratic binary family


def gen_quadratic(n: int) -> FamilyInstance:
    """Binary pair with a tower of height n^2 - n + 1 and no infinite tower.

    The left NFA runs an a-path with b-self-loops and a final b-cycle; the
    right DFA counts b's along a b-path with a wrap-around a-transition.
    The tower is the full prefix chain of (b^(n-1) a)^(n-2) b^n, sides by
    the parity of the trailing block of b's.
    """
    if n < 4 or n % 2:
        raise ValueError("n must be an even integer >= 4")
    alphabet = ("a", "b")
    # left: paper states 1..n become ids 0..n-1
    transitions = set()
    for i in range(n - 2):
        transitions.add((i, "a", i + 1))
    for i in range(n - 2):
        transitions.add((i, "b", i))
    transitions.add((n - 2, "b", n - 1))
    transitions.add((n - 1, "b", n - 2))
    left = Automaton(n, alphabet, range(n - 1), {n - 2}, transitions)

    transitions = set()
    for i in range(n - 1):
        transitions.add((i, "b", i + 1))
    transitions.add((n - 1, "a", 0))
    right = Automaton(n, alphabet, {0}, set(range(1, n, 2)), transitions, True)

    word = (("b",) * (n - 1) + ("a",)) * (n - 2) + ("b",) * n
    elements = []
    trailing_b = 0
    for length in range(len(word) + 1):
        if length:
            trailing_b = trailing_b + 1 if word[length - 1] == "b" else 0
        side = LEFT if trailing_b % 2 == 0 else RIGHT
        elements.append((word[:length], side))
    tower = Tower(PREFIX, tuple(elements))
    return FamilyInstance("quadratic", n, left, right, tower, n * n - n + 1)


# ---------------------------------------------------------------------------
# exponential NFA family


def _exp_alphabet(m: int):
    return ("b",) + tuple(f"a{i}" for i in range(1, m + 1))


def _exp_left(m: int) -> Automaton:
    """States 0..m, all initial, 0 final: b-self-loops everywhere but 0,
    a_j-self-loops above j, and a_i fanning down from i to every smaller
    state."""
    alphabet = _exp_alphabet(m)
    transitions = set()
    for i in range(1, m + 1):
        transitions.add((i, "b", i))
        for j in range(1, i):
            transitions.add((i, f"a{j}", i))
        for j in range(i):
            transitions.add((i, f"a{i}", j))
    return Automaton(m + 1, alphabet, range(m + 1), {0}, transitions)


def _exp_right(m: int) -> Automaton:
    """Two states accepting every word that ends with b."""
    alphabet = _exp_alphabet(m)
    transitions = {(0, sym, 0) for sym in alphabet}
    transitions.add((0, "b", 1))
    return Automaton(2, alphabet, {0}, {1}, transitions)


def exp_word(m: int) -> tuple:
    """u_m: the doubling word u_k = u_{k-1} b a_k u_{k-1}."""
    word = ()
    for k in range(1, m + 1):
        word = word + ("b", f"a{k}") + word
    return word


def gen_exp(m: int) -> FamilyInstance:
    """NFA with m+1 states vs. a two-state automaton for "ends with b":
    the prefixes of u_m b form a tower of height 2^(m+1); no infinite
    tower exists."""
    if m < 0:
        raise ValueError("m must be >= 0")
    left = _exp_left(m)
    right = _exp_right(m)
    word = exp_word(m) + ("b",)
    elements = tuple(
        (word[:length], LEFT if length % 2 == 0 else RIGHT)
        for length in range(len(word) + 1)
    )
    tower = Tower(PREFIX, elements)
    return FamilyInstance("exp", m, left, right, tower, 2 ** (m + 1))


# ---------------------------------------------------------------------------
# doubly exponential NFA family


def gen_2exp(m: int) -> FamilyInstance:
    """Both sides carry the doubling structure: c-letters restart the left
    automaton from its accepting state and cascade down the right one,
    giving a tower of height 2^m (2^m - 1) + 2."""
    if m < 1:
        raise ValueError("m must be >= 1")
    sigma_m = _exp_alphabet(m)
    alphabet = sigma_m + tuple(f"c{k}" for k in range(1, m))

    base = _exp_left(m)
    transitions = {(s, base.alphabet[sym], t) for s, sym, t in base.transitions}
    for k in range(1, m):
        for j in range(1, m + 1):
            transitions.add((0, f"c{k}", j))
    left = Automaton(m + 1, alphabet, range(m + 1), {0}, transitions)

    transitions = set()
    transitions.add((1, "b", 0))
    for k in range(1, m + 1):
        loops = set(sigma_m) | {f"c{i}" for i in range(1, k - 1)}
        for sym in loops:
            transitions.add((k, sym, k))
        if k >= 2:
            for i in range(1, k):
                transitions.add((k, f"c{k-1}", i))
    right = Automaton(m + 1, alphabet, range(1, m + 1), {0}, transitions)

    word = exp_word(m)
    for k in range(1, m):
        word = word + (f"c{k}",) + word
    word = word + ("b",)
    elements = [((), LEFT)]
    for length in range(1, len(word) + 1):
        last = word[length - 1]
        if last.startswith("c"):
            continue
        elements.append((word[:length], RIGHT if last == "b" else LEFT))
    tower = Tower(PREFIX, tuple(elements))
    expected = 2 ** m * (2 ** m - 1) + 2
    return FamilyInstance("2exp", m, left, right, tower, expected)


# ---------------------------------------------------------------------------
# exponential DFA family


def _expdfa_alphabet(n: int):
    return ("b",) + tuple(
        f"a{i}_{j}" for i in range(1, n + 1) for j in range(i)
    )


def expdfa_word(n: int, i: int) -> tuple:
    """The i-th tower element w_n(i), by the doubling recursion."""

    def alpha(k, j):
        return tuple(f"a{k}_{jj}" for jj in range(j, -1, -1))

    def u(k):
        word = ()
        for kk in range(1, k + 1):
            word = word + ("b",) + alpha(kk, kk - 1) + word
        return word

    def w(k, i):
        if i == 0:
            return (f"a{k}_0",)
        if i == 1:
            return (f"a{k}_0", "b")
        j = i.bit_length() - 1
        return alpha(k, j) + u(j - 1) + ("b",) + w(j, i - (1 << j))

    return w(n, i)


def gen_expdfa(n: int) -> FamilyInstance:
    """Deterministic pair over n(n+1)/2 + 1 letters with a subsequence tower
    of height 2^n: unique letters a_{i,j} replace the nondeterministic fan
    of the exponential family, with self-loops preserving embeddability."""
    if n < 1:
        raise ValueError("n must be >= 1")
    alphabet = _expdfa_alphabet(n)
    transitions = set()
    for i in range(1, n + 1):
        for j in range(i):
            transitions.add((i, f"a{i}_{j}", j))
    for k in range(1, n + 1):
        transitions.add((k, "b", k))
        for i in range(1, n + 1):
            if i == k:
                continue
            for j in range(min(i, k)):
                transitions.add((k, f"a{i}_{j}", k))
    left = Automaton(n + 1, alphabet, {n}, {0}, transitions, True)

    transitions = {(0, "b", 1), (1, "b", 1)}
    for sym in alphabet:
        if sym != "b":
            transitions.add((0, sym, 0))
            transitions.add((1, sym, 0))
    right = Automaton(2, alphabet, {0}, {1}, transitions, True)

    elements = tuple(
        (expdfa_word(n, i), LEFT if i % 2 == 0 else RIGHT)
        for i in range(2 ** n)
    )
    tower = Tower(SUBSEQUENCE, elements)
    return FamilyInstance("expdfa", n, left, right, tower, 2 ** n)


# ---------------------------------------------------------------------------
# circuit reduction


def gen_mcvp(circuit: Circuit, padded: bool = True):
    """Deterministic pair from a monotone circuit: the circuit evaluates to
    true iff there is an infinite tower between the two languages.

    ``padded`` adds the fresh-letter transitions that force the left
    automaton to be minimal; the bare automaton has the same tower
    behaviour.
    """
    n = len(circuit)
    alphabet = []
    for i in range(1, n + 1):
        alphabet.append(f"a{i}")
        alphabet.append(f"b{i}")
    alphabet += ["x", "y"]
    if padded:
        alphabet += [f"z{j}" for j in range(1, 2 * n + 1)]

    state_s = 0
    zero_state = n + 1
    one_state = n + 2

    def wire_state(gate_index: int, ref):
        gate = circuit.gates[gate_index - 1]
        if gate.kind == "ZERO":
            return zero_state
        if gate.kind == "ONE":
            return one_state
        return ref

    transitions = set()
    for i in range(1, n + 1):
        gate = circuit.gates[i - 1]
        transitions.add((i, f"a{i}", wire_state(i, gate.left)))
        transitions.add((i, f"b{i}", wire_state(i, gate.right)))
    transitions.add((state_s, "x", n))
    transitions.add((one_state, "y", state_s))
    if padded:
        z = 1
        for i in range(1, n):
            transitions.add((state_s, f"z{z}", i))
            z += 1
        for i in range(1, n + 1):
            transitions.add((i, f"z{z}", zero_state))
            z += 1
        transitions.add((zero_state, f"z{z}", one_state))
    left = Automaton(n + 3, alphabet, {state_s}, {zero_state, one_state},
                     transitions, True)

    state_q, state_t = 0, 1
    and_state = {}
    for i in range(1, n + 1):
        if circuit.gates[i - 1].kind == "AND":
            and_state[i] = 2 + len(and_state)
    transitions = {(state_q, "x", state_t), (state_t, "y", state_q)}
    for i in range(1, n + 1):
        kind = circuit.gates[i - 1].kind
        if kind in ("OR", "ONE"):
            transitions.add((state_t, f"a{i}", state_t))
            transitions.add((state_t, f"b{i}", state_t))
        elif kind == "AND":
            transitions.add((state_t, f"a{i}", and_state[i]))
            transitions.add((and_state[i], f"b{i}", state_t))
    right = Automaton(2 + len(and_state), alphabet, {state_q}, {state_q},
                      transitions, True)
    return left, right


# ---------------------------------------------------------------------------
# graph reachability reduction


def gen_reachability(n_vertices: int, edges: Sequence, s: int, t: int,
                     dfa: bool = False):
    """Pair of automata with an infinite prefix tower iff t is reachable
    from s.  Every graph edge gets a unique label e0, e1, ... in input
    order.  With ``dfa=True`` both automata are minimal DFAs (a fresh
    accepting state plus per-vertex fresh letters pad the left one)."""
    for i, (u, v) in enumerate(edges):
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise ValueError(f"edge {i} out of range")
    if not (0 <= s < n_vertices and 0 <= t < n_vertices):
        raise ValueError("s and t must be vertices")
    alphabet = ["a", "b"] + [f"e{i}" for i in range(len(edges))]
    if dfa:
        alphabet += [f"g{v}" for v in range(n_vertices)]
        alphabet += [f"h{v}" for v in range(n_vertices)]

    home = 0  # accepting base state of the left automaton

    def vid(v):
        return v + 1

    transitions = {(home, "a", vid(s)), (vid(t), "b", home)}
    for i, (u, v) in enumerate(edges):
        transitions.add((vid(u), f"e{i}", vid(v)))
    state_count = n_vertices + 1
    finals = {home}
    if dfa:
        goal = state_count
        state_count += 1
        finals.add(goal)
        for v in range(n_vertices):
            transitions.add((home, f"g{v}", vid(v)))
            transitions.add((vid(v), f"h{v}", goal))
    left = Automaton(state_count, alphabet, {home}, finals, transitions, True)

    transitions = {(0, "a", 1), (1, "b", 0)}
    for i in range(len(edges)):
        transitions.add((1, f"e{i}", 1))
    right = Automaton(2, alphabet, {0}, {1}, transitions, True)
    return left, right


# ---------------------------------------------------------------------------
# universality reduction


def single_initial(a: Automaton) -> Automaton:
    """Equivalent automaton with exactly one initial state (one fresh state
    holding copies of all initial out-transitions when needed)."""
    if len(a.initials) == 1:
        return a
    iota = a.state_count
    transitions = set(a.transitions)
    for src, sym, dst in a.transitions:
        if src in a.initials:
            transitions.add((iota, sym, dst))
    finals = set(a.finals)
    if a.initials & a.finals:
        finals.add(iota)
    return Automaton(a.state_count + 1, a.alphabet, {iota}, finals, transitions)


def _fresh_name(stub: str, taken) -> str:
    name = stub
    while name in taken:
        name += "_"
    return name


def gen_universality(a: Automaton) -> Automaton:
    """Automaton whose language is piecewise testable iff L(a) is universal.

    The empty language maps to the fixed minimal DFA of (aa)*; otherwise the
    input is completed through a new all-looping state and a fresh letter
    throws every state back to the initial one.
    """
    if is_empty(a):
        return Automaton(2, ("a",), {0}, {0}, {(0, "a", 1), (1, "a", 0)}, True)
    a = single_initial(a)
    x = _fresh_name("x", set(a.alphabet))
    alphabet = a.alphabet + (x,)
    n = a.state_count
    dead = n
    q0 = next(iter(a.initials))
    transitions = {(s, a.alphabet[sym], t) for s, sym, t in a.transitions}
    defined = {(s, sym) for s, sym, _ in a.transitions}
    for q in range(n):
        for sym in range(len(a.alphabet)):
            if (q, sym) not in defined:
                transitions.add((q, a.alphabet[sym], dead))
    for sym in a.alphabet:
        transitions.add((dead, sym, dead))
    for q in range(n + 1):
        transitions.add((q, x, q0))
    return Automaton(n + 1, alphabet, {q0}, a.finals, transitions)


# ---------------------------------------------------------------------------
# tower-preserving determinization


PER_STATE = "per-state"
PER_LETTER_STATE = "per-letter-state"


@dataclass
class DeterminizationTransform:
    """The two transformed DFAs plus what carries towers over: the source of
    each side with one initial state, and the fresh letter that enters each
    of their moves."""

    left: Automaton
    right: Automaton
    sources: dict  # side -> that side's source, from single_initial
    entry: dict  # (side, letter, target) -> the fresh letter entering that move

    def carry(self, tower: Tower) -> Tower:
        """Carry a tower between the original automata over to the
        transformed pair, slot-aligning all elements to the top word and
        interleaving the fresh letters recorded from each element's
        accepting path."""
        elements = tower.elements
        paths = [find_accepting_path(self.sources[side], word) for word, side in elements]
        if None in paths:
            raise ValueError(f"element {paths.index(None)} is not accepted on its side")

        top = len(elements[-1][0]) if elements else 0
        slot_maps = [list(range(top))]
        for i in range(len(elements) - 2, -1, -1):
            emb = _greedy_embedding(elements[i][0], elements[i + 1][0])
            slot_maps.insert(0, [slot_maps[0][p] for p in emb])

        slot_ps = [[] for _ in range(top)]  # fresh letters, newest first
        out = []
        for (word, side), path, slots in zip(elements, paths, slot_maps):
            parts = [()] * top
            for k, slot in enumerate(slots):
                slot_ps[slot].insert(0, self.entry[(side, word[k], path[k + 1])])
                parts[slot] = tuple(slot_ps[slot]) + (word[k],)
            out.append((tuple(x for part in parts for x in part), side))
        return Tower(SUBSEQUENCE, tuple(out))


def _transform_one(orig, source, side, entry, alphabet, per_state):
    """Replace every transition s -a-> t with s -fresh-> sigma -a-> t.

    Per-state fresh letters are keyed by the target, so the splitter states
    are keyed by (source, target); the fresh initial state of
    :func:`single_initial` (numbered ``orig.state_count``) reuses the
    splitter of the unique original source where possible to stay within
    the n + n^2 state bound.  Per-letter-state fresh letters are keyed by
    (letter, target) and the splitters are shared between sources.
    """
    routes = {}  # splitter key -> (target, fresh letter, set of syms, set of sources)
    for s, sym, t in sorted(source.transitions):
        name = source.alphabet[sym]
        if not per_state:
            key = (name, t)
        elif s == orig.state_count:
            srcs = {
                s0 for s0, _, t0 in orig.transitions
                if t0 == t and s0 in orig.initials
            }
            key = (next(iter(srcs)) if len(srcs) == 1 else s, t)
        else:
            key = (s, t)
        _, _, syms, sources = routes.setdefault(key, (t, entry[(side, name, t)], set(), set()))
        syms.add(name)
        sources.add(s)

    transitions = set()
    for i, key in enumerate(sorted(routes)):
        sigma = source.state_count + i
        target, fresh, syms, sources = routes[key]
        for src in sources:
            transitions.add((src, fresh, sigma))
        for name in syms:
            transitions.add((sigma, name, target))
        for name in alphabet[len(source.alphabet):]:
            transitions.add((sigma, name, sigma))
    return Automaton(
        source.state_count + len(routes), alphabet, source.initials, source.finals,
        transitions, True,
    )


def tower_preserving_determinization(a: Automaton, b: Automaton,
                                     variant: str = PER_STATE) -> DeterminizationTransform:
    """Deterministic pair with exactly the same tower heights as (a, b);
    erasing the fresh letters from either transformed language recovers the
    original one.  :meth:`DeterminizationTransform.carry` carries a tower of
    (a, b) over to the pair."""
    if variant not in (PER_STATE, PER_LETTER_STATE):
        raise ValueError(f"unknown variant {variant!r}")
    _require_same_alphabet(a, b)
    per_state = variant == PER_STATE
    sources = {LEFT: single_initial(a), RIGHT: single_initial(b)}

    taken = dict.fromkeys(a.alphabet)  # the alphabet so far, fresh letters last
    entry = {}
    for side, source in sources.items():
        tag = "a" if side == LEFT else "b"
        named = {}  # target, or (letter, target) -> fresh letter
        moves = {(source.alphabet[sym], t) for _, sym, t in source.transitions}
        for sym, t in sorted(moves, key=lambda move: move[1] if per_state else move):
            key = t if per_state else (sym, t)
            if key not in named:
                named[key] = _fresh_name(f"y{tag}{t}" if per_state else f"{sym}.{tag}{t}", taken)
                taken[named[key]] = None
            entry[(side, sym, t)] = named[key]
    alphabet = tuple(taken)

    left = _transform_one(a, sources[LEFT], LEFT, entry, alphabet, per_state)
    right = _transform_one(b, sources[RIGHT], RIGHT, entry, alphabet, per_state)
    return DeterminizationTransform(left=left, right=right, sources=sources, entry=entry)


def find_accepting_path(a: Automaton, word) -> Optional[list]:
    """States of an accepting path for word, or None.  The path is picked
    from its end: the least accepting state the word reaches, then at each
    earlier position the least state with a move on that letter to the state
    picked after it.  That path need not be lexicographically least: with
    initials {0, 1}, moves 0 -a-> 5 and 1 -a-> 2 and finals {2, 5}, the path
    of ("a",) is [1, 2], not [0, 5]."""
    ids = a.word_ids(word)
    layers = [a.initial_mask]
    for sym in ids:
        layers.append(a.step(layers[-1], sym))
    endings = layers[-1] & a.final_mask
    if not endings:
        return None
    path = [next(bits(endings))]
    for k in range(len(ids) - 1, -1, -1):
        path.insert(0, next(q for q in bits(layers[k]) if a.step(1 << q, ids[k]) >> path[0] & 1))
    return path


def _greedy_embedding(v, w) -> list:
    """Leftmost positions embedding v into w; raises when v is not a
    subsequence of w."""
    positions = []
    j = 0
    for sym in v:
        while j < len(w) and w[j] != sym:
            j += 1
        if j >= len(w):
            raise ValueError("not a subsequence")
        positions.append(j)
        j += 1
    return positions
