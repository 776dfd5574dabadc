"""The benchmark's workloads: seeded instance sets, the call that runs one
instance, and the known-answer checks that decide whether it failed.

Every expected answer comes from a route other than the code under test:
the paper's closed-form heights, circuit evaluation, graph reachability,
the reachable states of a complete DFA, a separator audit, and tower
verification against the original pair.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("chain", "separate", "prefix")

# Fixed family instances.  chain: long refinement chains over narrow
# alphabets.  separate: instances whose separators take at most about 1.5 s
# (exp(6) takes 5 s, quadratic(8) 22 s, and quadratic(12) exhausts the
# budget).  prefix: pairs whose prefix-tower height runs into the hundreds.
FAMILIES = {
    "chain": [("quadratic", 10), ("quadratic", 12), ("2exp", 3), ("2exp", 4),
              ("exp", 5), ("exp", 6), ("expdfa", 6)],
    "separate": [("quadratic", 4), ("quadratic", 6), ("2exp", 1), ("2exp", 2),
                 ("2exp", 3)] + [("exp", m) for m in range(1, 6)]
                + [("expdfa", n) for n in range(1, 5)],
    "prefix": [("quadratic", 12), ("quadratic", 16), ("2exp", 4), ("2exp", 5),
               ("exp", 8), ("exp", 9)],
}

# The paper's prefix-tower heights, written out here rather than read from
# the generators.
PREFIX_HEIGHT = {
    "quadratic": lambda n: n * n - n + 1,
    "exp": lambda m: 2 ** (m + 1),
    "2exp": lambda m: 2 ** m * (2 ** m - 1) + 2,
}

# Seeded parts.  Sizes, gate mixes and yes/no answers follow a fixed
# schedule and the seed draws everything else, so that different seeds give
# different inputs of the same difficulty and the quantiles stay steady.
CIRCUITS = 100      # chain: circuit-value reductions of GATES gates, half true
GATES = 24          # 98 letters after padding
NFA_PAIRS = 300     # separate: random 5-state NFA pairs over {a, b, c}
GRAPHS = 40         # prefix: reachability reductions, 20..59 vertices, half reachable
DFAS = 120          # prefix: universality reductions of 3..8-state complete DFAs


@dataclass
class Instance:
    kind: str       # family name, or "mcvp", "nfa", "reach", "univ"
    param: object   # family parameter, or position in the seeded list
    verb: str       # "decide", "analyze", "prefix-analyze" or "pt-check"
    files: tuple    # JSON inputs the program reads
    source: object = None  # circuit, graph or DFA an input was reduced from
    separator: Optional[str] = None  # where the checked pass writes it


# ---------------------------------------------------------------------------
# seeded inputs


def _reachable(starts, successors) -> set:
    seen = set(starts)
    stack = list(seen)
    while stack:
        for t in successors(stack.pop()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _circuit(ptsep, rng, i):
    """GATES gates: two leading constants, a quarter more constants, an
    AND count cycling through 5..11, the rest OR; positions and wires are
    random, redrawn until the value is true for even i and false for odd i."""
    constants = (GATES - 2) // 4
    ands = constants + (i // 2) % 7
    kinds = ["AND"] * ands + ["OR"] * (GATES - 2 - ands - constants) + ["CONST"] * constants
    while True:
        rng.shuffle(kinds)
        gates = [ptsep.Gate(rng.choice(("ZERO", "ONE"))) for _ in range(2)]
        for index, kind in enumerate(kinds, start=3):
            if kind == "CONST":
                gates.append(ptsep.Gate(rng.choice(("ZERO", "ONE"))))
            else:
                gates.append(ptsep.Gate(kind, rng.randint(1, index - 1),
                                        rng.randint(1, index - 1)))
        circuit = ptsep.Circuit(tuple(gates))
        if ptsep.eval_circuit(circuit) == (i % 2 == 0):
            return circuit


def _nfa(ptsep, rng, states=5, alphabet=("a", "b", "c"), transitions=10):
    """One initial and one final state and ten random transitions: about 40 %
    of the pairs have an infinite tower."""
    triples = [(s, sym, t) for s in range(states) for sym in alphabet for t in range(states)]
    return ptsep.Automaton(states, alphabet, {rng.randrange(states)}, {rng.randrange(states)},
                           rng.sample(triples, transitions))


def _graph(rng, i):
    """20 + i vertices and twice as many random edges; t is reachable from
    s for even i and unreachable for odd i."""
    n = 20 + i
    while True:
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
        s = rng.randrange(n)
        reach = _reachable([s], lambda u: [v for w, v in edges if w == u])
        targets = sorted(reach - {s}) if i % 2 == 0 else sorted(set(range(n)) - reach)
        if targets:
            return n, edges, s, rng.choice(targets)


def _complete_dfa(ptsep, rng, i, alphabet=("a", "b", "c")):
    n = 3 + i % 6
    triples = {(q, sym, rng.randrange(n)) for q in range(n) for sym in alphabet}
    finals = {q for q in range(n) if rng.random() < 0.85}
    return ptsep.Automaton(n, alphabet, {0}, finals, triples, True)


def generate(ptsep, workload: str, seed: int, inputs_dir: str):
    """Build the workload's instance list and the JSON text of every input
    file under ``inputs_dir``: (instances, {path: text})."""
    rng = random.Random(f"{workload}:{seed}")
    generators = {"quadratic": ptsep.gen_quadratic, "exp": ptsep.gen_exp,
                  "2exp": ptsep.gen_2exp, "expdfa": ptsep.gen_expdfa}
    instances, texts = [], {}

    def add(kind, param, verb, automata, source=None):
        stem = os.path.join(inputs_dir, f"{len(instances):03d}-{kind}-{param}")
        files = []
        for side, automaton in zip(("left", "right"), automata):
            path = f"{stem}-{side}.json" if len(automata) > 1 else f"{stem}.json"
            texts[path] = json.dumps(ptsep.automaton_to_dict(automaton),
                                     indent=2, sort_keys=True) + "\n"
            files.append(path)
        separator = f"{stem}-separator.json" if verb == "analyze" else None
        instances.append(Instance(kind, param, verb, tuple(files), source, separator))

    verb = {"chain": "decide", "separate": "analyze", "prefix": "prefix-analyze"}[workload]
    for family, param in FAMILIES[workload]:
        inst = generators[family](param)
        add(family, param, verb, (inst.left, inst.right))
    if workload == "chain":
        for i in range(CIRCUITS):
            circuit = _circuit(ptsep, rng, i)
            add("mcvp", i, verb, ptsep.families.gen_mcvp(circuit), circuit)
    elif workload == "separate":
        for i in range(NFA_PAIRS):
            add("nfa", i, verb, (_nfa(ptsep, rng), _nfa(ptsep, rng)))
    else:
        for i in range(GRAPHS):
            graph = _graph(rng, i)
            add("reach", i, verb, ptsep.gen_reachability(*graph, dfa=True), graph)
        for i in range(DFAS):
            dfa = _complete_dfa(ptsep, rng, i)
            add("univ", i, "pt-check", (ptsep.families.gen_universality(dfa),), dfa)
    return instances, texts


# ---------------------------------------------------------------------------
# running one instance


def run(ptsep, inst: Instance, keep_separator: bool = False) -> dict:
    """Run one instance and return its deterministic outcome."""
    if inst.verb == "decide":
        left, right = ptsep.normalize_alphabets(*map(ptsep.load_automaton, inst.files))
        result = ptsep.decide_separability(left, right)
        return {
            "verdict": result.status,
            "steps": result.chain.to_dict()["steps"],
            "witness": result.witness.to_dict() if result.witness else None,
        }
    argv = [inst.verb, *inst.files, "--json"]
    if keep_separator and inst.separator:
        argv += ["--out", inst.separator]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ptsep.cli.main(argv)
    if code == 2:
        return {"code": code, "error": err.getvalue().strip()}
    report = json.loads(out.getvalue())
    report.pop("timings_ms", None)
    report.pop("separator_file", None)
    return {"code": code, "report": report}


def row(inst: Instance, outcome: dict) -> dict:
    """Per-instance summary: verdict, chain steps, separator states, height."""
    out = {"kind": inst.kind, "param": inst.param, "verdict": None, "steps": None,
           "separator_states": None, "height": None}
    report = outcome.get("report", outcome)
    if "error" in outcome:
        out["verdict"] = "error"
    elif inst.verb in ("decide", "analyze"):
        out["verdict"] = report.get("verdict")
        out["steps"] = len(report.get("steps", ()))
        out["separator_states"] = report.get("separator_states")
    elif inst.verb == "prefix-analyze":
        out["verdict"] = "pattern" if report.get("pattern_found") else "no_pattern"
        out["height"] = report.get("height")
    else:
        out["verdict"] = "pt" if report.get("piecewise_testable") else "not_pt"
    return out


# ---------------------------------------------------------------------------
# known answers


def _all_reachable_final(dfa) -> bool:
    successors = {}
    for s, _, t in dfa.transitions:
        successors.setdefault(s, []).append(t)
    return _reachable(dfa.initials, lambda q: successors.get(q, ())) <= dfa.finals


def check(ptsep, inst: Instance, outcome: dict) -> Optional[str]:
    """None when the outcome is the known answer, else the reason it is not.
    Analyze outcomes must come from a run that wrote the separator."""
    if "error" in outcome:
        return f"error: {outcome['error']}"
    report = outcome.get("report", outcome)
    pair = (ptsep.normalize_alphabets(*map(ptsep.load_automaton, inst.files))
            if len(inst.files) == 2 else None)

    if inst.verb in ("decide", "analyze"):
        verdict = report["verdict"]
        if inst.kind == "mcvp":
            expected = "infinite_tower" if ptsep.eval_circuit(inst.source) else "separable"
        elif inst.kind == "nfa":  # either verdict, backed by its separator or witness
            expected = verdict
        else:
            expected = "separable"
        if verdict not in ("separable", "infinite_tower") or verdict != expected:
            return f"verdict {verdict}, expected {expected}"
        if inst.verb == "analyze" and outcome["code"] != (0 if verdict == "separable" else 1):
            return f"exit code {outcome['code']} for verdict {verdict}"
        if verdict == "infinite_tower":
            witness = report.get("witness")
            if not witness:
                return "infinite tower without a witness"
            failure = ptsep.check_tower(*pair, ptsep.Tower.from_dict(witness))
            if failure:
                return f"witness rejected: {failure}"
        elif inst.verb == "analyze":
            return _audit_separator(ptsep, inst, pair)
        return None

    if inst.verb == "prefix-analyze":
        found = report["pattern_found"]
        if outcome["code"] != (0 if found else 1):
            return f"exit code {outcome['code']} with pattern_found {found}"
        if inst.kind == "reach":
            reachable = ptsep.reachability(*inst.source)
            if found != reachable:
                return f"pattern {found}, reachability {reachable}"
            if found:
                height = ptsep.max_prefix_tower_height(*pair)
                if height != math.inf:
                    return f"pattern found but exact height {height}"
            elif not isinstance(report["height"], int):
                return f"no pattern but height {report['height']}"
            return None
        expected = PREFIX_HEIGHT[inst.kind](inst.param)
        if found or report["height"] != expected:
            return f"height {report['height']}, expected {expected}"
        return None

    is_pt = report["piecewise_testable"]
    expected = _all_reachable_final(inst.source)
    if is_pt != expected or outcome["code"] != (0 if is_pt else 1):
        return f"piecewise_testable {is_pt} (exit {outcome['code']}), expected {expected}"
    return None


def _audit_separator(ptsep, inst: Instance, pair) -> Optional[str]:
    left, right = pair
    separator = ptsep.load_automaton(inst.separator)
    if not ptsep.includes(separator, right):
        return "separator misses the right language"
    if not ptsep.is_empty(ptsep.intersection(separator, left)):
        return "separator meets the left language"
    if not ptsep.is_piecewise_testable(separator):
        return "separator is not piecewise testable"
    return None
