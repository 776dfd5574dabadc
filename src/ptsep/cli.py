"""Command-line front end.

Subcommands: analyze, prefix-analyze, pt-check, generate, reduce,
verify-tower, bench, oracle.  Exit codes: 0 for success / positive verdicts,
1 for negative verdicts, 2 for errors.  Reports are printed as a table by
default and as JSON with --json; the numbers are identical in both
renderings and timings are kept in a separate field so reports stay
byte-comparable.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import families, oracles, prefixes, ptcheck, towers
from .automata import (
    _completed,
    _minimal,
    automaton_from_dict,
    automaton_to_dict,
    load_automaton,
    normalize_alphabets,
    save_automaton,
    whole,
)
from .errors import PtsepError, SchemaError
from .towers import Tower, upper_bound_height

@dataclass
class Report:
    command: str
    data: dict = field(default_factory=dict)
    timings_ms: dict = field(default_factory=dict)

    def to_json(self) -> str:
        body = {"command": self.command, **self.data}
        out = dict(sorted(body.items()))
        out["timings_ms"] = self.timings_ms
        return json.dumps(out, indent=2, sort_keys=False)

    def print_table(self, stream=sys.stdout):
        def emit(prefix, value):
            if isinstance(value, dict):
                for key, sub in value.items():
                    emit(f"{prefix}{key}.", sub)
            elif isinstance(value, list) and value and isinstance(value[0], dict):
                for i, sub in enumerate(value):
                    emit(f"{prefix}{i}.", sub)
            else:
                print(f"{prefix[:-1]:<32} {value}", file=stream)

        print(f"{'command':<32} {self.command}", file=stream)
        emit("", self.data)


@contextmanager
def _timer(report: Report, name: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        report.timings_ms[name] = round((time.perf_counter() - start) * 1000.0, 3)


def _emit(report: Report, args) -> None:
    if args.json:
        print(report.to_json())
    else:
        report.print_table()


def _load_pair(left_path, right_path):
    left = load_automaton(left_path)
    right = load_automaton(right_path)
    return normalize_alphabets(left, right)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as exc:  # bad JSON, or a file that is not UTF-8
            raise SchemaError(f"{path}: {exc}") from None


def _load_graph(path):
    """(vertices, edges, s, t) of a graph document, checked field by field."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise SchemaError("graph document must be a JSON object")
    for key in ("vertices", "edges", "s", "t"):
        if key not in data:
            raise SchemaError(f"graph document needs field {key!r}")
    n = data["vertices"]
    if not whole(n):
        raise SchemaError("vertices: must be a non-negative integer")
    for key in ("s", "t"):
        if not whole(data[key], n):
            raise SchemaError(f"{key}: {data[key]!r} is not a vertex id (vertices={n})")
    edges = data["edges"]
    if not isinstance(edges, list):
        raise SchemaError("edges: must be a list of [source, target]")
    for i, edge in enumerate(edges):
        if not (isinstance(edge, list) and len(edge) == 2
                and all(whole(v, n) for v in edge)):
            raise SchemaError(
                f"edges[{i}]: expected [source, target] with vertices below {n}, got {edge!r}")
    return n, [tuple(e) for e in edges], data["s"], data["t"]


def _save_json(data, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_analyze(args) -> int:
    report = Report("analyze")
    left, right = _load_pair(args.left, args.right)
    with _timer(report, "decide"):
        result = towers.decide_separability(
            left, right,
            max_steps=args.max_steps,
            budget=args.budget,
            witness_height=args.witness_height,
            with_separator=True,
        )
    chain = result.chain
    report.data["verdict"] = result.status
    report.data["b_index"] = chain.b_index
    report.data["steps"] = chain.to_dict()["steps"]
    if result.separator is not None:
        separator = result.separator
        report.data["separator_states"] = separator.state_count
        with _timer(report, "pt_audit"):
            report.data["separator_is_pt"] = ptcheck.is_piecewise_testable(separator)
        if args.out:
            save_automaton(separator, args.out)
            report.data["separator_file"] = args.out
    if result.witness is not None:
        report.data["witness"] = result.witness.to_dict()
    _emit(report, args)
    if result.status == "separable":
        return 0
    if result.status == "infinite_tower":
        return 1
    return 2


def cmd_prefix_analyze(args) -> int:
    report = Report("prefix-analyze")
    left, right = _load_pair(args.left, args.right)
    with _timer(report, "pattern"):
        pattern = prefixes.find_pattern(left, right)
    report.data["pattern_found"] = pattern is not None
    dfas = [_completed(len(left.alphabet), _minimal(x, args.budget)) for x in (left, right)]
    if pattern is not None:
        report.data["pattern"] = pattern.to_dict()
        report.data["height"] = "infinite"
    else:
        with _timer(report, "height"):
            height = prefixes._flat_height(*dfas)
        report.data["height"] = int(height)
    m, n = (d[0] for d in dfas)
    report.data["bounds"] = {
        "minimal_dfa_states": [m, n],
        "dfa_pair_bound": (m * n) // 2,
        "product_states": m * n,
        "nfa_bound": 2 ** max(left.state_count + right.state_count - 1, 0),
    }
    _emit(report, args)
    return 0 if pattern is not None else 1


def cmd_pt_check(args) -> int:
    report = Report("pt-check")
    automaton = load_automaton(args.automaton)
    with _timer(report, "check"):
        violation = ptcheck.language_pt_violation(automaton, args.budget)
    report.data["piecewise_testable"] = violation is None
    if violation is not None:
        kind, witness = violation
        report.data["violated_condition"] = 1 if kind == "cycle" else 2
        report.data["witness_states"] = list(witness)
    _emit(report, args)
    return 0 if violation is None else 1


_FAMILIES = {
    "quadratic": families.gen_quadratic,
    "exp": families.gen_exp,
    "2exp": families.gen_2exp,
    "expdfa": families.gen_expdfa,
}

_DEFAULT_RANGES = {
    "quadratic": range(4, 13, 2),
    "exp": range(1, 9),
    "2exp": range(1, 5),
    "expdfa": range(1, 9),
}


def cmd_generate(args) -> int:
    instance = _FAMILIES[args.family](args.param)
    bundle = {
        "family": instance.family,
        "param": instance.param,
        "expected_height": instance.expected_height,
        "left": automaton_to_dict(instance.left),
        "right": automaton_to_dict(instance.right),
        "tower": instance.tower.to_dict(),
    }
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        save_automaton(instance.left, os.path.join(args.out_dir, "left.json"))
        save_automaton(instance.right, os.path.join(args.out_dir, "right.json"))
        _save_json(instance.tower.to_dict(), os.path.join(args.out_dir, "tower.json"))
        print(f"wrote left.json, right.json, tower.json to {args.out_dir}")
    else:
        print(json.dumps(bundle, indent=2, sort_keys=True))
    return 0


def cmd_reduce(args) -> int:
    if args.kind == "mcvp":
        circuit = families.Circuit.from_dict(_load_json(args.input))
        left, right = families.gen_mcvp(circuit, padded=not args.bare)
        outputs = {"left.json": left, "right.json": right}
    elif args.kind == "reach":
        left, right = families.gen_reachability(*_load_graph(args.input), dfa=args.dfa)
        outputs = {"left.json": left, "right.json": right}
    else:  # universality
        automaton = automaton_from_dict(_load_json(args.input))
        outputs = {"result.json": families.gen_universality(automaton)}
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    for name, automaton in outputs.items():
        save_automaton(automaton, os.path.join(out_dir, name))
    print(f"wrote {', '.join(outputs)} to {out_dir}")
    return 0


def cmd_verify_tower(args) -> int:
    left, right = _load_pair(args.left, args.right)
    tower = Tower.from_dict(_load_json(args.tower))
    failure = towers.check_tower(left, right, tower)
    if failure is None:
        print(f"valid tower, height {tower.height}")
        return 0
    print(f"invalid tower: {failure}")
    return 1


def _parse_range(text: str) -> range:
    """The --range option: start[:stop[:step]], stop inclusive, step positive
    (default 1); argparse names the option on error."""
    try:
        bounds = [int(x) for x in text.split(":")]
        start, stop, step = {1: bounds * 2 + [1], 2: bounds + [1], 3: bounds}[len(bounds)]
    except (ValueError, KeyError):
        raise argparse.ArgumentTypeError(
            f"expected start[:stop[:step]] of integers, got {text!r}") from None
    if step < 1 or start > stop:
        raise argparse.ArgumentTypeError(
            f"expected a nonempty range with a positive step, got {text!r}")
    return range(start, stop + 1, step)


BENCH_COLUMNS = [
    "family", "param", "left_states", "right_states", "alphabet",
    "height", "expected_height", "bound", "bound_ok", "ms",
]


def cmd_bench(args) -> int:
    suites = list(_FAMILIES) if args.suite == "all" else [args.suite]
    rows = []
    for family in suites:
        params = args.range or _DEFAULT_RANGES[family]
        for param in params:
            start = time.perf_counter()
            instance = _FAMILIES[family](param)
            ok = towers.verify_tower(instance.left, instance.right, instance.tower)
            if not ok:
                raise PtsepError(f"{family}({param}): generated tower failed to verify")
            height = instance.tower.height
            bound = upper_bound_height(
                max(instance.left.state_count, instance.right.state_count),
                len(instance.left.alphabet))
            elapsed = round((time.perf_counter() - start) * 1000.0, 3)
            rows.append({
                "family": family,
                "param": param,
                "left_states": instance.left.state_count,
                "right_states": instance.right.state_count,
                "alphabet": len(instance.left.alphabet),
                "height": height,
                "expected_height": instance.expected_height,
                "bound": bound,
                "bound_ok": height <= bound,
                "ms": elapsed,
            })
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=BENCH_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in BENCH_COLUMNS}
    print("  ".join(c.ljust(widths[c]) for c in BENCH_COLUMNS))
    for row in rows:
        print("  ".join(str(row[c]).ljust(widths[c]) for c in BENCH_COLUMNS))
    bad = [r for r in rows if r["height"] != r["expected_height"] or not r["bound_ok"]]
    return 1 if bad else 0


def cmd_oracle(args) -> int:
    if args.oracle_command == "enumerate":
        automaton = load_automaton(args.automaton)
        words = oracles.enumerate_language(automaton, args.max_len, args.budget)
        for word in words:
            print(" ".join(word) if word else "(eps)")
        return 0
    if args.oracle_command == "tower":
        left, right = _load_pair(args.left, args.right)
        result = oracles.brute_max_tower_height(
            left, right, relation=args.relation, max_len=args.max_len,
            budget=args.budget)
        kind = "finite" if result.exact else "at_least"
        print(f"{kind} {result.height}")
        return 0
    ok = oracles.reachability(*_load_graph(args.graph))
    print("reachable" if ok else "unreachable")
    return 0 if ok else 1


def _count(text: str) -> int:
    """A non-negative integer option; argparse names the option on error."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptsep",
        description="Separation of regular languages by piecewise testable "
                    "languages: deciders, separators, tower measurements, and "
                    "the lower-bound families.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--budget", type=_count, default=None,
                       help="states per subset construction (default: 2^20)")

    p = sub.add_parser("analyze", help="decide separability and build a separator")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--max-steps", type=_count, default=512)
    p.add_argument("--witness-height", type=_count, default=3)
    p.add_argument("--out", default=None, help="write the separator automaton here")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("prefix-analyze", help="prefix-tower pattern search and height")
    p.add_argument("left")
    p.add_argument("right")
    common(p)
    p.set_defaults(func=cmd_prefix_analyze)

    p = sub.add_parser("pt-check", help="piecewise testability of one automaton")
    p.add_argument("automaton")
    common(p)
    p.set_defaults(func=cmd_pt_check)

    p = sub.add_parser("generate", help="emit a lower-bound family instance")
    p.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    p.add_argument("--param", type=int, required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("reduce", help="run a reduction on a circuit/graph/automaton")
    p.add_argument("--kind", choices=["mcvp", "reach", "universality"], required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--bare", action="store_true",
                   help="mcvp: skip the minimality padding letters")
    p.add_argument("--dfa", action="store_true",
                   help="reach: emit the minimal-DFA variant")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify-tower", help="validate a tower file against a pair")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("tower")
    p.set_defaults(func=cmd_verify_tower)

    p = sub.add_parser("bench", help="reproduce family heights and bounds")
    p.add_argument("--suite", choices=sorted(_FAMILIES) + ["all"], required=True)
    p.add_argument("--range", type=_parse_range, default=None,
                   help="start[:stop[:step]] inclusive")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle", help="brute-force reference computations")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    q = osub.add_parser("enumerate")
    q.add_argument("automaton")
    q.add_argument("--max-len", type=_count, required=True)
    q.add_argument("--budget", type=_count, default=None)
    q.set_defaults(func=cmd_oracle)
    q = osub.add_parser("tower")
    q.add_argument("left")
    q.add_argument("right")
    q.add_argument("--relation", choices=["subsequence", "prefix"],
                   default="subsequence")
    q.add_argument("--max-len", type=_count, required=True)
    q.add_argument("--budget", type=_count, default=None)
    q.set_defaults(func=cmd_oracle)
    q = osub.add_parser("reach")
    q.add_argument("graph")
    q.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PtsepError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug: still exit 2, never a traceback or a verdict code
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
