"""Command-line interface: exit codes, file round-trips, report determinism."""
import json
import os
import random

import pytest

from ptsep import Automaton, automaton_to_dict, gen_exp, gen_quadratic, save_automaton
from ptsep.cli import BENCH_COLUMNS, main
from conftest import dfa, literal, sigma_star


def write_json(path, data):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


@pytest.fixture
def pair_files(tmp_path):
    inst = gen_quadratic(4)
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    save_automaton(inst.left, left)
    save_automaton(inst.right, right)
    return str(left), str(right)


def test_analyze_separable(pair_files, tmp_path, capsys):
    left, right = pair_files
    out = tmp_path / "sep.json"
    code = main(["analyze", left, right, "--out", str(out), "--json"])
    captured = capsys.readouterr().out
    assert code == 0
    report = json.loads(captured)
    assert report["verdict"] == "separable"
    assert report["separator_is_pt"] is True
    assert os.path.exists(out)


def test_analyze_not_separable(tmp_path, capsys):
    a = dfa(("a", "b"), {0: {"a": 1}, 1: {"b": 0}}, 0, {1})
    b = dfa(("a", "b"), {0: {"b": 1}, 1: {"a": 0}}, 0, {1})
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_automaton(a, pa)
    save_automaton(b, pb)
    code = main(["analyze", str(pa), str(pb), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["verdict"] == "infinite_tower"
    words = ["".join(e["word"]) for e in report["witness"]["elements"]]
    assert words == ["a", "bab", "ababa"]


def test_analyze_same_file_twice(pair_files, tmp_path, capsys):
    left, _ = pair_files
    code = main(["analyze", left, left, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["verdict"] == "infinite_tower"


def test_analyze_max_steps_zero_undecided(tmp_path, capsys):
    inst = gen_exp(1)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_automaton(inst.left, pa)
    save_automaton(inst.right, pb)
    code = main(["analyze", str(pa), str(pb), "--max-steps", "0", "--json"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 2
    assert report["verdict"] == "undecided"
    assert captured.err == "error: no verdict within 0 chain steps (--max-steps)\n"


@pytest.mark.parametrize("option", ["--max-steps", "--witness-height", "--budget"])
@pytest.mark.parametrize("value", ["-1", "-5", "x"])
def test_analyze_rejects_negative_counts(pair_files, capsys, option, value):
    with pytest.raises(SystemExit) as info:
        main(["analyze", *pair_files, option, value, "--json"])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert f"argument {option}: expected a non-negative integer" in captured.err


@pytest.mark.parametrize("argv", [
    ["prefix-analyze", "LEFT", "RIGHT", "--budget", "-2"],
    ["pt-check", "LEFT", "--budget", "-2"],
    ["oracle", "tower", "LEFT", "RIGHT", "--max-len", "2", "--budget", "-2"],
])
def test_every_budget_option_rejects_negative_values(pair_files, capsys, argv):
    paths = dict(zip(("LEFT", "RIGHT"), pair_files))
    with pytest.raises(SystemExit) as info:
        main([paths.get(arg, arg) for arg in argv])
    assert info.value.code == 2
    assert "argument --budget: expected a non-negative integer, got '-2'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["oracle", "enumerate", "LEFT", "--max-len", "-1"],
    ["oracle", "tower", "LEFT", "RIGHT", "--max-len", "-1"],
])
def test_every_max_len_option_rejects_negative_values(pair_files, capsys, argv):
    paths = dict(zip(("LEFT", "RIGHT"), pair_files))
    with pytest.raises(SystemExit) as info:
        main([paths.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert "argument --max-len: expected a non-negative integer, got '-1'" in captured.err


def test_analyze_witness_height_zero_gives_no_witness(tmp_path, capsys):
    a = dfa(("a", "b"), {0: {"a": 1}, 1: {"b": 0}}, 0, {1})
    pa = tmp_path / "a.json"
    save_automaton(a, pa)
    code = main(["analyze", str(pa), str(pa), "--witness-height", "0", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["verdict"] == "infinite_tower"
    assert "witness" not in report


def test_analyze_report_determinism(pair_files, capsys):
    left, right = pair_files
    main(["analyze", left, right, "--json"])
    first = json.loads(capsys.readouterr().out)
    main(["analyze", left, right, "--json"])
    second = json.loads(capsys.readouterr().out)
    first.pop("timings_ms")
    second.pop("timings_ms")
    assert first == second


def test_prefix_analyze(tmp_path, capsys):
    inst = gen_exp(2)
    from ptsep import determinize, minimal_dfa

    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_automaton(minimal_dfa(determinize(inst.left)), pa)
    save_automaton(minimal_dfa(determinize(inst.right)), pb)
    code = main(["prefix-analyze", str(pa), str(pb), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1  # no infinite prefix tower
    assert report["height"] == 8
    assert report["bounds"]["dfa_pair_bound"] == 8


def test_prefix_analyze_empty_inputs_have_an_integer_nfa_bound(tmp_path, capsys):
    path = tmp_path / "none.json"
    write_json(path, {"alphabet": ["a"], "states": 0, "initials": [], "finals": [],
                      "transitions": []})
    code = main(["prefix-analyze", str(path), str(path), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["height"] == 0
    bounds = report["bounds"]
    assert bounds["nfa_bound"] == 1 and isinstance(bounds["nfa_bound"], int)
    assert bounds["minimal_dfa_states"] == [1, 1]


def test_prefix_analyze_counts_the_states_of_the_completed_minimal_dfas(tmp_path, capsys):
    # the count adds the sink of the completed DFA without building it
    from ptsep import load_automaton, minimal_dfa

    def counts(left, right):
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_automaton(left, pa)
        save_automaton(right, pb)
        main(["prefix-analyze", str(pa), str(pb), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["bounds"]["minimal_dfa_states"] == [
            minimal_dfa(left).state_count, minimal_dfa(right).state_count]
        return report["bounds"]["minimal_dfa_states"]

    ab = ("a", "b")
    complete = dfa(ab, {0: {"a": 1, "b": 0}, 1: {"a": 1, "b": 0}}, 0, {1})
    assert counts(complete, literal(("b",), ab)) == [2, 3]
    assert counts(literal(("a", "b"), ab), dfa(ab, {}, 0, set())) == [4, 1]
    assert counts(sigma_star(ab), dfa(ab, {}, 0, set())) == [1, 1]
    graph = tmp_path / "graph.json"
    write_json(graph, {"vertices": 3, "edges": [[1, 2]], "s": 0, "t": 2})
    out = tmp_path / "red"
    assert main(["reduce", "--kind", "reach", "--dfa", "--input", str(graph),
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    counts(load_automaton(out / "left.json"), load_automaton(out / "right.json"))


def test_prefix_analyze_determinizes_each_input_once(tmp_path, capsys, monkeypatch):
    # the height and the bounds share one subset construction per NFA input
    from ptsep import automata, gen_2exp

    inst = gen_2exp(3)
    assert not inst.left.deterministic and not inst.right.deterministic
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_automaton(inst.left, pa)
    save_automaton(inst.right, pb)
    calls = []
    real = automata._subset_construction
    monkeypatch.setattr(automata, "_subset_construction",
                        lambda *args: calls.append(args) or real(*args))
    assert main(["prefix-analyze", str(pa), str(pb), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["height"] == 58
    assert len(calls) == 2


def test_prefix_analyze_infinite(tmp_path, capsys):
    from ptsep import gen_reachability

    left, right = gen_reachability(2, [(0, 1)], 0, 1)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_automaton(left, pa)
    save_automaton(right, pb)
    code = main(["prefix-analyze", str(pa), str(pb), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["height"] == "infinite"
    assert report["pattern_found"] is True


def test_pt_check_exit_codes(tmp_path, capsys):
    aa = dfa(("a",), {0: {"a": 1}, 1: {"a": 0}}, 0, {0})
    path = tmp_path / "aa.json"
    save_automaton(aa, path)
    code = main(["pt-check", str(path), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["violated_condition"] == 1
    assert report["witness_states"]

    path2 = tmp_path / "total.json"
    save_automaton(sigma_star(("a", "b")), path2)
    assert main(["pt-check", str(path2)]) == 0
    capsys.readouterr()

    # a one-state NFA, so pt-check runs the subset construction on it
    path3 = tmp_path / "loop.json"
    save_automaton(Automaton(1, ("a",), {0}, {0}, {(0, "a", 0)}), path3)
    assert main(["pt-check", str(path3), "--budget", "0"]) == 2
    assert "subset construction exceeded budget of 0 states" in capsys.readouterr().err
    assert main(["pt-check", str(path3), "--budget", "1"]) == 0
    capsys.readouterr()


def test_generate_roundtrip(tmp_path, capsys):
    out = tmp_path / "inst"
    code = main(["generate", "--family", "exp", "--param", "3",
                 "--out-dir", str(out)])
    capsys.readouterr()
    assert code == 0
    code = main(["verify-tower", str(out / "left.json"),
                 str(out / "right.json"), str(out / "tower.json")])
    output = capsys.readouterr().out
    assert code == 0
    assert "height 16" in output


def test_generate_stdout_bundle(capsys):
    code = main(["generate", "--family", "quadratic", "--param", "4"])
    bundle = json.loads(capsys.readouterr().out)
    assert code == 0
    assert bundle["expected_height"] == 13
    assert bundle["tower"]["relation"] == "prefix"


def test_verify_tower_rejects_bad_file(tmp_path, capsys):
    inst = gen_exp(1)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_automaton(inst.left, pa)
    save_automaton(inst.right, pb)
    tower = inst.tower.to_dict()
    tower["elements"][1]["side"] = "left"
    tower_path = tmp_path / "tower.json"
    write_json(tower_path, tower)
    code = main(["verify-tower", str(pa), str(pb), str(tower_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "invalid tower" in out


@pytest.mark.parametrize("elements, field", [
    ({"word": ["a1"], "side": "left"}, "elements:"),
    ([{"word": "a1", "side": "left"}], "elements[0].word"),
    ([{"word": ["a1"], "side": "left"}, {"word": [1], "side": "right"}],
     "elements[1].word"),
    # a string is written as the file's text: a JSON syntax error names the file
    pytest.param('{"relation": "subsequence", "elements": [', "tower.json: Expecting",
                 id="syntax"),
])
def test_verify_tower_malformed_document_exit_code(tmp_path, capsys, elements, field):
    inst = gen_exp(1)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_automaton(inst.left, pa)
    save_automaton(inst.right, pb)
    tower_path = tmp_path / "tower.json"
    if isinstance(elements, str):
        tower_path.write_text(elements, encoding="utf-8")
    else:
        write_json(tower_path, {"relation": "subsequence", "elements": elements})
    code = main(["verify-tower", str(pa), str(pb), str(tower_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert field in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("graph, field", [
    ({"vertices": 3, "edges": [[0, 1]], "t": 1}, "'s'"),
    ({"vertices": 3, "edges": [[0, 1], [1, 5]], "s": 0, "t": 1}, "edges[1]"),
    ({"vertices": 3, "edges": [[0, 1]], "s": 0, "t": -1}, "t:"),
    ({"vertices": "3", "edges": [], "s": 0, "t": 0}, "vertices:"),
    ({"vertices": 2, "edges": [[False, True]], "s": False, "t": True}, "s:"),
    ({"vertices": True, "edges": [], "s": 0, "t": 0}, "vertices:"),
    ({"vertices": 2, "edges": [[0, True]], "s": 0, "t": 1}, "edges[0]"),
    # a string is written as the file's text: a JSON syntax error names the file
    pytest.param('{"vertices": 3,', "graph.json: Expecting", id="syntax"),
])
def test_graph_malformed_document_exit_code(tmp_path, capsys, graph, field):
    gpath = tmp_path / "graph.json"
    if isinstance(graph, str):
        gpath.write_text(graph, encoding="utf-8")
    else:
        write_json(gpath, graph)
    for argv in (["oracle", "reach", str(gpath)],
                 ["reduce", "--kind", "reach", "--input", str(gpath),
                  "--out-dir", str(tmp_path / "red")]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert field in captured.err
        assert captured.out == ""


def test_reduce_mcvp(tmp_path, capsys):
    circuit = {"gates": [
        {"kind": "ZERO"}, {"kind": "ONE"},
        {"kind": "AND", "left": 1, "right": 2},
        {"kind": "OR", "left": 3, "right": 3},
    ]}
    cpath = tmp_path / "circuit.json"
    write_json(cpath, circuit)
    out = tmp_path / "red"
    code = main(["reduce", "--kind", "mcvp", "--input", str(cpath),
                 "--out-dir", str(out)])
    capsys.readouterr()
    assert code == 0
    code = main(["analyze", str(out / "left.json"), str(out / "right.json"),
                 "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["verdict"] == "separable"


def test_reduce_mcvp_malformed_gates_exit_code(tmp_path, capsys):
    cpath = tmp_path / "circuit.json"
    for gates, field in [
        (5, "gates:"),
        ([{"kind": "ONE"}, {"kind": "AND", "left": True, "right": True}], "left wire True"),
        ([{"kind": "ONE"}, {"kind": "ONE"}, {"kind": "OR", "left": 1, "right": False}],
         "right wire False"),
    ]:
        write_json(cpath, {"gates": gates})
        code = main(["reduce", "--kind", "mcvp", "--input", str(cpath),
                     "--out-dir", str(tmp_path / "red")])
        captured = capsys.readouterr()
        assert code == 2
        assert field in captured.err
        assert captured.out == ""


def test_reduce_reach_and_oracle(tmp_path, capsys):
    graph = {"vertices": 3, "edges": [[0, 1], [1, 2]], "s": 0, "t": 2}
    gpath = tmp_path / "graph.json"
    write_json(gpath, graph)
    out = tmp_path / "red"
    code = main(["reduce", "--kind", "reach", "--input", str(gpath),
                 "--out-dir", str(out)])
    capsys.readouterr()
    assert code == 0
    code = main(["prefix-analyze", str(out / "left.json"),
                 str(out / "right.json"), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["height"] == "infinite"
    assert main(["oracle", "reach", str(gpath)]) == 0
    capsys.readouterr()


def test_reduce_universality(tmp_path, capsys):
    path = tmp_path / "in.json"
    save_automaton(sigma_star(("a", "b")), path)
    out = tmp_path / "red"
    code = main(["reduce", "--kind", "universality", "--input", str(path),
                 "--out-dir", str(out)])
    capsys.readouterr()
    assert code == 0
    assert main(["pt-check", str(out / "result.json")]) == 0
    capsys.readouterr()


def test_bench_csv(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code = main(["bench", "--suite", "exp", "--range", "1:4",
                 "--csv", str(csv_path)])
    capsys.readouterr()
    assert code == 0
    import csv as csv_mod

    with open(csv_path, newline="") as handle:
        reader = csv_mod.DictReader(handle)
        rows = list(reader)
    # timings live in perfbench; the bench table is deterministic
    assert reader.fieldnames == BENCH_COLUMNS and "ms" not in BENCH_COLUMNS
    assert [int(r["height"]) for r in rows] == [4, 8, 16, 32]
    assert all(r["bound_ok"] == "True" for r in rows)
    assert [int(r["expected_height"]) for r in rows] == [4, 8, 16, 32]


@pytest.mark.parametrize("text", ["3:1", "1:x"])
def test_bench_rejects_bad_ranges(capsys, text):
    with pytest.raises(SystemExit) as info:
        main(["bench", "--suite", "exp", "--range", text])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert "argument --range: " in captured.err and repr(text) in captured.err


@pytest.mark.parametrize("argv", [
    ["reduce", "--kind", "mcvp", "--input", "DOC"],
    ["reduce", "--kind", "universality", "--input", "DOC"],
])
def test_reduce_json_syntax_error_names_the_file(tmp_path, capsys, argv):
    doc = tmp_path / "doc.json"
    doc.write_text('{"gates": [', encoding="utf-8")
    code = main([str(doc) if arg == "DOC" else arg for arg in argv]
                + ["--out-dir", str(tmp_path / "red")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {doc}: Expecting")


def test_undecodable_file_names_the_path(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")
    for argv in (["pt-check", str(path)], ["oracle", "reach", str(path)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: 'utf-8' codec can't decode")


def test_oracle_enumerate(tmp_path, capsys):
    path = tmp_path / "w.json"
    save_automaton(literal(("a", "b"), ("a", "b")), path)
    code = main(["oracle", "enumerate", str(path), "--max-len", "3"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out == ["a b"]


def test_oracle_tower(tmp_path, capsys):
    inst = gen_exp(1)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_automaton(inst.left, pa)
    save_automaton(inst.right, pb)
    code = main(["oracle", "tower", str(pa), str(pb), "--max-len", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "finite 4"


def test_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    write_json(bad, {"alphabet": ["a", "a"], "states": 1, "initials": [],
                     "finals": [], "transitions": []})
    code = main(["pt-check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "alphabet[1]" in err


@pytest.mark.parametrize("exc", [RuntimeError("boom"), KeyError("lost")])
def test_internal_error_exits_2_without_traceback(pair_files, capsys, monkeypatch, exc):
    from ptsep import cli

    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_analyze", broken)
    assert main(["analyze", *pair_files, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err == f"error: internal: {type(exc).__name__}: {exc}\n"


def test_missing_file_exit_code(capsys):
    code = main(["pt-check", "/nonexistent/path.json"])
    assert code == 2
    capsys.readouterr()


def _paths(doc, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def mutate(rng, doc):
    """A copy of the document with one node changed: its key dropped, its
    list truncated, or its value swapped for a wrong type, null, a bool, or
    a negative or small int (at most 50, so no run allocates much per
    state)."""
    doc = json.loads(json.dumps(doc))
    path = rng.choice(list(_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]] if path else doc
    kinds = ["type", "null", "bool", "negative", "small"]
    kinds += ["drop"] * bool(path) + ["truncate"] * bool(isinstance(value, list) and value)
    kind = rng.choice(kinds)
    if kind == "drop":
        del parent[path[-1]]
        return doc
    if kind == "truncate":
        del value[rng.randrange(len(value)):]
        return doc
    new = {"type": rng.choice(["x", 1.5, [], {}]), "null": None,
           "bool": rng.random() < 0.5, "negative": -rng.randint(1, 50),
           "small": rng.randint(0, 50)}[kind]
    if not path:
        return new
    parent[path[-1]] = new
    return doc


def test_mutated_documents_exit_0_1_or_2(tmp_path, capsys):
    # every exit code of a mutated automaton, tower, graph or circuit
    # document is a verdict or an error, and no error is internal
    rng = random.Random(4242)
    inst = gen_exp(1)
    good = {"left": automaton_to_dict(inst.left), "right": automaton_to_dict(inst.right),
            "tower": inst.tower.to_dict(),
            "graph": {"vertices": 3, "edges": [[0, 1], [1, 2]], "s": 0, "t": 2},
            "circuit": {"gates": [{"kind": "ZERO"}, {"kind": "ONE"},
                                  {"kind": "AND", "left": 1, "right": 2},
                                  {"kind": "OR", "left": 3, "right": 2}]}}
    paths = {name: str(tmp_path / f"{name}.json") for name in (*good, "bad")}
    for name, doc in good.items():
        write_json(paths[name], doc)
    left, right, tower, bad = (paths[n] for n in ("left", "right", "tower", "bad"))
    out = str(tmp_path / "out")
    commands = {
        "automaton": [
            ["pt-check", bad, "--json", "--budget", "2000"],
            ["analyze", bad, right, "--json", "--budget", "2000"],
            ["analyze", left, bad, "--budget", "2000", "--max-steps", "50"],
            ["prefix-analyze", bad, right, "--json", "--budget", "2000"],
            ["oracle", "enumerate", bad, "--max-len", "3"],
            ["oracle", "tower", left, bad, "--max-len", "3", "--budget", "2000"],
            ["reduce", "--kind", "universality", "--input", bad, "--out-dir", out],
            ["verify-tower", bad, right, tower],
        ],
        "tower": [["verify-tower", left, right, bad]],
        "graph": [["oracle", "reach", bad],
                  ["reduce", "--kind", "reach", "--input", bad, "--out-dir", out]],
        "circuit": [["reduce", "--kind", "mcvp", "--input", bad, "--out-dir", out]],
    }
    sources = {"automaton": [good["left"], good["right"]], "tower": [good["tower"]],
               "graph": [good["graph"]], "circuit": [good["circuit"]]}
    codes = {kind: set() for kind in commands}
    for kind, argvs in commands.items():
        for _ in range(120):
            doc = rng.choice(sources[kind])
            for _ in range(rng.randint(1, 2)):
                doc = mutate(rng, doc)
            write_json(bad, doc)
            argv = rng.choice(argvs)
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (argv, doc, code)
            assert "internal:" not in err, (argv, doc, err)
            assert code != 2 or err.startswith("error: "), (argv, doc, err)
            codes[kind].add(code)
    assert all(2 in seen and seen & {0, 1} for seen in codes.values()), codes
