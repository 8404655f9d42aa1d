import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import burnkit
from burnkit.cli import _build_parser, main
from burnkit.graph import graph_from_edges, parse_graph, serialize_graph


@pytest.fixture
def p4(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    fields = {}
    for line in out.splitlines():
        key, _, rest = line.partition(" ")
        fields.setdefault(key, []).append(rest)
    return fields


def test_simulate_valid(capsys, tmp_path, p4):
    sched = tmp_path / "s.txt"
    sched.write_text("1 2\n1\n3\n")
    code, out, err = run(capsys, "simulate", "--graph", p4, "--schedule", sched)
    assert code == 0
    report = parse_report(out)
    assert report["valid"] == ["true"]
    assert report["completion_round"] == ["2"]
    assert report["burn_round"] == ["2 1 2 2"]
    assert err.startswith("elapsed_ms")


def test_simulate_invalid_certificate(capsys, tmp_path, p4):
    sched = tmp_path / "s.txt"
    sched.write_text("1 2\n0\n1\n")
    code, out, err = run(capsys, "simulate", "--graph", p4, "--schedule", sched)
    assert code == 1
    assert "error invalid already burnt at ignition" in err
    report = parse_report(out)
    assert report["valid"] == ["false"]


def test_simulate_disconnected_graph_marks_unburnt_vertices(capsys, tmp_path):
    graph = tmp_path / "two.txt"
    graph.write_text("5 3\n0 1\n1 2\n3 4\n")
    sched = tmp_path / "s.txt"
    sched.write_text("1 1\n1\n")
    code, out, err = run(capsys, "simulate", "--graph", graph, "--schedule", sched)
    assert code == 1
    report = parse_report(out)
    assert report["valid"] == ["false"]
    assert report["burn_round"] == ["2 1 2 - -"]
    assert err.startswith("error invalid")


def test_parse_error_status(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    sched = tmp_path / "s.txt"
    sched.write_text("1 1\n0\n")
    code, out, err = run(capsys, "simulate", "--graph", bad, "--schedule", sched)
    assert code == 2
    assert err.splitlines()[0].startswith("error parse")


def test_missing_file_is_parse_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "simulate", "--graph", tmp_path / "nope.txt", "--schedule", tmp_path / "s.txt"
    )
    assert code == 2


def test_path_number(capsys):
    code, out, _ = run(capsys, "path-number", "--n", 9, "--k", 2)
    assert code == 0
    assert parse_report(out)["burning_number"] == ["3"]


def test_path_schedule_writes_file(capsys, tmp_path):
    out_file = tmp_path / "sched.txt"
    code, out, _ = run(capsys, "path-schedule", "--n", 9, "--schedule-out", out_file)
    assert code == 0
    assert out_file.read_text() == "1 3\n2\n6\n8\n"


def test_lower_bound_and_approx_invariant(capsys, p4):
    code, out, _ = run(capsys, "lower-bound", "--graph", p4, "--k", 1, "--verify-linear")
    assert code == 0
    j = int(parse_report(out)["lower_bound"][0])
    code, out, _ = run(capsys, "approx", "--graph", p4, "--k", 1)
    assert code == 0
    report = parse_report(out)
    assert int(report["lower_bound"][0]) == j
    assert j <= int(report["completion_round"][0]) <= 3 * j


def test_exact_and_limits(capsys, p4, tmp_path):
    code, out, _ = run(capsys, "exact", "--graph", p4, "--k", 1)
    assert code == 0
    report = parse_report(out)
    assert report["burning_number"] == ["2"]
    assert report["schedule_round"] == ["1 1", "2 3"]

    code, _, err = run(capsys, "exact", "--graph", p4, "--k", 1, "--max-rounds", 1)
    assert code == 3
    assert err.splitlines()[0].startswith("error limit")


def test_schedule_command(capsys, tmp_path):
    p5 = tmp_path / "p5.txt"
    p5.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
    code, out, _ = run(capsys, "schedule", "--graph", p5, "--sources", "0,4", "--max-rounds", 3)
    assert code == 0
    report = parse_report(out)
    assert report["feasible"] == ["true"]
    assert report["ignite"] == ["0 1", "4 2"]
    code, out, _ = run(capsys, "schedule", "--graph", p5, "--sources", "0,4", "--max-rounds", 2)
    assert code == 0
    assert parse_report(out)["feasible"] == ["false"]
    code, out, err = run(
        capsys, "schedule", "--graph", p5, "--sources", "0,4", "--max-rounds", 3,
        "--time-budget", 0,
    )
    assert code == 3
    assert out == ""
    assert err.splitlines()[0].startswith("error limit")


def test_schedule_prints_the_budget_it_solves(capsys, p4, monkeypatch):
    # ceil(#sources / k) by default, else --max-rounds: the same number goes
    # to the solver and to the round_budget line
    solved = []

    def recorded(inst, rounds, time_budget):
        solved.append(rounds)
        return None

    monkeypatch.setattr("burnkit.cli.schedule_sources", recorded)
    for argv, budget in ((["--sources", "0,1,3", "--k", 2], 2), (["--sources", "0,3"], 2),
                         (["--sources", "0", "--k", 5], 1),
                         (["--sources", "0,3", "--max-rounds", 7], 7)):
        code, out, _ = run(capsys, "schedule", "--graph", p4, *argv)
        assert code == 0
        assert parse_report(out)["round_budget"] == [str(budget)]
        assert solved.pop() == budget


def test_an_infinite_time_budget_sets_no_limit(capsys, p4):
    code, out, _ = run(capsys, "exact", "--graph", p4, "--time-budget", "inf")
    assert code == 0
    assert parse_report(out)["burning_number"] == ["2"]
    code, out, _ = run(capsys, "schedule", "--graph", p4, "--sources", "0,3", "--max-rounds", 3,
                       "--time-budget", "inf")
    assert code == 0
    assert parse_report(out)["feasible"] == ["true"]


# the sidecars gen-vc (q 2) writes for the 4-vertex path, and gen-sat for
# the formula (1 v 2 v -1) (golden_dir's vc.meta.json and sat.meta.json)
VC_META_P4 = {"kind": "vc-burning-instance", "n": 4, "edges": [[0, 1], [1, 2], [2, 3]],
              "k": 1, "q": 2, "connected": False}
SAT_META_P4 = {"kind": "sat-scheduling-instance", "n_vars": 2, "clauses": [[1, 2, -1]]}
# sidecars of the former format, which listed each vertex's role (or the
# literal and clause vertices), hand-written for the 4-vertex path itself
VC_META_OLD = {"kind": "vc-burning-instance", "n": 4, "k": 1, "q": 2, "connected": False,
               "roles": [["v", v] for v in range(4)]}
SAT_META_OLD = {**SAT_META_P4, "sources": [0, 1, 2, 3], "k": 1,
                "literal_vertex": {"1": 0, "-1": 1, "2": 2, "-2": 3},
                "clause_vertex": [3], "top_end": {"1": 0, "-1": 1, "2": 2, "-2": 3}}


def test_gen_sidecars_hold_only_the_gadgets_inputs(golden_dir):
    for prefix, meta in (("vc", VC_META_P4), ("sat", SAT_META_P4)):
        assert json.loads((golden_dir / f"{prefix}.meta.json").read_text()) == meta


@pytest.mark.parametrize("argv, meta, first_line", [
    (["schedule", "--sources", "0,0"], None, "error parse sources must be distinct"),
    (["schedule", "--sources", "0,9"], None, "error parse invalid source id 9"),
    (["schedule", "--sources", "0,3", "--k", 0], None, "error parse spread factor must be positive"),
    (["schedule", "--sources", "0,3", "--max-rounds", 0], None,
     "error parse round budget must be positive"),
    (["gen-vc", "--q", 9], None, "error parse q must be in 1..4, got 9"),
    (["gen-vc", "--q", 2, "--k", 2, "--connected"], None,
     "error parse connected variant requires k=1"),
    (["map-vc", "--cover", "1"], {"kind": "sat-scheduling-instance"},
     "error parse metadata is not a vc-burning instance"),
    (["map-vc", "--cover", "1"], VC_META_OLD, "error parse metadata has no 'edges' field"),
    (["map-sat", "--assignment", "1"], {"kind": "vc-burning-instance"},
     "error parse metadata is not a sat-scheduling instance"),
    (["map-sat", "--assignment", "1"],
     {"kind": "sat-scheduling-instance", "n_vars": 2, "clauses": [[1, 2, 5]]},
     "error parse literal 5 out of range for 2 variables"),
    (["map-sat", "--assignment", "1"],
     {"kind": "sat-scheduling-instance", "n_vars": 2, "clauses": [[1, 2]]},
     "error parse clause (1, 2) does not have exactly 3 literals"),
    (["map-sat", "--assignment", "1,-1,2"], SAT_META_P4,
     "error parse assignment must mention each variable exactly once"),
    (["map-sat", "--ordering", "1@9,1@1,0@2,2@3,3@4"], SAT_META_P4,
     "error parse ordering names vertex 1 twice"),
    (["map-sat", "--ordering", "1@1,0@2,2@3,3x4"], SAT_META_P4,
     "error parse ordering tokens are vertex@round, got '3x4'"),
    (["map-vc", "--cover", "1,x"], VC_META_P4, "error parse bad cover list: '1,x'"),
    (["map-vc", "--cover", "1"], [1], "error parse metadata is not a vc-burning instance"),
    (["map-sat", "--assignment", "1"], [1],
     "error parse metadata is not a sat-scheduling instance"),
    (["map-vc", "--cover", "1"], {k: v for k, v in VC_META_P4.items() if k != "connected"},
     "error parse metadata has no 'connected' field"),
    (["map-vc", "--cover", "1"], {**VC_META_P4, "edges": [[0, 1], [1, 2], 3]},
     "error parse bad edge 3"),
    (["map-vc", "--cover", "1"], {**VC_META_P4, "edges": [[0, 1], [1, 2], [2]]},
     "error parse bad edge [2]"),
    (["map-vc", "--cover", "1"], {**VC_META_P4, "edges": [[0, 1], [1, 2], [2, 2]]},
     "error parse bad edges: self-loop at vertex 2"),
    (["map-vc", "--cover", "1"], {**VC_META_P4, "edges": [[0, 1], [1, 2], [2, "3"]]},
     "error parse bad edges: edge endpoints must be ints"),
    (["map-sat", "--assignment", "1"], {"kind": "sat-scheduling-instance", "n_vars": 2},
     "error parse metadata has no 'clauses' field"),
    (["map-sat", "--assignment", "1"], {k: v for k, v in SAT_META_P4.items() if k != "n_vars"},
     "error parse metadata has no 'n_vars' field"),
    (["map-vc", "--cover", "1"], {**VC_META_P4, "n": None}, "error parse bad n None"),
    (["map-vc", "--cover", "1"], {**VC_META_P4, "edges": 5}, "error parse bad edges 5"),
    (["map-vc", "--cover", "1"], {**VC_META_P4, "edges": [[0, 1], [1, 2], [2, 4]]},
     "error parse bad edges: edge (2,4) out of range for n=4"),
    (["map-sat", "--assignment", "1"], {**SAT_META_P4, "clauses": [1]},
     "error parse bad clause 1"),
    (["map-sat", "--assignment", "1"], {**SAT_META_P4, "clauses": {}},
     "error parse bad clauses {}"),
    (["map-sat", "--assignment", "1"], {**SAT_META_P4, "n_vars": 0},
     "error parse variable count must be positive"),
    (["exact", "--max-rounds", 0], None, "error parse round budget must be positive"),
    (["exact", "--time-budget", "nan"], None,
     "error parse time budget must be a non-negative number of seconds, got nan"),
    (["exact", "--time-budget", -1], None,
     "error parse time budget must be a non-negative number of seconds, got -1.0"),
    (["schedule", "--sources", "0,3", "--time-budget", "nan"], None,
     "error parse time budget must be a non-negative number of seconds, got nan"),
    (["schedule", "--sources", "0,3", "--time-budget", -0.5], None,
     "error parse time budget must be a non-negative number of seconds, got -0.5"),
], ids=["schedule-duplicate", "schedule-range", "schedule-k0", "schedule-rounds0",
        "gen-vc-q", "gen-vc-connected-k", "map-vc-kind", "map-vc-roles",
        "map-sat-kind", "map-sat-literal", "map-sat-clause", "map-sat-repeated-variable",
        "map-sat-repeated-vertex", "map-sat-ordering-token", "map-vc-cover-token",
        "map-vc-not-object", "map-sat-not-object", "map-vc-no-connected", "map-vc-edge-not-list",
        "map-vc-edge-short", "map-vc-edge-loop", "map-vc-edge-field", "map-sat-no-clauses",
        "map-sat-no-n-vars", "map-vc-n-null", "map-vc-edges-not-list",
        "map-vc-edge-range", "map-sat-clause-not-list", "map-sat-clauses-not-list",
        "map-sat-n-vars-range", "exact-rounds0", "exact-budget-nan",
        "exact-budget-negative", "schedule-budget-nan", "schedule-budget-negative"])
def test_bad_instance_input_is_a_parse_error(capsys, tmp_path, p4, golden_dir, argv, meta,
                                             first_line):
    # the sidecar of a real gadget goes with that gadget's graph, so the row
    # gets past the sidecar to the check it names
    graph = ("vc.graph.txt" if meta is VC_META_P4 else
             "sat.graph.txt" if meta is SAT_META_P4 else p4)
    argv = [*argv, "--graph", graph]
    if argv[0] == "gen-vc":
        argv += ["--out", tmp_path / "vc"]
    if meta is not None:
        meta_file = tmp_path / "meta.json"
        meta_file.write_text(json.dumps(meta))
        argv += ["--meta", meta_file]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == first_line


@pytest.mark.parametrize("argv", [["path-number", "--n", -3], ["path-schedule", "--n", 0],
                                  ["path-number", "--n", 5, "--k", 0]])
def test_bad_path_input_is_a_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == "error parse n and k must be positive"


def test_vc_generation_and_mapping(capsys, tmp_path, p4):
    prefix = tmp_path / "vc"
    code, out, _ = run(capsys, "gen-vc", "--graph", p4, "--k", 1, "--q", 2, "--out", prefix)
    assert code == 0
    meta = json.loads((tmp_path / "vc.meta.json").read_text())
    assert meta["kind"] == "vc-burning-instance"

    sched_file = tmp_path / "vc_sched.txt"
    code, out, _ = run(
        capsys, "map-vc", "--graph", f"{prefix}.graph.txt", "--meta", f"{prefix}.meta.json",
        "--cover", "1,2", "--schedule-out", sched_file,
    )
    assert code == 0
    assert parse_report(out)["direction"] == ["cover-to-schedule"]

    code, out, _ = run(
        capsys, "map-vc", "--graph", f"{prefix}.graph.txt", "--meta", f"{prefix}.meta.json",
        "--schedule", sched_file,
    )
    assert code == 0
    report = parse_report(out)
    assert report["cover"] == ["1 2"]

    # a non-cover is an invalid certificate
    code, _, err = run(
        capsys, "map-vc", "--graph", f"{prefix}.graph.txt", "--meta", f"{prefix}.meta.json",
        "--cover", "0",
    )
    assert code == 1
    assert err.splitlines()[0].startswith("error invalid")


@pytest.fixture
def p3_gadget(capsys, tmp_path):
    """gen-vc on the 3-vertex path (k 1, q 1): (graph path, meta path, meta)."""
    p3 = tmp_path / "p3.txt"
    p3.write_text("3 2\n0 1\n1 2\n")
    assert run(capsys, "gen-vc", "--graph", p3, "--q", 1, "--out", tmp_path / "vc")[0] == 0
    meta_file = tmp_path / "vc.meta.json"
    return tmp_path / "vc.graph.txt", meta_file, json.loads(meta_file.read_text())


@pytest.mark.parametrize("text, first_line", [
    ("1 1\n0 x\n", "error parse schedule {}: line 2: batches must be space-separated integers"),
    ("1 1\n99\n", "error parse schedule {}: round 1: invalid vertex id 99"),
])
def test_map_vc_reads_and_maps_before_it_prints(capsys, tmp_path, p3_gadget, text, first_line):
    graph, meta, _ = p3_gadget
    sched = tmp_path / "bad.txt"
    sched.write_text(text)
    code, out, err = run(capsys, "map-vc", "--graph", graph, "--meta", meta, "--schedule", sched)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == first_line.format(sched)


@pytest.mark.parametrize("field, value, cover, size", [
    ("k", 100, "1", 61612), ("connected", True, "", 256),
], ids=["k", "connected"])
def test_map_vc_on_a_sidecar_short_of_the_vertices_it_asks_for(
    capsys, p3_gadget, field, value, cover, size
):
    # the sidecar's gadget is larger than the 34-vertex graph: refused before it is built
    graph, meta_file, meta = p3_gadget
    meta_file.write_text(json.dumps({**meta, field: value}))
    code, out, err = run(capsys, "map-vc", "--graph", graph, "--meta", meta_file,
                         f"--cover={cover}")
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == (f"error parse sidecar describes a gadget of {size} vertices, "
                                   "the graph has 34")


@pytest.mark.parametrize("fields, first_line", [
    ({"n": 35}, "error parse bad n 35"),
    ({"connected": True, "k": 2}, "error parse connected variant requires k=1"),
])
def test_map_vc_rejects_a_sidecar_whose_rounds_outgrow_its_gadget(
    capsys, p3_gadget, fields, first_line
):
    # either would size the connected variant's schedule by the sidecar alone
    graph, meta_file, meta = p3_gadget
    meta_file.write_text(json.dumps({**meta, **fields}))
    code, out, err = run(capsys, "map-vc", "--graph", graph, "--meta", meta_file, "--cover=1")
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == first_line


def test_map_sat_rejects_literal_vertices_that_are_not_the_sources(capsys, golden_dir):
    # the gadget with literal vertex 0 and top-path vertex 4 swapped: the
    # sources 0..3 of the formula's gadget are no longer its literal vertices
    g = parse_graph((golden_dir / "sat.graph.txt").read_text())
    swap = {0: 4, 4: 0}
    edges = [(swap.get(u, u), swap.get(v, v)) for u, v in g.edges()]
    (golden_dir / "swapped.txt").write_text(serialize_graph(graph_from_edges(g.n, edges)))
    code, out, err = run(capsys, "map-sat", "--graph", "swapped.txt", "--meta", "sat.meta.json",
                         "--ordering", "1@1,0@2,2@3,3@4")
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == "error parse graph is not the gadget its sidecar describes"


# each map-* direction on the 4-vertex path with a sidecar of the former
# format, which the path's own roles once satisfied
@pytest.mark.parametrize("argv, first_line", [
    (["map-vc", "--meta", "vc-old.json", "--cover", "1,2"],
     "error parse metadata has no 'edges' field"),
    (["map-vc", "--meta", "vc-old.json", "--schedule", "ok.txt"],
     "error parse metadata has no 'edges' field"),
    (["map-sat", "--meta", "sat-old.json", "--assignment", "1,2"],
     "error parse sidecar describes a gadget of 13 vertices, the graph has 4"),
    (["map-sat", "--meta", "sat-old.json", "--ordering", "1@1,0@2,2@3,3@4"],
     "error parse sidecar describes a gadget of 13 vertices, the graph has 4"),
], ids=["map-vc-cover", "map-vc-schedule", "map-sat-assignment", "map-sat-ordering"])
def test_map_refuses_a_former_sidecar_beside_a_graph_that_is_no_gadget(
    capsys, golden_dir, argv, first_line
):
    (golden_dir / "vc-old.json").write_text(json.dumps(VC_META_OLD))
    (golden_dir / "sat-old.json").write_text(json.dumps(SAT_META_OLD))
    code, out, err = run(capsys, *argv, "--graph", "g.txt")
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == first_line


# a sidecar of the same vertex count as the gadget beside it, but for
# another gadget: one base edge moved, or one literal's sign flipped
@pytest.mark.parametrize("prefix, meta, direction", [
    ("vc", {**VC_META_P4, "edges": [[0, 1], [1, 2], [1, 3]]}, ["--cover", "1,2"]),
    ("vc", {**VC_META_P4, "edges": [[0, 1], [1, 2], [1, 3]]}, ["--schedule", "vc.s.txt"]),
    ("sat", {**SAT_META_P4, "clauses": [[1, -2, -1]]}, ["--assignment", "1,2"]),
    ("sat", {**SAT_META_P4, "clauses": [[1, -2, -1]]}, ["--ordering", "1@1,0@2,2@3,3@4"]),
], ids=["map-vc-cover", "map-vc-schedule", "map-sat-assignment", "map-sat-ordering"])
def test_map_refuses_the_sidecar_of_another_gadget_of_the_same_size(
    capsys, golden_dir, prefix, meta, direction
):
    (golden_dir / "other.json").write_text(json.dumps(meta))
    code, out, err = run(capsys, f"map-{prefix}", "--graph", f"{prefix}.graph.txt",
                         "--meta", "other.json", *direction)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == "error parse graph is not the gadget its sidecar describes"


@pytest.mark.parametrize("text", ["p cnf x 1\n1 2 -1 0\n", "p cnf 3 1\np cnf 4 1\n1 2 4 0\n"],
                         ids=["no-integer", "second-problem-line"])
def test_gen_sat_refuses_a_bad_problem_line(capsys, tmp_path, text):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(text)
    code, out, err = run(capsys, "gen-sat", "--cnf", cnf, "--out", tmp_path / "sat")
    assert (code, out) == (2, "")
    bad = text.splitlines()[-2]  # the faulty problem line
    assert err.splitlines()[0] == f"error parse cnf {cnf}: bad problem line: {bad!r}"


def test_gen_sat_reads_a_satlib_file_up_to_its_trailer(capsys, tmp_path):
    # SATLIB's uf/uuf files end with a "%" line and a stray "0"
    cnf = tmp_path / "uf2.cnf"
    cnf.write_text("c SATLIB style\np cnf 2 1\n 1 2 -1 0\n%\n0\n\n")
    code, out, _ = run(capsys, "gen-sat", "--cnf", cnf, "--out", tmp_path / "sat")
    assert code == 0
    assert parse_report(out)["clauses"] == ["1"]
    assert parse_report(out)["gadget_n"] == ["13"]


def test_sat_generation_and_mapping(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 1\n1 2 -1 0\n")
    prefix = tmp_path / "sat"
    code, out, _ = run(capsys, "gen-sat", "--cnf", cnf, "--out", prefix)
    assert code == 0
    assert parse_report(out)["gadget_n"] == ["13"]

    code, out, _ = run(
        capsys, "map-sat", "--graph", f"{prefix}.graph.txt", "--meta", f"{prefix}.meta.json",
        "--assignment", "1,2",
    )
    assert code == 0
    assert parse_report(out)["ignite"] == ["0 1", "1 2", "2 3", "3 4"]

    code, out, _ = run(
        capsys, "map-sat", "--graph", f"{prefix}.graph.txt", "--meta", f"{prefix}.meta.json",
        "--ordering", "1@1,0@2,2@3,3@4",
    )
    assert code == 0
    assert parse_report(out)["assignment"] == ["-1 2"]

    code, _, err = run(
        capsys, "map-sat", "--graph", f"{prefix}.graph.txt", "--meta", f"{prefix}.meta.json",
        "--ordering", "2@1,0@2,1@3,3@4",
    )
    assert code == 1


def test_reports_are_byte_identical(capsys, p4, tmp_path):
    sched = tmp_path / "s.txt"
    sched.write_text("1 2\n1\n3\n")
    _, first, _ = run(capsys, "simulate", "--graph", p4, "--schedule", sched)
    _, second, _ = run(capsys, "simulate", "--graph", p4, "--schedule", sched)
    assert first == second
    _, a1, _ = run(capsys, "approx", "--graph", p4, "--k", 2)
    _, a2, _ = run(capsys, "approx", "--graph", p4, "--k", 2)
    assert a1 == a2


def test_empty_graph_is_a_usage_error_for_every_solver(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("0 0\n")
    for command in ("approx", "lower-bound", "exact"):
        code, out, err = run(capsys, command, "--graph", empty, "--k", 1)
        assert code == 2, command
        assert out == ""
        assert err.splitlines()[0] == "error parse graph must have at least one vertex"


def test_schedule_past_24_sources_is_a_usage_error(capsys, tmp_path):
    graph = tmp_path / "p30.txt"
    graph.write_text(serialize_graph(graph_from_edges(30, [(i, i + 1) for i in range(29)])))
    code, out, err = run(capsys, "schedule", "--graph", graph,
                         "--sources", ",".join(map(str, range(25))))
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == "error parse schedule_sources is restricted to at most 24 sources"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, ways", [
    ("map-vc", []), ("map-vc", ["--cover", "1", "--schedule", "s.txt"]),
    ("map-sat", []), ("map-sat", ["--assignment", "1", "--ordering", "0@1"]),
], ids=["map-vc-neither", "map-vc-both", "map-sat-neither", "map-sat-both"])
def test_map_direction_is_one_flag_checked_before_any_file_is_read(capsys, tmp_path, command,
                                                                   ways):
    # argparse refuses the run, so the missing graph file is never opened
    argv = [command, "--graph", tmp_path / "missing.txt", "--meta", tmp_path / "missing.json"]
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv + ways])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"burnkit {command}: error: " in captured.err
    assert "missing" not in captured.err


def test_gen_vc_refuses_a_vertex_on_no_edge(capsys, tmp_path):
    graph = tmp_path / "p3-plus-one.txt"
    graph.write_text("4 2\n0 1\n1 2\n")
    prefix = tmp_path / "vc"
    code, out, err = run(capsys, "gen-vc", "--graph", graph, "--q", 1, "--out", prefix)
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == "error parse input vertex 3 lies on no edge"
    assert not list(tmp_path.glob("vc.*"))


# one row per subcommand and outcome: exact stdout bytes and exit code, run
# from a directory holding the inputs so every path in the report is fixed
GOLDEN = [
    ("simulate-valid", ["simulate", "--graph", "g.txt", "--schedule", "ok.txt"], 0,
     "command simulate\ngraph g.txt\nschedule ok.txt\nn 4\nm 3\nk 1\nvalid true\n"
     "completion_round 2\nburn_round 2 1 2 2\n"),
    ("simulate-invalid", ["simulate", "--graph", "g.txt", "--schedule", "bad.txt"], 1,
     "command simulate\ngraph g.txt\nschedule bad.txt\nn 4\nm 3\nk 1\nvalid false\n"
     "completion_round 4\nburn_round 1 2 3 4\nviolation 2 1 already burnt at ignition\n"
     "violation 3 -1 batch size 0, expected 1\n"),
    ("lower-bound", ["lower-bound", "--graph", "g.txt", "--verify-linear"], 0,
     "command lower-bound\ngraph g.txt\nn 4\nm 3\nk 1\nverify_linear true\nlower_bound 2\n"),
    ("approx", ["approx", "--graph", "g.txt", "--schedule-out", "a.txt"], 0,
     "command approx\ngraph g.txt\nn 4\nm 3\nk 1\nlower_bound 2\ncompletion_round 3\n"
     "ratio_bound 6\nk 1\nrounds 2\nschedule_round 1 0\nschedule_round 2 2\n"
     "schedule_file a.txt\n"),
    ("exact", ["exact", "--graph", "g.txt"], 0,
     "command exact\ngraph g.txt\nn 4\nm 3\nk 1\nburning_number 2\nk 1\nrounds 2\n"
     "schedule_round 1 1\nschedule_round 2 3\n"),
    ("schedule-feasible", ["schedule", "--graph", "g.txt", "--sources", "1,3"], 0,
     "command schedule\ngraph g.txt\nk 1\nsources 1 3\nround_budget 2\nfeasible true\n"
     "ignite 1 1\nignite 3 2\n"),
    ("schedule-infeasible",
     ["schedule", "--graph", "g.txt", "--sources", "0,3", "--max-rounds", "2"], 0,
     "command schedule\ngraph g.txt\nk 1\nsources 0 3\nround_budget 2\nfeasible false\n"),
    ("gen-vc", ["gen-vc", "--graph", "g.txt", "--q", "2", "--out", "vc"], 0,
     "command gen-vc\ngraph g.txt\nk 1\nq 2\nconnected false\ngadget_n 57\ngadget_m 45\n"
     "round_bound 13\ngraph_file vc.graph.txt\nmeta_file vc.meta.json\n"),
    ("gen-sat", ["gen-sat", "--cnf", "f.cnf", "--out", "sat"], 0,
     "command gen-sat\ncnf f.cnf\nvariables 2\nclauses 1\ngadget_n 13\ngadget_m 11\n"
     "round_budget 4\ngraph_file sat.graph.txt\nmeta_file sat.meta.json\n"),
    ("map-vc-cover",
     ["map-vc", "--graph", "vc.graph.txt", "--meta", "vc.meta.json", "--cover", "2,1"], 0,
     "command map-vc\ngraph vc.graph.txt\nmeta vc.meta.json\ndirection cover-to-schedule\n"
     "cover 1 2\ncompletion_round 13\nk 1\nrounds 13\nschedule_round 1 1\n"
     "schedule_round 2 2\nschedule_round 3 46\n"
     "schedule_round 4 47\nschedule_round 5 48\nschedule_round 6 49\n"
     "schedule_round 7 50\nschedule_round 8 51\nschedule_round 9 52\n"
     "schedule_round 10 53\nschedule_round 11 54\nschedule_round 12 55\n"
     "schedule_round 13 56\n"),
    ("map-vc-schedule",
     ["map-vc", "--graph", "vc.graph.txt", "--meta", "vc.meta.json", "--schedule", "vc.s.txt"],
     0,
     "command map-vc\ngraph vc.graph.txt\nmeta vc.meta.json\ndirection schedule-to-cover\n"
     "cover_size 2\ncover 1 2\n"),
    ("map-sat-assignment",
     ["map-sat", "--graph", "sat.graph.txt", "--meta", "sat.meta.json", "--assignment", "1,2"],
     0,
     "command map-sat\ngraph sat.graph.txt\nmeta sat.meta.json\n"
     "direction assignment-to-ordering\nignite 0 1\nignite 1 2\nignite 2 3\nignite 3 4\n"),
    ("map-sat-ordering",
     ["map-sat", "--graph", "sat.graph.txt", "--meta", "sat.meta.json",
      "--ordering", "1@1,0@2,2@3,3@4"], 0,
     "command map-sat\ngraph sat.graph.txt\nmeta sat.meta.json\n"
     "direction ordering-to-assignment\nassignment -1 2\n"),
    ("path-number", ["path-number", "--n", "9", "--k", "2"], 0,
     "command path-number\nn 9\nk 2\nburning_number 3\n"),
    ("path-schedule", ["path-schedule", "--n", "9", "--k", "2"], 0,
     "command path-schedule\nn 9\nk 2\nburning_number 3\nk 2\nrounds 2\n"
     "schedule_round 1 2 6\nschedule_round 2 0 4\n"),
]


@pytest.fixture
def golden_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text("4 3\n0 1\n1 2\n2 3\n")
    (tmp_path / "ok.txt").write_text("1 2\n1\n3\n")
    (tmp_path / "bad.txt").write_text("1 2\n0\n1\n")
    (tmp_path / "f.cnf").write_text("p cnf 2 1\n1 2 -1 0\n")
    for argv in (["gen-vc", "--graph", "g.txt", "--q", "2", "--out", "vc"],
                 ["gen-sat", "--cnf", "f.cnf", "--out", "sat"],
                 ["map-vc", "--graph", "vc.graph.txt", "--meta", "vc.meta.json",
                  "--cover", "1,2", "--schedule-out", "vc.s.txt"]):
        assert main(argv) == 0
    capsys.readouterr()
    return tmp_path


@pytest.mark.parametrize("argv, code, out", [row[1:] for row in GOLDEN],
                         ids=[row[0] for row in GOLDEN])
def test_golden_stdout(capsys, golden_dir, argv, code, out):
    assert run(capsys, *argv)[:2] == (code, out)


@pytest.mark.parametrize("argv, code, out", [row[1:] for row in GOLDEN],
                         ids=[row[0] for row in GOLDEN])
def test_commands_return_their_reports_and_print_nothing(capsys, golden_dir, argv, code, out):
    # main alone writes stdout: a command returns its report, and the one
    # failure with a report, an invalid simulate schedule, raises it
    args = _build_parser().parse_args(argv)
    if code == 0:
        report = args.fn(args)
    else:
        with pytest.raises(RuntimeError) as raised:
            args.fn(args)
        report = raised.value.report
    assert capsys.readouterr().out == ""
    assert "".join(f"{line}\n" for line in report) == out


def test_exit_routes(capsys, tmp_path, p4, monkeypatch):
    def broken(g, k):
        raise RuntimeError("certification failed")

    monkeypatch.setattr("burnkit.cli.approx_schedule", broken)
    code, out, err = run(capsys, "approx", "--graph", p4)
    assert (code, out) == (1, "")
    assert err.splitlines()[0] == "error invalid certification failed"

    def starved(g, k):
        raise MemoryError

    monkeypatch.setattr("burnkit.cli.approx_schedule", starved)
    code, out, err = run(capsys, "approx", "--graph", p4)
    assert (code, out) == (3, "")
    assert err.splitlines()[0] == "error limit out of memory"
    assert err.splitlines()[-1].startswith("elapsed_ms ")

    undecodable = tmp_path / "latin1.txt"
    undecodable.write_bytes(b"4 3\n0 1\n\xff\n")
    sched = tmp_path / "s.txt"
    sched.write_text("1 2\n1\n3\n")
    for argv, prefix in (
        (["--graph", undecodable, "--schedule", sched], f"error parse graph {undecodable}: "),
        (["--graph", p4, "--schedule", undecodable], f"error parse schedule {undecodable}: "),
    ):
        code, out, err = run(capsys, "simulate", *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[0].startswith(prefix)


# an output path under a missing directory, run from golden_dir
@pytest.mark.parametrize("argv,named", [
    (["approx", "--graph", "g.txt", "--schedule-out", "no-dir/s.txt"], "schedule no-dir/s.txt"),
    (["exact", "--graph", "g.txt", "--schedule-out", "no-dir/s.txt"], "schedule no-dir/s.txt"),
    (["path-schedule", "--n", "9", "--schedule-out", "no-dir/s.txt"], "schedule no-dir/s.txt"),
    (["map-vc", "--graph", "vc.graph.txt", "--meta", "vc.meta.json", "--cover", "1,2",
      "--schedule-out", "no-dir/s.txt"], "schedule no-dir/s.txt"),
    (["gen-vc", "--graph", "g.txt", "--q", "2", "--out", "no-dir/vc"], "graph no-dir/vc.graph.txt"),
    (["gen-sat", "--cnf", "f.cnf", "--out", "no-dir/sat"], "graph no-dir/sat.graph.txt"),
], ids=["approx", "exact", "path-schedule", "map-vc", "gen-vc", "gen-sat"])
def test_unwritable_output_is_a_parse_error(capsys, golden_dir, argv, named):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[0].startswith(f"error parse {named}: ")


@pytest.mark.parametrize("argv", [["path-number", "--n", "9"],
                                  ["path-schedule", "--n", "200000"],
                                  ["path-number", "--n", "0"]],
                         ids=["path-number", "path-schedule-past-the-buffer", "parse-error"])
def test_a_closed_stdout_is_a_parse_error(argv):
    # the pipe's read end is closed before the child starts, so its first
    # write fails: at the flush, or (11 kB of report) while the lines go out
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(burnkit.__file__).parents[1])}
    try:
        proc = subprocess.run([sys.executable, "-m", "burnkit", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120, env=env)
    finally:
        os.close(write_end)
    lines = proc.stderr.splitlines()
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    if argv[-1] == "0":  # nothing to write: the command's own error stands
        assert lines[0] == "error parse n and k must be positive"
    else:
        assert lines[0].startswith("error parse stdout: ")
    assert lines[-1].startswith("elapsed_ms ")


def test_library_imports_only_the_standard_library():
    # what importing burnkit and its CLI adds to a bare interpreter's modules;
    # the bare one is the baseline, since site hooks may load packages of their own
    env = {**os.environ, "PYTHONPATH": str(Path(burnkit.__file__).parents[1])}

    def modules(imports):
        code = f"import sys\n{imports}\nprint(*sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=env, check=True)
        return set(proc.stdout.split())

    added = modules("import burnkit, burnkit.cli") - modules("")
    assert "burnkit.cli" in added
    tops = {name.partition(".")[0] for name in added} - {"burnkit"}
    assert tops <= sys.stdlib_module_names, tops - sys.stdlib_module_names


def test_simulate_names_a_schedule_file_that_does_not_fit_the_graph(capsys, golden_dir):
    (golden_dir / "far.txt").write_text("1 2\n1\n9\n")
    code, out, err = run(capsys, "simulate", "--graph", "g.txt", "--schedule", "far.txt")
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == "error parse schedule far.txt: round 2: invalid vertex id 9"


def test_map_vc_prints_the_completion_its_certificate_gave(capsys, golden_dir, monkeypatch):
    def no_second_pass(*args, **kwargs):
        raise AssertionError("simulate called")

    monkeypatch.setattr("burnkit.cli.simulate", no_second_pass)
    row = next(row for row in GOLDEN if row[0] == "map-vc-cover")
    assert run(capsys, *row[1])[:2] == (row[2], row[3])
