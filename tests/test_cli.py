"""End-to-end CLI behavior and exit codes."""

import json
import warnings
from pathlib import Path

import pytest

from simflow import library_path
from simflow.cli import main

LIBRARY = library_path()
WAVE_PROBLEM = str(LIBRARY / "problems/wave_problem.json")
WAVE_POLICY = str(LIBRARY / "policies/fourth_order.json")
GOLDEN = Path(__file__).parent / "golden" / "wave_discretized.json"


def cli(*argv):
    return main(list(argv))


def write_params(tmp_path, text, name="run.input"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SHIPPED = [
    "models/wave_model.json",
    "models/voter_model.json",
    "models/flocking_model.json",
    "problems/wave_problem.json",
    "problems/voter_problem.json",
    "problems/flocking_problem.json",
    "policies/fourth_order.json",
    "policies/fourth_order_recursive.json",
]


@pytest.mark.parametrize("rel", SHIPPED)
def test_validate_shipped(rel, capsys):
    assert cli("--docs", str(LIBRARY), "validate", str(LIBRARY / rel)) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_errors_as_json(tmp_path, capsys):
    doc = json.loads((LIBRARY / "models/wave_model.json").read_text())
    doc["coordinates"]["spatial"] = ["x"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli("validate", str(bad), "--json") == 1
    diags = json.loads(capsys.readouterr().out)
    assert any(d["severity"] == "error" for d in diags)


def test_validate_missing_file():
    assert cli("validate", "/no/such/file.json") == 1


def test_usage_errors_are_64(capsys):
    assert cli() == 64
    assert cli("frobnicate") == 64
    assert cli("discretize") == 64
    capsys.readouterr()


def test_discretize_matches_golden(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert cli("--docs", str(LIBRARY), "discretize",
               WAVE_PROBLEM, WAVE_POLICY, "-o", str(out)) == 0
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_golden_discrete_equations_shape():
    doc = json.loads(GOLDEN.read_text())
    k = doc["discrete_equations"]["K"]
    assert k.count("stencil(m=2, axis=x, offsets=[-2,-1,0,1,2])(phi)") == 1
    assert k.count("stencil(m=2, axis=y, offsets=[-2,-1,0,1,2])(phi)") == 1
    assert k.count("stencil(") == 2
    assert "ko_dissipation(r=3, sigma=0.1, axis=all)(K)" in k
    assert doc["discrete_equations"]["phi"].startswith("K")
    assert doc["halo"] == 3


def test_run_pde_requires_policy(tmp_path, capsys):
    params = write_params(tmp_path, "dt = 0.005\ncells = 20\ntend = 0.02\n")
    assert cli("--docs", str(LIBRARY), "run", WAVE_PROBLEM,
               "--params", params, "-o", str(tmp_path / "o")) == 1


def test_run_discretized_equals_run_with_policy(tmp_path, capsys):
    params = write_params(tmp_path, "dt = 0.005\ncells = 20\ntend = 0.05\noutput_interval = 5\n")
    assert cli("--docs", str(LIBRARY), "run", WAVE_PROBLEM, "--policy", WAVE_POLICY,
               "--params", params, "-o", str(tmp_path / "direct")) == 0
    assert cli("--docs", str(LIBRARY), "run", str(GOLDEN),
               "--params", params, "-o", str(tmp_path / "staged")) == 0
    capsys.readouterr()
    for f in ("phi", "K"):
        a = (tmp_path / "direct" / f"{f}_10.vtk").read_bytes()
        b = (tmp_path / "staged" / f"{f}_10.vtk").read_bytes()
        assert a == b


def test_run_reports_json(tmp_path, capsys):
    params = write_params(tmp_path, "dt = 0.005\ncells = 20\ntend = 0.02\n")
    assert cli("--docs", str(LIBRARY), "run", WAVE_PROBLEM, "--policy", WAVE_POLICY,
               "--params", params, "-o", str(tmp_path / "o")) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["steps"] == 4
    assert set(report["field_ranges"]) == {"phi", "K"}


def test_run_without_dt_is_runtime_error(tmp_path, capsys):
    params = write_params(tmp_path, "cells = 20\ntend = 0.02\n")
    assert cli("--docs", str(LIBRARY), "run", WAVE_PROBLEM, "--policy", WAVE_POLICY,
               "--params", params, "-o", str(tmp_path / "o")) == 2


def test_run_voter(tmp_path, capsys):
    params = write_params(tmp_path, "time_steps = 3\nnumber_of_vertices = 30\n"
                                    "number_of_edges = 60\n")
    assert cli("--docs", str(LIBRARY), "run",
               str(LIBRARY / "problems/voter_problem.json"),
               "--params", params, "-o", str(tmp_path / "g"), "--seed", "1") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["steps"] == 3
    assert sorted(Path(tmp_path / "g").glob("*.dot")) == [
        tmp_path / "g" / f"graph_{k}.dot" for k in range(1, 4)]


def test_run_flocking(tmp_path, capsys):
    params = write_params(tmp_path, "time_steps = 2\nn_agents = 32\n")
    assert cli("--docs", str(LIBRARY), "run",
               str(LIBRARY / "problems/flocking_problem.json"),
               "--params", params, "-o", str(tmp_path / "f")) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["steps"] == 2
    assert (tmp_path / "f" / "order.csv").exists()


def test_workers_flag_is_usage_error(tmp_path, capsys):
    params = write_params(tmp_path, "dt = 0.005\ncells = 20\ntend = 0.05\n")
    assert cli("--docs", str(LIBRARY), "run", WAVE_PROBLEM, "--policy", WAVE_POLICY,
               "--params", params, "-o", str(tmp_path / "w"), "--workers", "4") == 64
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def docs_with_rule(tmp_path, kind, phase, statement):
    """A documents directory holding the shipped model of ``kind`` with the
    algorithm of its first ``phase`` rule replaced by ``statement``."""
    model = json.loads((LIBRARY / f"models/{kind}_model.json").read_text())
    model["rules"][phase][0]["algorithm"] = [statement]
    docs_dir = tmp_path / "docs"
    docs_dir.mkdir()
    (docs_dir / f"{kind}_model.json").write_text(json.dumps(model))
    return docs_dir


FAULTS = {
    # a grid initial condition that faults while it runs
    "evaluation-error": ("wave", {"do": "assign", "target": "phi",
                                  "expr": "sqrt(-1 - $rnd_uniform)"},
                         "sqrt of negative value"),
    # an update rule reading another vertex through a computed index, which
    # validation cannot tell from a read of the current vertex
    "phase-error": ("voter", {"do": "assign", "target": "acc($cv)",
                              "expr": "state(mod($cv + 1, $gnov))"},
                    "update rule read property 'state' of another vertex"),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_runtime_faults_exit_2_with_one_line(tmp_path, capsys, fault):
    kind, statement, message = FAULTS[fault]
    if kind == "wave":
        problem = wave_with_initial_condition(tmp_path, [
            {"do": "assign", "target": "phi", "expr": "0"},
            {"do": "assign", "target": "K", "expr": "0"},
            statement])
        params = write_params(tmp_path, "dt = 0.005\ncells = 8\ntend = 0.01\n")
        docs_dir, extra = LIBRARY, ["--policy", WAVE_POLICY]
    else:
        docs_dir = docs_with_rule(tmp_path, kind, "update", statement)
        problem = str(LIBRARY / f"problems/{kind}_problem.json")
        params = write_params(tmp_path, "time_steps = 1\nnumber_of_vertices = 8\n"
                                        "number_of_edges = 16\n")
        extra = []
    assert cli("--docs", str(docs_dir), "run", problem, *extra,
               "--params", params, "-o", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert message in err


NAN = "(1e308 * 1e308 - 1e308 * 1e308)"
INF = "(1e308 * 1e308)"

# (model, rule to replace, target, expr, the error it must end with)
BAD_INDICES = [
    ("voter", "acc($cv)", "$lnoe_in(-1)",
     "rule 'Acc gather 1' failed at vertex 0: vertex index -1 out of range for '$lnoe_in'"),
    ("voter", "acc($cv)", f"state({NAN})",
     "rule 'Acc gather 1' failed at vertex 0: vertex index nan out of range for 'state'"),
    ("voter", "acc($cv)", f"$lnoe_in({INF})",
     "rule 'Acc gather 1' failed at vertex 0: vertex index inf out of range for '$lnoe_in'"),
    ("voter", f"acc({NAN})", "1",
     "rule 'Acc gather 1' failed at vertex 0: vertex index nan out of range for 'acc'"),
    ("flocking", "sumcos($ca)", f"theta({NAN})",
     "rule 'Sums gather' failed at agent 0: agent index nan out of range for 'theta'"),
    ("flocking", "sumcos($ca)", f"theta(-{INF})",
     "rule 'Sums gather' failed at agent 0: agent index -inf out of range for 'theta'"),
    ("flocking", f"sumcos({INF})", "1",
     "rule 'Sums gather' failed at agent 0: agent index inf out of range for 'sumcos'"),
]


def test_out_of_range_vertex_index_exits_2_with_one_line(tmp_path, capsys):
    for k, (kind, target, value, message) in enumerate(BAD_INDICES):
        model = json.loads((LIBRARY / f"models/{kind}_model.json").read_text())
        model["rules"]["gather"][0]["algorithm"] = [
            {"do": "assign", "target": target, "expr": value}]
        docs_dir = tmp_path / f"docs{k}"
        docs_dir.mkdir()
        (docs_dir / f"{kind}_model.json").write_text(json.dumps(model))
        params = write_params(tmp_path, "time_steps = 1\nn_agents = 8\n")
        assert cli("--docs", str(docs_dir), "run", str(LIBRARY / f"problems/{kind}_problem.json"),
                   "--params", params, "-o", str(tmp_path / f"o{k}")) == 2, value
        assert capsys.readouterr().err == f"error: {message}\n"


def wave_with_initial_condition(tmp_path, statements):
    doc = json.loads(Path(WAVE_PROBLEM).read_text())
    doc["region"]["initial_condition"] = statements
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(doc))
    return str(problem)


@pytest.mark.parametrize("draw", ["", " + 0 * $rnd_uniform"], ids=["plain", "draws"])
@pytest.mark.parametrize("value,message", [
    ("1 / (x - x)", "division by zero in '(1 / (x - x))'"),
    ("exp(x * 10000)", "exp fault: math range error in 'exp((x * 10000))'"),
])
def test_grid_initial_condition_fault_does_not_depend_on_draws(
        tmp_path, capsys, value, message, draw):
    problem = wave_with_initial_condition(tmp_path, [
        {"do": "assign", "target": "phi", "expr": value + draw},
        {"do": "assign", "target": "K", "expr": "0"}])
    params = write_params(tmp_path, "dt = 0.005\ncells = 8\ntend = 0.01\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli("--docs", str(LIBRARY), "run", problem, "--policy", WAVE_POLICY,
                   "--params", params, "-o", str(tmp_path / "o")) == 2
    assert caught == []
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("statement", [
    {"do": "assign", "target": "phi", "expr": "phi(3)"},
    {"do": "assign", "target": "phi", "expr": "phi(3) + 0 * $rnd_uniform"},
    {"do": "if", "cond": "K(0) > 1", "then": []},
    {"do": "assign", "target": "K(0)", "expr": "1"},
])
def test_indexed_symbols_in_grid_initial_condition_rejected_by_validate(
        tmp_path, capsys, statement):
    doc = json.loads(Path(WAVE_PROBLEM).read_text())
    problem = wave_with_initial_condition(
        tmp_path, doc["region"]["initial_condition"] + [statement])
    assert cli("--docs", str(LIBRARY), "validate", problem) == 1
    assert "is not valid in a grid initial condition" in capsys.readouterr().err


@pytest.mark.parametrize("tag", ["iterate_over_vertices", "iterate_over_agents",
                                 "iterate_over_cells"])
def test_entity_iteration_tags_rejected_by_validate(tmp_path, capsys, tag):
    doc = json.loads((LIBRARY / "models/voter_model.json").read_text())
    rule = doc["rules"]["update"][0]
    rule["algorithm"] = [{"do": tag, "body": []}] + rule["algorithm"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert cli("validate", str(path)) == 1
    assert f"unsupported tag '{tag}'" in capsys.readouterr().err


NEIGHBOR_ITERATION_IN_INITIAL_CONDITION = [
    ("wave", "iterate_over_edges"),
    ("wave", "iterate_over_interactions"),
    ("voter", "iterate_over_interactions"),
    ("flocking", "iterate_over_interactions"),
    ("flocking", "iterate_over_edges"),
]


def problem_with_initial_statement(tmp_path, problem, statement):
    doc = json.loads((LIBRARY / f"problems/{problem}_problem.json").read_text())
    ic = doc["region"] if problem == "wave" else doc
    ic["initial_condition"].append(statement)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("problem,tag", NEIGHBOR_ITERATION_IN_INITIAL_CONDITION)
def test_neighbor_iteration_in_initial_condition_rejected_by_validate(
        tmp_path, capsys, problem, tag):
    path = problem_with_initial_statement(tmp_path, problem, {"do": tag, "body": []})
    assert cli("--docs", str(LIBRARY), "validate", path) == 1
    assert f"{tag} is not available in" in capsys.readouterr().err


@pytest.mark.parametrize("problem,tag", NEIGHBOR_ITERATION_IN_INITIAL_CONDITION)
def test_neighbor_iteration_in_initial_condition_rejected_by_run(
        tmp_path, capsys, problem, tag):
    path = problem_with_initial_statement(tmp_path, problem, {"do": tag, "body": []})
    if problem == "wave":
        extra = ["--policy", WAVE_POLICY,
                 "--params", write_params(tmp_path, "dt = 0.005\ncells = 8\ntend = 0.01\n")]
    else:
        extra = ["--params", write_params(tmp_path, "time_steps = 1\nn_agents = 8\n")]
    assert cli("--docs", str(LIBRARY), "run", path, *extra, "-o", str(tmp_path / "o")) == 1
    assert f"{tag} is not available in" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def read_dot_labels(path):
    """{vertex: {property: value}} from the vertex lines of a DOT file."""
    labels = {}
    for line in path.read_text().splitlines():
        head, sep, label = line.partition(' [label="')
        if sep:
            pairs = (kv.split("=") for kv in label.removesuffix('"];').split(", "))
            labels[int(head)] = {k: float(v) for k, v in pairs}
    return labels


@pytest.mark.parametrize("value,label", [("1e308 * 10", "acc=inf"),
                                         ("1e308 * 10 - 1e308 * 10", "acc=nan")])
def test_non_finite_graph_property_is_written_to_dot(tmp_path, capsys, value, label):
    docs_dir = docs_with_rule(tmp_path, "voter", "update",
                              {"do": "assign", "target": "acc($cv)", "expr": value})
    params = write_params(tmp_path, "time_steps = 2\nnumber_of_vertices = 10\n"
                                    "number_of_edges = 20\n")
    assert cli("--docs", str(docs_dir), "run", str(LIBRARY / "problems/voter_problem.json"),
               "--params", params, "-o", str(tmp_path / "g")) == 0
    last = tmp_path / "g" / "graph_2.dot"
    assert f', {label}"];' in last.read_text()
    labels = read_dot_labels(last)
    assert sorted(labels) == list(range(10))
    assert {f"acc={labels[v]['acc']!r}" for v in range(10)} == {label}


@pytest.mark.parametrize("command", ["validate", "export-latex"])
def test_overflowing_literal_is_rejected_with_one_line(tmp_path, capsys, command):
    docs_dir = docs_with_rule(tmp_path, "voter", "update",
                              {"do": "assign", "target": "acc($cv)", "expr": "1e400"})
    assert cli(command, str(docs_dir / "voter_model.json")) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "numeric literal '1e400' is not finite" in err


def test_export_latex(tmp_path, capsys):
    out = tmp_path / "doc.tex"
    assert cli("export-latex", str(LIBRARY / "models/wave_model.json"),
               "-o", str(out)) == 0
    assert "\\begin{document}" in out.read_text()


def test_graph_gen(tmp_path, capsys):
    out = tmp_path / "edges.txt"
    dot = tmp_path / "g.dot"
    assert cli("graph-gen", "-o", str(out), "--vertices", "25", "--edges", "50",
               "--min-in-degree", "1", "--seed", "3", "--dot", str(dot)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "vertices 25"
    assert len(lines) == 51
    assert dot.read_text().startswith("digraph {")


def test_docs_env_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SIMFLOW_DOCS", str(LIBRARY))
    out = tmp_path / "d.json"
    assert cli("discretize", WAVE_PROBLEM, WAVE_POLICY, "-o", str(out)) == 0
    assert out.read_bytes() == GOLDEN.read_bytes()
