"""Compiled (lockstep) rule execution against the per-entity interpreter.

Every comparison is bitwise: property arrays are compared as uint64 views
and output files byte for byte.  The interpreted side is produced by
making the compiler refuse every algorithm, which sends each rule through
the interpreter exactly as a refused program would run.
"""

import contextlib
import functools
import logging
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from simflow import agents as ag
from simflow import algorithm as alg
from simflow import documents as docs
from simflow import graphs, library_path, lockstep
from simflow import grid as gridmod
from simflow.params import RunConfig

LIBRARY = library_path()


@contextlib.contextmanager
def interpreted():
    """Run every rule and initial condition through the interpreter."""
    with mock.patch.object(lockstep, "compile_algorithm", lambda a: (None, "interpreter")):
        yield


@contextlib.contextmanager
def simflow_records():
    """Collect the simflow logger's debug records."""
    records = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = records.append
    logger = logging.getLogger("simflow")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def fallbacks(records):
    return [r.getMessage() for r in records if "rerunning interpreted" in r.getMessage()]


def assert_bitwise_equal(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(np.asarray(a[name]).view(np.uint64),
                              np.asarray(b[name]).view(np.uint64)), name


def load(kind):
    model = docs.load_document(LIBRARY / f"models/{kind}_model.json")
    problem = docs.load_document(LIBRARY / f"problems/{kind}_problem.json")
    return model, problem


def run_voter(tmp_path, seed, directed, mode):
    model, problem = load("voter")
    problem.graph.directed = directed
    problem.evolution_step = mode
    config = RunConfig({"time_steps": 6, "number_of_vertices": 80, "number_of_edges": 160},
                       output_dir=tmp_path, seed=seed)
    report = graphs.run_graph_problem(problem, model, config)
    return report.properties, report.outputs


def run_flocking(tmp_path, seed):
    model, problem = load("flocking")
    config = RunConfig({"time_steps": 5, "n_agents": 120, "radius": 8.0, "eta": 0.3},
                       output_dir=tmp_path, seed=seed)
    report = ag.run_spatial_problem(problem, model, config)
    return report.agents.props, report.outputs


def compare_runs(tmp_path, runner, *args):
    with simflow_records() as records:
        compiled, compiled_files = runner(tmp_path / "compiled", *args)
    assert fallbacks(records) == []
    with interpreted():
        reference, reference_files = runner(tmp_path / "interpreted", *args)
    assert_bitwise_equal(compiled, reference)
    assert [Path(p).name for p in compiled_files] == [Path(p).name for p in reference_files]
    for a, b in zip(compiled_files, reference_files):
        assert Path(a).read_bytes() == Path(b).read_bytes(), a


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
@pytest.mark.parametrize("mode", ["all", "one"])
def test_shipped_voter_matches_interpreter(tmp_path, seed, directed, mode):
    compare_runs(tmp_path, run_voter, seed, directed, mode)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shipped_flocking_matches_interpreter(tmp_path, seed):
    compare_runs(tmp_path, run_flocking, seed)


def test_every_shipped_rule_runs_compiled(tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="simflow")
    run_voter(tmp_path / "v", 1, True, "all")
    run_flocking(tmp_path / "f", 1)
    messages = [r.getMessage() for r in caplog.records if r.name == "simflow"]
    expected = ["initial condition: compiled"]
    expected += [f"rule '{name}': compiled" for name in load("voter")[0].execution_order]
    expected += ["initial condition: compiled"]
    expected += [f"rule '{name}': compiled" for name in load("flocking")[0].execution_order]
    assert [m for m in messages if m.endswith("compiled") or "interpreted" in m] == expected


def test_fault_reruns_interpreted_with_the_same_error_and_writes(caplog):
    # vertex 0 has no incoming edge, so State update divides by zero there
    model, _ = load("voter")
    g = graphs.Graph(3, [(0, 1), (1, 2)], directed=True)
    caplog.set_level(logging.DEBUG, logger="simflow")
    outcomes = []
    for context in (contextlib.nullcontext, interpreted):
        live = {"state": np.array([1.0, 0.0, 1.0]), "acc": np.zeros(3)}
        with context(), pytest.raises(graphs.GraphError) as err:
            graphs.step_graph(g, model, live, {}, step=0)
        outcomes.append((str(err.value), live))
    assert outcomes[0][0] == outcomes[1][0]
    assert "vertex 0" in outcomes[0][0]
    assert_bitwise_equal(outcomes[0][1], outcomes[1][1])
    assert fallbacks(caplog.records) == [
        "rule 'State update 1': division by zero in compiled run, rerunning interpreted"]


def test_refused_program_runs_interpreted_and_says_why(tmp_path, caplog):
    nested = [{"do": "iterate_over_edges", "direction": "in", "body": [
        {"do": "iterate_over_edges", "direction": "out", "body": [
            {"do": "assign", "target": "acc($cv)", "expr": "acc($cv) + 1"}]}]}]
    algorithm = alg.algorithm_from_json(nested, {"acc": "field", "state": "field"})
    assert lockstep.compile_algorithm(algorithm) == (None, "nested neighbour iteration")
    model, problem = load("voter")
    model.rule_by_name("Acc gather 1").algorithm = algorithm
    caplog.set_level(logging.DEBUG, logger="simflow")
    config = RunConfig({"time_steps": 2, "number_of_vertices": 20, "number_of_edges": 40},
                       output_dir=tmp_path, seed=4)
    report = graphs.run_graph_problem(problem, model, config)
    assert "rule 'Acc gather 1': interpreted: nested neighbour iteration" in caplog.messages
    g = report.graph
    # the inner loop walks the current vertex's own out-edges once per in-edge
    expected = [len(g.in_edges[v]) * len(g.out_edges[v]) for v in range(g.n)]
    assert list(report.properties["acc"]) == expected


# ---------------------------------------------------------------------------
# Generated rule programs

NUMBERS = st.sampled_from(["0", "1", "2", "0.5", "2.5", "3", "0.1"])
FUNCTIONS_1 = st.sampled_from(["sin", "cos", "exp", "sqrt", "abs", "floor"])
FUNCTIONS_2 = st.sampled_from(["atan2", "mod"])
OPERATORS = st.sampled_from(["+", "-", "*", "/", "+", "-", "*", ">=", "<", "==", "!=",
                             "and", "or", "^"])
LOCALS = ["t", "u", "w"]

FAMILIES = {
    "graph": SimpleNamespace(
        own=["a($cv)", "b($cv)", "a", "$cv", "$lnoe_in($cv)", "$lnoe_out($cv)", "$gnov"],
        partner=["a($es($ce))", "b($et($ce))", "$ce", "$lnoe_out($es($ce))"],
        targets=["a($cv)", "b($cv)", "b"],
        loop={"do": "iterate_over_edges"}),
    "spatial": SimpleNamespace(
        own=["a($ca)", "b($ca)", "x", "y($ca)", "$ca", "$gnoa"],
        partner=["a($na)", "x($na)", "$na", "b($na) - b($ca)"],
        targets=["a($ca)", "b($ca)", "x($ca)", "y"],
        loop={"do": "iterate_over_interactions"}),
    # grid initial conditions: fields and coordinates, no neighbour loops
    "grid": SimpleNamespace(
        own=["a", "b", "x", "y", "tau"], partner=[], targets=["a", "b"], loop=None),
}


@functools.lru_cache(maxsize=None)
def expressions(family, in_loop):
    spec = FAMILIES[family]
    leaves = [NUMBERS, st.sampled_from(spec.own + LOCALS + ["p", "$in"]),
              st.sampled_from(["$rnd_uniform", "$rnd_int_1"])]
    if in_loop:
        leaves.append(st.sampled_from(spec.partner))
    return st.recursive(st.one_of(*leaves), lambda inner: st.one_of(
        st.tuples(inner, OPERATORS, inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(FUNCTIONS_1, inner).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(FUNCTIONS_2, inner, inner).map(lambda t: f"{t[0]}({t[1]}, {t[2]})"),
        inner.map(lambda e: f"(-{e})"),
    ), max_leaves=5)


@st.composite
def blocks(draw, family, depth, in_loop=False, gather=True):
    spec = FAMILIES[family]
    values = expressions(family, in_loop)
    statements = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["local", "property"] + (["if", "while"] if depth else [])
            + (["loop"] if depth and gather and not in_loop else [])))
        if kind == "local":
            target = draw(st.sampled_from(LOCALS))
            statements.append({"do": "assign", "target": target, "expr": draw(values)})
        elif kind == "property":
            target = draw(st.sampled_from(spec.targets))
            statements.append({"do": "assign", "target": target, "expr": draw(values)})
        elif kind == "if":
            statement = {"do": "if", "cond": draw(values),
                         "then": draw(blocks(family, depth - 1, in_loop, gather))}
            if draw(st.booleans()):
                statement["else"] = draw(blocks(family, depth - 1, in_loop, gather))
            statements.append(statement)
        elif kind == "while":
            # bounded: at most `limit` rounds, possibly fewer by the data
            counter = f"i{depth}"
            limit = draw(st.integers(0, 3))
            statements.append({"do": "assign", "target": counter, "expr": "0"})
            statements.append({
                "do": "while", "cond": f"({counter} < {limit}) and ({draw(values)} != 7)",
                "body": [{"do": "assign", "target": counter, "expr": f"{counter} + 1"}]
                + draw(blocks(family, depth - 1, in_loop, gather))})
        else:
            loop = dict(spec.loop)
            if family == "graph":
                loop["direction"] = draw(st.sampled_from(["in", "out"]))
            loop["body"] = draw(blocks(family, depth - 1, True, gather))
            statements.append(loop)
    return statements


def symbol_table(family):
    table = {"a": "field", "b": "field", "p": "parameter"}
    table.update({name: "local" for name in LOCALS + ["i1", "i2"]})
    if family != "graph":
        table.update({"x": "coordinate", "y": "coordinate"})
    if family == "grid":
        table["tau"] = "coordinate"
    return table


@st.composite
def programs(draw, family):
    """A model of one or two generated rules, plus a seed for the data."""
    rules = []
    for k in range(draw(st.integers(1, 2))):
        gather = draw(st.booleans())
        body = draw(blocks(family, 2, gather=gather))
        rules.append(SimpleNamespace(
            name=f"r{k}", kind="gather" if gather else "update",
            algorithm=alg.algorithm_from_json(body, symbol_table(family))))
    model = SimpleNamespace(
        execution_order=[r.name for r in rules], include_self=draw(st.booleans()),
        rule_by_name={r.name: r for r in rules}.get)
    return model, draw(st.integers(0, 2 ** 16)), draw(st.booleans())


def outcome(run):
    """Final arrays plus the exception, if any, as (type, message)."""
    with simflow_records() as records:
        try:
            arrays = run()
            error = None
        except Exception as exc:   # every fault type must match
            arrays = getattr(exc, "arrays", None)
            error = (type(exc), str(exc))
    return arrays, error, fallbacks(records)


def check_against_interpreter(run):
    arrays, error, fell_back = outcome(run)
    with interpreted():
        ref_arrays, ref_error, _ = outcome(run)
    assert error == ref_error
    if ref_arrays is not None or arrays is not None:
        assert_bitwise_equal(arrays, ref_arrays)
    if ref_error is None:
        # the compiled path must really have run, not fallen back
        assert fell_back == []


def keep_arrays(fn, arrays):
    """Run ``fn``; on error attach the (partially written) arrays."""
    try:
        fn()
    except Exception as exc:
        exc.arrays = {k: v.copy() for k, v in arrays.items()}
        raise
    return arrays


GENERATED = settings(max_examples=80, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@GENERATED
@given(programs("graph"))
def test_generated_graph_rules_match_interpreter(program):
    model, seed, directed = program
    spec = docs.GraphSpec.from_json({"distribution": "random", "vertices": 7, "edges": 12,
                                     "directed": directed})
    g = graphs.generate_graph(spec, seed=seed)
    rng = np.random.default_rng(seed)
    initial = {"a": rng.uniform(-2, 2, g.n), "b": rng.integers(-1, 3, g.n).astype(float)}

    def run():
        live = {k: v.copy() for k, v in initial.items()}

        def steps():
            for step in range(2):
                graphs.step_graph(g, model, live, {"p": 0.75}, step, seed=seed)
        return keep_arrays(steps, live)
    check_against_interpreter(run)


@GENERATED
@given(programs("spatial"))
def test_generated_agent_rules_match_interpreter(program):
    model, seed, _ = program
    rng = np.random.default_rng(seed)
    domain = {"x": (0.0, 10.0), "y": (-1.0, 4.0)}
    initial = {"a": rng.uniform(-2, 2, 8), "b": rng.integers(-1, 3, 8).astype(float),
               "x": rng.uniform(0.0, 10.0, 8), "y": rng.uniform(-1.0, 4.0, 8)}

    def run():
        agents = ag.AgentSet(8, ["x", "y"], domain, ["a", "b"])
        for k, v in initial.items():
            agents.props[k][:] = v

        def steps():
            for step in range(2):
                ag.step_agents(agents, model, {"p": 0.75}, 1.5, step, seed=seed)
        return keep_arrays(steps, agents.props)
    check_against_interpreter(run)


@GENERATED
@given(programs("graph"))
def test_generated_initial_conditions_match_interpreter(program):
    model, seed, directed = program
    spec = docs.GraphSpec.from_json({"distribution": "random", "vertices": 6, "edges": 10,
                                     "directed": directed})
    g = graphs.generate_graph(spec, seed=seed)
    rule = model.rule_by_name(model.execution_order[0])
    problem = SimpleNamespace(properties=["a", "b"], initial_condition=rule.algorithm)
    check_against_interpreter(
        lambda: graphs.initialize_properties(g, problem, {"p": 0.75}, seed=seed))


@GENERATED
@given(st.data())
def test_generated_grid_initial_conditions_match_interpreter(data):
    body = data.draw(blocks("grid", 2, gather=False))
    seed = data.draw(st.integers(0, 2 ** 16))
    problem = SimpleNamespace(
        region=SimpleNamespace(initial_condition=alg.algorithm_from_json(
            body, symbol_table("grid"))),
        time_coord="tau")
    rng = np.random.default_rng(seed)
    initial = {"a": rng.uniform(-2, 2, (7, 6)), "b": rng.integers(-1, 3, (7, 6)).astype(float)}

    def run():
        g = gridmod.make_grid(["x", "y"], [5, 4], {"x": (-1.0, 1.5), "y": (0.0, 2.0)}, 1)
        g.data = {k: v.copy() for k, v in initial.items()}
        return keep_arrays(
            lambda: gridmod.apply_initial_conditions(g, problem, {"p": 0.75}, seed), g.data)
    check_against_interpreter(run)


def test_negative_base_to_fractional_power_falls_back(caplog):
    # lanes with a < 0 take a complex power, which the interpreter rejects
    algorithm = alg.algorithm_from_json(
        [{"do": "assign", "target": "b($cv)", "expr": "a($cv) ^ 0.5"}], symbol_table("graph"))
    rule = SimpleNamespace(name="r", kind="update", algorithm=algorithm)
    model = SimpleNamespace(execution_order=["r"], rule_by_name={"r": rule}.get)
    g = graphs.Graph(3, [], directed=True)
    caplog.set_level(logging.DEBUG, logger="simflow")
    outcomes = []
    for context in (contextlib.nullcontext, interpreted):
        live = {"a": np.array([4.0, -1.0, 9.0]), "b": np.zeros(3)}
        with context(), pytest.raises(graphs.GraphError) as err:
            graphs.step_graph(g, model, live, {}, step=0)
        outcomes.append((str(err.value), live))
    assert outcomes[0][0] == outcomes[1][0] == (
        "rule 'r' failed at vertex 1: "
        "power of negative base to fractional exponent in '(a($cv) ^ 0.5)'")
    assert_bitwise_equal(outcomes[0][1], outcomes[1][1])
    assert list(outcomes[0][1]["b"]) == [2.0, 0.0, 0.0]
    assert fallbacks(caplog.records) == [
        "rule 'r': TypeError in pow in compiled run, rerunning interpreted"]
