"""Graph generation, DOT output, and the graph rule runtime."""

import logging
import math
import re

import numpy as np
import pytest

from simflow import documents as docs
from simflow import expr, graphs, library_path
from simflow.params import RunConfig
from simflow.rng import DrawStream

LIBRARY = library_path()


def spec(**kw):
    return docs.GraphSpec.from_json(kw)


class TestGeneration:
    def test_circular_ring(self):
        g = graphs.generate_graph(spec(distribution="circular", vertices=5))
        assert g.edges == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
        assert all(len(g.in_edges[v]) == 1 for v in range(5))

    def test_random_distinct_edges_no_self_loops(self):
        g = graphs.generate_graph(spec(distribution="random", vertices=50, edges=120), seed=3)
        assert g.n_edges == 120
        assert len(set(g.edges)) == 120
        assert all(s != t for s, t in g.edges)

    def test_min_in_degree_guarantee(self):
        g = graphs.generate_graph(
            spec(distribution="random", vertices=40, edges=60, min_in_degree=1), seed=7)
        assert g.n_edges == 60
        assert min(len(g.in_edges[v]) for v in range(40)) >= 1

    def test_seeded_determinism(self):
        s = spec(distribution="random", vertices=30, edges=80)
        a = graphs.generate_graph(s, seed=1)
        b = graphs.generate_graph(s, seed=1)
        c = graphs.generate_graph(s, seed=2)
        assert a.edges == b.edges
        assert a.edges != c.edges

    def test_scale_free_grows_hubs(self):
        for seed in range(10):
            g = graphs.generate_graph(
                spec(distribution="scale_free", vertices=100, attach=2), seed=seed)
            degree = np.zeros(100)
            for s, t in g.edges:
                degree[s] += 1
                degree[t] += 1
            assert degree.max() > 3 * degree.mean()

    def test_too_many_edges_rejected(self):
        with pytest.raises(graphs.GraphError):
            graphs.generate_graph(spec(distribution="random", vertices=3, edges=10))

    def test_undirected_adjacency_is_symmetric(self):
        g = graphs.generate_graph(
            spec(distribution="random", vertices=10, edges=15, directed=False), seed=5)
        e = g.out_edges[3]
        assert e == g.in_edges[3]
        for edge in e:
            other, me = g.endpoints(edge, 3)
            assert me == 3 and other != 3


def test_edge_list_round_trip(tmp_path):
    g = graphs.generate_graph(spec(distribution="random", vertices=12, edges=20), seed=9)
    path = tmp_path / "g.txt"
    graphs.save_edge_list(g, path)
    n, edges = graphs.load_edge_list(path)
    assert n == 12 and edges == g.edges


class TestDot:
    def test_directed_shape(self, tmp_path):
        g = graphs.Graph(3, [(0, 1), (1, 2)], directed=True)
        path = tmp_path / "g.dot"
        graphs.write_dot(g, {"state": np.array([1.0, 0.0, 1.0])}, path)
        text = path.read_text()
        assert text.startswith("digraph {")
        assert '0 [label="state=1"];' in text
        assert "0 -> 1;" in text and "1 -> 2;" in text
        assert text.rstrip().endswith("}")

    def test_undirected_uses_dashes(self, tmp_path):
        g = graphs.Graph(2, [(0, 1)], directed=False)
        path = tmp_path / "g.dot"
        graphs.write_dot(g, {}, path)
        text = path.read_text()
        assert text.startswith("graph {")
        assert "0 -- 1;" in text

    def test_parse_back(self, tmp_path):
        # independent line-level parse recovers the graph and the labels
        g = graphs.generate_graph(spec(distribution="random", vertices=8, edges=12), seed=2)
        states = np.arange(8, dtype=float)
        path = tmp_path / "g.dot"
        graphs.write_dot(g, {"state": states}, path)
        vertices, edges = {}, []
        for line in path.read_text().splitlines():
            m = re.match(r'\s*(\d+) \[label="state=([^"]*)"\];', line)
            if m:
                vertices[int(m.group(1))] = float(m.group(2))
            m = re.match(r"\s*(\d+) -> (\d+);", line)
            if m:
                edges.append((int(m.group(1)), int(m.group(2))))
        assert vertices == {v: float(v) for v in range(8)}
        assert edges == g.edges


# ---------------------------------------------------------------------------
# The array generator and writer against the per-draw and per-vertex loops
# they replaced, kept here as oracles.

def loop_random_edges(v, e, min_in_degree, directed, seed):
    stream = DrawStream(seed, graphs._PHASE_GRAPH)

    def key(s, t):
        return (s, t) if directed else (min(s, t), max(s, t))

    edges, seen = [], set()
    if min_in_degree >= 1:
        for t in range(v):
            s = stream.int_below(v - 1)
            if s >= t:
                s += 1
            edges.append((s, t))
            seen.add(key(s, t))
    while len(edges) < e:
        s = stream.int_below(v)
        t = stream.int_below(v - 1)
        if t >= s:
            t += 1
        if key(s, t) not in seen:
            seen.add(key(s, t))
            edges.append((s, t))
    return edges


def loop_fmt_number(v):
    if math.isfinite(v) and v == math.floor(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(float(v))


def loop_write_dot(graph, properties, path):
    arrow = "->" if graph.directed else "--"
    lines = [("digraph" if graph.directed else "graph") + " {"]
    names = list(properties)
    for v in range(graph.n):
        label = ", ".join(f"{p}={loop_fmt_number(float(properties[p][v]))}" for p in names)
        lines.append(f'  {v} [label="{label}"];' if names else f"  {v};")
    for s, t in graph.edges:
        lines.append(f"  {s} {arrow} {t};")
    lines.append("}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# (vertices, edges, min_in_degree, directed); 30 vertices with every
# possible edge makes the fill pass reject most candidates
RANDOM_GRAPHS = [
    (50, 120, 0, True), (50, 120, 0, False), (40, 60, 1, True), (40, 60, 1, False),
    (200, 800, 1, True), (30, 870, 0, True), (30, 870, 1, True), (30, 435, 0, False),
    (30, 435, 1, False), (2, 1, 0, True), (2, 2, 1, True), (5, 0, 0, True),
]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("v,e,min_in,directed", RANDOM_GRAPHS)
def test_random_edges_match_the_draw_stream_loop(v, e, min_in, directed, seed):
    g = graphs.generate_graph(spec(distribution="random", vertices=v, edges=e,
                                   min_in_degree=min_in, directed=directed), seed=seed)
    assert g.edges == loop_random_edges(v, e, min_in, directed, seed)


SPECIAL_VALUES = [-0.0, 5e-324, 0.1, 1e16, 9999999999999998.0, -3.0, math.inf, math.nan,
                  -math.inf, -1e16, 2.5, 1e300, 0.0, 7.0, -9999999999999998.0, 1 / 3]


def test_fmt_number_is_the_loop_rule():
    for value in SPECIAL_VALUES:
        assert expr._fmt_number(value) == loop_fmt_number(value)


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("names", [(), ("state",), ("state", "a%d")])
def test_write_dot_matches_the_per_vertex_loop(tmp_path, directed, names):
    n = len(SPECIAL_VALUES)
    g = graphs.generate_graph(spec(distribution="random", vertices=n, edges=40,
                                   directed=directed), seed=1)
    values = np.array(SPECIAL_VALUES)
    for step in range(2):  # the second call reuses the graph's edge block
        properties = {p: np.roll(values, k + step) for k, p in enumerate(names)}
        graphs.write_dot(g, properties, tmp_path / "array.dot")
        loop_write_dot(g, properties, tmp_path / "loop.dot")
        assert (tmp_path / "array.dot").read_bytes() == (tmp_path / "loop.dot").read_bytes()


def voter_docs():
    model = docs.load_document(LIBRARY / "models/voter_model.json")
    problem = docs.load_document(LIBRARY / "problems/voter_problem.json")
    return model, problem


class TestVoterRules:
    def test_gather_sums_incoming_states(self):
        model, _ = voter_docs()
        model.execution_order = ["Acc update 1", "Acc gather 1"]
        g = graphs.Graph(3, [(0, 1), (1, 2), (2, 0)], directed=True)
        live = {"state": np.array([1.0, 0.0, 1.0]), "acc": np.full(3, 9.0)}
        graphs.step_graph(g, model, live, {}, step=0)
        assert list(live["acc"]) == [1.0, 1.0, 0.0]
        assert list(live["state"]) == [1.0, 0.0, 1.0]

    def test_all_ones_state_is_invariant(self):
        model, problem = voter_docs()
        for seed in range(10):
            g = graphs.generate_graph(problem.graph, seed=seed)
            live = {"state": np.ones(g.n), "acc": np.zeros(g.n)}
            for step in range(10):
                graphs.step_graph(g, model, live, {}, step, seed=seed)
            assert np.all(live["state"] == 1.0)

    def test_zero_in_degree_fault_names_vertex(self):
        model, _ = voter_docs()
        g = graphs.Graph(2, [(0, 1)], directed=True)
        live = {"state": np.zeros(2), "acc": np.zeros(2)}
        with pytest.raises(graphs.GraphError) as err:
            graphs.step_graph(g, model, live, {}, step=0)
        assert "vertex 0" in str(err.value)


    @pytest.mark.parametrize("call,message", [
        ("$lnoe_in(-1)", "vertex index -1 out of range for '$lnoe_in'"),
        ("$lnoe_out(3)", "vertex index 3 out of range for '$lnoe_out'"),
        ("$es(-1)", "edge index -1 out of range for '$es'"),
        ("$et(3)", "edge index 3 out of range for '$et'"),
    ])
    def test_out_of_range_builtin_index_rejected(self, call, message, caplog):
        # Python lists would wrap -1 round to the last vertex or edge
        caplog.set_level(logging.DEBUG, logger="simflow")
        model = docs.document_from_json({
            "kind": "abm_graph_model",
            "head": {"name": "degree", "id": "degree-model"},
            "vertex_properties": ["acc"],
            "rules": {"gather": [{"name": "read", "property": "acc", "algorithm": [
                {"do": "assign", "target": "acc($cv)", "expr": call}]}], "update": []},
            "execution_order": ["read"],
        })
        g = graphs.Graph(3, [(0, 1), (1, 2), (2, 0)], directed=True)
        live = {"acc": np.zeros(3)}
        with pytest.raises(graphs.GraphError) as err:
            graphs.step_graph(g, model, live, {}, step=0)
        assert str(err.value) == f"rule 'read' failed at vertex 0: {message}"
        assert isinstance(err.value.__cause__, expr.EvaluationError)
        assert list(live["acc"]) == [0.0, 0.0, 0.0]
        assert ("rule 'read': index out of range in compiled run, rerunning interpreted"
                in caplog.messages)


class TestRunner:
    def run(self, tmp_path, tag, seed=1):
        model, problem = voter_docs()
        config = RunConfig({"time_steps": 10}, output_dir=tmp_path / tag, seed=seed)
        return graphs.run_graph_problem(problem, model, config)

    def test_outputs_one_dot_per_step(self, tmp_path):
        report = self.run(tmp_path, "a")
        assert report.steps == 10
        assert [p.rsplit("/", 1)[-1] for p in report.outputs] == [
            f"graph_{k}.dot" for k in range(1, 11)]

    def test_fixed_seed_repeats_bitwise(self, tmp_path):
        a = self.run(tmp_path, "r1", seed=5)
        b = self.run(tmp_path, "r2", seed=5)
        for pa, pb in zip(a.outputs, b.outputs):
            assert open(pa, "rb").read() == open(pb, "rb").read()

    def test_config_overrides_graph_size(self, tmp_path):
        model, problem = voter_docs()
        config = RunConfig({"time_steps": 2, "number_of_vertices": 20,
                            "number_of_edges": 40}, output_dir=tmp_path / "sz")
        report = graphs.run_graph_problem(problem, model, config)
        assert report.graph.n == 20 and report.graph.n_edges == 40


def test_evolution_step_one_touches_single_vertex():
    model = docs.document_from_json({
        "kind": "abm_graph_model",
        "head": {"name": "count", "id": "count-model"},
        "vertex_properties": ["state"],
        "rules": {"gather": [], "update": [
            {"name": "bump", "property": "state", "algorithm": [
                {"do": "assign", "target": "state", "expr": "(state($cv) + 1)"}]}]},
        "execution_order": ["bump"],
    })
    g = graphs.Graph(6, [(0, 1)], directed=True)
    live = {"state": np.zeros(6)}
    graphs.step_graph(g, model, live, {}, step=0, seed=4, mode="one")
    assert live["state"].sum() == 1.0
