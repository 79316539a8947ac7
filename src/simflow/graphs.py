"""Graph construction and the graph agent-based runtime.

Vertices carry named float properties; rules from a graph model run
against them in two phases per step: gather rules may read neighbours
through edge iteration, update rules are strictly vertex-local.  Every
rule sees the properties as they were when the rule started, so
neighbour reads are independent of the vertex visiting order.

Rules and the initial condition run compiled over all vertices at once
(:mod:`simflow.lockstep`); the per-vertex interpreter (:class:`VertexContext`)
runs an algorithm the compiler refuses and reruns a rule in which a vertex
faults, so errors name the vertex.  Randomness is keyed on (seed, phase, step, rule
index, vertex), never on call order across vertices.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np

from . import algorithm as alg
from . import expr, lockstep
from .expr import _fmt_number
from .rng import DrawStream, keyed_int

_PHASE_INIT = 1
_PHASE_GRAPH = 2
_PHASE_RULE = 3
_PHASE_PICK = 4


class GraphError(Exception):
    pass


class Graph:
    """Directed or undirected multigraph with edges in creation order.

    Adjacency lists hold edge indices; for undirected graphs each edge
    appears in the adjacency of both endpoints.
    """

    def __init__(self, n_vertices, edges, directed=True):
        self.n = int(n_vertices)
        self.directed = bool(directed)
        self.edges = [(int(s), int(t)) for s, t in edges]
        self.in_edges = [[] for _ in range(self.n)]
        self.out_edges = [[] for _ in range(self.n)]
        for i, (s, t) in enumerate(self.edges):
            if not (0 <= s < self.n and 0 <= t < self.n):
                raise GraphError(f"edge {i} = ({s}, {t}) references a missing vertex")
            self.out_edges[s].append(i)
            self.in_edges[t].append(i)
            if not self.directed and s != t:
                self.out_edges[t].append(i)
                self.in_edges[s].append(i)

    @property
    def n_edges(self):
        return len(self.edges)

    @functools.cached_property
    def edge_arrays(self):
        """(sources, targets) as integer arrays indexed by edge."""
        pairs = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        return pairs[:, 0], pairs[:, 1]

    @functools.cached_property
    def csr(self):
        """Adjacency as CSR arrays ``(indptr, edge indices)`` by direction,
        each vertex's edges in creation order."""
        out = {}
        for direction, lists in (("in", self.in_edges), ("out", self.out_edges)):
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum([len(lst) for lst in lists], out=indptr[1:])
            index = np.fromiter((e for lst in lists for e in lst), np.int64, int(indptr[-1]))
            out[direction] = (indptr, index)
        return out

    def endpoints(self, edge, vertex=None):
        """(source, target) of an edge; for undirected graphs the pair is
        reported relative to ``vertex``: (other endpoint, vertex)."""
        s, t = self.edges[edge]
        if self.directed or vertex is None:
            return s, t
        other = s if t == vertex else t
        return other, vertex


# ---------------------------------------------------------------------------
# Generation

def generate_graph(spec, seed=0):
    """Build a graph from a generation spec (see GraphSpec).

    Distributions: 'circular' (ring v -> v+1), 'random' (fixed number of
    distinct edges, no self loops; min_in_degree=1 first gives every
    vertex one incoming edge), 'scale_free' (preferential attachment,
    ``attach`` edges per new vertex).
    """
    if spec.source == "file":
        n, edges = load_edge_list(spec.path)
        return Graph(n, edges, spec.directed)
    v = int(spec.vertices)
    if v <= 0:
        raise GraphError("graph generation needs a positive vertex count")
    stream = DrawStream(seed, _PHASE_GRAPH)
    if spec.distribution == "circular":
        edges = [(i, (i + 1) % v) for i in range(v)]
    elif spec.distribution == "random":
        edges = _random_edges(v, int(spec.edges), int(spec.min_in_degree),
                              spec.directed, stream)
    elif spec.distribution == "scale_free":
        edges = _preferential_edges(v, int(spec.attach), stream)
    else:
        raise GraphError(f"unknown graph distribution '{spec.distribution}'")
    return Graph(v, edges, spec.directed)


def _edge_key(s, t, directed):
    return (s, t) if directed else (min(s, t), max(s, t))


def _random_edges(v, e, min_in_degree, directed, stream):
    if v < 2:
        raise GraphError("random graphs need at least two vertices")
    max_edges = v * (v - 1) if directed else v * (v - 1) // 2
    if e > max_edges:
        raise GraphError(f"{e} edges do not fit in a simple graph on {v} vertices")
    edges = []
    seen = set()
    if min_in_degree >= 1:
        if e < v:
            raise GraphError(f"min_in_degree 1 needs at least {v} edges, got {e}")
        # one incoming edge per vertex first, then fill with random pairs
        for t in range(v):
            s = stream.int_below(v - 1)
            if s >= t:
                s += 1
            edges.append((s, t))
            seen.add(_edge_key(s, t, directed))
    while len(edges) < e:
        s = stream.int_below(v)
        t = stream.int_below(v - 1)
        if t >= s:
            t += 1
        key = _edge_key(s, t, directed)
        if key not in seen:
            seen.add(key)
            edges.append((s, t))
    return edges


def _preferential_edges(v, attach, stream):
    if attach < 1:
        raise GraphError("scale_free attachment count must be >= 1")
    if v <= attach:
        raise GraphError(f"need more than {attach} vertices for attach={attach}")
    edges = []
    repeated = []  # endpoint multiset; picking from it is degree-proportional
    for new in range(attach, v):
        targets = set()
        while len(targets) < attach:
            if repeated:
                cand = repeated[stream.int_below(len(repeated))]
            else:
                cand = stream.int_below(new)
            if cand != new:
                targets.add(cand)
        for t in sorted(targets):
            edges.append((new, t))
            repeated.append(new)
            repeated.append(t)
    return edges


# ---------------------------------------------------------------------------
# Edge-list and DOT files

def load_edge_list(path):
    """Read a 'vertices N' header followed by 'source target' lines."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    n = None
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "vertices" or len(parts) != 2:
                raise GraphError(f"{path}:{lineno}: expected 'vertices N' header")
            n = int(parts[1])
        else:
            if len(parts) != 2:
                raise GraphError(f"{path}:{lineno}: expected 'source target'")
            edges.append((int(parts[0]), int(parts[1])))
    if n is None:
        raise GraphError(f"{path}: missing 'vertices N' header")
    return n, edges


def save_edge_list(graph, path):
    lines = [f"vertices {graph.n}"]
    lines.extend(f"{s} {t}" for s, t in graph.edges)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_dot(graph, properties, path):
    """Deterministic DOT dump; vertex labels list 'prop=value' pairs."""
    arrow = "->" if graph.directed else "--"
    lines = [("digraph" if graph.directed else "graph") + " {"]
    names = list(properties)
    for v in range(graph.n):
        label = ", ".join(f"{p}={_fmt_number(float(properties[p][v]))}" for p in names)
        lines.append(f'  {v} [label="{label}"];' if names else f"  {v};")
    for s, t in graph.edges:
        lines.append(f"  {s} {arrow} {t};")
    lines.append("}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Rule execution

class VertexContext(alg.Context):
    """One vertex executing one rule.

    Reads of the current vertex use the live arrays (so accumulators work
    within a rule); reads of any other vertex use the per-rule snapshot.
    The update phase rejects edge iteration and the $es/$et builtins.
    """

    family = "graph"

    def __init__(self, graph, live, snapshot, vertex, params, stream,
                 phase="gather", iteration=0):
        self.graph = graph
        self.live = live
        self.snapshot = snapshot
        self.vertex = int(vertex)
        self.params = params
        self.stream = stream
        self.phase = phase
        self.iteration = iteration
        self._edge = None

    def resolve(self, name, kind, arg):
        if kind == "parameter":
            return self.params[name]
        if kind == "field":
            v = self.vertex if arg is None else alg.entity_index(arg, "vertex", name)
            if v == self.vertex:
                return float(self.live[name][v])
            if self.phase == "update":
                raise alg.PhaseError(
                    f"update rule read property '{name}' of another vertex")
            if not 0 <= v < self.graph.n:
                raise expr.EvaluationError(f"vertex index {v} out of range for '{name}'")
            return float(self.snapshot[name][v])
        if kind == "builtin":
            return self._builtin(name, arg)
        raise expr.EvaluationError(f"'{name}' is not available on a graph vertex")

    def _builtin(self, name, arg):
        if name == "$cv":
            return float(self.vertex)
        if name == "$ce":
            if self._edge is None:
                raise expr.EvaluationError("$ce outside iterate_over_edges")
            return float(self._edge)
        if name in ("$es", "$et"):
            if self.phase == "update":
                raise alg.PhaseError(f"{name} is not allowed in an update rule")
            if arg is None:
                raise expr.EvaluationError(f"{name} needs an edge argument")
            e = alg.entity_index(arg, "edge", name)
            if not 0 <= e < self.graph.n_edges:
                raise expr.EvaluationError(f"edge index {e} out of range for '{name}'")
            s, t = self.graph.endpoints(e, self.vertex)
            return float(s if name == "$es" else t)
        if name in ("$lnoe_in", "$lnoe_out"):
            v = self.vertex if arg is None else alg.entity_index(arg, "vertex", name)
            if not 0 <= v < self.graph.n:
                raise expr.EvaluationError(f"vertex index {v} out of range for '{name}'")
            lst = self.graph.in_edges if name == "$lnoe_in" else self.graph.out_edges
            return float(len(lst[v]))
        if name == "$gnov":
            return float(self.graph.n)
        if name == "$gnoe":
            return float(self.graph.n_edges)
        if name == "$in":
            return float(self.iteration)
        if name == "$rnd_uniform":
            return self.stream.uniform()
        if name == "$rnd_int_1":
            return float(self.stream.int_below(2))
        raise expr.EvaluationError(f"builtin '{name}' is not available on a graph vertex")

    def write(self, name, index, value):
        if name not in self.live:
            raise alg.AlgorithmError(f"write to undeclared property '{name}'")
        v = self.vertex if index is None else alg.entity_index(index, "vertex", name)
        if v != self.vertex:
            raise alg.AlgorithmError(
                f"vertex {self.vertex} may not write property '{name}' of vertex {v}")
        self.live[name][v] = value

    def iter_edges(self, direction):
        if self.phase == "update":
            raise alg.PhaseError("iterate_over_edges is not allowed in an update rule")
        lst = self.graph.in_edges if direction == "in" else self.graph.out_edges
        for e in lst[self.vertex]:
            self._edge = e
            yield e
        self._edge = None


class VertexLanes(lockstep.Entities):
    """All vertices of a graph for one rule or initial condition."""

    self_builtin = "$cv"
    noun = "vertex"
    error = GraphError

    def __init__(self, graph, live, params, phase, iteration, keys):
        super().__init__(graph.n, live, params, phase, iteration, keys)
        self.graph = graph

    def builtin(self, state, name, lanes, arg, in_loop):
        graph = self.graph
        if name == "$cv":
            return lanes.astype(np.float64)
        if name == "$ce":
            if not in_loop:
                raise lockstep.Fault("$ce outside iterate_over_edges")
            return state.partner[lanes].astype(np.float64)
        if name in ("$es", "$et"):
            if self.phase == "update" or arg is None:
                raise lockstep.Fault(f"{name} is not available")
            edge = state.index(arg, lanes, graph.n_edges)
            sources, targets = graph.edge_arrays
            if graph.directed:
                ends = sources if name == "$es" else targets
                return ends[edge].astype(np.float64)
            if name == "$et":
                return lanes.astype(np.float64)
            return np.where(targets[edge] == lanes, sources[edge],
                            targets[edge]).astype(np.float64)
        if name in ("$lnoe_in", "$lnoe_out"):
            v = lanes if arg is None else state.index(arg, lanes, graph.n)
            indptr = graph.csr["in" if name == "$lnoe_in" else "out"][0]
            return (indptr[v + 1] - indptr[v]).astype(np.float64)
        if name == "$gnov":
            return float(graph.n)
        if name == "$gnoe":
            return float(graph.n_edges)
        return super().builtin(state, name, lanes, arg, in_loop)

    def neighbours(self, tag, direction):
        if tag != "iterate_over_edges" or self.phase == "update":
            raise lockstep.Fault(f"{tag} is not available")
        return self.graph.csr[direction]

    def context(self, i, snapshot, stream):
        return VertexContext(self.graph, self.arrays, snapshot, i, self.params, stream,
                             phase=self.phase, iteration=self.iteration)


def initialize_properties(graph, problem, params, seed=0):
    """Run the problem's initial-condition algorithm over all vertices."""
    live = {p: np.zeros(graph.n) for p in problem.properties}
    ic = problem.initial_condition
    lockstep.log_status("initial condition", ic)
    entities = VertexLanes(graph, live, params, "init", 0, (seed, _PHASE_INIT))
    lockstep.run(ic, np.arange(graph.n), entities)
    return live


def step_graph(graph, model, live, params, step, seed=0, mode="all"):
    """One evolution step: every rule in execution order over the vertices.

    ``mode='one'`` runs the rule sequence on a single keyed-random vertex.
    """
    if mode == "one":
        vertices = np.array([keyed_int(graph.n, seed, _PHASE_PICK, step)])
    else:
        vertices = np.arange(graph.n)
    for rule_index, rule_name in enumerate(model.execution_order):
        rule = model.rule_by_name(rule_name)
        if rule is None:
            raise GraphError(f"execution order names unknown rule '{rule_name}'")

        entities = VertexLanes(graph, live, params, rule.kind, step,
                               (seed, _PHASE_RULE, step, rule_index))
        lockstep.run(rule.algorithm, vertices, entities, rule_name)


# ---------------------------------------------------------------------------
# Problem runner

class GraphRunReport:
    def __init__(self, steps, property_means, outputs):
        self.steps = steps
        self.property_means = property_means
        self.outputs = outputs

    def to_json(self):
        return {"steps": self.steps, "property_means": self.property_means,
                "outputs": list(self.outputs)}


def run_graph_problem(problem, model, config):
    """Execute a graph problem; writes one DOT file per completed step."""
    spec = problem.graph
    if config.get("number_of_vertices") is not None:
        spec.vertices = int(config.get("number_of_vertices"))
    if config.get("number_of_edges") is not None:
        spec.edges = int(config.get("number_of_edges"))
    seed = config.seed

    graph = generate_graph(spec, seed)
    params = problem.parameter_values(config.scalar_overrides)
    live = initialize_properties(graph, problem, params, seed)
    lockstep.log_rules(model)

    env = expr.EvalEnvironment(bindings=dict(params))

    def finalized(n):
        env.bindings["$in"] = float(n)
        return expr.evaluate(problem.finalization, env) != 0.0

    out_dir = config.output_dir
    outputs = []
    step = 0
    while not finalized(step):
        if step >= config.max_steps:
            raise GraphError(f"finalization never satisfied within {config.max_steps} steps")
        step_graph(graph, model, live, params, step, seed, mode=problem.evolution_step)
        step += 1
        path = out_dir / f"graph_{step}.dot"
        write_dot(graph, live, path)
        outputs.append(str(path))

    means = {p: float(np.mean(live[p])) for p in live}
    report = GraphRunReport(step, means, outputs)
    report.graph = graph
    report.properties = live
    return report
