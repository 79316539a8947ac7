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

Graph generation reads one keyed stream per seed: draw ``k`` is
``keyed_uniform(seed, _PHASE_GRAPH, k)``, the ``k``-th draw of
``DrawStream(seed, _PHASE_GRAPH)``.  A random graph with ``min_in_degree``
1 gives target vertex ``t`` the source ``int(u_t * (v - 1))``, skipping
``t``, from draws 0..v-1.  The fill pass then takes candidate pairs from
the following draws, the even one of each pair picking the source from
``v`` vertices and the odd one the target from the other ``v - 1``, and
keeps a candidate when its edge is not yet in the graph.  It draws the
candidates in batches with :func:`keyed_uniform_array` and accepts them
in order, so the edges are those of a draw-by-draw loop.
"""

from __future__ import annotations

import functools
import itertools
from pathlib import Path

import numpy as np

from . import algorithm as alg
from . import expr, lockstep
from .rng import DrawStream, keyed_int, keyed_uniform_array

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
        sources, targets = self.edge_arrays
        missing = np.flatnonzero((np.minimum(sources, targets) < 0)
                                 | (np.maximum(sources, targets) >= self.n))
        if len(missing):
            i = int(missing[0])
            s, t = self.edges[i]
            raise GraphError(f"edge {i} = ({s}, {t}) references a missing vertex")

    @property
    def n_edges(self):
        return len(self.edges)

    @functools.cached_property
    def edge_arrays(self):
        """(sources, targets) as integer arrays indexed by edge."""
        flat = itertools.chain.from_iterable(self.edges)
        pairs = np.fromiter(flat, np.int64, 2 * self.n_edges).reshape(-1, 2)
        return pairs[:, 0], pairs[:, 1]

    @functools.cached_property
    def dot_edges(self):
        """The edge lines of :func:`write_dot`; the same for every step."""
        arrow = "->" if self.directed else "--"
        return (f"  %d {arrow} %d;\n" * self.n_edges) % tuple(
            itertools.chain.from_iterable(self.edges))

    @functools.cached_property
    def csr(self):
        """Adjacency as CSR arrays ``(indptr, edge indices)`` by direction,
        each vertex's edges in creation order."""
        sources, targets = self.edge_arrays
        ids = np.arange(self.n_edges, dtype=np.int64)
        if self.directed:
            return {"in": self._csr(targets, ids), "out": self._csr(sources, ids)}
        # both ends own an edge, a self loop once; in and out are the same
        other = sources != targets
        both = self._csr(np.concatenate([sources, targets[other]]),
                         np.concatenate([ids, ids[other]]))
        return {"in": both, "out": both}

    def _csr(self, owner, edge):
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=self.n), out=indptr[1:])
        # sorting the keys owner * E + edge orders by owner, then edge
        span = max(self.n_edges, 1)
        return indptr, np.sort(owner * span + edge) % span

    @functools.cached_property
    def in_edges(self):
        """Per vertex, the list of its incoming edge indices."""
        return self._edge_lists("in")

    @functools.cached_property
    def out_edges(self):
        """Per vertex, the list of its outgoing edge indices."""
        return self._edge_lists("out")

    def _edge_lists(self, direction):
        indptr, index = self.csr[direction]
        flat, bounds = index.tolist(), indptr.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

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
    keys = (seed, _PHASE_GRAPH)
    if spec.distribution == "circular":
        edges = [(i, (i + 1) % v) for i in range(v)]
    elif spec.distribution == "random":
        edges = _random_edges(v, int(spec.edges), int(spec.min_in_degree),
                              spec.directed, keys)
    elif spec.distribution == "scale_free":
        edges = _preferential_edges(v, int(spec.attach), DrawStream(*keys))
    else:
        raise GraphError(f"unknown graph distribution '{spec.distribution}'")
    return Graph(v, edges, spec.directed)


def _edge_keys(s, t, v, directed):
    """One integer per edge; equal exactly for the same simple edge."""
    if directed:
        return s * v + t
    return np.minimum(s, t) * v + np.maximum(s, t)


def _random_edges(v, e, min_in_degree, directed, keys):
    """Distinct edges without self loops, drawn from the keyed stream
    ``keys`` as the module docstring describes."""
    if v < 2:
        raise GraphError("random graphs need at least two vertices")
    max_edges = v * (v - 1) if directed else v * (v - 1) // 2
    if e > max_edges:
        raise GraphError(f"{e} edges do not fit in a simple graph on {v} vertices")
    sources = np.zeros(0, dtype=np.int64)
    targets = np.zeros(0, dtype=np.int64)
    counter = 0
    if min_in_degree >= 1:
        if e < v:
            raise GraphError(f"min_in_degree 1 needs at least {v} edges, got {e}")
        # one incoming edge per vertex first, then fill with random pairs
        targets = np.arange(v, dtype=np.int64)
        sources = (keyed_uniform_array(targets, *keys) * (v - 1)).astype(np.int64)
        sources += sources >= targets
        counter = v
    seen = np.unique(_edge_keys(sources, targets, v, directed))
    while len(sources) < e:
        need = e - len(sources)
        # enough candidates for ``need`` new edges at the current acceptance rate
        batch = need * max_edges // (max_edges - len(seen)) + 16
        u = keyed_uniform_array(np.arange(counter, counter + 2 * batch), *keys)
        counter += 2 * batch
        s = (u[0::2] * v).astype(np.int64)
        t = (u[1::2] * (v - 1)).astype(np.int64)
        t += t >= s
        # a stable sort: ``first`` is the first candidate with each edge
        found, first = np.unique(_edge_keys(s, t, v, directed), return_index=True)
        new = ~np.isin(found, seen, assume_unique=True)
        take = np.sort(first[new])[:need]
        sources = np.concatenate([sources, s[take]])
        targets = np.concatenate([targets, t[take]])
        seen = np.union1d(seen, found[new])
    return list(zip(sources.tolist(), targets.tolist()))


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
    names = list(properties)
    if names:
        label = ", ".join(f"{p.replace('%', '%%')}=%s" for p in names)
        columns = [np.arange(graph.n).astype(object)]
        columns += [expr._number_objects(np.asarray(properties[p], dtype=np.float64))
                    for p in names]
        row = f'  %d [label="{label}"];\n'
        values = np.column_stack(columns).ravel().tolist()
    else:
        row = "  %d;\n"
        values = range(graph.n)
    text = ("digraph {\n" if graph.directed else "graph {\n") \
        + (row * graph.n) % tuple(values) + graph.dot_edges + "}\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


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
