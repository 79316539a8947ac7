"""Spatial agent runtime: periodic box, radius neighbor search, rules.

Agents live in a periodic rectangular domain; the neighbor relation is
the closed ball of the interaction radius under the minimum-image metric
(distance ties count, and by default an agent is its own neighbor).
Neighbor candidates come from a periodic k-d tree at a slightly inflated
radius and are then filtered with the exact minimum-image distance, so
the result matches a brute-force scan exactly.

Rule execution mirrors the graph runtime: every rule sees the properties
as they were when it started, gather rules may read neighbors, update
rules are agent-local, and all randomness is keyed on (seed, phase, step,
rule index, agent).  Rules and the initial condition run compiled over
all agents at once (:mod:`simflow.lockstep`); the per-agent interpreter
(:class:`AgentContext`) runs an algorithm the compiler refuses and reruns
a rule in which an agent faults, so errors name the agent.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from scipy.spatial import cKDTree

from . import algorithm as alg
from . import expr, lockstep
from .rng import keyed_uniform_array

_PHASE_INIT = 1
_PHASE_RULE = 3
_PHASE_POS = 5

log = logging.getLogger("simflow")


class AgentError(Exception):
    pass


class AgentSet:
    """N agents with coordinate arrays and named property arrays.

    Coordinates are stored alongside the other properties; writes to them
    go through :meth:`wrap` so positions always stay in [lo, hi).
    """

    def __init__(self, n, coords, domain, properties):
        self.n = int(n)
        self.coords = list(coords)
        self.domain = {a: (float(lo), float(hi)) for a, (lo, hi) in domain.items()}
        self.props = {}
        for name in list(properties) + self.coords:
            self.props[name] = np.zeros(self.n)

    def positions(self):
        return np.column_stack([self.props[c] for c in self.coords])

    def extents(self):
        return np.array([self.domain[c][1] - self.domain[c][0] for c in self.coords])

    def lows(self):
        return np.array([self.domain[c][0] for c in self.coords])

    def wrap(self, coord, value):
        lo, hi = self.domain[coord]
        return lo + (value - lo) % (hi - lo)


def default_positions(agents, seed=0):
    """Uniform random positions, keyed per agent; runs before any
    initial-condition algorithm (which may overwrite them)."""
    ids = np.arange(agents.n)
    for d, c in enumerate(agents.coords):
        lo, hi = agents.domain[c]
        u = keyed_uniform_array(ids, seed, _PHASE_POS, tail=(d,))
        agents.props[c][:] = lo + u * (hi - lo)


# ---------------------------------------------------------------------------
# Neighbor search

def neighbor_pairs(positions, lows, extents, radius):
    """All unordered pairs (i < j) with minimum-image distance <= radius.

    Returned as two index arrays sorted lexicographically.  Candidates
    come from a periodic k-d tree queried at radius*(1+1e-9) and are then
    filtered with the exact minimum-image metric, so ties at the radius
    are kept and the result equals a brute-force scan.
    """
    positions = np.asarray(positions, dtype=np.float64)
    extents = np.asarray(extents, dtype=np.float64)
    shifted = np.mod(positions - lows, extents)
    # guard against mod rounding tiny negatives up to the full extent
    shifted = np.where(shifted >= extents, shifted - extents, shifted)
    if _uses_all_pairs(extents, radius):
        pairs = _brute_pairs(shifted, extents, radius)
    else:
        tree = cKDTree(shifted, boxsize=extents)
        pairs = tree.query_pairs(radius * (1.0 + 1e-9), output_type="ndarray")
        if len(pairs):
            keep = _within(shifted[pairs[:, 0]], shifted[pairs[:, 1]], extents, radius)
            pairs = pairs[keep]
    if len(pairs) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    pairs = pairs[order]
    return pairs[:, 0].astype(np.int64), pairs[:, 1].astype(np.int64)


def _uses_all_pairs(extents, radius):
    """Whether the radius is too large for the periodic k-d tree."""
    return 3.0 * radius >= np.min(extents)


def _within(a, b, extents, radius):
    delta = np.abs(a - b)
    delta = np.minimum(delta, extents - delta)
    return np.sum(delta * delta, axis=1) <= radius * radius


def _brute_pairs(shifted, extents, radius):
    n = len(shifted)
    ii, jj = np.triu_indices(n, k=1)
    keep = _within(shifted[ii], shifted[jj], extents, radius)
    return np.column_stack([ii[keep], jj[keep]])


def neighbor_csr(n, pairs, include_self=True):
    """Neighbor relation from the (i < j) pairs as CSR arrays.

    Returns ``(indptr, index)``: the neighbors of agent ``a`` are
    ``index[indptr[a]:indptr[a + 1]]``, in ascending order.
    """
    ii, jj = pairs
    owners, others = [ii, jj], [jj, ii]
    if include_self:
        ids = np.arange(n)
        owners.append(ids)
        others.append(ids)
    owner = np.concatenate(owners).astype(np.int64)
    other = np.concatenate(others).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=indptr[1:])
    # sorting the unique keys owner * n + other orders by owner, then neighbor
    return indptr, np.sort(owner * n + other) % n


def order_parameter(theta):
    """Polarization (1/N)|sum exp(i theta)| of an angle array."""
    theta = np.asarray(theta)
    return float(math.hypot(np.mean(np.cos(theta)), np.mean(np.sin(theta))))


# ---------------------------------------------------------------------------
# Rule execution

class AgentContext(alg.Context):
    """One agent executing one rule.

    Current-agent reads are live (accumulators work inside a rule); reads
    of other agents ($na inside iterate_over_interactions) come from the
    per-rule snapshot.  ``neighbors`` is the :func:`neighbor_csr`
    relation, or None in an initial condition.  Update rules reject
    neighbor access.  Writes to coordinate properties are wrapped into
    the domain.
    """

    family = "spatial"

    def __init__(self, agents, snapshot, neighbors, agent, params, stream,
                 phase="gather", iteration=0):
        self.agents = agents
        self.snapshot = snapshot
        self.neighbors = neighbors
        self.agent = int(agent)
        self.params = params
        self.stream = stream
        self.phase = phase
        self.iteration = iteration
        self._partner = None

    def resolve(self, name, kind, arg):
        if kind == "parameter":
            return self.params[name]
        if kind in ("field", "coordinate"):
            a = self.agent if arg is None else alg.entity_index(arg, "agent", name)
            if a == self.agent:
                return float(self.agents.props[name][a])
            if self.phase == "update":
                raise alg.PhaseError(
                    f"update rule read property '{name}' of another agent")
            if not 0 <= a < self.agents.n:
                raise expr.EvaluationError(f"agent index {a} out of range for '{name}'")
            return float(self.snapshot[name][a])
        if kind == "builtin":
            return self._builtin(name)
        raise expr.EvaluationError(f"'{name}' is not available on an agent")

    def _builtin(self, name):
        if name == "$ca":
            return float(self.agent)
        if name == "$na":
            if self.phase == "update":
                raise alg.PhaseError("$na is not allowed in an update rule")
            if self._partner is None:
                raise expr.EvaluationError("$na outside iterate_over_interactions")
            return float(self._partner)
        if name == "$gnoa":
            return float(self.agents.n)
        if name == "$in":
            return float(self.iteration)
        if name == "$rnd_uniform":
            return self.stream.uniform()
        if name == "$rnd_int_1":
            return float(self.stream.int_below(2))
        raise expr.EvaluationError(f"builtin '{name}' is not available on an agent")

    def write(self, name, index, value):
        if name not in self.agents.props:
            raise alg.AlgorithmError(f"write to undeclared property '{name}'")
        a = self.agent if index is None else alg.entity_index(index, "agent", name)
        if a != self.agent:
            raise alg.AlgorithmError(
                f"agent {self.agent} may not write property '{name}' of agent {a}")
        if name in self.agents.domain:
            value = self.agents.wrap(name, value)
        self.agents.props[name][a] = value

    def iter_interactions(self):
        if self.phase == "update":
            raise alg.PhaseError("iterate_over_interactions is not allowed in an update rule")
        if self.neighbors is None:
            raise alg.PhaseError(
                "iterate_over_interactions is not allowed in an initial condition")
        indptr, index = self.neighbors
        for p in index[indptr[self.agent]:indptr[self.agent + 1]].tolist():
            self._partner = p
            yield p
        self._partner = None


class AgentLanes(lockstep.Entities):
    """All agents for one rule or initial condition.

    ``neighbors`` is the :func:`neighbor_csr` relation, or None in an
    initial condition.
    """

    property_kinds = ("field", "coordinate")
    self_builtin = "$ca"
    partner_builtin = "$na"
    noun = "agent"
    error = AgentError

    def __init__(self, agents, params, phase, iteration, keys, neighbors):
        super().__init__(agents.n, agents.props, params, phase, iteration, keys)
        self.agents = agents
        self.neighbors = neighbors

    def builtin(self, state, name, lanes, arg, in_loop):
        if name == "$ca":
            return lanes.astype(np.float64)
        if name == "$na":
            if self.phase == "update" or not in_loop:
                raise lockstep.Fault("$na outside iterate_over_interactions")
            return state.partner[lanes].astype(np.float64)
        if name == "$gnoa":
            return float(self.n)
        return super().builtin(state, name, lanes, arg, in_loop)

    def neighbours(self, tag, direction):
        if tag != "iterate_over_interactions" or self.phase == "update" \
                or self.neighbors is None:
            raise lockstep.Fault(f"{tag} is not available")
        return self.neighbors

    def wrap(self, name, values):
        # on arrays, % is np.mod, which rounds and signs as Python's float %
        return self.agents.wrap(name, values) if name in self.agents.domain else values

    def context(self, i, snapshot, stream):
        return AgentContext(self.agents, snapshot, self.neighbors, i, self.params, stream,
                            phase=self.phase, iteration=self.iteration)


def initialize_agents(problem, model, params, n, seed=0):
    """AgentSet with keyed uniform positions, then the problem's IC."""
    agents = AgentSet(n, problem.spatial_coords, problem.domain,
                      [p for p in problem.properties if p not in problem.spatial_coords])
    default_positions(agents, seed)
    ic = problem.initial_condition
    lockstep.log_status("initial condition", ic)
    entities = AgentLanes(agents, params, "init", 0, (seed, _PHASE_INIT), None)
    lockstep.run(ic, np.arange(agents.n), entities)
    return agents


def step_agents(agents, model, params, radius, step, seed=0):
    """One evolution step: neighbor rebuild, then rules in declared order."""
    pairs = neighbor_pairs(agents.positions(), agents.lows(), agents.extents(), radius)
    neighbors = neighbor_csr(agents.n, pairs, model.include_self)
    everyone = np.arange(agents.n)
    for rule_index, rule_name in enumerate(model.execution_order):
        rule = model.rule_by_name(rule_name)
        if rule is None:
            raise AgentError(f"execution order names unknown rule '{rule_name}'")

        entities = AgentLanes(agents, params, rule.kind, step,
                              (seed, _PHASE_RULE, step, rule_index), neighbors)
        lockstep.run(rule.algorithm, everyone, entities, rule_name)


# ---------------------------------------------------------------------------
# Problem runner

class SpatialRunReport:
    def __init__(self, steps, order_history, outputs):
        self.steps = steps
        self.order_history = order_history
        self.outputs = outputs

    def to_json(self):
        return {"steps": self.steps, "order_parameter": list(self.order_history),
                "outputs": list(self.outputs)}


def run_spatial_problem(problem, model, config):
    """Execute a spatial problem; CSV snapshot per step plus order.csv."""
    seed = config.seed
    n = int(config.get("n_agents", problem.n_agents))
    if n <= 0:
        raise AgentError("agent count must be positive")
    params = problem.parameter_values(config.scalar_overrides)
    if model.interaction_radius not in params:
        raise AgentError(f"radius parameter '{model.interaction_radius}' is undefined")

    agents = initialize_agents(problem, model, params, n, seed)
    lockstep.log_rules(model)
    radius = params[model.interaction_radius]
    if _uses_all_pairs(agents.extents(), radius):
        log.warning("interaction radius %s is >= a third of the domain extent; "
                    "using the quadratic all-pairs search", radius)
    env = expr.EvalEnvironment(bindings=dict(params))

    def finalized(k):
        env.bindings["$in"] = float(k)
        return expr.evaluate(problem.finalization, env) != 0.0

    out_dir = config.output_dir
    outputs = []
    order_history = []
    step = 0
    while not finalized(step):
        if step >= config.max_steps:
            raise AgentError(f"finalization never satisfied within {config.max_steps} steps")
        step_agents(agents, model, params, radius, step, seed)
        step += 1
        outputs.append(str(_write_snapshot(agents, out_dir, step)))
        if "theta" in agents.props:
            order_history.append(order_parameter(agents.props["theta"]))
    if order_history:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "order.csv", "w", encoding="utf-8") as fh:
            fh.write("step,phi_ord\n")
            for k, phi in enumerate(order_history, start=1):
                fh.write(f"{k},{phi:.17g}\n")
        outputs.append(str(out_dir / "order.csv"))

    report = SpatialRunReport(step, order_history, outputs)
    report.agents = agents
    return report


def _write_snapshot(agents, out_dir, step):
    names = agents.coords + [p for p in agents.props if p not in agents.coords]
    path = out_dir / f"agents_{step}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    # float ids print exactly through %d below 2**53 agents
    table = np.column_stack([np.arange(agents.n, dtype=np.float64)]
                            + [agents.props[p] for p in names])
    body = (("%d" + ",%.17g" * len(names) + "\n") * agents.n) % tuple(table.ravel().tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id," + ",".join(names) + "\n" + body)
    return path
