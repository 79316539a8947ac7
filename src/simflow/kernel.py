"""Lowering of continuous problems to executable kernel programs.

Method of lines: operator term trees become a DAG of pointwise
expressions and stencil applications per evolved field; time integration
is SSP-RK3 with optional Kreiss-Oliger dissipation folded into the RHS.

A pure chain of k derivatives along one axis is lowered to the policy's
direct order-k stencil when one is declared, and otherwise to a recursive
composition of the first-derivative stencil (the default recursive rule).
Stencils here are dimensionless; the runtime divides each application by
dx**order.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import documents as docs
from . import expr
from .stencils import Stencil, StencilError, centered_stencil


class LoweringError(Exception):
    pass


@dataclass(frozen=True)
class Pointwise:
    exprn: object


@dataclass(frozen=True)
class StencilApply:
    stencil: Stencil
    inner: object


@dataclass(frozen=True)
class Combine:
    op: str  # '+' | '*'
    children: tuple


@dataclass
class KernelProgram:
    """Per-field RHS DAG plus halo width and dissipation descriptor."""

    axes: list
    fields: list
    rhs: dict              # field -> node
    halo: int
    sigma: float
    dissipation_order: int

    @property
    def has_dissipation(self):
        return self.sigma > 0.0


def node_radius(node):
    """Ghost-layer width the node needs beyond the evaluation region."""
    if isinstance(node, Pointwise):
        return 0
    if isinstance(node, StencilApply):
        return node.stencil.radius + node_radius(node.inner)
    if isinstance(node, Combine):
        return max((node_radius(c) for c in node.children), default=0)
    raise TypeError(f"not a kernel node: {node!r}")


def print_node(node):
    """Printed discrete form (golden-test surface)."""
    if isinstance(node, Pointwise):
        return expr.to_text(node.exprn)
    if isinstance(node, StencilApply):
        s = node.stencil
        offs = ",".join(str(o) for o in s.offsets)
        return f"stencil(m={s.order}, axis={s.axis}, offsets=[{offs}])({print_node(node.inner)})"
    if isinstance(node, Combine):
        sep = " + " if node.op == "+" else " * "
        return "(" + sep.join(print_node(c) for c in node.children) + ")"
    raise TypeError(f"not a kernel node: {node!r}")


def _direct_width(m):
    # centered, 4th-order accurate: m+3 points, rounded up to odd
    n = m + 3
    return n if n % 2 == 1 else n + 1


class _StencilTable:
    """Per-operator-name stencil provider derived from a policy."""

    def __init__(self, policy, op_name):
        if op_name not in policy.operators:
            raise LoweringError(f"operator '{op_name}' has no schema in the policy")
        self.direct_orders = policy.direct_orders_for(op_name)
        if 1 not in self.direct_orders:
            raise LoweringError("policy must provide a first-derivative stencil")
        self._cache = {}

    def get(self, m, axis):
        key = (m, axis)
        if key not in self._cache:
            self._cache[key] = centered_stencil(m, _direct_width(m), axis)
        return self._cache[key]

    def has_direct(self, m):
        return m in self.direct_orders


def lower_term(term, table):
    """Lower one operator term tree to a kernel node."""
    if isinstance(term, docs.Algebraic):
        return Pointwise(term.exprn)
    if isinstance(term, docs.DerivativeTerm):
        axis = term.axis
        depth = 1
        inner = term.inner
        while isinstance(inner, docs.DerivativeTerm) and inner.axis == axis:
            depth += 1
            inner = inner.inner
        if table.has_direct(depth):
            return StencilApply(table.get(depth, axis), lower_term(inner, table))
        # recursive composition: outermost first derivative applied to the
        # (depth-1)-order chain
        reduced = inner
        for _ in range(depth - 1):
            reduced = docs.DerivativeTerm(axis, reduced)
        return StencilApply(table.get(1, axis), lower_term(reduced, table))
    if isinstance(term, docs.ProductTerm):
        return Combine("*", tuple(lower_term(t, table) for t in term.factors))
    if isinstance(term, docs.SumTerm):
        return Combine("+", tuple(lower_term(t, table) for t in term.terms))
    raise TypeError(f"not a term node: {term!r}")


def build_kernel(problem, policy, model):
    """Lower problem + policy to a DiscretizedProblem and KernelProgram."""
    for doc, label in ((problem, "problem"), (policy, "policy"), (model, "model")):
        errors = [d for d in docs.validate(doc) if d.severity == "error"]
        if errors:
            raise LoweringError(f"invalid {label}:\n" + "\n".join(str(d) for d in errors))

    ti = policy.time_integration
    sigma = float(ti["sigma"])
    r = int(ti["dissipation_order"])
    axes = list(model.spatial_coords)

    rhs = {}
    for ev in model.evolution:
        parts = []
        for op in ev.operators:
            table = _StencilTable(policy, op.name)
            parts.extend(lower_term(t, table) for t in op.terms)
        if not parts:
            rhs[ev.fld] = Pointwise(expr.Number(0.0))
        elif len(parts) == 1:
            rhs[ev.fld] = parts[0]
        else:
            rhs[ev.fld] = Combine("+", tuple(parts))

    halo = max((node_radius(n) for n in rhs.values()), default=0)
    if sigma > 0.0:
        halo = max(halo, r)

    kernel = KernelProgram(axes, list(model.fields), rhs, halo, sigma, r)

    equations = {}
    for fld in model.fields:
        text = print_node(rhs[fld])
        if sigma > 0.0:
            text += f" + ko_dissipation(r={r}, sigma={expr._fmt_number(sigma)}, axis=all)({fld})"
        equations[fld] = text

    head = docs.Head(
        name=(problem.head.name + " (discretized)") if problem.head.name else "discretized",
        id=(problem.head.id + "-discretized") if problem.head.id else "",
        author=problem.head.author,
        version=problem.head.version,
        date=problem.head.date,
    )
    discretized = docs.DiscretizedProblem(head, problem, policy, model, equations, halo)
    return discretized, kernel


def rk3_step(state, rhs, t, dt):
    """One SSP-RK3 step from time ``t`` (Shu-Osher scheme in increment form).

    ``state`` maps field names to values/arrays; ``rhs(state, stage_t)``
    returns the RHS dict and is called exactly three times, at ``t``,
    ``t + dt`` and ``t + dt/2``.  ``rhs`` may overwrite the ghost layers of
    its input (the grid refills them from the interior); that is safe
    because every ghost layer is refilled before it is read, so the
    interior of the result does not depend on ghost contents.  The
    increment arrangement keeps the state bitwise unchanged when the RHS
    is identically zero.

    The stages are combined in place: each of the two stage states is one
    new array per field, ``k1 + k2`` is summed into the second RHS array
    and the result is built in the third, so ``rhs`` must return arrays it
    does not keep (or scalars).  ``state`` is never written.  Every stage
    value is bitwise equal to the plain expressions
    ``state + dt * k1``, ``state + dt * (k1 + k2) / 4.0`` and
    ``state + dt * (k1 + k2 + 4.0 * k3) / 6.0``: each in-place operation
    is one of theirs with its operands swapped at most.
    """
    k1 = rhs(state, t)
    s1 = {}
    for f in state:
        s = k1[f] * dt
        s += state[f]
        s1[f] = s
    k2 = rhs(s1, t + dt)
    k12 = {}
    s2 = {}
    for f in state:
        u = k2[f]
        u += k1[f]
        k12[f] = u
        s = u * dt
        s /= 4.0
        s += state[f]
        s2[f] = s
    k3 = rhs(s2, t + dt / 2.0)
    out = {}
    for f in state:
        v = k3[f]
        v *= 4.0
        v += k12[f]
        v *= dt
        v /= 6.0
        v += state[f]
        out[f] = v
    return out
