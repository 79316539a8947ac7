"""Document kinds, on-disk JSON format, validation, and LaTeX export.

Five document kinds flow through the pipeline:

* ``generic_pde_model``      evolution operators per field (term trees)
* ``generic_pde_problem``    domain, parameters, initial/boundary conditions
* ``discretization_policy``  operator and time-integration schema selection
* ``abm_graph_model`` / ``abm_spatial_model`` and their problems
* ``discretized_problem``    fully lowered discrete equations (golden surface)

Files are UTF-8 JSON with a top-level ``kind`` discriminator.  Loading
parses all embedded expressions and algorithms; expression errors are
aggregated with tree locators and raised as :class:`DocumentFormatError`.
Semantic checks live in :func:`validate`, which returns diagnostics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from . import algorithm as alg
from . import expr

KNOWN_KINDS = (
    "generic_pde_model",
    "generic_pde_problem",
    "discretization_policy",
    "abm_graph_model",
    "abm_spatial_model",
    "abm_graph_problem",
    "abm_spatial_problem",
    "discretized_problem",
)

OPERATOR_SCHEMAS = ("4th_order_operators", "4th_order_recursive")
TIME_SCHEMAS = ("rk3_dissipation",)


class DocumentError(Exception):
    pass


class DocumentFormatError(DocumentError):
    def __init__(self, message, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


@dataclass
class Diagnostic:
    severity: str  # 'error' | 'warning'
    path: str
    message: str

    def __str__(self):
        return f"{self.severity}: {self.path}: {self.message}"


@dataclass
class Head:
    name: str = ""
    id: str = ""
    author: str = ""
    version: str = ""
    date: str = ""

    @classmethod
    def from_json(cls, obj):
        obj = obj or {}
        return cls(**{k: str(obj.get(k, "")) for k in ("name", "id", "author", "version", "date")})

    def to_json(self):
        return {"name": self.name, "id": self.id, "author": self.author,
                "version": self.version, "date": self.date}


# ---------------------------------------------------------------------------
# Operator term trees

@dataclass(frozen=True)
class Algebraic:
    exprn: object


@dataclass(frozen=True)
class DerivativeTerm:
    axis: str
    inner: object


@dataclass(frozen=True)
class ProductTerm:
    factors: tuple


@dataclass(frozen=True)
class SumTerm:
    terms: tuple


def term_from_json(obj, symbols, path, diags):
    tag = obj.get("term")
    if tag == "algebraic":
        try:
            return Algebraic(expr.parse_expression(obj["math"], symbols))
        except expr.ExprError as exc:
            diags.append(Diagnostic("error", path, str(exc)))
            return Algebraic(expr.Number(0.0))
    if tag == "derivative":
        inner = term_from_json(obj["inner"], symbols, path + "/inner", diags)
        return DerivativeTerm(obj.get("axis", ""), inner)
    if tag == "product":
        return ProductTerm(tuple(
            term_from_json(t, symbols, f"{path}/factors[{i}]", diags)
            for i, t in enumerate(obj.get("factors", []))))
    if tag == "sum":
        return SumTerm(tuple(
            term_from_json(t, symbols, f"{path}/terms[{i}]", diags)
            for i, t in enumerate(obj.get("terms", []))))
    diags.append(Diagnostic("error", path, f"unknown term tag '{tag}'"))
    return Algebraic(expr.Number(0.0))


def term_to_json(t):
    if isinstance(t, Algebraic):
        return {"term": "algebraic", "math": expr.to_text(t.exprn)}
    if isinstance(t, DerivativeTerm):
        return {"term": "derivative", "axis": t.axis, "inner": term_to_json(t.inner)}
    if isinstance(t, ProductTerm):
        return {"term": "product", "factors": [term_to_json(x) for x in t.factors]}
    if isinstance(t, SumTerm):
        return {"term": "sum", "terms": [term_to_json(x) for x in t.terms]}
    raise TypeError(f"not a term node: {t!r}")


def term_axes(t):
    if isinstance(t, Algebraic):
        return set()
    if isinstance(t, DerivativeTerm):
        return {t.axis} | term_axes(t.inner)
    children = t.factors if isinstance(t, ProductTerm) else t.terms
    out = set()
    for c in children:
        out |= term_axes(c)
    return out


@dataclass
class OperatorTerms:
    name: str
    terms: tuple


@dataclass
class FieldEvolution:
    fld: str
    operators: list


@dataclass
class GenericPdeModel:
    kind = "generic_pde_model"
    head: Head
    spatial_coords: list
    time_coord: str
    fields: list
    evolution: list  # [FieldEvolution]

    def symbol_table(self):
        table = {f: "field" for f in self.fields}
        for c in self.spatial_coords:
            table[c] = "coordinate"
        table[self.time_coord] = "coordinate"
        return table

    @classmethod
    def from_json(cls, obj, diags):
        head = Head.from_json(obj.get("head"))
        coords = obj.get("coordinates", {})
        spatial = list(coords.get("spatial", []))
        time_coord = coords.get("time", "t")
        fields = list(obj.get("fields", []))
        model = cls(head, spatial, time_coord, fields, [])
        table = model.symbol_table()
        for entry in obj.get("evolution", []):
            fld = entry.get("field", "")
            ops = []
            for j, op in enumerate(entry.get("operators", [])):
                path = f"evolution/{fld}/operators[{j}]"
                terms = tuple(
                    term_from_json(t, table, f"{path}/terms[{i}]", diags)
                    for i, t in enumerate(op.get("terms", [])))
                ops.append(OperatorTerms(op.get("name", "default"), terms))
            model.evolution.append(FieldEvolution(fld, ops))
        return model

    def to_json(self):
        return {
            "kind": self.kind,
            "head": self.head.to_json(),
            "coordinates": {"spatial": list(self.spatial_coords), "time": self.time_coord},
            "fields": list(self.fields),
            "evolution": [
                {"field": ev.fld,
                 "operators": [{"name": op.name, "terms": [term_to_json(t) for t in op.terms]}
                               for op in ev.operators]}
                for ev in self.evolution
            ],
        }


@dataclass
class Parameter:
    name: str
    type: str  # 'INT' | 'REAL'
    default: float

    @classmethod
    def from_json(cls, obj):
        return cls(obj.get("name", ""), obj.get("type", "REAL"), float(obj.get("default", 0.0)))

    def to_json(self):
        default = int(self.default) if self.type == "INT" else self.default
        return {"name": self.name, "type": self.type, "default": default}


@dataclass
class Region:
    name: str
    domain: dict  # axis -> (lo, hi)
    initial_condition: alg.Algorithm


@dataclass
class BoundaryCondition:
    name: str
    type: str
    side: str
    axis: str


@dataclass
class GenericPdeProblem:
    kind = "generic_pde_problem"
    head: Head
    spatial_coords: list
    time_coord: str
    fields: list
    parameters: list
    model_id: str
    region: Region
    boundary_conditions: list
    boundary_precedence: list
    finalization: object
    analysis: dict = field(default_factory=dict)

    def symbol_table(self, with_locals=False):
        table = {f: "field" for f in self.fields}
        for c in self.spatial_coords:
            table[c] = "coordinate"
        table[self.time_coord] = "coordinate"
        for p in self.parameters:
            table[p.name] = "parameter"
        return table

    @classmethod
    def from_json(cls, obj, diags):
        head = Head.from_json(obj.get("head"))
        coords = obj.get("coordinates", {})
        spatial = list(coords.get("spatial", []))
        time_coord = coords.get("time", "t")
        fields = list(obj.get("fields", []))
        params = [Parameter.from_json(p) for p in obj.get("parameters", [])]
        problem = cls(head, spatial, time_coord, fields, params,
                      obj.get("model", ""), None, [], [], expr.Number(0.0), {})
        table = problem.symbol_table()
        region_obj = obj.get("region", {})
        domain = {a: (float(lo), float(hi)) for a, (lo, hi) in region_obj.get("domain", {}).items()}
        ic = _load_algorithm(region_obj.get("initial_condition", []), dict(table),
                             "region/initial_condition", diags)
        problem.region = Region(region_obj.get("name", "main"), domain, ic)
        problem.boundary_conditions = [
            BoundaryCondition(b.get("name", ""), b.get("type", ""),
                              b.get("side", "all"), b.get("axis", "all"))
            for b in obj.get("boundary_conditions", [])]
        problem.boundary_precedence = list(obj.get("boundary_precedence", []))
        problem.finalization = _load_expression(obj.get("finalization", ""), table,
                                                "finalization", diags)
        for name, text in (obj.get("analysis") or {}).items():
            problem.analysis[name] = _load_expression(text, table, f"analysis/{name}", diags)
        return problem

    def to_json(self):
        out = {
            "kind": self.kind,
            "head": self.head.to_json(),
            "coordinates": {"spatial": list(self.spatial_coords), "time": self.time_coord},
            "fields": list(self.fields),
            "parameters": [p.to_json() for p in self.parameters],
            "model": self.model_id,
            "region": {
                "name": self.region.name,
                "domain": {a: [lo, hi] for a, (lo, hi) in self.region.domain.items()},
                "initial_condition": alg.algorithm_to_json(self.region.initial_condition),
            },
            "boundary_conditions": [
                {"name": b.name, "type": b.type, "side": b.side, "axis": b.axis}
                for b in self.boundary_conditions],
            "boundary_precedence": list(self.boundary_precedence),
            "finalization": expr.to_text(self.finalization),
        }
        if self.analysis:
            out["analysis"] = {k: expr.to_text(v) for k, v in self.analysis.items()}
        return out

    def parameter_values(self, overrides=None):
        values = {}
        for p in self.parameters:
            values[p.name] = float(p.default)
        for key, val in (overrides or {}).items():
            if key in values:
                values[key] = float(val)
        return values


@dataclass
class DiscretizationPolicy:
    kind = "discretization_policy"
    head: Head
    operators: dict     # operator name -> {"schema": ..., "direct_orders": [...]}
    time_integration: dict  # {"schema", "sigma", "dissipation_order"}

    @classmethod
    def from_json(cls, obj, diags):
        ti = dict(obj.get("time_integration", {}))
        ti.setdefault("schema", "rk3_dissipation")
        ti["sigma"] = float(ti.get("sigma", 0.1))
        ti["dissipation_order"] = int(ti.get("dissipation_order", 3))
        ops = {}
        for name, sel in obj.get("operators", {}).items():
            sel = dict(sel)
            sel.setdefault("schema", "4th_order_operators")
            ops[name] = sel
        return cls(Head.from_json(obj.get("head")), ops, ti)

    def to_json(self):
        return {
            "kind": self.kind,
            "head": self.head.to_json(),
            "operators": {k: dict(v) for k, v in self.operators.items()},
            "time_integration": dict(self.time_integration),
        }

    def direct_orders_for(self, op_name):
        sel = self.operators.get(op_name, {"schema": "4th_order_operators"})
        if "direct_orders" in sel:
            return sorted(int(x) for x in sel["direct_orders"])
        if sel["schema"] == "4th_order_recursive":
            return [1]
        return [1, 2]


# ---------------------------------------------------------------------------
# Agent-based model documents

@dataclass
class Rule:
    name: str
    target_property: str
    algorithm: alg.Algorithm
    kind: str  # 'gather' | 'update'


@dataclass
class AbmModel:
    head: Head
    family: str  # 'graph' | 'spatial'
    properties: list
    parameters: list  # names only; defaults come from the problem
    rules: list
    execution_order: list
    # spatial only
    spatial_coords: list = field(default_factory=list)
    interaction_radius: str = ""
    include_self: bool = True

    @property
    def kind(self):
        return f"abm_{self.family}_model"

    def symbol_table(self):
        table = {p: "field" for p in self.properties}
        for name in self.parameters:
            table[name] = "parameter"
        for c in self.spatial_coords:
            table[c] = "coordinate"
        return table

    def rule_by_name(self, name):
        for r in self.rules:
            if r.name == name:
                return r
        return None

    @classmethod
    def from_json(cls, obj, diags):
        family = "graph" if obj.get("kind") == "abm_graph_model" else "spatial"
        props_key = "vertex_properties" if family == "graph" else "agent_properties"
        model = cls(Head.from_json(obj.get("head")), family,
                    list(obj.get(props_key, [])),
                    list(obj.get("parameters", [])), [], [])
        if family == "spatial":
            model.spatial_coords = list(obj.get("coordinates", {}).get("spatial", ["x", "y"]))
            model.interaction_radius = str(obj.get("interaction_radius", "radius"))
            model.include_self = bool(obj.get("include_self", True))
        table = model.symbol_table()
        for kind in ("gather", "update"):
            for i, r in enumerate(obj.get("rules", {}).get(kind, [])):
                a = _load_algorithm(r.get("algorithm", []), dict(table),
                                    f"rules/{kind}[{i}]", diags)
                model.rules.append(Rule(r.get("name", ""), r.get("property", ""), a, kind))
        model.execution_order = list(obj.get("execution_order", []))
        return model

    def to_json(self):
        out = {"kind": self.kind, "head": self.head.to_json()}
        props_key = "vertex_properties" if self.family == "graph" else "agent_properties"
        if self.family == "spatial":
            out["coordinates"] = {"spatial": list(self.spatial_coords)}
        out[props_key] = list(self.properties)
        if self.parameters:
            out["parameters"] = list(self.parameters)
        if self.family == "spatial":
            out["interaction_radius"] = self.interaction_radius
            out["include_self"] = self.include_self
        out["rules"] = {
            "gather": [{"name": r.name, "property": r.target_property,
                        "algorithm": alg.algorithm_to_json(r.algorithm)}
                       for r in self.rules if r.kind == "gather"],
            "update": [{"name": r.name, "property": r.target_property,
                        "algorithm": alg.algorithm_to_json(r.algorithm)}
                       for r in self.rules if r.kind == "update"],
        }
        out["execution_order"] = list(self.execution_order)
        return out


@dataclass
class GraphSpec:
    source: str = "generated"  # 'generated' | 'file'
    path: str = ""
    directed: bool = True
    distribution: str = "random"  # 'random' | 'scale_free' | 'circular'
    vertices: int = 0
    edges: int = 0
    attach: int = 2          # edges per new vertex for scale_free
    min_in_degree: int = 0

    @classmethod
    def from_json(cls, obj):
        obj = obj or {}
        return cls(obj.get("source", "generated"), obj.get("path", ""),
                   bool(obj.get("directed", True)), obj.get("distribution", "random"),
                   int(obj.get("vertices", 0)), int(obj.get("edges", 0)),
                   int(obj.get("attach", 2)), int(obj.get("min_in_degree", 0)))

    def to_json(self):
        if self.source == "file":
            return {"source": "file", "path": self.path, "directed": self.directed}
        return {"source": "generated", "directed": self.directed,
                "distribution": self.distribution, "vertices": self.vertices,
                "edges": self.edges, "attach": self.attach,
                "min_in_degree": self.min_in_degree}


@dataclass
class AbmProblem:
    head: Head
    family: str
    properties: list
    parameters: list
    model_id: str
    evolution_step: str  # 'all' | 'one'
    initial_condition: alg.Algorithm
    finalization: object
    # graph only
    graph: GraphSpec = None
    # spatial only
    spatial_coords: list = field(default_factory=list)
    domain: dict = field(default_factory=dict)
    n_agents: int = 0

    @property
    def kind(self):
        return f"abm_{self.family}_problem"

    def symbol_table(self):
        table = {p: "field" for p in self.properties}
        for p in self.parameters:
            table[p.name] = "parameter"
        for c in self.spatial_coords:
            table[c] = "coordinate"
        return table

    def parameter_values(self, overrides=None):
        values = {p.name: float(p.default) for p in self.parameters}
        for key, val in (overrides or {}).items():
            if key in values:
                values[key] = float(val)
        return values

    @classmethod
    def from_json(cls, obj, diags):
        family = "graph" if obj.get("kind") == "abm_graph_problem" else "spatial"
        props_key = "vertex_properties" if family == "graph" else "agent_properties"
        problem = cls(Head.from_json(obj.get("head")), family,
                      list(obj.get(props_key, [])),
                      [Parameter.from_json(p) for p in obj.get("parameters", [])],
                      obj.get("model", ""), obj.get("evolution_step", "all"),
                      alg.Algorithm(), expr.Number(0.0))
        if family == "graph":
            problem.graph = GraphSpec.from_json(obj.get("graph"))
        else:
            problem.spatial_coords = list(obj.get("coordinates", {}).get("spatial", ["x", "y"]))
            problem.domain = {a: (float(lo), float(hi))
                              for a, (lo, hi) in obj.get("domain", {}).items()}
            problem.n_agents = int(obj.get("n_agents", 0))
        table = problem.symbol_table()
        problem.initial_condition = _load_algorithm(
            obj.get("initial_condition", []), dict(table), "initial_condition", diags)
        problem.finalization = _load_expression(
            obj.get("finalization", ""), table, "finalization", diags)
        return problem

    def to_json(self):
        out = {"kind": self.kind, "head": self.head.to_json()}
        props_key = "vertex_properties" if self.family == "graph" else "agent_properties"
        if self.family == "spatial":
            out["coordinates"] = {"spatial": list(self.spatial_coords)}
        out[props_key] = list(self.properties)
        out["parameters"] = [p.to_json() for p in self.parameters]
        out["model"] = self.model_id
        if self.family == "graph":
            out["graph"] = self.graph.to_json()
        else:
            out["domain"] = {a: [lo, hi] for a, (lo, hi) in self.domain.items()}
            out["n_agents"] = self.n_agents
        out["evolution_step"] = self.evolution_step
        out["initial_condition"] = alg.algorithm_to_json(self.initial_condition)
        out["finalization"] = expr.to_text(self.finalization)
        return out


@dataclass
class DiscretizedProblem:
    kind = "discretized_problem"
    head: Head
    problem: GenericPdeProblem
    policy: DiscretizationPolicy
    model: GenericPdeModel
    discrete_equations: dict  # field -> printed discrete RHS
    halo: int

    @classmethod
    def from_json(cls, obj, diags):
        problem = GenericPdeProblem.from_json(obj.get("problem", {}), diags)
        policy = DiscretizationPolicy.from_json(obj.get("policy", {}), diags)
        model = GenericPdeModel.from_json(obj.get("model", {}), diags)
        return cls(Head.from_json(obj.get("head")), problem, policy, model,
                   dict(obj.get("discrete_equations", {})), int(obj.get("halo", 0)))

    def to_json(self):
        return {
            "kind": self.kind,
            "head": self.head.to_json(),
            "problem": self.problem.to_json(),
            "policy": self.policy.to_json(),
            "model": self.model.to_json(),
            "discrete_equations": dict(self.discrete_equations),
            "halo": self.halo,
        }


# ---------------------------------------------------------------------------
# Loading / saving

def _load_algorithm(obj, symbols, path, diags):
    try:
        return alg.algorithm_from_json(obj, symbols)
    except (alg.AlgorithmError, expr.ExprError) as exc:
        diags.append(Diagnostic("error", path, str(exc)))
        return alg.Algorithm()


def _load_expression(text, symbols, path, diags):
    if not text:
        diags.append(Diagnostic("error", path, "missing expression"))
        return expr.Number(0.0)
    try:
        return expr.parse_expression(text, symbols)
    except expr.ExprError as exc:
        diags.append(Diagnostic("error", path, str(exc)))
        return expr.Number(0.0)


_LOADERS = {
    "generic_pde_model": GenericPdeModel.from_json,
    "generic_pde_problem": GenericPdeProblem.from_json,
    "discretization_policy": DiscretizationPolicy.from_json,
    "abm_graph_model": AbmModel.from_json,
    "abm_spatial_model": AbmModel.from_json,
    "abm_graph_problem": AbmProblem.from_json,
    "abm_spatial_problem": AbmProblem.from_json,
    "discretized_problem": DiscretizedProblem.from_json,
}


def document_from_json(obj):
    kind = obj.get("kind")
    if kind not in KNOWN_KINDS:
        raise DocumentFormatError(f"unknown document kind '{kind}'")
    diags = []
    doc = _LOADERS[kind](obj, diags)
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise DocumentFormatError(
            "document contains invalid expressions: "
            + "; ".join(str(d) for d in errors), errors)
    return doc


def load_document(path):
    """Load a typed document from a JSON file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}")
    if not text.strip():
        raise DocumentFormatError(f"{path}: empty file")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(f"{path}: line {exc.lineno}: {exc.msg}")
    if not isinstance(obj, dict):
        raise DocumentFormatError(f"{path}: top level must be an object")
    return document_from_json(obj)


def dump_document(doc):
    """Canonical serialized form (byte-stable for golden tests)."""
    return json.dumps(doc.to_json(), indent=2, ensure_ascii=False) + "\n"


def save_document(doc, path):
    Path(path).write_text(dump_document(doc), encoding="utf-8")


def resolve_reference(model_id, docs_dir, expected_kinds):
    """Find and load the document with the given head id under docs_dir."""
    docs_dir = Path(docs_dir)
    for p in sorted(docs_dir.rglob("*.json")):
        try:
            obj = json.loads(p.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if obj.get("kind") in expected_kinds and obj.get("head", {}).get("id") == model_id:
            return document_from_json(obj)
    raise DocumentError(f"no document with id '{model_id}' "
                        f"(kinds {expected_kinds}) under {docs_dir}")


# ---------------------------------------------------------------------------
# Validation

def validate(doc, docs_dir=None):
    """Semantic checks; returns a list of diagnostics (empty when valid)."""
    if isinstance(doc, GenericPdeModel):
        return _validate_pde_model(doc)
    if isinstance(doc, GenericPdeProblem):
        return _validate_pde_problem(doc, docs_dir)
    if isinstance(doc, DiscretizationPolicy):
        return _validate_policy(doc)
    if isinstance(doc, AbmModel):
        return _validate_abm_model(doc)
    if isinstance(doc, AbmProblem):
        return _validate_abm_problem(doc, docs_dir)
    if isinstance(doc, DiscretizedProblem):
        diags = _validate_pde_problem(doc.problem, None)
        diags += _validate_policy(doc.policy)
        diags += _validate_pde_model(doc.model)
        if doc.halo < 0:
            diags.append(Diagnostic("error", "halo", "halo must be non-negative"))
        return diags
    raise TypeError(f"not a document: {doc!r}")


def _validate_pde_model(m):
    diags = []
    if not m.spatial_coords:
        diags.append(Diagnostic("error", "coordinates", "at least one spatial coordinate is required"))
    if not m.fields:
        diags.append(Diagnostic("error", "fields", "at least one field is required"))
    evolved = [ev.fld for ev in m.evolution]
    for f in m.fields:
        if evolved.count(f) != 1:
            diags.append(Diagnostic("error", f"evolution/{f}",
                                    f"field '{f}' must have exactly one evolution entry "
                                    f"(found {evolved.count(f)})"))
    for ev in m.evolution:
        if ev.fld not in m.fields:
            diags.append(Diagnostic("error", f"evolution/{ev.fld}",
                                    f"evolved field '{ev.fld}' is not declared"))
        for j, op in enumerate(ev.operators):
            for i, t in enumerate(op.terms):
                for axis in term_axes(t):
                    if axis not in m.spatial_coords:
                        diags.append(Diagnostic(
                            "error", f"evolution/{ev.fld}/operators[{j}]/terms[{i}]",
                            f"derivative axis '{axis}' is not a declared spatial coordinate"))
    return diags


def _validate_pde_problem(p, docs_dir):
    diags = []
    for axis in p.spatial_coords:
        if axis not in p.region.domain:
            diags.append(Diagnostic("error", "region/domain", f"no domain bounds for axis '{axis}'"))
    for axis, (lo, hi) in p.region.domain.items():
        if not lo < hi:
            diags.append(Diagnostic("error", f"region/domain/{axis}",
                                    f"domain min ({lo}) must be below max ({hi})"))
    assigned = _assigned_fields(p.region.initial_condition.statements)
    for f in p.fields:
        if f not in assigned:
            diags.append(Diagnostic("error", "region/initial_condition",
                                    f"initial condition does not assign field '{f}'"))
    for tag in alg.unsupported_tags(p.region.initial_condition):
        diags.append(Diagnostic("error", "region/initial_condition", f"unsupported tag '{tag}'"))
    _reject_statements(p.region.initial_condition.statements,
                       _initial_condition_rejects("grid", *_ITERATION_TAGS),
                       "region/initial_condition", diags)
    for e in alg.expressions(p.region.initial_condition.statements):
        for node in expr.subexpressions(e):
            if isinstance(node, expr.Indexed):
                diags.append(Diagnostic(
                    "error", "region/initial_condition",
                    f"indexed symbol '{node.name}' is not valid in a grid initial condition"))
    names = set()
    for i, b in enumerate(p.boundary_conditions):
        names.add(b.name)
        if b.type != "periodic":
            diags.append(Diagnostic("error", f"boundary_conditions[{i}]",
                                    f"unsupported boundary type '{b.type}' (only 'periodic')"))
    for name in p.boundary_precedence:
        if name not in names:
            diags.append(Diagnostic("error", "boundary_precedence",
                                    f"precedence references unknown boundary condition '{name}'"))
    for param in p.parameters:
        if param.type not in ("INT", "REAL"):
            diags.append(Diagnostic("error", f"parameters/{param.name}",
                                    f"parameter type must be INT or REAL, got '{param.type}'"))
    if docs_dir is not None:
        diags += _check_model_reference(p, docs_dir, ("generic_pde_model",),
                                        lambda m: _pde_cross_checks(p, m))
    return diags


def _pde_cross_checks(p, m):
    diags = []
    missing = [f for f in m.fields if f not in p.fields]
    if missing:
        diags.append(Diagnostic("error", "fields",
                                f"problem is missing model fields: {missing}"))
    if list(m.spatial_coords) != list(p.spatial_coords):
        diags.append(Diagnostic("error", "coordinates",
                                f"problem coordinates {p.spatial_coords} differ from "
                                f"model coordinates {m.spatial_coords}"))
    return diags


def _check_model_reference(p, docs_dir, kinds, cross_checks):
    try:
        model = resolve_reference(p.model_id, docs_dir, kinds)
    except DocumentError as exc:
        return [Diagnostic("error", "model", str(exc))]
    return cross_checks(model)


def _assigned_fields(statements):
    return {s.target.name for s in alg.walk(statements)
            if isinstance(s, alg.Assign) and s.target.kind == "field"}


def _validate_policy(policy):
    diags = []
    for name, sel in policy.operators.items():
        if sel.get("schema") not in OPERATOR_SCHEMAS:
            diags.append(Diagnostic("error", f"operators/{name}",
                                    f"unknown operator schema '{sel.get('schema')}'"))
    ti = policy.time_integration
    if ti.get("schema") not in TIME_SCHEMAS:
        diags.append(Diagnostic("error", "time_integration",
                                f"unknown time integration schema '{ti.get('schema')}'"))
    if ti.get("sigma", 0.0) < 0.0:
        diags.append(Diagnostic("error", "time_integration",
                                "dissipation strength sigma must be >= 0"))
    if ti.get("dissipation_order", 3) < 1:
        diags.append(Diagnostic("error", "time_integration",
                                "dissipation order must be >= 1"))
    return diags


_ITERATION_TAGS = {alg.IterateOverEdges: "iterate_over_edges",
                   alg.IterateOverInteractions: "iterate_over_interactions"}

# neighbor iteration a model family's rules cannot run
_FAMILY_REJECTS = {
    "graph": {alg.IterateOverInteractions:
              "iterate_over_interactions is only valid in spatial models"},
    "spatial": {alg.IterateOverEdges: "iterate_over_edges is only valid in graph models"},
}


def _initial_condition_rejects(family, *kinds):
    return {k: f"{_ITERATION_TAGS[k]} is not available in {family} initial conditions"
            for k in kinds}


def _reject_statements(statements, rejects, path, diags):
    """One diagnostic per statement, at any depth, whose type ``rejects``
    maps to a message."""
    for s in alg.walk(statements):
        if type(s) in rejects:
            diags.append(Diagnostic("error", path, rejects[type(s)]))


def _validate_abm_model(m):
    diags = []
    if not m.properties:
        diags.append(Diagnostic("error", "properties", "at least one property is required"))
    if not m.rules:
        diags.append(Diagnostic("error", "rules", "at least one rule is required"))
    if not m.execution_order:
        diags.append(Diagnostic("error", "execution_order", "execution order must list at least one rule"))
    rule_names = {r.name for r in m.rules}
    for name in m.execution_order:
        if name not in rule_names:
            diags.append(Diagnostic("error", "execution_order",
                                    f"execution order references unknown rule '{name}'"))
    for r in m.rules:
        path = f"rules/{r.kind}/{r.name}"
        writable = set(m.properties) | set(m.spatial_coords)
        if r.target_property and r.target_property not in writable:
            diags.append(Diagnostic("error", path,
                                    f"rule targets undeclared property '{r.target_property}'"))
        if r.kind == "update" and alg.check_locality(r.algorithm) != "update-safe":
            diags.append(Diagnostic("error", path,
                                    "neighbor context in update rule (must be a gather rule)"))
        for tag in alg.unsupported_tags(r.algorithm):
            diags.append(Diagnostic("error", path, f"unsupported tag '{tag}'"))
        _reject_statements(r.algorithm.statements, _FAMILY_REJECTS[m.family], path, diags)
    return diags


def _validate_abm_problem(p, docs_dir):
    diags = []
    if p.evolution_step not in ("all", "one"):
        diags.append(Diagnostic("error", "evolution_step",
                                f"evolution step must be 'all' or 'one', got '{p.evolution_step}'"))
    if p.family == "graph":
        g = p.graph
        if g.source == "generated":
            if g.vertices <= 0:
                diags.append(Diagnostic("error", "graph", "vertex count must be positive"))
            if g.distribution not in ("random", "scale_free", "circular"):
                diags.append(Diagnostic("error", "graph",
                                        f"unknown degree distribution '{g.distribution}'"))
            if g.distribution == "random":
                cap = g.vertices * (g.vertices - 1)
                if not g.directed:
                    cap //= 2
                if g.edges > cap:
                    diags.append(Diagnostic("error", "graph",
                                            f"edge count {g.edges} exceeds maximum {cap}"))
                if g.edges < g.min_in_degree * g.vertices:
                    diags.append(Diagnostic("error", "graph",
                                            "edge count too small for requested min in-degree"))
    else:
        for axis in p.spatial_coords:
            if axis not in p.domain:
                diags.append(Diagnostic("error", "domain", f"no bounds for axis '{axis}'"))
        for axis, (lo, hi) in p.domain.items():
            if not lo < hi:
                diags.append(Diagnostic("error", f"domain/{axis}",
                                        f"domain min ({lo}) must be below max ({hi})"))
        if p.n_agents <= 0:
            diags.append(Diagnostic("error", "n_agents", "agent count must be positive"))
    for tag in alg.unsupported_tags(p.initial_condition):
        diags.append(Diagnostic("error", "initial_condition", f"unsupported tag '{tag}'"))
    # a graph initial condition may walk edges; no initial condition has
    # the spatial neighbor relation, which is built per step
    kinds = [alg.IterateOverInteractions] if p.family == "graph" else list(_ITERATION_TAGS)
    _reject_statements(p.initial_condition.statements,
                       _initial_condition_rejects(p.family, *kinds), "initial_condition", diags)
    if docs_dir is not None:
        kind = f"abm_{p.family}_model"
        diags += _check_model_reference(p, docs_dir, (kind,),
                                        lambda m: _abm_cross_checks(p, m))
    return diags


def _abm_cross_checks(p, m):
    diags = []
    missing = [x for x in m.properties if x not in p.properties]
    if missing:
        diags.append(Diagnostic("error", "properties",
                                f"problem is missing model properties: {missing}"))
    declared = {x.name for x in p.parameters}
    missing_params = [x for x in m.parameters if x not in declared]
    if missing_params:
        diags.append(Diagnostic("error", "parameters",
                                f"problem does not define model parameters: {missing_params}"))
    return diags


# ---------------------------------------------------------------------------
# LaTeX export

def export_latex(doc):
    """Deterministic LaTeX rendering of a valid document."""
    diags = [d for d in validate(doc) if d.severity == "error"]
    if diags:
        raise DocumentError("cannot export an invalid document:\n"
                            + "\n".join(str(d) for d in diags))
    lines = [r"\documentclass{article}", r"\usepackage{amsmath}", r"\begin{document}"]
    lines += _latex_head(doc.head)
    if isinstance(doc, GenericPdeModel):
        lines += _latex_pde_model(doc)
    elif isinstance(doc, GenericPdeProblem):
        lines += _latex_pde_problem(doc)
    elif isinstance(doc, AbmModel):
        lines += _latex_abm_model(doc)
    elif isinstance(doc, AbmProblem):
        lines += _latex_abm_problem(doc)
    elif isinstance(doc, DiscretizationPolicy):
        lines += _latex_policy(doc)
    elif isinstance(doc, DiscretizedProblem):
        lines.append(r"\section*{Discrete equations}")
        for fld in sorted(doc.discrete_equations):
            lines.append(r"\begin{verbatim}")
            lines.append(f"d{fld}/dt = {doc.discrete_equations[fld]}")
            lines.append(r"\end{verbatim}")
    lines.append(r"\end{document}")
    return "\n".join(lines) + "\n"


def _latex_head(head):
    out = [r"\section*{" + _tex_escape(head.name or head.id) + "}"]
    meta = []
    if head.author:
        meta.append("author: " + _tex_escape(head.author))
    if head.version:
        meta.append("version: " + _tex_escape(head.version))
    if head.date:
        meta.append("date: " + _tex_escape(head.date))
    if meta:
        out.append(r"\noindent " + "; ".join(meta) + r"\par")
    return out


def _tex_escape(s):
    for ch in "&%$#_{}":
        s = s.replace(ch, "\\" + ch)
    return s


def _latex_term(t):
    if isinstance(t, Algebraic):
        return expr.to_latex(t.exprn)
    if isinstance(t, DerivativeTerm):
        return r"\partial_{" + t.axis + r"}\left(" + _latex_term(t.inner) + r"\right)"
    if isinstance(t, ProductTerm):
        return r" \cdot ".join(_latex_term(x) for x in t.factors)
    if isinstance(t, SumTerm):
        return " + ".join(_latex_term(x) for x in t.terms)
    raise TypeError(f"not a term node: {t!r}")


def _latex_pde_model(m):
    lines = [r"\subsection*{Fields}",
             "$" + ", ".join(expr._latex_name(f) for f in m.fields) + "$",
             r"\subsection*{Evolution equations}"]
    for ev in m.evolution:
        terms = [_latex_term(t) for op in ev.operators for t in op.terms]
        rhs = " + ".join(terms) if terms else "0"
        lines.append(r"\begin{equation}")
        lines.append(r"\partial_{" + m.time_coord + "} " + expr._latex_name(ev.fld) + " = " + rhs)
        lines.append(r"\end{equation}")
    return lines


def _latex_algorithm(a, indent=0):
    lines = []
    pad = r"\hspace*{" + str(4 * indent) + "mm}"
    for s in a if isinstance(a, (list, tuple)) else a.statements:
        if isinstance(s, alg.Assign):
            lines.append(pad + "$" + expr.to_latex(s.target) + r" \leftarrow "
                         + expr.to_latex(s.value) + r"$\\")
        elif isinstance(s, alg.IfThenElse):
            lines.append(pad + r"\textbf{if} $" + expr.to_latex(s.cond) + r"$ \textbf{then}\\")
            lines += _latex_algorithm(s.then, indent + 1)
            if s.orelse:
                lines.append(pad + r"\textbf{else}\\")
                lines += _latex_algorithm(s.orelse, indent + 1)
        elif isinstance(s, alg.While):
            lines.append(pad + r"\textbf{while} $" + expr.to_latex(s.cond) + r"$\\")
            lines += _latex_algorithm(s.body, indent + 1)
        elif isinstance(s, alg.IterateOverEdges):
            lines.append(pad + r"\textbf{for each " + s.direction + r" edge}\\")
            lines += _latex_algorithm(s.body, indent + 1)
        elif isinstance(s, alg.IterateOverInteractions):
            lines.append(pad + r"\textbf{for each interaction}\\")
            lines += _latex_algorithm(s.body, indent + 1)
    return lines


def _latex_pde_problem(p):
    lines = [r"\subsection*{Domain}"]
    for axis, (lo, hi) in p.region.domain.items():
        lines.append(f"${axis} \\in [{lo}, {hi}]$\\\\")
    lines.append(r"\subsection*{Parameters}")
    for param in p.parameters:
        lines.append(f"${expr._latex_name(param.name)} = {param.default}$ ({param.type})\\\\")
    lines.append(r"\subsection*{Initial condition}")
    lines += _latex_algorithm(p.region.initial_condition)
    lines.append(r"\subsection*{Boundary conditions}")
    for b in p.boundary_conditions:
        lines.append(_tex_escape(f"{b.name}: {b.type} (axis {b.axis}, side {b.side})") + r"\\")
    lines.append(r"\subsection*{Finalization}")
    lines.append("$" + expr.to_latex(p.finalization) + "$")
    return lines


def _latex_abm_model(m):
    label = "Vertex properties" if m.family == "graph" else "Agent properties"
    lines = [r"\subsection*{" + label + "}",
             "$" + ", ".join(expr._latex_name(x) for x in m.properties) + "$",
             r"\subsection*{Rules (in execution order)}",
             r"\begin{enumerate}"]
    for name in m.execution_order:
        r = m.rule_by_name(name)
        lines.append(r"\item \textbf{" + _tex_escape(name) + "} (" + r.kind + ")\\\\")
        lines += _latex_algorithm(r.algorithm)
    lines.append(r"\end{enumerate}")
    return lines


def _latex_abm_problem(p):
    lines = [r"\subsection*{Parameters}"]
    for param in p.parameters:
        lines.append(f"${expr._latex_name(param.name)} = {param.default}$ ({param.type})\\\\")
    if p.family == "graph":
        lines.append(r"\subsection*{Graph}")
        g = p.graph
        if g.source == "file":
            lines.append(_tex_escape(f"loaded from {g.path}") + r"\\")
        else:
            lines.append(_tex_escape(
                f"{g.distribution}, {'directed' if g.directed else 'undirected'}, "
                f"{g.vertices} vertices, {g.edges} edges") + r"\\")
    else:
        lines.append(r"\subsection*{Domain}")
        for axis, (lo, hi) in p.domain.items():
            lines.append(f"${axis} \\in [{lo}, {hi}]$\\\\")
    lines.append(r"\subsection*{Initial condition}")
    lines += _latex_algorithm(p.initial_condition)
    lines.append(r"\subsection*{Finalization}")
    lines.append("$" + expr.to_latex(p.finalization) + "$")
    return lines


def _latex_policy(policy):
    lines = [r"\subsection*{Operator discretization}"]
    for name in sorted(policy.operators):
        sel = policy.operators[name]
        lines.append(_tex_escape(f"{name}: {sel['schema']}") + r"\\")
    ti = policy.time_integration
    lines.append(r"\subsection*{Time integration}")
    lines.append(_tex_escape(
        f"{ti['schema']} (sigma={ti['sigma']}, dissipation order r={ti['dissipation_order']})") + r"\\")
    return lines
