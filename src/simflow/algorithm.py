"""Interpreter for the algorithm language embedded in documents.

Algorithms appear in initial conditions and in ABM gather/update rules.
Statements are stored in documents as tagged JSON objects; expressions
inside them use the infix grammar from :mod:`simflow.expr`.

This module defines the language's semantics.  ABM rules and the
initial conditions of all three runtimes run compiled over all entities
at once (:mod:`simflow.lockstep`); this interpreter runs them only when
the compiler refuses a program or an entity faults, and it is the oracle
the compiled path is tested against.

Supported statement kinds: assign, if, while, iterate_over_edges (graph
models) and iterate_over_interactions (spatial models).  Tags belonging
to out-of-scope model families (flux, sources, boundary,
increment/decrement coordinate) are parsed into an Unsupported node so
validation can report them clearly; any other tag fails to load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import expr
from .expr import (
    EvalEnvironment,
    EvaluationError,
    Indexed,
    Symbol,
    evaluate,
    free_symbols,
    parse_expression,
)

DEFAULT_WHILE_CAP = 10 ** 6

UNSUPPORTED_TAGS = {
    "flux",
    "sources",
    "boundary",
    "increment_coordinate",
    "decrement_coordinate",
}


class AlgorithmError(Exception):
    pass


class StepLimitError(AlgorithmError):
    """A while loop exceeded its iteration cap."""


class PhaseError(AlgorithmError):
    """Neighbour access attempted in a phase that forbids it."""


@dataclass(frozen=True)
class Assign:
    target: object  # Symbol (local or field) or Indexed (property of entity)
    value: object


@dataclass(frozen=True)
class IfThenElse:
    cond: object
    then: tuple
    orelse: tuple  # may be empty


@dataclass(frozen=True)
class While:
    cond: object
    body: tuple


@dataclass(frozen=True)
class IterateOverEdges:
    direction: str  # 'in' | 'out'
    body: tuple


@dataclass(frozen=True)
class IterateOverInteractions:
    body: tuple


@dataclass(frozen=True)
class Unsupported:
    tag: str


@dataclass(frozen=True)
class Algorithm:
    statements: tuple = ()


def algorithm_from_json(obj, symbols):
    """Build an Algorithm from its JSON form, tracking locals.

    ``symbols`` is the declared name -> kind table; bare assignment targets
    not present in it become locals and are visible to later statements.
    The table is mutated with discovered locals.
    """
    if not isinstance(obj, list):
        raise AlgorithmError("algorithm must be a JSON list of statements")
    return Algorithm(tuple(_stmt_from_json(s, symbols) for s in obj))


def _stmt_from_json(obj, symbols):
    if not isinstance(obj, dict) or "do" not in obj:
        raise AlgorithmError(f"statement must be an object with a 'do' tag: {obj!r}")
    tag = obj["do"]
    if tag in UNSUPPORTED_TAGS:
        return Unsupported(tag)
    if tag == "assign":
        target = _parse_target(obj["target"], symbols)
        value = parse_expression(obj["expr"], symbols)
        return Assign(target, value)
    if tag == "if":
        cond = parse_expression(obj["cond"], symbols)
        then = tuple(_stmt_from_json(s, symbols) for s in obj.get("then", []))
        orelse = tuple(_stmt_from_json(s, symbols) for s in obj.get("else", []))
        return IfThenElse(cond, then, orelse)
    if tag == "while":
        cond = parse_expression(obj["cond"], symbols)
        body = tuple(_stmt_from_json(s, symbols) for s in obj.get("body", []))
        return While(cond, body)
    if tag == "iterate_over_edges":
        direction = obj.get("direction", "in")
        if direction not in ("in", "out"):
            raise AlgorithmError(f"bad edge direction '{direction}'")
        body = tuple(_stmt_from_json(s, symbols) for s in obj.get("body", []))
        return IterateOverEdges(direction, body)
    if tag == "iterate_over_interactions":
        body = tuple(_stmt_from_json(s, symbols) for s in obj.get("body", []))
        return IterateOverInteractions(body)
    raise AlgorithmError(f"unsupported tag '{tag}'")


def _parse_target(text, symbols):
    # Targets are either a bare name (field/local write) or name(context).
    # A bare name missing from the table is a new local.
    stripped = text.strip()
    try:
        target = parse_expression(stripped, symbols)
    except expr.UnknownSymbolError:
        if not stripped.isidentifier():
            raise
        symbols[stripped] = "local"
        target = Symbol(stripped, "local")
    if not isinstance(target, (Symbol, Indexed)):
        raise AlgorithmError(f"invalid assignment target '{text}'")
    return target


def algorithm_to_json(alg):
    return [_stmt_to_json(s) for s in alg.statements]


def _stmt_to_json(s):
    if isinstance(s, Assign):
        return {"do": "assign", "target": expr.to_text(s.target) if isinstance(s.target, Indexed) else s.target.name,
                "expr": expr.to_text(s.value)}
    if isinstance(s, IfThenElse):
        out = {"do": "if", "cond": expr.to_text(s.cond),
               "then": [_stmt_to_json(x) for x in s.then]}
        if s.orelse:
            out["else"] = [_stmt_to_json(x) for x in s.orelse]
        return out
    if isinstance(s, While):
        return {"do": "while", "cond": expr.to_text(s.cond),
                "body": [_stmt_to_json(x) for x in s.body]}
    if isinstance(s, IterateOverEdges):
        return {"do": "iterate_over_edges", "direction": s.direction,
                "body": [_stmt_to_json(x) for x in s.body]}
    if isinstance(s, IterateOverInteractions):
        return {"do": "iterate_over_interactions", "body": [_stmt_to_json(x) for x in s.body]}
    if isinstance(s, Unsupported):
        return {"do": s.tag}
    raise TypeError(f"not a statement: {s!r}")


def check_locality(alg):
    """Classify an algorithm as 'update-safe' or 'gather-required'.

    Non-local markers: iterate_over_edges, iterate_over_interactions, and
    the neighbour builtins $es / $et / $na in any expression.
    """
    return "gather-required" if _needs_neighbors(alg.statements) else "update-safe"


def _needs_neighbors(statements):
    return (any(isinstance(s, (IterateOverEdges, IterateOverInteractions))
                for s in walk(statements))
            or any(name in expr.NEIGHBOR_BUILTINS
                   for e in expressions(statements) for name, _ in free_symbols(e)))


def walk(statements):
    """Every statement in the list, at any depth, each before its body."""
    for s in statements:
        yield s
        for body in (getattr(s, "body", ()), getattr(s, "then", ()), getattr(s, "orelse", ())):
            yield from walk(body)


def expressions(statements):
    """Every assignment target and value and every condition, at any depth."""
    for s in walk(statements):
        if isinstance(s, Assign):
            yield s.target
            yield s.value
        elif isinstance(s, (IfThenElse, While)):
            yield s.cond


def unsupported_tags(alg):
    return [s.tag for s in walk(alg.statements) if isinstance(s, Unsupported)]


def assigned_locals(statements):
    """Bare-name targets assigned anywhere in the statement list."""
    return {s.target.name for s in walk(statements) if isinstance(s, Assign)
            and isinstance(s.target, Symbol) and s.target.kind == "local"}


def entity_index(arg, noun, name):
    """``int(arg)`` for an argument naming a vertex, edge or agent; a NaN
    or infinite ``arg`` is out of range, as the EvaluationError says."""
    if not math.isfinite(arg):
        raise EvaluationError(f"{noun} index {arg} out of range for '{name}'")
    return int(arg)


class Context:
    """Execution context an algorithm runs against.

    Concrete contexts (grid cell, graph vertex, spatial agent) implement
    symbol resolution, indexed property reads, and property writes.  The
    phase ('gather' | 'update' | 'init') gates neighbour access.
    """

    family = "abstract"
    phase = "update"

    def resolve(self, name, kind, arg):
        raise NotImplementedError

    def write(self, name, index, value):
        raise NotImplementedError

    def iter_edges(self, direction):
        raise PhaseError("edge iteration is not available in this context")

    def iter_interactions(self):
        raise PhaseError("interaction iteration is not available in this context")



class _Frame:
    """Local-variable scope chain for one algorithm invocation."""

    def __init__(self, parent=None):
        self.parent = parent
        self.values = {}

    def get(self, name):
        frame = self
        while frame is not None:
            if name in frame.values:
                return frame.values[name]
            frame = frame.parent
        raise EvaluationError(f"unbound local '{name}'")

    def set(self, name, value):
        frame = self
        while frame is not None:
            if name in frame.values:
                frame.values[name] = value
                return
            frame = frame.parent
        self.values[name] = value


def run_algorithm(alg, ctx, while_cap=DEFAULT_WHILE_CAP):
    """Execute the algorithm against a context.

    Locals live only for the invocation.  A local first assigned inside an
    If branch survives the statement only when both branches assign it.
    """
    _exec_block(alg.statements, ctx, _Frame(), while_cap)


def _make_env(ctx, frame):
    def resolver(name, kind, arg):
        if kind == "local":
            return frame.get(name)
        return ctx.resolve(name, kind, arg)

    return EvalEnvironment(resolver=resolver)


def _exec_block(statements, ctx, frame, while_cap):
    env = _make_env(ctx, frame)
    for s in statements:
        if isinstance(s, Assign):
            value = evaluate(s.value, env)
            t = s.target
            if isinstance(t, Symbol) and t.kind == "local":
                frame.set(t.name, value)
            elif isinstance(t, Symbol):
                ctx.write(t.name, None, value)
            else:
                ctx.write(t.name, evaluate(t.arg, env), value)
        elif isinstance(s, IfThenElse):
            taken = evaluate(s.cond, env) != 0.0
            branch = s.then if taken else s.orelse
            child = _Frame(frame)
            _exec_block(branch, ctx, child, while_cap)
            # promote only names both branches are guaranteed to assign
            if s.orelse:
                common = assigned_locals(s.then) & assigned_locals(s.orelse)
                for name in sorted(common):
                    if name in child.values:
                        frame.set(name, child.values[name])
        elif isinstance(s, While):
            count = 0
            while evaluate(s.cond, env) != 0.0:
                count += 1
                if count > while_cap:
                    raise StepLimitError(f"while loop exceeded {while_cap} iterations")
                _exec_block(s.body, ctx, frame, while_cap)
        elif isinstance(s, IterateOverEdges):
            for _ in ctx.iter_edges(s.direction):
                _exec_block(s.body, ctx, frame, while_cap)
        elif isinstance(s, IterateOverInteractions):
            for _ in ctx.iter_interactions():
                _exec_block(s.body, ctx, frame, while_cap)
        elif isinstance(s, Unsupported):
            raise AlgorithmError(f"unsupported tag '{s.tag}' cannot be executed")
        else:
            raise TypeError(f"not a statement: {s!r}")
