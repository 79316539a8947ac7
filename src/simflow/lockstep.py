"""Lockstep execution of ABM rules and of every initial condition.

A rule or initial-condition algorithm is compiled once into closures that
run each statement on an index array of *active lanes*, one lane per
vertex, agent or interior grid cell, so an algorithm runs over all
entities in a few numpy operations instead of one tree walk per entity.
The results are bitwise equal to the per-entity interpreter in
:mod:`simflow.algorithm`:

* ``assign`` writes the active lanes; ``if`` splits them on its
  condition; ``while`` repeats on the lanes whose condition still holds.
* ``iterate_over_edges`` and ``iterate_over_interactions`` run in rounds
  k = 0, 1, ...: in round k the lanes with more than k neighbours bind
  their k-th edge or partner, so every entity visits its neighbours, and
  adds into its accumulators, in the interpreter's order.
* Locals are per-lane values plus a per-lane bound mask.  A name first
  bound inside an ``if`` branch is unbound again when the branch ends
  unless both branches assign it, as with the interpreter's frames.
* Reads of the lane's own entity come from per-rule working copies;
  reads of other entities come from the live arrays, which are not
  written before the rule commits and so are the interpreter's
  rule-start snapshot.
* ``$rnd_uniform`` and ``$rnd_int_1`` are keyed on a per-lane draw
  counter, so draws inside branches and loops match the interpreter's
  ``DrawStream``.
* ``+ - * /``, comparisons, ``and``/``or``, negation, ``sqrt``, ``abs``
  and ``mod`` are numpy operations with the same IEEE results.  ``sin``,
  ``cos``, ``exp``, ``atan2``, ``floor`` and ``^`` call ``math`` or
  ``operator.pow`` per element, because numpy's versions may round
  differently.

When any active lane would fault in the interpreter (zero divisor,
``sqrt`` of a negative, a bad index, a neighbour read in an update rule,
an unbound local, the while cap, ...) the compiled run stops, its working
copies are discarded and :func:`run` runs the algorithm through the
interpreter, entity by entity with the Context that
:meth:`Entities.context` gives and the same RNG keys, which raises the
same error at the same entity after the same partial writes.  Programs
the compiler refuses (unsupported tags, nested neighbour iteration)
always run interpreted.  The interpreter is therefore both the fallback
and the oracle the compiled path is tested against.  The ``simflow``
logger records at debug level which algorithms ran compiled and every
fallback.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import operator

import numpy as np

from . import algorithm as alg
from .expr import Binary, Call, EvaluationError, Indexed, Number, Symbol, Unary
from .rng import DrawStream, keyed_uniform_array

log = logging.getLogger("simflow")


class Fault(Exception):
    """An active lane would fault in the interpreter."""


class _Refused(Exception):
    """The compiler does not handle this program."""


# ---------------------------------------------------------------------------
# Driver

def run(algorithm, lanes, entities, rule=None):
    """Run ``algorithm`` on ``lanes`` (entity indices) of ``entities``.

    ``rule`` names the rule being run; None runs an initial condition.
    Runs compiled and commits the working copies to the live arrays; if
    the compiler refused the algorithm, or a lane faults, runs it through
    the interpreter instead (:func:`_interpret`).
    """
    program, _ = compile_algorithm(algorithm)
    if program is not None:
        state = _State(entities)
        try:
            with np.errstate(all="ignore"):
                program(state, lanes)
        except Fault as exc:
            what = "initial condition" if rule is None else f"rule '{rule}'"
            log.debug("%s: %s in compiled run, rerunning interpreted", what, exc)
        else:
            state.commit()
            return
    _interpret(algorithm, lanes, entities, rule)


def _interpret(algorithm, lanes, entities, rule):
    """Run ``algorithm`` through the interpreter, one lane after another.

    Entity ``i`` draws from ``DrawStream(*entities.keys, i)``, the keys of
    the compiled run, and reads other entities from a snapshot of
    ``entities.arrays`` taken before the first lane.  A rule's
    EvaluationError is raised again as ``entities.error``, naming the rule
    and the entity.
    """
    snapshot = {name: values.copy() for name, values in entities.arrays.items()}
    for i in lanes.tolist():
        ctx = entities.context(i, snapshot, DrawStream(*entities.keys, i))
        try:
            alg.run_algorithm(algorithm, ctx)
        except EvaluationError as exc:
            if rule is None:
                raise
            raise entities.error(
                f"rule '{rule}' failed at {entities.noun} {i}: {exc}") from exc


def log_status(what, algorithm):
    """One debug record saying whether ``algorithm`` runs compiled."""
    _, reason = compile_algorithm(algorithm)
    log.debug("%s: %s", what, "compiled" if reason is None else f"interpreted: {reason}")


def log_rules(model):
    """:func:`log_status` for every rule in the model's execution order."""
    for name in model.execution_order:
        rule = model.rule_by_name(name)
        if rule is not None:
            log_status(f"rule '{name}'", rule.algorithm)


@functools.lru_cache(maxsize=256)
def compile_algorithm(algorithm):
    """``(program, None)``, or ``(None, reason)`` when the compiler refuses.

    ``program(state, lanes)`` runs the algorithm on the lanes.  Programs
    hold no run state, so one compiled program serves every run.
    """
    try:
        return _block(algorithm.statements, in_loop=False), None
    except _Refused as exc:
        return None, str(exc)


class Entities:
    """What a run reads and writes: one runtime's entities.

    ``arrays`` maps property names to the live float arrays, ``keys`` is
    the RNG key prefix that precedes the entity id and the draw counter.
    Runtimes subclass this for their builtins, their neighbour relation
    and their interpreter Context.
    """

    property_kinds = ("field",)
    self_builtin = None      # the builtin naming the current entity
    partner_builtin = None   # the builtin naming the current neighbour entity
    indexed = True           # whether p(i) may name an entity
    readonly = ()            # properties that may be read but not written
    noun = "entity"          # how a rule's error names an entity
    error = alg.AlgorithmError   # the type a rule's error is raised as

    def __init__(self, n, arrays, params, phase, iteration, keys):
        self.n = n
        self.arrays = arrays
        self.params = params
        self.phase = phase
        self.iteration = float(iteration)
        self.keys = keys

    def builtin(self, state, name, lanes, arg, in_loop):
        if name == "$in":
            return self.iteration
        if name == "$rnd_uniform":
            return state.uniform(lanes)
        if name == "$rnd_int_1":
            return np.floor(state.uniform(lanes) * 2.0)
        raise Fault(f"builtin '{name}' is not available")

    def neighbours(self, tag, direction):
        """CSR arrays ``(indptr, index)`` of the relation ``tag`` walks."""
        raise Fault(f"{tag} is not available")

    def wrap(self, name, values):
        return values

    def context(self, i, snapshot, stream):
        """The interpreter's Context for entity ``i``, drawing from
        ``stream``; ``snapshot`` holds every array as the run found it."""
        raise NotImplementedError


class _State:
    """Per-lane run state of one compiled run; arrays indexed by entity."""

    def __init__(self, entities):
        self.entities = entities
        n = entities.n
        self.work = {}     # property -> working copy, made on first write
        self.values = {}   # local -> per-lane value
        self.bound = {}    # local -> per-lane bound mask
        self.draws = np.zeros(n, dtype=np.int64)
        self.partner = np.zeros(n, dtype=np.int64)

    def commit(self):
        for name, work in self.work.items():
            self.entities.arrays[name][...] = work

    def uniform(self, lanes):
        u = keyed_uniform_array(lanes, *self.entities.keys, tail=(self.draws[lanes],))
        self.draws[lanes] += 1
        return u

    def index(self, arg, lanes, limit):
        """``int(arg)`` per lane as the interpreter takes it, in [0, limit)."""
        arg = _per_lane(arg, lanes)
        # NaN fails both tests; trunc(x) >= 0 iff x > -1
        if not ((arg > -1.0) & (arg < limit)).all():
            raise Fault("index out of range")
        return arg.astype(np.int64)

    def bound_mask(self, name):
        if name not in self.bound:
            self.values[name] = np.zeros(self.entities.n)
            self.bound[name] = np.zeros(self.entities.n, dtype=bool)
        return self.bound[name]

    def local(self, name, lanes):
        if name not in self.bound or not self.bound[name][lanes].all():
            raise Fault(f"unbound local '{name}'")
        return self.values[name][lanes]

    def set_local(self, name, lanes, value):
        self.bound_mask(name)[lanes] = True
        self.values[name][lanes] = value

    def read(self, name, kind, lanes, arg, in_loop):
        ents = self.entities
        if arg is not None and not ents.indexed:
            raise Fault(f"indexed read of '{name}'")
        if kind == "parameter":
            if name not in ents.params:
                raise Fault(f"unknown parameter '{name}'")
            return float(ents.params[name])
        if kind == "builtin":
            return ents.builtin(self, name, lanes, arg, in_loop)
        if not self.readable(name, kind):
            raise Fault(f"'{name}' is not readable")
        if arg is None:
            return self.own(name, lanes)
        return self.read_at(name, lanes, self.index(arg, lanes, ents.n))

    def readable(self, name, kind):
        return kind in self.entities.property_kinds and name in self.entities.arrays

    def own(self, name, lanes):
        work = self.work.get(name)
        return (self.entities.arrays[name] if work is None else work)[lanes]

    def read_at(self, name, lanes, target):
        """Property ``name`` of entity ``target[i]`` for lane ``lanes[i]``."""
        own = target == lanes
        if self.entities.phase == "update" and not own.all():
            raise Fault("update rule read another entity")
        values = self.entities.arrays[name][target]
        work = self.work.get(name)
        if work is not None:
            values[own] = work[lanes[own]]
        return values

    def write(self, name, lanes, value, arg):
        ents = self.entities
        if name not in ents.arrays or name in ents.readonly:
            raise Fault(f"write to undeclared property '{name}'")
        if arg is not None and not (ents.indexed and (np.trunc(arg) == lanes).all()):
            raise Fault("write to another entity")
        if name not in self.work:
            self.work[name] = ents.arrays[name].copy()
        self.work[name][lanes] = ents.wrap(name, value)


# ---------------------------------------------------------------------------
# Statements

def _block(statements, in_loop):
    steps = [_statement(s, in_loop) for s in statements]

    def block(state, lanes):
        for step in steps:
            step(state, lanes)
    return block


def _statement(s, in_loop):
    if isinstance(s, alg.Assign):
        return _assign(s, in_loop)
    if isinstance(s, alg.IfThenElse):
        return _if(s, in_loop)
    if isinstance(s, alg.While):
        return _while(s, in_loop)
    if isinstance(s, (alg.IterateOverEdges, alg.IterateOverInteractions)):
        return _neighbour_loop(s, in_loop)
    if isinstance(s, alg.Unsupported):
        raise _Refused(f"unsupported tag '{s.tag}'")
    raise _Refused(f"not a statement: {s!r}")


def _assign(s, in_loop):
    value = _expr(s.value, in_loop)
    target = s.target
    name = target.name
    if isinstance(target, Symbol) and target.kind == "local":
        return lambda state, lanes: state.set_local(name, lanes, value(state, lanes))
    index = _expr(target.arg, in_loop) if isinstance(target, Indexed) else None
    entity = _entity_argument(target)

    def assign(state, lanes):
        v = value(state, lanes)   # the interpreter evaluates the value first
        if entity is not None and entity == state.entities.self_builtin:
            state.write(name, lanes, v, None)   # x($ca): the lane's own entity
        else:
            state.write(name, lanes, v, None if index is None else index(state, lanes))
    return assign


def _if(s, in_loop):
    cond = _expr(s.cond, in_loop)
    promoted = alg.assigned_locals(s.then) & alg.assigned_locals(s.orelse) if s.orelse else set()
    then = _branch(s.then, promoted, in_loop)
    orelse = _branch(s.orelse, promoted, in_loop)

    def if_then_else(state, lanes):
        taken = _per_lane(cond(state, lanes), lanes) != 0.0
        for branch, sub in ((then, lanes[taken]), (orelse, lanes[~taken])):
            if sub.size:
                branch(state, sub)
    return if_then_else


def _branch(statements, promoted, in_loop):
    """A branch block that unbinds, on exit, the locals it bound first,
    except the promoted ones (assigned by both branches)."""
    body = _block(statements, in_loop)
    scoped = sorted(alg.assigned_locals(statements) - promoted)

    def branch(state, lanes):
        before = [state.bound_mask(name)[lanes] for name in scoped]
        body(state, lanes)
        for name, was in zip(scoped, before):
            mask = state.bound[name]
            mask[lanes[mask[lanes] & ~was]] = False
    return branch


def _while(s, in_loop):
    cond = _expr(s.cond, in_loop)
    body = _block(s.body, in_loop)

    def loop(state, lanes):
        count = 0
        while True:
            lanes = lanes[_per_lane(cond(state, lanes), lanes) != 0.0]
            if not lanes.size:
                return
            count += 1
            if count > alg.DEFAULT_WHILE_CAP:
                raise Fault(f"while loop exceeded {alg.DEFAULT_WHILE_CAP} iterations")
            body(state, lanes)
    return loop


def _neighbour_loop(s, in_loop):
    if in_loop:
        raise _Refused("nested neighbour iteration")
    body = _block(s.body, in_loop=True)
    if isinstance(s, alg.IterateOverEdges):
        tag, direction = "iterate_over_edges", s.direction
    else:
        tag, direction = "iterate_over_interactions", None

    def rounds(state, lanes):
        indptr, index = state.entities.neighbours(tag, direction)
        start = indptr[lanes]
        degree = indptr[lanes + 1] - start
        for k in range(int(degree.max(initial=0))):
            has = degree > k
            active = lanes[has]
            state.partner[active] = index[start[has] + k]
            body(state, active)
    return rounds


# ---------------------------------------------------------------------------
# Expressions: a closure returns a float or an array with one value per lane

def _expr(e, in_loop):
    if isinstance(e, Number):
        value = e.value
        return lambda state, lanes: value
    if isinstance(e, (Symbol, Indexed)):
        return _read(e, in_loop)
    if isinstance(e, Unary):
        operand = _expr(e.operand, in_loop)
        return lambda state, lanes: -operand(state, lanes)
    if isinstance(e, Binary):
        return _binary(e, in_loop)
    if isinstance(e, Call):
        return _call(e, in_loop)
    raise _Refused(f"not an expression node: {e!r}")


def _read(e, in_loop):
    name, kind = e.name, e.kind
    arg = _expr(e.arg, in_loop) if isinstance(e, Indexed) else None
    if kind == "local":
        # an indexed local ignores its (still evaluated) argument
        def read_local(state, lanes):
            if arg is not None:
                arg(state, lanes)
            return state.local(name, lanes)
        return read_local

    def read(state, lanes):
        return state.read(name, kind, lanes, None if arg is None else arg(state, lanes), in_loop)

    entity = _entity_argument(e)
    if entity is None:
        return read

    def read_entity(state, lanes):
        # p($ca) and p($na) skip evaluating and range-checking the index
        ents = state.entities
        if state.readable(name, kind):
            if entity == ents.self_builtin:
                return state.own(name, lanes)
            if entity == ents.partner_builtin and in_loop and ents.phase != "update":
                return state.read_at(name, lanes, state.partner[lanes])
        return read(state, lanes)
    return read_entity


def _entity_argument(e):
    """The builtin in ``p($cv)``, ``p($ca)`` or ``p($na)``, else None."""
    if isinstance(e, Indexed) and isinstance(e.arg, Symbol) and e.arg.kind == "builtin" \
            and e.arg.name in ("$cv", "$ca", "$na"):
        return e.arg.name
    return None


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}

_LOGIC = {
    ">=": np.greater_equal, ">": np.greater, "<=": np.less_equal, "<": np.less,
    "==": np.equal, "!=": np.not_equal,
    "and": lambda a, b: np.not_equal(a, 0.0) & np.not_equal(b, 0.0),
    "or": lambda a, b: np.not_equal(a, 0.0) | np.not_equal(b, 0.0),
}


def _binary(e, in_loop):
    left = _expr(e.left, in_loop)
    right = _expr(e.right, in_loop)
    op = e.op
    if op in _ARITHMETIC:
        fn = _ARITHMETIC[op]
        return lambda state, lanes: fn(left(state, lanes), right(state, lanes))
    if op in _LOGIC:
        fn = _LOGIC[op]
        return lambda state, lanes: _float(fn(left(state, lanes), right(state, lanes)))
    if op == "/":
        def divide(state, lanes):
            a, b = left(state, lanes), right(state, lanes)
            if np.equal(b, 0.0).any():
                raise Fault("division by zero")
            return a / b
        return divide
    if op in _PER_ELEMENT:
        fn = _PER_ELEMENT[op]
        return lambda state, lanes: _per_element(fn, lanes, left(state, lanes),
                                                 right(state, lanes))
    raise _Refused(f"unknown operator '{op}'")


# a negative base to a fractional power is complex, which float() refuses
_PER_ELEMENT = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp, "atan2": math.atan2,
    "floor": lambda x: float(math.floor(x)), "^": operator.pow,
}


def _call(e, in_loop):
    args = [_expr(a, in_loop) for a in e.args]
    f = e.func
    if f in _PER_ELEMENT:
        fn = _PER_ELEMENT[f]
        return lambda state, lanes: _per_element(fn, lanes, *[a(state, lanes) for a in args])
    if f == "abs":
        (x,) = args
        return lambda state, lanes: _float(np.abs(x(state, lanes)))
    if f == "sqrt":
        (x,) = args

        def sqrt(state, lanes):
            v = x(state, lanes)
            if np.less(v, 0.0).any():
                raise Fault("sqrt of negative value")
            return _float(np.sqrt(v))
        return sqrt
    if f == "mod":
        a, b = args

        def mod(state, lanes):
            u, v = a(state, lanes), b(state, lanes)
            if np.equal(v, 0.0).any():
                raise Fault("mod by zero")
            return _float(np.mod(u, v))   # np.mod rounds and signs as Python %
        return mod
    raise _Refused(f"unknown function '{f}'")


def _per_lane(x, lanes):
    return x if isinstance(x, np.ndarray) else np.full(lanes.shape, x)


def _float(x):
    """Arrays as float64 arrays, numpy scalars as Python floats."""
    return x.astype(np.float64) if isinstance(x, np.ndarray) else float(x)


def _per_element(fn, lanes, *args):
    """``fn`` applied per lane to Python floats, as the interpreter does."""
    try:
        if not any(isinstance(a, np.ndarray) for a in args):
            return float(fn(*args))
        columns = [a.tolist() if isinstance(a, np.ndarray) else itertools.repeat(float(a))
                   for a in args]
        return np.fromiter(map(fn, *columns), dtype=np.float64, count=lanes.size)
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise Fault(f"{type(exc).__name__} in {getattr(fn, '__name__', 'call')}") from None
