"""Outside-in tracing of simflow's layers for the traced benchmark run.

The tracer replaces public (and a few private) module functions with
wrappers that record spans ``[name, start, end, parent, tag]`` in memory.
Nothing inside ``src/`` is changed: a wrapper is bound in every simflow
module namespace that holds the original function object, so calls made
through ``module.fn`` and through ``from module import fn`` are both seen.
Spans are reduced to per-layer numbers only after each run call returns.

Wrappers sit at call, rule and step boundaries.  Recursive per-node
functions are never wrapped per node: ``expr.evaluate_array`` is traced
at its outermost call only (the original is rebound while that call runs).
"""

from __future__ import annotations

import functools
import os
import re
import sys
import time
from collections import Counter, defaultdict


def _cells(args, kwargs, result):
    return {"cells": args[0].size}


def _vtk_output(args, kwargs, result):
    fields = args[0][3]
    return {"values": sum(a.size for a in fields.values()),
            "bytes": os.path.getsize(args[1])}


def _dot_output(args, kwargs, result):
    return {"bytes": os.path.getsize(args[2])}


def _snapshot_output(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def _pair_count(args, kwargs, result):
    return {"pairs": len(result[0])}


# (module, attribute, span name, extra counts, outermost call only).
# Several attributes may share a span name when they are one layer:
# ``exchange_halos_decomposed`` is the decomposed form of the halo fill,
# and ``kernel.rk3_step`` is where the grid RK step goes once the grid
# stops carrying its own copy.  Missing attributes are skipped, so the
# tracer keeps working when a function is deleted.
LAYER_FUNCTIONS = [
    ("simflow.grid", "run", "grid.run", None, False),
    ("simflow.grid", "apply_initial_conditions", "grid.apply_initial_conditions", None, False),
    ("simflow.grid", "exchange_halos", "grid.exchange_halos", None, False),
    ("simflow.grid", "exchange_halos_decomposed", "grid.exchange_halos", None, False),
    ("simflow.grid", "_advance", "grid.advance", None, False),
    ("simflow.kernel", "rk3_step", "grid.advance", None, False),
    ("simflow.grid", "evaluate_rhs", "grid.evaluate_rhs", None, False),
    ("simflow.grid", "apply_stencil", "grid.apply_stencil", _cells, False),
    ("simflow.grid", "write_vtk", "grid.write_vtk", _vtk_output, False),
    ("simflow.expr", "evaluate_array", "expr.evaluate_array", None, True),
    ("simflow.algorithm", "run_algorithm", "algorithm.run_algorithm", None, False),
    ("simflow.rng", "keyed_uniform_array", "rng.keyed_uniform_array", None, False),
    ("simflow.graphs", "run_graph_problem", "graphs.run_graph_problem", None, False),
    ("simflow.graphs", "generate_graph", "graphs.generate_graph", None, False),
    ("simflow.graphs", "initialize_properties", "graphs.initialize_properties", None, False),
    ("simflow.graphs", "step_graph", "graphs.step_graph", None, False),
    ("simflow.graphs", "write_dot", "graphs.write_dot", _dot_output, False),
    ("simflow.agents", "run_spatial_problem", "agents.run_spatial_problem", None, False),
    ("simflow.agents", "initialize_agents", "agents.initialize_agents", None, False),
    ("simflow.agents", "neighbor_pairs", "agents.neighbor_pairs", _pair_count, False),
    ("simflow.agents", "neighbor_lists", "agents.neighbor_lists", None, False),
    ("simflow.agents", "step_agents", "agents.step_agents", None, False),
    ("simflow.agents", "_write_snapshot", "agents.write_snapshot", _snapshot_output, False),
]

RUNTIME_SPANS = ("grid.run", "graphs.run_graph_problem", "agents.run_spatial_problem")


def sanitize(name):
    """Rule name as a metric-name fragment: 'Sums gather' -> 'Sums_gather'."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name.strip())


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``rule_names`` maps ``id(algorithm)`` to a rule label; calls of
    ``run_algorithm`` carry that label as the span tag.
    """

    def __init__(self, rule_names=None):
        self.rule_names = dict(rule_names or {})
        self.spans = []
        self.extras = Counter()
        self.draws = 0
        self._stack = []
        self._undo = []       # callables that put the originals back

    # -- installation -----------------------------------------------------

    def install(self):
        for module_name, attr, span, extra, outermost in LAYER_FUNCTIONS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module else None
            if original is None:
                continue
            sites = _binding_sites(original)
            wrapper = self._wrap(original, span, extra, outermost, sites)
            for namespace, name in sites:
                self._undo.append(functools.partial(namespace.__setitem__, name, original))
                namespace[name] = wrapper
        self._count_draws()

    def uninstall(self):
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def _count_draws(self):
        rng = sys.modules.get("simflow.rng")
        stream = getattr(rng, "DrawStream", None)
        if stream is None:
            return
        tracer = self
        uniform, int_below = stream.uniform, stream.int_below
        nested = [False]

        # A draw is one call of either method; int_below's own call of
        # uniform is not a second draw.
        def counted_uniform(self):
            if not nested[0]:
                tracer.draws += 1
            return uniform(self)

        def counted_int_below(self, n):
            tracer.draws += 1
            nested[0] = True
            try:
                return int_below(self, n)
            finally:
                nested[0] = False

        for name, fn, original in (("uniform", counted_uniform, uniform),
                                   ("int_below", counted_int_below, int_below)):
            self._undo.append(functools.partial(setattr, stream, name, original))
            setattr(stream, name, fn)

    def _wrap(self, fn, name, extra, outermost, sites):
        spans, stack, extras = self.spans, self._stack, self.extras
        rule_names = self.rule_names
        clock = time.perf_counter
        tagged = name == "algorithm.run_algorithm"

        def wrapper(*args, **kwargs):
            index = len(spans)
            tag = rule_names.get(id(args[0]), "other") if tagged else None
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tag]
            spans.append(span)
            stack.append(index)
            if outermost:
                for namespace, attr in sites:
                    namespace[attr] = fn
            try:
                result = fn(*args, **kwargs)
            finally:
                if outermost:
                    for namespace, attr in sites:
                        namespace[attr] = wrapper
                stack.pop()
                span[2] = clock()
            if extra is not None:
                try:
                    counts = extra(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError) as exc:
                    print(f"tracer: no counts for {name}: {exc!r}", file=sys.stderr)
                else:
                    for key, value in counts.items():
                        extras[f"{name}.{key}"] += value
            return result

        return wrapper

    # -- reduction --------------------------------------------------------

    def take(self):
        """Reduce the recorded spans to per-layer totals and clear them."""
        totals = reduce_spans(self.spans)
        totals.update(self.extras)
        totals["rng.draws"] = self.draws
        self.spans.clear()
        self.extras.clear()
        self.draws = 0
        return totals


def _binding_sites(fn):
    """(namespace, attribute) pairs of the loaded simflow modules that hold fn."""
    sites = []
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "simflow" or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is fn:
                sites.append((namespace, attr))
    return sites


def reduce_spans(spans):
    """Per span name: inclusive time, self time and calls; per rule tag: time.

    Inclusive time counts only spans with no ancestor of the same name, so
    a layer reached twice on one path is not counted twice.  Self time is
    a span's duration minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, tag in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, parent, tag) in enumerate(spans):
        duration = end - start
        out[name + ".calls"] += 1
        out[name + ".self_s"] += duration - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name + "_s"] += duration
        if tag is not None:
            out[f"algorithm.rule.{tag}_s"] += duration
        if parent >= 0 and spans[parent][3] < 0 and spans[parent][0] in RUNTIME_SPANS:
            out["trace.top_level_s"] += duration
    return out
