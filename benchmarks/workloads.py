"""The benchmark's four workloads: inputs, the runtime entry call, output checks.

Every workload runs a shipped library document through simflow's public
Python API with parameter overrides only, in one process and one thread.
Why each one exists is written down in README.md beside this file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from simflow import agents, documents as docs, graphs, grid, kernel, library_path
from simflow.params import RunConfig, parse_input_file

DEFAULT_SEED = 1
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Tolerances of the grid checks.  Final fields may move by rounding when
# the summation order of the stencils changes, never by more than these.
SYMMETRY_RTOL = 1e-12
REFERENCE_RTOL = 1e-9
# Reference fields are stored on a subsample of about REFERENCE_POINTS
# cells per axis of the final grid.
REFERENCE_POINTS = 16


class CheckError(Exception):
    """A run's outputs are wrong."""


class Workload:
    """One benchmark input: documents, overrides and the runtime to call."""

    def __init__(self, name, runtime, problem, model, policy=None, params=None,
                 sizes=None):
        self.name = name
        self.runtime = runtime            # 'grid' | 'graph' | 'spatial'
        self.problem_path = library_path("problems", problem)
        self.model_path = library_path("models", model)
        self.policy_path = library_path("policies", policy) if policy else None
        self.params_path = library_path("inputs", params) if params else None
        self.sizes = sizes                # scale -> overrides

    def documents(self):
        paths = [self.problem_path, self.model_path]
        return paths + ([self.policy_path] if self.policy_path else [])


WORKLOADS = {w.name: w for w in [
    Workload("wave-stencil", "grid", "wave_problem.json", "wave_model.json",
             "fourth_order.json", sizes={
                 "full": {"cells": 256, "dt": 0.001, "steps": 80, "output_interval": 80},
                 "tiny": {"cells": 16, "dt": 0.001, "steps": 4, "output_interval": 4}}),
    Workload("wave-io", "grid", "wave_problem.json", "wave_model.json",
             "fourth_order.json", "wave.input", sizes={
                 "full": {"steps": 60, "output_interval": 2},
                 "tiny": {"cells": 16, "steps": 4, "output_interval": 2}}),
    Workload("voter-graph", "graph", "voter_problem.json", "voter_model.json",
             params="voter.input", sizes={
                 "full": {"number_of_vertices": 2000, "number_of_edges": 4000,
                          "time_steps": 10},
                 "tiny": {"number_of_vertices": 40, "number_of_edges": 80,
                          "time_steps": 2}}),
    Workload("flocking-dense", "spatial", "flocking_problem.json",
             "flocking_model.json", params="flocking.input", sizes={
                 "full": {"n_agents": 2048, "radius": 2.0, "time_steps": 5},
                 "tiny": {"n_agents": 64, "radius": 8.0, "time_steps": 2}}),
]}


class Prepared:
    """A workload with its documents loaded and lowered, ready to run."""

    def __init__(self, workload, scale):
        self.workload = workload
        self.scale = scale
        self.problem = docs.load_document(workload.problem_path)
        self.model = docs.load_document(workload.model_path)
        self.kernel = None
        if workload.policy_path:
            policy = docs.load_document(workload.policy_path)
            _, self.kernel = kernel.build_kernel(self.problem, policy, self.model)
        values = parse_input_file(workload.params_path) if workload.params_path else {}
        size = dict(workload.sizes[scale])
        if workload.runtime == "grid":
            self.steps = size.pop("steps")
            values.update(size)
            # t = step * dt is compared with t_end, so half a step of
            # margin makes the run stop after exactly `steps` steps.
            values["t_end"] = (self.steps - 0.5) * float(values["dt"])
            self.entities = int(values["cells"]) ** len(self.problem.spatial_coords)
        else:
            values.update(size)
            self.steps = int(size["time_steps"])
            self.entities = int(size.get("number_of_vertices", size.get("n_agents", 0)))
        self.values = values

    def config(self, seed, out_dir):
        return RunConfig(dict(self.values), output_dir=out_dir, seed=seed)

    def call(self, config):
        """The timed runtime entry call."""
        runtime = self.workload.runtime
        if runtime == "grid":
            return grid.run(self.problem, self.kernel, config)
        if runtime == "graph":
            return graphs.run_graph_problem(self.problem, self.model, config)
        return agents.run_spatial_problem(self.problem, self.model, config)

    def rule_names(self):
        """id(algorithm) -> rule name, for the tracer's per-rule spans."""
        if self.workload.runtime == "grid":
            return {id(self.problem.region.initial_condition): "initial_condition"}
        names = {id(self.problem.initial_condition): "initial_condition"}
        for rule in self.model.rules:
            names[id(rule.algorithm)] = rule.name
        return names

    def array_sizes(self):
        """Working-set figures of the workload, for the machine record."""
        if self.workload.runtime == "grid":
            n = int(self.values["cells"]) + 2 * self.kernel.halo
            dims = len(self.problem.spatial_coords)
            return {"padded_field_bytes": 8 * n ** dims, "fields": len(self.kernel.fields),
                    "cells": self.entities}
        if self.workload.runtime == "graph":
            return {"vertices": self.entities, "edges": int(self.values["number_of_edges"]),
                    "property_array_bytes": 8 * self.entities,
                    "properties": len(self.problem.properties)}
        return {"agents": self.entities, "property_array_bytes": 8 * self.entities,
                "properties": len(self.problem.properties) + len(self.problem.spatial_coords)}

    # -- checks -----------------------------------------------------------

    def check_outputs(self, report, out_dir):
        """Check one run's report and files; raises CheckError."""
        runtime = self.workload.runtime
        if report.steps != self.steps:
            raise CheckError(f"ran {report.steps} steps, expected {self.steps}")
        if runtime == "grid":
            self._check_grid(report, out_dir)
        elif runtime == "graph":
            self._check_graph(report, out_dir)
        else:
            self._check_spatial(report, out_dir)

    def _check_grid(self, report, out_dir):
        fields = report.final_fields
        for name, values in fields.items():
            if not np.all(np.isfinite(values)):
                raise CheckError(f"non-finite values in final field {name}")
            scale = max(1.0, float(np.max(np.abs(values))))
            if np.max(np.abs(values - values.T)) > SYMMETRY_RTOL * scale:
                raise CheckError(f"final field {name} is not x<->y symmetric")
        files = sorted(Path(out_dir).glob("*.vtk"))
        # dumps every output_interval steps, plus one after the last step
        dumps = len(range(0, self.steps, int(self.values["output_interval"]))) + 1
        if len(files) != dumps * len(fields):
            raise CheckError(f"{len(files)} VTK files, expected {dumps * len(fields)}")
        for path in files:
            try:
                read = grid.read_vtk_cell_data(path)
            except (ValueError, IndexError, TypeError) as exc:
                raise CheckError(f"{path.name} does not read back: {exc}") from exc
            name, _, step = path.stem.rpartition("_")
            values = read.get(name)
            if values is None or values.shape != fields[name].shape:
                raise CheckError(f"{path.name} holds no {name} field of the grid's shape")
            if int(step) == self.steps and not np.array_equal(values, fields[name]):
                raise CheckError(f"{path.name} differs from the final {name} field")
            if not np.all(np.isfinite(values)):
                raise CheckError(f"{path.name} holds non-finite values")

    def _check_graph(self, report, out_dir):
        last = Path(out_dir) / f"graph_{self.steps}.dot"
        if len(report.outputs) != self.steps or not last.exists():
            raise CheckError(f"expected one DOT file per step, got {len(report.outputs)}")
        state = report.properties["state"]
        if not np.all((state == 0.0) | (state == 1.0)):
            raise CheckError("voter states outside {0, 1}")
        try:
            labels, edges = _read_dot(last)
            read = {p: np.array([labels[v][p] for v in range(report.graph.n)])
                    for p in report.properties}
        except (ValueError, KeyError) as exc:
            raise CheckError(f"{last.name} does not read back: {exc!r}") from exc
        if len(labels) != report.graph.n or edges != report.graph.edges:
            raise CheckError(f"{last.name}: vertices or edges differ from the run's graph")
        for prop, values in report.properties.items():
            if not np.array_equal(read[prop], values):
                raise CheckError(f"{last.name}: property {prop} differs from the run")

    def _check_spatial(self, report, out_dir):
        out_dir = Path(out_dir)
        last = out_dir / f"agents_{self.steps}.csv"
        agents_set = report.agents
        try:
            table = np.loadtxt(last, delimiter=",", skiprows=1, ndmin=2)
            header = last.read_text(encoding="utf-8").split("\n", 1)[0].split(",")
            order = np.loadtxt(out_dir / "order.csv", delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            raise CheckError(f"outputs do not read back: {exc}") from exc
        if table.shape != (agents_set.n, len(header)):
            raise CheckError(f"{last.name} has shape {table.shape}")
        for column, name in enumerate(header[1:], start=1):
            if not np.array_equal(table[:, column], agents_set.props[name]):
                raise CheckError(f"{last.name}: column {name} differs from the run")
        history = np.array(report.order_history)
        if not np.array_equal(order[:, 1], history) or len(history) != self.steps:
            raise CheckError("order.csv differs from the run's order history")
        if np.any(history < 0.0) or np.any(history > 1.0):
            raise CheckError("order parameter outside [0, 1]")
        theta = table[:, header.index("theta")]
        if agents.order_parameter(theta) != history[-1]:
            raise CheckError("last order parameter does not follow from the snapshot")
        for coord in agents_set.coords:
            lo, hi = agents_set.domain[coord]
            if np.any(agents_set.props[coord] < lo) or np.any(agents_set.props[coord] >= hi):
                raise CheckError(f"coordinate {coord} left the domain")

    def check_reference(self, report, hashes):
        """Compare a default-seed, full-size run with the recorded reference."""
        reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))[self.workload.name]
        if self.workload.runtime != "grid":
            expected = reference["sha256"]
            changed = sorted(k for k in set(hashes) | set(expected)
                             if hashes.get(k) != expected.get(k))
            if changed:
                raise CheckError(f"outputs differ from the reference: {changed[:5]}")
            return
        for name, expected in reference["fields"].items():
            got = subsample(report.final_fields[name])
            expected = np.array(expected)
            tolerance = REFERENCE_RTOL * float(np.max(np.abs(expected)))
            if got.shape != expected.shape or np.max(np.abs(got - expected)) > tolerance:
                raise CheckError(f"final field {name} is not within "
                                 f"{REFERENCE_RTOL:g} of the reference")


def _read_dot(path):
    """Vertex labels {v: {prop: value}} and the edge list of a DOT file."""
    labels = {}
    edges = []
    for line in path.read_text(encoding="utf-8").splitlines()[1:-1]:
        head, sep, label = line.partition(' [label="')
        if sep:
            pairs = (kv.split("=") for kv in label.rstrip('"];').split(", "))
            labels[int(head)] = {k: float(v) for k, v in pairs}
        else:
            source, _, target = line.rstrip(";").partition(" -> ")
            edges.append((int(source), int(target)))
    return labels, edges


def subsample(values):
    """Every (n // REFERENCE_POINTS)-th cell per axis."""
    step = max(1, values.shape[0] // REFERENCE_POINTS)
    return np.asarray(values[::step, ::step])


def hash_outputs(out_dir):
    """sha256 of every output file, keyed by file name."""
    out = {}
    for path in sorted(Path(out_dir).iterdir()):
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        out[path.name] = digest.hexdigest()
    return out
