"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line for its criterion on the real stdout
so the verdicts survive pytest's capture.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import sympy

from simflow import agents as ag
from simflow import documents as docs
from simflow import graphs
from simflow import grid as gridmod
from simflow import kernel, library_path
from simflow.cli import main as cli_main
from simflow.params import RunConfig, parse_input_file
from simflow.stencils import centered_stencil, fd_weights, ko_difference_weights

LIBRARY = library_path()
GOLDEN = Path(__file__).parent / "golden" / "wave_discretized.json"


@contextmanager
def criterion(capsys, n, desc):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {n}: {desc}", flush=True)
        raise
    with capsys.disabled():
        print(f"PASS criterion {n}: {desc}", flush=True)


def wave_docs(sigma=None):
    problem = docs.load_document(LIBRARY / "problems/wave_problem.json")
    model = docs.load_document(LIBRARY / "models/wave_model.json")
    policy = docs.load_document(LIBRARY / "policies/fourth_order.json")
    if sigma is not None:
        policy.time_integration["sigma"] = sigma
    _, prog = kernel.build_kernel(problem, policy, model)
    return problem, prog


def test_criterion_1_wave_pipeline(tmp_path, capsys):
    with criterion(capsys, 1, "shipped wave problem, 100^2 cells, 200 steps, symmetric and finite"):
        problem, prog = wave_docs()
        values = parse_input_file(LIBRARY / "inputs/wave.input")
        config = RunConfig(values, output_dir=tmp_path / "wave")
        start = time.perf_counter()
        report = gridmod.run(problem, prog, config)
        elapsed = time.perf_counter() - start
        assert report.steps == 200
        for f, arr in report.final_fields.items():
            assert np.all(np.isfinite(arr)), f
        phi = report.final_fields["phi"]
        assert np.max(np.abs(phi - phi.T)) < 1e-12
        assert elapsed < 30.0


def test_criterion_2_convergence(tmp_path, capsys):
    with criterion(capsys, 2, "plane-wave L2 convergence order >= 2.8 across 25/50/100 cells"):
        start = time.perf_counter()
        obj = json.loads((LIBRARY / "problems/wave_problem.json").read_text())
        pi = "atan2(0, -1)"
        obj["region"]["initial_condition"] = [
            {"do": "assign", "target": "phi", "expr": f"sin(2 * {pi} * x)"},
            {"do": "assign", "target": "K",
             "expr": f"-(2 * {pi} * cos(2 * {pi} * x))"},
        ]
        problem = docs.document_from_json(obj)
        model = docs.load_document(LIBRARY / "models/wave_model.json")
        policy = docs.load_document(LIBRARY / "policies/fourth_order.json")
        policy.time_integration["sigma"] = 0.0
        _, prog = kernel.build_kernel(problem, policy, model)

        errors = []
        for n in (25, 50, 100):
            dt = 0.25 / n
            config = RunConfig({"dt": dt, "cells": n, "t_end": 0.25 - dt / 2,
                                "output_interval": 10 ** 9},
                               output_dir=tmp_path / f"n{n}")
            report = gridmod.run(problem, prog, config)
            assert report.steps == n
            x = (np.arange(n) + 0.5) / n - 0.5
            exact = np.sin(2 * math.pi * (x - report.final_time))[:, None]
            err = float(np.sqrt(np.mean((report.final_fields["phi"] - exact) ** 2)))
            errors.append(err)
        orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
        assert all(o >= 2.8 for o in orders), (errors, orders)
        assert time.perf_counter() - start < 60.0


def test_criterion_3_stencil_oracle(capsys):
    with criterion(capsys, 3, "stencil weights match exact Vandermonde elimination; SBP identity"):
        # exact-rational oracle for every derivative order and width
        for m in range(1, 5):
            for width in (3, 5, 7, 9):
                if width <= m:
                    continue
                r = width // 2
                points = list(range(-r, r + 1))
                oracle = sympy.finite_diff_weights(m, [sympy.Integer(p) for p in points], 0)[m][-1]
                ours = fd_weights(m, points)
                for got, want in zip(ours, oracle):
                    num, den = sympy.fraction(want)
                    assert got == Fraction(int(num), int(den))

        # the 4th-order operators are exact on polynomials through degree 4+m-1
        for m in (1, 2):
            offsets = [-2, -1, 0, 1, 2]
            w = fd_weights(m, offsets)
            for deg in range(4 + m):
                applied = sum(wi * Fraction(o) ** deg for wi, o in zip(w, offsets))
                # m-th derivative of x^deg at 0
                expected = Fraction(math.factorial(m)) if deg == m else Fraction(0)
                assert applied == expected, (m, deg)

        # dissipation difference weights
        assert ko_difference_weights(3) == [1, -6, 15, -20, 15, -6, 1]

        # periodic summation-by-parts identity, N = 64
        n = 64
        dx = 1.0 / n
        rng = np.random.default_rng(0)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        s = centered_stencil(1, 5, "x")

        def apply(arr):
            out = np.zeros(n)
            for off, w in zip(s.offsets, s.weights):
                out += w * np.roll(arr, -off)
            return out / dx

        assert abs(np.dot(u, apply(v)) + np.dot(apply(u), v)) < 1e-12


def test_criterion_4_repeat_runs_bitwise(tmp_path, capsys):
    with criterion(capsys, 4, "two API runs and one CLI run of the wave problem emit identical VTK"):
        problem, prog = wave_docs()
        base = {"dt": 0.005, "cells": 40, "t_end": 0.1, "output_interval": 10 ** 9}

        def vtk_bytes(tag):
            return {f: (tmp_path / tag / f"{f}_20.vtk").read_bytes() for f in ("phi", "K")}

        def run(tag):
            gridmod.run(problem, prog, RunConfig(dict(base), output_dir=tmp_path / tag))
            return vtk_bytes(tag)

        first = run("api1")
        assert run("api2") == first

        params = tmp_path / "run.input"
        params.write_text("dt = 0.005\ncells = 40\ntend = 0.1\noutput_interval = 1000000\n")
        assert cli_main(["--docs", str(LIBRARY), "run",
                         str(LIBRARY / "problems/wave_problem.json"),
                         "--policy", str(LIBRARY / "policies/fourth_order.json"),
                         "--params", str(params), "-o", str(tmp_path / "cli")]) == 0
        assert vtk_bytes("cli") == first


def test_criterion_5_voter(tmp_path, capsys):
    with criterion(capsys, 5, "voter model: 10 DOT snapshots, all-ones invariance, bitwise determinism"):
        start = time.perf_counter()
        model = docs.load_document(LIBRARY / "models/voter_model.json")
        problem = docs.load_document(LIBRARY / "problems/voter_problem.json")
        values = parse_input_file(LIBRARY / "inputs/voter.input")

        def run(tag):
            config = RunConfig(dict(values), output_dir=tmp_path / tag)
            return graphs.run_graph_problem(problem, model, config)

        report = run("a")
        assert report.steps == 10
        assert report.graph.n == 500 and report.graph.n_edges == 1000
        names = [Path(p).name for p in report.outputs]
        assert names == [f"graph_{k}.dot" for k in range(1, 11)]

        # bitwise determinism under a fixed seed
        again = run("b")
        for pa, pb in zip(report.outputs, again.outputs):
            assert Path(pa).read_bytes() == Path(pb).read_bytes()

        # unanimous state is exactly invariant for 10 seeds
        for seed in range(10):
            g = graphs.generate_graph(problem.graph, seed=seed)
            live = {"state": np.ones(g.n), "acc": np.zeros(g.n)}
            for step in range(10):
                graphs.step_graph(g, model, live, {}, step, seed=seed)
            assert np.all(live["state"] == 1.0)

        assert time.perf_counter() - start < 5.0


def test_criterion_6_flocking(tmp_path, capsys):
    with criterion(capsys, 6, "flocking: shipped run completes; order > 0.8 at eta=0.1, < 0.3 at eta=0.8"):
        start = time.perf_counter()
        model = docs.load_document(LIBRARY / "models/flocking_model.json")
        problem = docs.load_document(LIBRARY / "problems/flocking_problem.json")
        values = parse_input_file(LIBRARY / "inputs/flocking.input")
        config = RunConfig(dict(values), output_dir=tmp_path / "flock")
        report = ag.run_spatial_problem(problem, model, config)
        assert report.steps == 10
        assert len(report.order_history) == 10

        # extended runs of the document rules, 1024 agents for 500 steps
        # (no output files); dt = 3 is the declared test constant for the
        # ordering check
        def tail_mean(eta, seed):
            params = problem.parameter_values(
                {"eta": eta, "dt": 3.0, "v0": 0.5, "radius": 1.0})
            agents = ag.initialize_agents(problem, model, params, 1024, seed)
            history = []
            for step in range(500):
                ag.step_agents(agents, model, params, params["radius"], step, seed)
                history.append(ag.order_parameter(agents.props["theta"]))
            return float(np.mean(history[-100:]))

        ordered = [tail_mean(0.1, s) for s in range(5)]
        noisy = [tail_mean(0.8, s) for s in range(5)]
        assert float(np.mean(ordered)) > 0.8, ordered
        assert float(np.mean(noisy)) < 0.3, noisy
        assert time.perf_counter() - start < 180.0


def test_criterion_7_neighbor_oracle(capsys):
    with criterion(capsys, 7, "neighbor search equals brute-force minimum-image sets, 100 configs"):
        rng = np.random.default_rng(1234)
        mismatches = 0
        for trial in range(100):
            n = 500
            extents = np.array([rng.uniform(20.0, 120.0), rng.uniform(20.0, 120.0)])
            radius = float(rng.uniform(0.5, 5.0))
            pos = rng.uniform(0.0, 1.0, size=(n, 2)) * extents
            ii, jj = ag.neighbor_pairs(pos, np.zeros(2), extents, radius)
            got = set(zip(ii.tolist(), jj.tolist()))

            bi, bj = np.triu_indices(n, k=1)
            delta = np.abs(pos[bi] - pos[bj])
            delta = np.minimum(delta, extents - delta)
            keep = np.sum(delta * delta, axis=1) <= radius * radius
            want = set(zip(bi[keep].tolist(), bj[keep].tolist()))
            if got != want:
                mismatches += 1
        assert mismatches == 0


def test_criterion_8_golden_discretization(tmp_path, capsys):
    with criterion(capsys, 8, "discretized wave document is byte-stable with the expected stencils"):
        problem = docs.load_document(LIBRARY / "problems/wave_problem.json")
        model = docs.load_document(LIBRARY / "models/wave_model.json")
        policy = docs.load_document(LIBRARY / "policies/fourth_order.json")
        discretized, _ = kernel.build_kernel(problem, policy, model)
        text = docs.dump_document(discretized)
        assert text.encode() == GOLDEN.read_bytes()

        k = discretized.discrete_equations["K"]
        assert k.count("stencil(m=2, axis=x, offsets=[-2,-1,0,1,2])(phi)") == 1
        assert k.count("stencil(m=2, axis=y, offsets=[-2,-1,0,1,2])(phi)") == 1
        assert k.count("stencil(") == 2
        assert "ko_dissipation(r=3," in k
