"""Spatial agent runtime: neighbor search, flocking rules, runner."""

import contextlib
import logging
import math
from unittest import mock

import numpy as np
import pytest

from simflow import agents as ag
from simflow import documents as docs
from simflow import library_path, lockstep
from simflow.params import RunConfig
from simflow.rng import keyed_uniform

LIBRARY = library_path()
TWO_PI = 2.0 * math.pi


def brute_neighbor_sets(positions, extents, radius):
    n = len(positions)
    out = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = np.abs(positions[i] - positions[j])
            d = np.minimum(d, extents - d)
            if d @ d <= radius * radius:
                out[i].add(j)
                out[j].add(i)
    return out


class TestNeighborSearch:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        extents = np.array([10.0, 10.0])
        for trial in range(20):
            n = 60
            radius = float(rng.uniform(0.3, 2.5))
            pos = rng.uniform(0.0, 10.0, size=(n, 2))
            ii, jj = ag.neighbor_pairs(pos, np.zeros(2), extents, radius)
            got = [set() for _ in range(n)]
            for a, b in zip(ii, jj):
                got[a].add(int(b))
                got[b].add(int(a))
            assert got == brute_neighbor_sets(pos, extents, radius)

    def test_tie_at_radius_is_included(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        ii, jj = ag.neighbor_pairs(pos, np.zeros(2), np.array([10.0, 10.0]), 1.0)
        assert list(ii) == [0] and list(jj) == [1]

    def test_minimum_image_across_boundary(self):
        pos = np.array([[0.1, 5.0], [9.9, 5.0]])
        ii, jj = ag.neighbor_pairs(pos, np.zeros(2), np.array([10.0, 10.0]), 0.5)
        assert len(ii) == 1

    def test_large_radius_falls_back_to_all_pairs(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(0.0, 10.0, size=(30, 2))
        extents = np.array([10.0, 10.0])
        with mock.patch.object(ag, "_brute_pairs", wraps=ag._brute_pairs) as brute:
            ii, jj = ag.neighbor_pairs(pos, np.zeros(2), extents, 4.0)
        assert brute.call_count == 1
        got = [set() for _ in range(30)]
        for a, b in zip(ii, jj):
            got[a].add(int(b))
            got[b].add(int(a))
        assert got == brute_neighbor_sets(pos, extents, 4.0)

    def test_neighbor_csr_self_inclusion(self):
        pairs = (np.array([0]), np.array([1]))
        indptr, index = ag.neighbor_csr(3, pairs, include_self=True)
        assert indptr.tolist() == [0, 2, 4, 5] and index.tolist() == [0, 1, 0, 1, 2]
        indptr, index = ag.neighbor_csr(3, pairs, include_self=False)
        assert indptr.tolist() == [0, 1, 2, 2] and index.tolist() == [1, 0]


class TestOrderParameter:
    def test_aligned_is_one(self):
        assert ag.order_parameter(np.full(50, 0.7)) == pytest.approx(1.0)

    def test_balanced_is_zero(self):
        assert ag.order_parameter(np.array([0.0, math.pi])) == pytest.approx(0.0, abs=1e-15)


def flocking_docs():
    model = docs.load_document(LIBRARY / "models/flocking_model.json")
    problem = docs.load_document(LIBRARY / "problems/flocking_problem.json")
    return model, problem


def flock(positions, theta):
    """An AgentSet of the flocking problem with the given state."""
    _, problem = flocking_docs()
    agents = ag.AgentSet(len(theta), ["x", "y"], problem.domain,
                         ["theta", "sumcos", "sumsin", "n"])
    agents.props["x"][:] = [p[0] for p in positions]
    agents.props["y"][:] = [p[1] for p in positions]
    agents.props["theta"][:] = theta
    return agents


def run_rules(agents, rules, eta=0.0, include_self=True, step=0, seed=0):
    """One step of the document rules ``rules`` of the flocking model."""
    model, _ = flocking_docs()
    model.execution_order = rules
    model.include_self = include_self
    params = {"eta": eta, "v0": 0.5, "dt": 1.0, "radius": 1.0}
    ag.step_agents(agents, model, params, params["radius"], step, seed)


GATHER = ["Sums update", "Sums gather"]
ANGLE = GATHER + ["Angle update"]


class TestFlockingOperators:
    """Hand examples of the shipped flocking rules, run through step_agents."""

    def test_gather_hand_example(self):
        # three mutual neighbors at 0, pi/2, pi
        agents = flock([(10.0, 10.0), (10.5, 10.0), (10.0, 10.5)],
                       [0.0, math.pi / 2, math.pi])
        run_rules(agents, GATHER)
        assert np.allclose(agents.props["sumcos"], 0.0, atol=1e-15)
        assert np.allclose(agents.props["sumsin"], 1.0)
        assert list(agents.props["n"]) == [3.0, 3.0, 3.0]

    def test_exclude_self_counts(self):
        agents = flock([(10.0, 10.0), (10.5, 10.0), (50.0, 50.0)], np.zeros(3))
        run_rules(agents, GATHER, include_self=False)
        assert list(agents.props["n"]) == [1.0, 1.0, 0.0]

    def test_noise_free_alignment_is_fixed_point(self):
        positions = [(10.0 + 0.4 * k, 20.0 + 0.3 * (k % 3)) for k in range(10)]
        agents = flock(positions, np.full(10, 1.2))
        run_rules(agents, ANGLE + ["Move update"])
        assert np.allclose(agents.props["theta"], 1.2)

    def test_symmetric_pair_averages_to_zero(self):
        delta = 0.3
        agents = flock([(10.0, 10.0), (10.5, 10.0)], [delta, -delta])
        run_rules(agents, ANGLE)
        assert np.allclose(agents.props["theta"], 0.0, atol=1e-15)

    def test_degenerate_sum_keeps_angle(self):
        # isolated agents, self excluded: zero sums and zero noise weight
        agents = flock([(10.0, 10.0), (50.0, 50.0)], [0.4, 2.2])
        run_rules(agents, ANGLE, eta=0.7, include_self=False)
        assert list(agents.props["theta"]) == [0.4, 2.2]

    def test_unit_noise_bisects_single_agent(self):
        # with eta = 1 the new heading bisects the old one (0) and the
        # noise angle xi, drawn as draw 0 of rule 2 for agent 0
        agents = flock([(10.0, 10.0)], [0.0])
        run_rules(agents, ANGLE, eta=1.0, step=3, seed=7)
        xi = TWO_PI * keyed_uniform(7, 3, 3, 2, 0, 0)
        expected = math.atan2(math.sin(xi / 2), math.cos(xi / 2))
        assert agents.props["theta"][0] == pytest.approx(expected, abs=1e-12)


class TestCompiledVsInterpreted:
    def test_one_step_agreement(self):
        model, problem = flocking_docs()
        params = problem.parameter_values({"radius": 6.0})
        runs = []
        for compiled in (True, False):
            agents = ag.initialize_agents(problem, model, params, 64, seed=2)
            with contextlib.ExitStack() as stack:
                if not compiled:
                    stack.enter_context(mock.patch.object(
                        lockstep, "compile_algorithm", lambda a: (None, "interpreter")))
                ag.step_agents(agents, model, params, params["radius"], step=0, seed=2)
            runs.append(agents.props)
        for name, values in runs[0].items():
            assert np.array_equal(values.view(np.uint64), runs[1][name].view(np.uint64)), name
        assert runs[0]["n"].max() > 2


class TestRunner:
    def run(self, tmp_path, tag, seed=1):
        model, problem = flocking_docs()
        config = RunConfig({"time_steps": 10}, output_dir=tmp_path / tag, seed=seed)
        return ag.run_spatial_problem(problem, model, config)

    def test_snapshots_and_order_series(self, tmp_path):
        report = self.run(tmp_path, "a")
        assert report.steps == 10
        names = [p.rsplit("/", 1)[-1] for p in report.outputs]
        assert names == [f"agents_{k}.csv" for k in range(1, 11)] + ["order.csv"]
        assert len(report.order_history) == 10
        assert all(0.0 <= phi <= 1.0 for phi in report.order_history)
        header = open(report.outputs[0]).readline().strip()
        assert header == "id,x,y,theta,sumcos,sumsin,n"

    def test_fixed_seed_repeats_bitwise(self, tmp_path):
        a = self.run(tmp_path, "r1", seed=5)
        b = self.run(tmp_path, "r2", seed=5)
        assert len(a.outputs) == len(b.outputs) == 11
        for pa, pb in zip(a.outputs, b.outputs):
            assert open(pa, "rb").read() == open(pb, "rb").read()

    def test_positions_stay_in_domain(self, tmp_path):
        report = self.run(tmp_path, "wrap")
        assert np.all(report.agents.props["x"] >= 0.0)
        assert np.all(report.agents.props["x"] < 100.0)
        assert np.all(report.agents.props["y"] >= 0.0)
        assert np.all(report.agents.props["y"] < 100.0)

    def test_all_pairs_fallback_logged_once_per_run(self, tmp_path, caplog):
        model, problem = flocking_docs()
        config = RunConfig({"time_steps": 5, "n_agents": 20, "radius": 40.0},
                           output_dir=tmp_path / "big", seed=1)
        with caplog.at_level(logging.WARNING, logger="simflow"):
            report = ag.run_spatial_problem(problem, model, config)
        assert report.steps == 5
        warned = [r.getMessage() for r in caplog.records
                  if r.name == "simflow" and r.levelno == logging.WARNING]
        assert len(warned) == 1 and "all-pairs" in warned[0]

    def test_missing_radius_parameter_rejected(self, tmp_path):
        model, problem = flocking_docs()
        model.interaction_radius = "rho"
        config = RunConfig({"time_steps": 1}, output_dir=tmp_path / "r")
        with pytest.raises(ag.AgentError):
            ag.run_spatial_problem(problem, model, config)


def loop_write_snapshot(agents, out_dir, step):
    """The per-row CSV writer that _write_snapshot replaced, as an oracle."""
    names = agents.coords + [p for p in agents.props if p not in agents.coords]
    path = out_dir / f"agents_{step}.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id," + ",".join(names) + "\n")
        for a in range(agents.n):
            row = ",".join(format(float(agents.props[p][a]), ".17g") for p in names)
            fh.write(f"{a},{row}\n")
    return path


@pytest.mark.parametrize("properties", [[], ["theta"], ["theta", "n", "w"]])
def test_snapshot_matches_the_per_row_loop(tmp_path, properties):
    values = np.array([-0.0, 5e-324, 0.1, 1e16, 9999999999999998.0, -3.0, math.inf,
                       math.nan, -math.inf, 1 / 3, 1e-300, 12345.678])
    agents = ag.AgentSet(len(values), ["x", "y"], {"x": (0, 1), "y": (0, 1)}, properties)
    for k, p in enumerate(agents.props):
        agents.props[p][:] = np.roll(values, k)
    array_path = ag._write_snapshot(agents, tmp_path / "array", 3)
    loop_path = loop_write_snapshot(agents, tmp_path, 3)
    assert array_path.name == loop_path.name
    assert array_path.read_bytes() == loop_path.read_bytes()


def test_wrap_translation_leaves_neighbors_invariant():
    rng = np.random.default_rng(8)
    extents = np.array([10.0, 10.0])
    pos = rng.uniform(0.0, 10.0, size=(40, 2))
    base = ag.neighbor_pairs(pos, np.zeros(2), extents, 1.5)
    shifted = np.mod(pos + np.array([30.0, -20.0]), extents)
    moved = ag.neighbor_pairs(shifted, np.zeros(2), extents, 1.5)
    assert np.array_equal(base[0], moved[0]) and np.array_equal(base[1], moved[1])
