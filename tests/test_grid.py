"""Grid runtime: halos, initial data, stencil application, VTK, time loop."""

import contextlib
import logging

import numpy as np
import pytest

from simflow import algorithm as alg
from simflow import documents as docs
from simflow import expr
from simflow import grid as gridmod
from simflow import kernel, library_path
from simflow.params import RunConfig
from simflow.stencils import (Stencil, StencilError, centered_stencil, fd_weights,
                              ko_dissipation)
from test_lockstep import assert_bitwise_equal, interpreted


def make_1d(n=4, halo=2):
    g = gridmod.make_grid(["x"], [n], {"x": (0.0, 1.0)}, halo)
    g.allocate(["u"])
    return g


class TestHalos:
    def test_1d_periodic_wrap(self):
        g = make_1d()
        g.data["u"][g.interior()] = [1.0, 2.0, 3.0, 4.0]
        gridmod.exchange_halos(g)
        assert list(g.data["u"]) == [3.0, 4.0, 1.0, 2.0, 3.0, 4.0, 1.0, 2.0]

    def test_2d_corner_wrap(self):
        g = gridmod.make_grid(["x", "y"], [4, 4], {"x": (0, 1), "y": (0, 1)}, 1)
        g.allocate(["u"])
        inner = np.arange(16, dtype=float).reshape(4, 4)
        g.data["u"][g.interior()] = inner
        gridmod.exchange_halos(g)
        # corner ghost must hold the diagonally opposite interior cell
        assert g.data["u"][0, 0] == inner[-1, -1]
        assert g.data["u"][-1, -1] == inner[0, 0]
        assert g.data["u"][0, -1] == inner[-1, 0]

    def test_halo_wider_than_interior_rejected(self):
        with pytest.raises(gridmod.GridRuntimeError):
            gridmod.make_grid(["x"], [2], {"x": (0.0, 1.0)}, 3)


def test_cell_centers():
    g = make_1d(n=4, halo=0)
    assert list(g.coords_1d(0)) == [0.125, 0.375, 0.625, 0.875]


def reference_apply_stencil(arr, stencil, axis_idx, dx):
    """Slice-accumulate stencil application (oracle for apply_stencil)."""
    out = np.zeros_like(arr)
    size = arr.shape[axis_idx]
    r = stencil.radius
    sl_out = gridmod._axis_slice(arr.ndim, axis_idx, slice(r, size - r))
    acc = None
    for off, w in zip(stencil.offsets, stencil.weights):
        sl_in = gridmod._axis_slice(arr.ndim, axis_idx, slice(r + off, size - r + off))
        term = w * arr[sl_in]
        acc = term if acc is None else acc + term
    if stencil.order > 0:
        acc = acc / dx ** stencil.order
    out[sl_out] = acc
    return out


# every stencil the shipped policies lower to: direct orders 1-4 (order 1
# is also the recursive rule's building block) and Kreiss-Oliger r = 2, 3, 4
SHIPPED_STENCILS = (
    [centered_stencil(m, kernel._direct_width(m), "x") for m in (1, 2, 3, 4)]
    + [ko_dissipation(r, 0.1, 0.05, "x") for r in (2, 3, 4)])
PADDED_SHAPES = [(23,), (17, 19), (11, 9, 13)]


def assert_close_on_valid(got, want, axis_idx, r):
    valid = gridmod._axis_slice(got.ndim, axis_idx, slice(r, got.shape[axis_idx] - r))
    scale = np.max(np.abs(want[valid]))
    assert np.max(np.abs(got[valid] - want[valid])) <= 1e-13 * scale


class TestStencilApplication:
    @pytest.mark.parametrize("shape", PADDED_SHAPES, ids=lambda s: f"{len(s)}d")
    @pytest.mark.parametrize("stencil", SHIPPED_STENCILS,
                             ids=lambda s: f"m{s.order}-w{len(s.offsets)}")
    def test_matches_slice_accumulate_reference(self, stencil, shape):
        arr = np.random.default_rng(len(shape)).standard_normal(shape)
        for d in range(len(shape)):
            got = gridmod.apply_stencil(arr, stencil, d, 0.05)
            want = reference_apply_stencil(arr, stencil, d, 0.05)
            assert_close_on_valid(got, want, d, stencil.radius)
            margin = np.ones(shape, dtype=bool)
            margin[gridmod._axis_slice(len(shape), d, slice(stencil.radius,
                                                            shape[d] - stencil.radius))] = False
            assert np.all(got[margin] == 0.0)

    @pytest.mark.parametrize("shape", PADDED_SHAPES[1:], ids=lambda s: f"{len(s)}d")
    def test_recursive_composition_matches_reference(self, shape):
        d1 = centered_stencil(1, 5, "x")
        arr = np.random.default_rng(3).standard_normal(shape)
        for d in range(len(shape)):
            got = gridmod.apply_stencil(gridmod.apply_stencil(arr, d1, d, 0.05), d1, d, 0.05)
            want = reference_apply_stencil(reference_apply_stencil(arr, d1, d, 0.05),
                                           d1, d, 0.05)
            assert_close_on_valid(got, want, d, 4)

    @pytest.mark.parametrize("stencil", [
        Stencil(1, "x", (0, 1, 2), tuple(float(w) for w in fd_weights(1, (0, 1, 2)))),
        Stencil(0, "x", (-1, 0, 1), (1.0, 2.0, 5.0)),
        Stencil(1, "x", (-1, 0, 1), (-0.5, 1.0, 0.5)),
    ], ids=["one-sided", "lopsided-weights", "odd-order-centre-tap"])
    def test_non_centered_stencil_rejected(self, stencil):
        arr = np.random.default_rng(4).standard_normal((17, 19))
        with pytest.raises(StencilError, match="not centered"):
            gridmod.apply_stencil(arr, stencil, 0, 0.05)

    def test_non_contiguous_out_rejected(self):
        arr = np.random.default_rng(4).standard_normal((17, 19))
        out = np.zeros((19, 17)).T
        with pytest.raises(ValueError, match="C-contiguous"):
            gridmod.apply_stencil(arr, SHIPPED_STENCILS[0], 0, 0.05, out=out)

    def test_accumulates_into_out_and_keeps_its_margins(self):
        rng = np.random.default_rng(6)
        arr = rng.standard_normal((17, 19))
        s = SHIPPED_STENCILS[1]
        r = s.radius
        for d in range(2):
            before = rng.standard_normal((17, 19))
            out = before.copy()
            assert gridmod.apply_stencil(arr, s, d, 0.05, out=out) is out
            want = before + reference_apply_stencil(arr, s, d, 0.05)
            assert_close_on_valid(out, want, d, r)
            for m in (slice(0, r), slice(arr.shape[d] - r, None)):
                edge = gridmod._axis_slice(2, d, m)
                assert np.array_equal(out[edge], before[edge])

    def test_second_derivative_of_parabola(self):
        # u = x^2 has constant second derivative 2, exactly
        g = make_1d(n=16, halo=2)
        x = g.coords_1d(0)
        s = centered_stencil(2, 5, "x")
        out = gridmod.apply_stencil(x ** 2, s, 0, g.dx[0])
        assert np.allclose(out[2:-2], 2.0, atol=1e-10)

    def test_margin_left_untouched(self):
        s = centered_stencil(1, 5, "x")
        out = gridmod.apply_stencil(np.arange(10.0), s, 0, 1.0)
        assert out[0] == out[1] == out[-1] == out[-2] == 0.0


def wave_setup(policy_name="policies/fourth_order.json"):
    problem = docs.load_document(library_path("problems/wave_problem.json"))
    model = docs.load_document(library_path("models/wave_model.json"))
    policy = docs.load_document(library_path(policy_name))
    _, prog = kernel.build_kernel(problem, policy, model)
    return problem, prog


def with_initial_condition(problem, statements):
    obj = problem.to_json()
    obj["region"]["initial_condition"] = statements
    return docs.document_from_json(obj)


def initial_fields(problem, prog, n, seed=0):
    g = gridmod.make_grid(["x", "y"], [n, n], problem.region.domain, prog.halo)
    g.allocate(prog.fields)
    gridmod.apply_initial_conditions(g, problem, problem.parameter_values(), seed)
    return g.data


class TestInitialConditions:
    @pytest.mark.parametrize("kind", ["shipped", "branching"])
    def test_compiled_matches_interpreter(self, kind, caplog):
        problem, prog = wave_setup()
        if kind == "branching":
            shipped = problem.to_json()["region"]["initial_condition"]
            problem = with_initial_condition(problem, [
                {"do": "assign", "target": "u", "expr": "$rnd_uniform"},
                {"do": "if", "cond": "u < 0.5", "then": shipped, "else": [
                    {"do": "assign", "target": "phi", "expr": "sin(x) * $rnd_int_1 + u"},
                    {"do": "assign", "target": "K", "expr": "y ^ 2 - t"}]}])
        caplog.set_level(logging.DEBUG, logger="simflow")
        compiled = initial_fields(problem, prog, 101, seed=7)
        assert not any("rerunning interpreted" in m for m in caplog.messages)
        with interpreted():
            reference = initial_fields(problem, prog, 101, seed=7)
        assert_bitwise_equal(compiled, reference)

    def test_fault_keeps_the_writes_before_it(self):
        # cell centres are -0.375, -0.125, 0.125, 0.375; row-major cell 2 faults
        problem, prog = wave_setup()
        problem = with_initial_condition(problem, [
            {"do": "assign", "target": "phi", "expr": "x + 1"},
            {"do": "assign", "target": "K", "expr": "1 / (y - 0.125)"}])
        g = gridmod.make_grid(["x", "y"], [4, 4], problem.region.domain, prog.halo)
        g.allocate(prog.fields)
        with pytest.raises(expr.EvaluationError, match="division by zero"):
            gridmod.apply_initial_conditions(g, problem, problem.parameter_values())
        phi, K = g.interior(g.data["phi"]), g.interior(g.data["K"])
        assert phi[0, :3].tolist() == [0.625] * 3 and K[0, :2].tolist() == [-2.0, -4.0]
        assert not phi.ravel()[3:].any() and not K.ravel()[2:].any()

    @pytest.mark.parametrize("target,value,message", [
        ("phi", "phi(3)", "indexed symbol 'phi' is not valid"),
        ("phi", "x($rnd_int_1)", "indexed symbol 'x' is not valid"),
        ("K(0)", "1", "indexed writes are not valid"),
        ("x", "1", "write to undeclared field 'x'"),
    ])
    def test_invalid_access_faults_like_the_interpreter(self, target, value, message):
        # validation rejects indexed symbols; run unvalidated, both paths must refuse
        problem, prog = wave_setup()
        problem = with_initial_condition(problem, [
            {"do": "assign", "target": "K", "expr": "0"},
            {"do": "assign", "target": target, "expr": value}])
        errors = []
        for context in (contextlib.nullcontext, interpreted):
            with context(), pytest.raises((expr.EvaluationError, alg.AlgorithmError)) as err:
                initial_fields(problem, prog, 4)
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1]
        assert message in errors[0][1]

    def test_initial_condition_logs_compiled(self, caplog):
        problem, prog = wave_setup()
        caplog.set_level(logging.DEBUG, logger="simflow")
        initial_fields(problem, prog, 8)
        assert [m for m in caplog.messages if m.startswith("initial condition")] == [
            "initial condition: compiled"]

    def test_gaussian_peak_at_origin(self):
        problem, prog = wave_setup()
        g = gridmod.make_grid(["x", "y"], [25, 25], problem.region.domain, prog.halo)
        g.allocate(prog.fields)
        gridmod.apply_initial_conditions(g, problem, problem.parameter_values())
        phi = g.interior(g.data["phi"])
        assert phi.max() == phi[12, 12]  # odd count puts a cell center at 0
        assert np.all(g.interior(g.data["K"]) == 0.0)


def reference_vtk_bytes(axes, bounds, counts, fields, title):
    """Legacy VTK built one format(float(v), ".17g") call per value (oracle)."""
    def fmt(v):
        return format(float(v), ".17g")

    ndim = len(axes)
    dims = [counts[d] + 1 if d < ndim else 1 for d in range(3)]
    origin = [bounds[axes[d]][0] if d < ndim else 0.0 for d in range(3)]
    spacing = [(bounds[axes[d]][1] - bounds[axes[d]][0]) / counts[d] if d < ndim else 1.0
               for d in range(3)]
    lines = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET STRUCTURED_POINTS",
             "DIMENSIONS {} {} {}".format(*dims),
             "ORIGIN " + " ".join(fmt(v) for v in origin),
             "SPACING " + " ".join(fmt(v) for v in spacing),
             f"CELL_DATA {int(np.prod(counts))}"]
    for name, values in fields.items():
        lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        lines += [fmt(v) for v in values.ravel(order="F")]
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestVtk:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((6, 4))
        path = tmp_path / "u_0.vtk"
        gridmod.write_vtk((["x", "y"], {"x": (0, 1), "y": (0, 1)}, (6, 4), {"u": data}), path)
        back = gridmod.read_vtk_cell_data(path)
        assert np.array_equal(back["u"], data)

    def test_bytes_match_per_value_format(self, tmp_path):
        special = [-0.0, 5e-324, 1e308, 0.1, 0.0, 1.0, -3.0, 2.0 ** 53, 1e16]
        rng = np.random.default_rng(8)
        cases = [
            (["x"], {"x": (0.0, 1.0)}, (14,),
             {"u": np.concatenate([special, rng.standard_normal(5)])}),
            (["x", "y"], {"x": (-0.5, 0.5), "y": (0.0, 0.3)}, (3, 5),
             {"u": np.concatenate([special, rng.standard_normal(6)]).reshape(3, 5),
              "v": rng.standard_normal((3, 5))}),
        ]
        for i, grid_like in enumerate(cases):
            path = tmp_path / f"case{i}.vtk"
            gridmod.write_vtk(grid_like, path, title="t")
            assert path.read_bytes() == reference_vtk_bytes(*grid_like, title="t")
            back = gridmod.read_vtk_cell_data(path)
            for name, values in grid_like[3].items():
                assert np.array_equal(back[name].view(np.uint64), values.view(np.uint64))

    def test_header_shape(self, tmp_path):
        path = tmp_path / "u_0.vtk"
        gridmod.write_vtk((["x", "y"], {"x": (-0.5, 0.5), "y": (-0.5, 0.5)}, (4, 4),
                           {"u": np.zeros((4, 4))}), path)
        text = path.read_text()
        assert "DATASET STRUCTURED_POINTS" in text
        assert "DIMENSIONS 5 5 1" in text
        assert "CELL_DATA 16" in text


def run_wave(tmp_path, tag, cells=20, steps=8):
    problem, prog = wave_setup()
    dt = 0.005
    config = RunConfig({"dt": dt, "cells": cells, "t_end": steps * dt,
                        "output_interval": 1000},
                       output_dir=tmp_path / tag)
    return gridmod.run(problem, prog, config)


class TestTimeLoop:
    def test_step_count_and_outputs(self, tmp_path):
        report = run_wave(tmp_path, "a", steps=8)
        assert report.steps == 8
        assert report.final_time == 8 * 0.005
        assert all(np.isfinite(v).all() for v in report.final_fields.values())
        # initial dump plus final dump
        assert len(report.outputs) == 4

    def test_xy_symmetry_preserved(self, tmp_path):
        report = run_wave(tmp_path, "sym", cells=24, steps=10)
        phi = report.final_fields["phi"]
        assert np.max(np.abs(phi - phi.T)) < 1e-12

    def test_energy_stable_without_dissipation(self, tmp_path):
        problem, _ = wave_setup()
        policy = docs.load_document(library_path("policies/fourth_order.json"))
        policy.time_integration["sigma"] = 0.0
        model = docs.load_document(library_path("models/wave_model.json"))
        _, prog = kernel.build_kernel(problem, policy, model)
        config = RunConfig({"dt": 0.005, "cells": 50, "t_end": 0.5,
                            "output_interval": 100000},
                           output_dir=tmp_path / "energy")
        g0 = gridmod.make_grid(["x", "y"], [50, 50], problem.region.domain, prog.halo)
        g0.allocate(prog.fields)
        gridmod.apply_initial_conditions(g0, problem, problem.parameter_values())
        report = gridmod.run(problem, prog, config)

        def ddx(a, dx, axis):
            # periodic 4th-order centered difference
            return (np.roll(a, 2, axis) - 8 * np.roll(a, 1, axis)
                    + 8 * np.roll(a, -1, axis) - np.roll(a, -2, axis)) / (12 * dx)

        def energy(phi, K, dx):
            gx = ddx(phi, dx, 0)
            gy = ddx(phi, dx, 1)
            return np.sum(K ** 2 + gx ** 2 + gy ** 2) * dx * dx

        e0 = energy(g0.interior(g0.data["phi"]), g0.interior(g0.data["K"]), g0.dx[0])
        e1 = energy(report.final_fields["phi"], report.final_fields["K"], g0.dx[0])
        assert abs(e1 - e0) / e0 < 1e-3

    def test_cfl_warning_goes_to_the_simflow_logger(self, tmp_path, caplog):
        problem, prog = wave_setup()
        config = RunConfig({"dt": 0.05, "cells": 20, "t_end": 0.05,
                            "output_interval": 1000}, output_dir=tmp_path / "cfl")
        with caplog.at_level(logging.WARNING, logger="simflow"):
            gridmod.run(problem, prog, config)
        warned = [r.getMessage() for r in caplog.records
                  if r.name == "simflow" and r.levelno == logging.WARNING]
        assert len(warned) == 1 and warned[0].startswith("dt=0.05 exceeds the CFL guidance")

    def test_missing_dt_rejected(self, tmp_path):
        problem, prog = wave_setup()
        config = RunConfig({"cells": 20}, output_dir=tmp_path / "nod")
        with pytest.raises(gridmod.GridRuntimeError):
            gridmod.run(problem, prog, config)

    def test_grid_narrower_than_halo_rejected(self, tmp_path):
        with pytest.raises(gridmod.GridRuntimeError, match="halo"):
            run_wave(tmp_path, "narrow", cells=2)

    def test_non_finite_initial_data_reported_at_step_0(self, tmp_path):
        problem, prog = wave_setup()
        obj = problem.to_json()
        # overflows to inf without a fault (a zero divisor would fault)
        obj["region"]["initial_condition"][0]["expr"] = "a * 1e308 * 10"
        bad = docs.document_from_json(obj)
        config = RunConfig({"dt": 0.005, "cells": 20, "t_end": 0.04},
                           output_dir=tmp_path / "nan")
        with pytest.raises(gridmod.GridRuntimeError,
                           match="non-finite values in field 'phi' at step 0"):
            gridmod.run(bad, prog, config)
        assert not (tmp_path / "nan").exists()
