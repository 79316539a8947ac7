"""Lowering of operator terms and the SSP-RK3 integrator."""

import math

import numpy as np
import pytest

from simflow import documents as docs
from simflow import expr, kernel, library_path


def make_policy(schema):
    return docs.DiscretizationPolicy.from_json({
        "head": {"name": "p", "id": "p"},
        "operators": {"default": {"schema": schema}},
        "time_integration": {"schema": "rk3_dissipation", "sigma": 0.0,
                             "dissipation_order": 3},
    }, [])


def table(schema):
    return kernel._StencilTable(make_policy(schema), "default")


def phi_term():
    return docs.Algebraic(expr.Symbol("phi", "field"))


class TestLowering:
    def test_algebraic_is_pointwise(self):
        node = kernel.lower_term(phi_term(), table("4th_order_operators"))
        assert isinstance(node, kernel.Pointwise)
        assert kernel.node_radius(node) == 0

    def test_first_derivative(self):
        t = docs.DerivativeTerm("x", phi_term())
        node = kernel.lower_term(t, table("4th_order_operators"))
        assert isinstance(node, kernel.StencilApply)
        assert node.stencil.order == 1
        assert kernel.node_radius(node) == 2

    def test_second_derivative_direct(self):
        t = docs.DerivativeTerm("x", docs.DerivativeTerm("x", phi_term()))
        node = kernel.lower_term(t, table("4th_order_operators"))
        assert node.stencil.order == 2
        assert kernel.node_radius(node) == 2

    def test_second_derivative_recursive(self):
        t = docs.DerivativeTerm("x", docs.DerivativeTerm("x", phi_term()))
        node = kernel.lower_term(t, table("4th_order_recursive"))
        assert node.stencil.order == 1
        assert isinstance(node.inner, kernel.StencilApply)
        assert node.inner.stencil.order == 1
        assert kernel.node_radius(node) == 4

    def test_mixed_axes_compose(self):
        t = docs.DerivativeTerm("y", docs.DerivativeTerm("x", phi_term()))
        node = kernel.lower_term(t, table("4th_order_operators"))
        assert node.stencil.axis == "y" and node.stencil.order == 1
        assert node.inner.stencil.axis == "x"

    def test_sum_and_product(self):
        t = docs.SumTerm((phi_term(),
                          docs.ProductTerm((phi_term(), phi_term()))))
        node = kernel.lower_term(t, table("4th_order_operators"))
        assert isinstance(node, kernel.Combine) and node.op == "+"
        assert node.children[1].op == "*"

    def test_print_node_shapes(self):
        t = docs.DerivativeTerm("x", docs.DerivativeTerm("x", phi_term()))
        text = kernel.print_node(kernel.lower_term(t, table("4th_order_operators")))
        assert text == "stencil(m=2, axis=x, offsets=[-2,-1,0,1,2])(phi)"


class TestBuildKernel:
    def load(self):
        problem = docs.load_document(library_path("problems/wave_problem.json"))
        model = docs.load_document(library_path("models/wave_model.json"))
        return problem, model

    def test_wave_direct_halo(self):
        problem, model = self.load()
        policy = docs.load_document(library_path("policies/fourth_order.json"))
        discretized, prog = kernel.build_kernel(problem, policy, model)
        assert prog.halo == 3  # dissipation radius dominates the stencil radius
        assert prog.fields == ["phi", "K"]
        assert discretized.discrete_equations["K"].count("stencil(m=2") == 2
        assert "ko_dissipation(r=3, sigma=0.1, axis=all)" in discretized.discrete_equations["phi"]

    def test_wave_recursive_halo(self):
        problem, model = self.load()
        policy = docs.load_document(library_path("policies/fourth_order_recursive.json"))
        _, prog = kernel.build_kernel(problem, policy, model)
        assert prog.halo == 4

    def test_sigma_zero_drops_dissipation_terms(self):
        problem, model = self.load()
        policy = docs.load_document(library_path("policies/fourth_order.json"))
        policy.time_integration["sigma"] = 0.0
        discretized, prog = kernel.build_kernel(problem, policy, model)
        assert not prog.has_dissipation
        assert "ko_dissipation" not in discretized.discrete_equations["phi"]

    def test_invalid_model_refused(self):
        problem, model = self.load()
        policy = docs.load_document(library_path("policies/fourth_order.json"))
        model.fields = []
        model.evolution = []
        with pytest.raises(kernel.LoweringError):
            kernel.build_kernel(problem, policy, model)

    def test_pointwise_only_model_has_zero_halo(self):
        model = docs.document_from_json({
            "kind": "generic_pde_model",
            "head": {"name": "decay", "id": "decay-model"},
            "coordinates": {"spatial": ["x"], "time": "t"},
            "fields": ["u"],
            "evolution": [{"field": "u", "operators": [
                {"name": "default",
                 "terms": [{"term": "algebraic", "math": "-(u)"}]}]}],
        })
        problem, _ = self.load()
        policy = make_policy("4th_order_operators")
        problem.fields = ["u"]
        problem.spatial_coords = ["x"]
        problem.region.domain = {"x": (0.0, 1.0)}
        obj = problem.to_json()
        obj["region"]["initial_condition"] = [{"do": "assign", "target": "u", "expr": "1"}]
        obj["fields"] = ["u"]
        problem = docs.document_from_json(obj)
        _, prog = kernel.build_kernel(problem, policy, model)
        assert prog.halo == 0


class TestRk3:
    def test_exponential_decay_single_step(self):
        lam = -0.1
        out = kernel.rk3_step({"u": 1.0}, lambda s, t: {"u": lam * s["u"]}, 0.0, 1.0)
        assert abs(out["u"] - math.exp(lam)) < 1e-4

    def test_third_order_convergence(self):
        def integrate(n):
            u = {"u": 1.0}
            dt = 1.0 / n
            for k in range(n):
                u = kernel.rk3_step(u, lambda s, t: {"u": -s["u"]}, k * dt, dt)
            return abs(u["u"] - math.exp(-1.0))

        ratio = integrate(20) / integrate(40)
        assert abs(ratio - 8.0) < 0.8

    def test_zero_rhs_is_bitwise_identity(self):
        state = {"u": 0.1 + 0.2}  # deliberately non-representable sum
        out = kernel.rk3_step(state, lambda s, t: {"u": 0.0}, 0.0, 0.125)
        assert out["u"] == state["u"]

    def test_exactly_three_rhs_evaluations(self):
        calls = []

        def rhs(s, t):
            calls.append(dict(s))
            return {"u": 1.0}

        kernel.rk3_step({"u": 0.0}, rhs, 0.0, 0.5)
        assert len(calls) == 3

    def test_in_place_stages_bitwise_equal_plain_expressions(self):
        rng = np.random.default_rng(9)
        state = {f: rng.standard_normal((13, 17)) for f in ("u", "v")}
        before = {f: a.copy() for f, a in state.items()}
        forcing = rng.standard_normal((13, 17))

        def rhs(s, t):
            return {"u": np.sin(s["v"]) * forcing + t, "v": s["u"] * s["v"] - 3.0 * t}

        inputs = []

        def recording_rhs(s, t):
            inputs.append({f: a.copy() for f, a in s.items()})
            return rhs(s, t)

        t, dt = 0.3, 0.0371
        out = kernel.rk3_step(state, recording_rhs, t, dt)

        k1 = rhs(before, t)
        s1 = {f: before[f] + dt * k1[f] for f in before}
        k2 = rhs(s1, t + dt)
        s2 = {f: before[f] + dt * (k1[f] + k2[f]) / 4.0 for f in before}
        k3 = rhs(s2, t + dt / 2.0)
        final = {f: before[f] + dt * (k1[f] + k2[f] + 4.0 * k3[f]) / 6.0 for f in before}

        def bits(arrays):
            return {f: a.view(np.uint64).tolist() for f, a in arrays.items()}

        assert [bits(s) for s in inputs] == [bits(before), bits(s1), bits(s2)]
        assert bits(out) == bits(final)
        assert bits(state) == bits(before)

    def test_stage_times(self):
        times = []

        def rhs(s, t):
            times.append(t)
            return {"u": 0.0}

        kernel.rk3_step({"u": 0.0}, rhs, 2.0, 0.5)
        assert times == [2.0, 2.5, 2.25]
