"""Expression parser, printers, and evaluator tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simflow import expr
from simflow.expr import (
    ArityError,
    Binary,
    Call,
    EvalEnvironment,
    EvaluationError,
    Indexed,
    Number,
    ParseError,
    Symbol,
    Unary,
    UnknownSymbolError,
    evaluate,
    evaluate_array,
    free_symbols,
    parse_expression,
    to_latex,
    to_text,
)

SYMBOLS = {"x": "coordinate", "y": "coordinate", "a": "parameter", "u": "field"}


def ev(text, **bindings):
    e = parse_expression(text, SYMBOLS)
    return evaluate(e, EvalEnvironment(bindings=bindings))


class TestParsing:
    def test_precedence_mul_over_add(self):
        assert ev("2 + 3 * 4") == 14.0

    def test_precedence_power_over_unary_minus(self):
        # -x^2 must parse as -(x^2)
        assert ev("-x^2", x=2.0) == -4.0

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_power_negative_exponent(self):
        assert ev("2^-2") == 0.25

    def test_single_equals_is_comparison(self):
        assert ev("x = 1", x=1.0) == 1.0
        assert ev("x = 1", x=2.0) == 0.0

    def test_and_binds_looser_than_comparison(self):
        assert ev("1 < 2 and 3 > 2") == 1.0
        assert ev("x >= 0 and x <= 1", x=0.5) == 1.0

    def test_or_binds_loosest(self):
        assert ev("0 and 1 or 1") == 1.0

    def test_parenthesized(self):
        assert ev("(2 + 3) * 4") == 20.0

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            parse_expression("x + nope", SYMBOLS)

    def test_arity_error(self):
        with pytest.raises(ArityError):
            parse_expression("sin(x, y)", SYMBOLS)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("1 + 2 )", SYMBOLS)

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_expression("   ", SYMBOLS)

    def test_indexed_read(self):
        e = parse_expression("u($cv)", SYMBOLS)
        assert isinstance(e, Indexed)
        assert e.name == "u" and e.kind == "field"

    def test_nested_indexed(self):
        e = parse_expression("u($es($ce))", SYMBOLS)
        assert isinstance(e, Indexed)
        assert isinstance(e.arg, Indexed)

    def test_builtin_without_declaration(self):
        e = parse_expression("$rnd_uniform", {})
        assert e == Symbol("$rnd_uniform", "builtin")


class TestEvaluation:
    def test_atan2_negative_real_axis_is_pi(self):
        assert ev("atan2(0, -1)") == math.pi

    def test_atan2_positive_real_axis(self):
        assert ev("atan2(0, 1)") == 0.0

    def test_mod_floored(self):
        assert ev("mod(5, 3)") == 2.0
        assert ev("mod(-1, 3)") == 2.0

    def test_floor(self):
        assert ev("floor(-1.5)") == -2.0

    def test_division_by_zero_names_subexpression(self):
        with pytest.raises(EvaluationError) as err:
            ev("1 / (x - 1)", x=1.0)
        assert "(x - 1)" in str(err.value)

    def test_sqrt_negative(self):
        with pytest.raises(EvaluationError):
            ev("sqrt(x)", x=-1.0)

    @pytest.mark.parametrize("text,message", [
        ("exp(x * 1000)", "exp fault: math range error in 'exp((x * 1000))'"),
        ("sin(x * 1e308 * 10)", "sin fault: math domain error in 'sin(((x * 1e+308) * 10))'"),
        ("floor(x * 1e308 * 10)", "floor fault: cannot convert float infinity to integer"),
    ])
    def test_math_faults_are_evaluation_errors(self, text, message):
        with pytest.raises(EvaluationError) as err:
            ev(text, x=1.0)
        assert str(err.value).startswith(message)

    def test_comparison_yields_float(self):
        assert ev("3 > 2") == 1.0
        assert ev("3 != 3") == 0.0

    def test_unbound_symbol_is_hard_error(self):
        with pytest.raises(EvaluationError):
            ev("x + 1")

    def test_gaussian_profile(self):
        # pulse value at the origin equals the amplitude
        assert ev("a * exp(-(x^2 + y^2) / 0.1)", a=2.0, x=0.0, y=0.0) == 2.0


class TestArrayEvaluation:
    def test_matches_scalar_on_grid(self):
        e = parse_expression("a * exp(-(x^2 + y^2) / 0.1) + u", SYMBOLS)
        xs = np.linspace(-0.5, 0.5, 7)
        ys = np.linspace(-0.5, 0.5, 5)
        u = np.outer(np.sin(xs), np.cos(ys))
        arr = evaluate_array(e, {"a": 1.5, "x": xs[:, None], "y": ys[None, :], "u": u})
        for i, xv in enumerate(xs):
            for j, yv in enumerate(ys):
                scalar = evaluate(e, EvalEnvironment(
                    bindings={"a": 1.5, "x": xv, "y": yv, "u": u[i, j]}))
                assert arr[i, j] == scalar

    def test_logical_ops(self):
        e = parse_expression("x > 0 and x < 1", SYMBOLS)
        out = evaluate_array(e, {"x": np.array([-0.5, 0.5, 1.5])})
        assert list(out) == [0.0, 1.0, 0.0]

    def test_indexed_rejected(self):
        e = parse_expression("u($cv)", SYMBOLS)
        with pytest.raises(EvaluationError):
            evaluate_array(e, {"u": np.zeros(3)})


def _exprs(depth):
    leaf = st.one_of(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(Number),
        st.sampled_from([Symbol(n, k) for n, k in SYMBOLS.items()]),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        sub.map(lambda e: Unary("neg", e)),
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda t: Binary(t[0], t[1], t[2])),
        st.tuples(st.sampled_from([">=", ">", "<=", "<", "==", "!=", "and", "or"]),
                  sub, sub).map(lambda t: Binary(t[0], t[1], t[2])),
        sub.map(lambda e: Call("sin", (e,))),
        st.tuples(sub, sub).map(lambda t: Call("atan2", t)),
    )


@settings(max_examples=200)
@given(_exprs(3))
def test_print_parse_round_trip(e):
    # canonical printing is exactly invertible
    assert parse_expression(to_text(e), SYMBOLS) == e


@given(_exprs(2))
def test_latex_total(e):
    # every expression renders without error and deterministically
    assert to_latex(e) == to_latex(e)


def test_free_symbols():
    e = parse_expression("a * u($cv) + x", SYMBOLS)
    names = {n for n, _ in free_symbols(e)}
    assert names == {"a", "u", "$cv", "x"}
