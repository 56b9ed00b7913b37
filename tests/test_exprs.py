"""Expression language: parsing, printing, evaluation, differentiation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from revspec.exprs import (MAX_DEPTH, Add, Call, Const, Div, EvalDomainError,
                           Mul, Neg, NonIntegerExponentError, Pow, Sub,
                           UnknownIdentifierError, Var, ExprSyntaxError,
                           differentiate, evaluate, parse, to_string)
from revspec.profile import profile_from_text, require_valid


def test_parse_simple_polynomial():
    e = parse("1 - x^2")
    assert e == Sub(Const(1.0), Pow(Var("x"), 2))


def test_parse_full_grammar():
    e = parse("10*(1 - x^2) / (1 + 9*x^36)")
    assert evaluate(e, 0.0) == 10.0
    assert evaluate(e, 1.0) == 0.0


def test_power_binds_tighter_than_unary_minus():
    assert evaluate(parse("-x^2"), 3.0) == -9.0


def test_power_right_associative_via_parens_not_needed():
    # x^2^3 is not in the grammar (integer literal exponent only)
    with pytest.raises(ExprSyntaxError):
        parse("x^2^3")


def test_subtraction_left_associative():
    assert evaluate(parse("4 - 2 - 1"), 0.0) == 1.0


def test_unary_minus_chain():
    assert evaluate(parse("--x"), 5.0) == 5.0


@pytest.mark.parametrize("text,value", [
    ("sqrt(4)", 2.0),
    ("sin(0)", 0.0),
    ("cos(0)", 1.0),
    ("exp(0)", 1.0),
    ("log(1)", 0.0),
])
def test_function_calls(text, value):
    assert evaluate(parse(text), 0.0) == pytest.approx(value, abs=1e-15)


def test_syntax_error_reports_offset():
    with pytest.raises(ExprSyntaxError) as ei:
        parse("1-x^^2")
    assert ei.value.offset == 4
    assert "offset 4" in str(ei.value)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse("1 - y^2")
    with pytest.raises(UnknownIdentifierError):
        parse("frob(x)")


def test_non_integer_exponent_rejected():
    with pytest.raises(NonIntegerExponentError):
        parse("x^2.5")
    with pytest.raises(NonIntegerExponentError):
        parse("x^2.0")


@pytest.mark.parametrize("text", [
    "(" * 2000 + "1 - x^2" + ")" * 2000,
    "1 - x^2" + " + 0*x" * 1500,
    "-" * 1200 + "x",
], ids=["parentheses", "sum-terms", "unary-minus"])
def test_deep_nesting_is_a_syntax_error(text):
    with pytest.raises(ExprSyntaxError, match="nested too deeply"):
        parse(text)


def test_nesting_just_under_the_bound_validates():
    # "1 - x^2" is three levels deep and each "+ 0*x" adds one
    text = "1 - x^2" + " + 0*x" * (MAX_DEPTH - 3)
    require_valid(profile_from_text(text))
    with pytest.raises(ExprSyntaxError):
        parse(text + " + 0*x")
    assert parse("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH) == Var("x")
    with pytest.raises(ExprSyntaxError):
        parse("(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1))


def test_deepest_accepted_quotient_stays_within_the_recursion_limit():
    # nested quotients grow fastest under differentiation: three levels per
    # level and derivative, and printing recurses twice per level
    text = "x"
    for _ in range(MAX_DEPTH - 1):
        text = f"x/({text})"
    e = parse(text)
    d2 = differentiate(differentiate(e))
    assert np.all(np.isfinite(evaluate(d2, np.linspace(0.5, 0.9, 5))))
    assert to_string(d2).startswith("(")


def test_negative_exponent_allowed():
    assert evaluate(parse("x^-2"), 2.0) == 0.25


def test_empty_and_trailing_garbage():
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("1 + x)")


def test_evaluate_vectorized():
    xs = np.linspace(-1, 1, 7)
    out = evaluate(parse("x^2 + 1"), xs)
    assert isinstance(out, np.ndarray)
    np.testing.assert_allclose(out, xs**2 + 1)


def test_evaluate_scalar_returns_float():
    v = evaluate(parse("x + 1"), 1.0)
    assert isinstance(v, float) and v == 2.0


def test_division_by_zero_raises():
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/(1 - x)"), 1.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/(1 - x)"), np.array([0.0, 1.0]))


def test_sqrt_and_log_domains():
    with pytest.raises(EvalDomainError):
        evaluate(parse("sqrt(x)"), -1.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("log(x)"), 0.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("x^-1"), 0.0)


def test_domain_error_carries_subexpression():
    with pytest.raises(EvalDomainError) as ei:
        evaluate(parse("1 + sqrt(x - 2)"), 0.0)
    assert ei.value.subexpression is not None


def test_derivative_basics():
    assert evaluate(differentiate(parse("x^3")), 2.0) == 12.0
    assert evaluate(differentiate(parse("sin(x)")), 0.0) == 1.0
    d = differentiate(parse("1 - x^2"))
    assert evaluate(d, 0.5) == -1.0


def test_second_derivative_of_round_profile_constant():
    d2 = differentiate(differentiate(parse("1 - x^2")))
    xs = np.linspace(-1, 1, 11)
    np.testing.assert_allclose(evaluate(d2, xs), -2.0)


def test_to_string_round_trips_meaning():
    for text in ["1 - x^2", "10*(1 - x^2) / (1 + 9*x^36)",
                 "-(x + 1)*x^-3", "sqrt(1 - x^2) + sin(x)*cos(x)",
                 "2 - x - 1", "x/ (2*x + 1) / 3"]:
        e = parse(text)
        again = parse(to_string(e))
        xs = np.linspace(-0.93, 0.91, 16)
        np.testing.assert_allclose(evaluate(again, xs), evaluate(e, xs),
                                   rtol=1e-15)


# --- property tests -------------------------------------------------------

_leaf = st.one_of(
    st.floats(min_value=-4, max_value=4, allow_nan=False,
              allow_infinity=False).map(lambda v: Const(round(v, 3))),
    st.just(Var("x")),
)


def _combine(children):
    binary = st.tuples(children, children)
    return st.one_of(
        binary.map(lambda t: Add(*t)),
        binary.map(lambda t: Sub(*t)),
        binary.map(lambda t: Mul(*t)),
        children.map(Neg),
        st.tuples(children, st.integers(min_value=0, max_value=5)).map(
            lambda t: Pow(t[0], t[1])),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), children).map(
            lambda t: Call(t[0], t[1])),
    )


_exprs = st.recursive(_leaf, _combine, max_leaves=14)


@given(_exprs)
def test_print_parse_round_trip_is_identity_on_values(e):
    """Printing then reparsing never changes what the expression computes."""
    text = to_string(e)
    e2 = parse(text)
    xs = np.linspace(-1.5, 1.5, 13)
    v1 = np.asarray(evaluate(e, xs), dtype=float)
    v2 = np.asarray(evaluate(e2, xs), dtype=float)
    if np.all(np.isfinite(v1)):
        np.testing.assert_allclose(v2, v1, rtol=1e-12, atol=1e-12)


@given(_exprs, st.floats(min_value=-1.2, max_value=1.2, allow_nan=False))
def test_symbolic_derivative_matches_finite_difference(e, x0):
    """Central difference of the evaluator agrees with the symbolic rule."""
    d = differentiate(e)
    h = 1e-5
    try:
        fd = (evaluate(e, x0 + h) - evaluate(e, x0 - h)) / (2 * h)
        sym = evaluate(d, x0)
    except EvalDomainError:
        return
    if not (math.isfinite(fd) and math.isfinite(sym)):
        return
    if max(abs(evaluate(e, x0 + h)), abs(evaluate(e, x0 - h))) > 1e6:
        return  # cancellation noise swamps the step size
    assert abs(sym - fd) <= 1e-4 * max(1.0, abs(sym), abs(fd))
