"""Expression language: parsing, printing, evaluation, differentiation."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, strategies as st

from revspec.exprs import (MAX_DEPTH, Add, Call, Const, Div, EvalDomainError,
                           Mul, Neg, NonIntegerExponentError, Pow, Sub,
                           UnknownIdentifierError, Var, ExprSyntaxError,
                           _compile, _run, differentiate, evaluate, parse,
                           to_string)
from revspec.families import BUILTIN_EXPRESSIONS
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


# --- the compiled evaluator against a recursive walk ------------------------

def _walk(e, x):
    """The recursive evaluator the compiled programs replace, kept as the
    reference: one visit per node, children left to right."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return x
    if isinstance(e, Neg):
        return -_walk(e.arg, x)
    if isinstance(e, Add):
        return _walk(e.left, x) + _walk(e.right, x)
    if isinstance(e, Sub):
        return _walk(e.left, x) - _walk(e.right, x)
    if isinstance(e, Mul):
        return _walk(e.left, x) * _walk(e.right, x)
    if isinstance(e, Div):
        num, den = _walk(e.left, x), _walk(e.right, x)
        if np.any(np.asarray(den) == 0.0):
            raise EvalDomainError("division by zero", to_string(e))
        return num / den
    if isinstance(e, Pow):
        base = _walk(e.base, x)
        if e.exponent < 0 and np.any(np.asarray(base) == 0.0):
            raise EvalDomainError("zero base with negative exponent", to_string(e))
        if isinstance(base, np.ndarray) and not -1 <= e.exponent <= 2:
            # integer powers of arrays: |u|^n, with u's sign for odd n
            power = np.abs(base) ** e.exponent
            return np.copysign(power, base) if e.exponent % 2 else power
        try:
            return base ** e.exponent
        except OverflowError:  # a Python float: a power of constants alone
            raise EvalDomainError("overflow", to_string(e)) from None
    arg = _walk(e.arg, x)
    a = np.asarray(arg)
    if e.func == "sqrt" and np.any(a < 0.0):
        raise EvalDomainError("sqrt of negative argument", to_string(e))
    if e.func == "log" and np.any(a <= 0.0):
        raise EvalDomainError("log of non-positive argument", to_string(e))
    return getattr(np, e.func)(arg)


def _reference(e, x):
    arr = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # a scalar walks as a one-element array, on the array's ufunc loops
        res = _walk(e, arr.reshape(1) if arr.ndim == 0 else arr)
    if arr.ndim == 0:
        return np.asarray(res, dtype=float).item(0)
    return np.broadcast_to(np.asarray(res, dtype=float), arr.shape).copy()


def _outcome(fn, e, x):
    """The bytes of the value, or the error with the subexpression it names."""
    try:
        return ("value", np.asarray(fn(e, x), dtype=float).tobytes())
    except EvalDomainError as err:
        return ("domain", str(err), err.subexpression)
    except (OverflowError, ZeroDivisionError) as err:
        return (type(err).__name__, str(err))


def _assert_same_as_the_walk(e, xs):
    for x in [*xs.tolist(), xs]:
        assert _outcome(evaluate, e, x) == _outcome(_reference, e, x)


# the random trees above, widened by the operations with domain checks
_checked_leaf = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 0.5]).map(Const), st.just(Var("x")))


def _combine_checked(children):
    binary = st.tuples(children, children)
    return st.one_of(
        _combine(children),
        binary.map(lambda t: Div(*t)),
        st.tuples(children, st.integers(min_value=-3, max_value=-1)).map(
            lambda t: Pow(t[0], t[1])),
        st.tuples(st.sampled_from(["sqrt", "log"]), children).map(
            lambda t: Call(t[0], t[1])),
    )


_checked_exprs = st.recursive(_checked_leaf, _combine_checked, max_leaves=8)
_XS = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


@given(_checked_exprs)
def test_compiled_evaluation_is_the_walk_bit_for_bit(e):
    """A tree, its first and its second derivative give the recursive
    walk's bytes, or its domain error naming the same subexpression, for
    scalar and array ``x``."""
    d1 = differentiate(e)
    for tree in (e, d1, differentiate(d1)):
        _assert_same_as_the_walk(tree, _XS)


@pytest.mark.parametrize("text", [
    "1/(x - 1) + 1/(x - 1)",
    "sqrt(x - 2) * 1/(x - 1) + 1/(x - 1)",
    "1/(x - 1) + sqrt(x - 2) + 1/(x - 1)",
    "log(x - 1)", "log(x)*log(x) + x^-2",
])
def test_a_shared_failing_subtree_is_named_at_its_first_position(text):
    e = parse(text)
    d1 = differentiate(e)
    for tree in (e, d1, differentiate(d1)):
        _assert_same_as_the_walk(tree, np.array([0.0, 1.0, 2.0, 3.0]))


@pytest.mark.parametrize("text, subexpression", [
    ("1e200^2", "1e+200^2"),
    ("x + (1 + 1e200)^2", "(1.0+1e+200)^2"),
    ("(1 - x^2)*(1 + 0*(1e200)^2)", "1e+200^2"),
    ("2^2000*x + 1/(x - 1)", "2.0^2000"),
    ("-(1e200^3) + x", "1e+200^3"),
    ("2^2000", "2.0^2000"),
])
def test_an_overflowing_power_of_constants_is_named(text, subexpression):
    """Python floats raise where numpy would give inf: a named domain
    error, at the walk's first failing node."""
    e = parse(text)
    for x in (1.0, np.array([0.0, 1.0])):
        with pytest.raises(EvalDomainError, match="^overflow in subexpression") as ei:
            evaluate(e, x)
        assert ei.value.subexpression == subexpression
    _assert_same_as_the_walk(e, np.array([0.0, 1.0]))


@pytest.mark.parametrize("text, value", [
    ("(1e200*1e200)^2 + x", math.inf), ("1e100^3*x", 1e300),
    ("0.5^5000 + x", 1.0)])
def test_powers_of_constants_that_stay_in_range_keep_their_values(text, value):
    assert evaluate(parse(text), 1.0) == value
    _assert_same_as_the_walk(parse(text), np.array([0.0, 1.0]))


def test_the_first_failure_is_named_before_an_overflow():
    assert _outcome(evaluate, parse("1/(x - 1) + 1e200^2"), 1.0)[2] == "1.0/(x-1.0)"
    assert _outcome(evaluate, parse("1e200^2 + 1/(x - 1)"), 1.0)[2] == "1e+200^2"


def test_the_log_derivative_names_its_shared_quotient():
    """``d/dx log(u) = u'/u`` holds ``u`` itself: at ``u = 0`` the quotient
    is the first failure."""
    d1 = differentiate(parse("log(x - 1)"))
    assert isinstance(d1, Div)
    with pytest.raises(EvalDomainError) as ei:
        evaluate(d1, np.array([0.5, 1.0]))
    assert ei.value.subexpression == to_string(d1)
    assert _outcome(evaluate, d1, 1.0) == _outcome(_reference, d1, 1.0)


def test_a_shared_subtree_is_computed_once(monkeypatch):
    calls = []
    sin = np.sin

    def counting(a):
        calls.append(1)
        return sin(a)

    monkeypatch.setattr(np, "sin", counting)
    xs = np.linspace(-1, 1, 9)
    out = evaluate(parse("sin(x)*sin(x) + sin(x)"), xs)
    assert len(calls) == 1
    assert out.tobytes() == (sin(xs) * sin(xs) + sin(xs)).tobytes()


def test_the_program_is_kept_on_the_tree():
    e = parse("sin(x)*sin(x) + sin(x)")
    evaluate(e, 0.5)
    program = e._program
    evaluate(e, np.linspace(-1, 1, 5))
    assert e._program is program
    assert e == parse("sin(x)*sin(x) + sin(x)")  # == ignores the program
    assert len(program.code) == 3  # sin, product, sum


def test_signed_zeros_are_not_merged():
    """``Const(0.0) == Const(-0.0)``, but they are different operands."""
    e = Sub(Mul(Var("x"), Const(-0.0)), Mul(Var("x"), Const(0.0)))
    assert math.copysign(1.0, evaluate(e, 1.0)) < 0
    _assert_same_as_the_walk(e, np.array([1.0, -1.0]))


def test_a_very_deep_tree_compiles_without_recursion():
    e = Var("x")
    for _ in range(5000):
        e = Add(e, Const(1.0))
    assert evaluate(e, 0.0) == 5000.0


def test_an_unknown_node_is_a_type_error():
    with pytest.raises(TypeError, match="not an expression node"):
        evaluate(Call("tan", Var("x")), 0.5)


# --- integer powers ---------------------------------------------------------

_MIRROR_GRID = np.linspace(-1.0, 1.0, 4097)


@pytest.mark.parametrize("n", [-7, -3, -2, 3, 4, 5, 8, 35, 36, 144])
def test_an_integer_power_is_mirror_exact(n):
    """``x^n`` at ``-x`` is ``(-1)^n`` times its value at ``x``, bit for bit."""
    xs = _MIRROR_GRID[_MIRROR_GRID != 0.0] if n < 0 else _MIRROR_GRID
    e = parse(f"x^{n}")
    assert evaluate(e, -xs).tobytes() == ((-1.0) ** n * evaluate(e, xs)).tobytes()


@pytest.mark.parametrize("n", [-7, -3, -2, 3, 4, 5, 35, 36, 144])
def test_an_integer_power_keeps_the_special_values_of_pow(n):
    """Signed zeros, infinities, nan, overflow and underflow come out as
    ``operator.pow`` gives them, for array and scalar ``x``."""
    xs = np.array([0.0, -0.0, math.inf, -math.inf, math.nan,
                   1e200, -1e200, 1e-200, -1e-200])
    if n < 0:
        xs = xs[xs != 0.0]
    e = parse(f"x^{n}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for x in [*xs, xs]:
            expected = operator.pow(np.asarray(x), n)
            assert np.asarray(evaluate(e, x)).tobytes() == expected.tobytes()


def test_a_scalar_gives_the_bits_of_an_array_holding_it():
    """A scalar runs as a one-element array, so a positive base's power
    meets the array's SIMD kernel, not a numpy scalar's libm ``pow``."""
    e = parse("(1-x^2)*(1+0.1*cos(x))^5")
    xs = np.linspace(-1.0, 1.0, 4001)
    for g in (e, differentiate(e)):
        scalars = np.array([evaluate(g, float(x)) for x in xs])
        assert scalars.tobytes() == evaluate(g, xs).tobytes()


@pytest.mark.parametrize("x", [0.0, -0.0, np.array([-1.0, -0.0, 1.0])])
def test_a_zero_base_with_a_negative_exponent_still_raises(x):
    with pytest.raises(EvalDomainError, match="^zero base with negative exponent"):
        evaluate(parse("x^-2"), x)


def test_numpy_power_never_sees_a_negative_base():
    """numpy's SIMD ``power`` takes nonnegative bases only, so the program
    hands it ``|u|``; this holds whichever kernel the host has."""
    bases = []

    class Spy(np.ndarray):
        """Records the base of every ``np.power`` call on it."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            def plain(a):
                return a.view(np.ndarray) if isinstance(a, Spy) else a

            inputs = tuple(plain(a) for a in inputs)
            if ufunc is np.power:
                bases.append(np.array(inputs[0]))
            if "out" in kwargs:
                kwargs["out"] = tuple(plain(a) for a in kwargs["out"])
            result = getattr(ufunc, method)(*inputs, **kwargs)
            return result.view(Spy) if isinstance(result, np.ndarray) else result

    e = parse("(1 - x^2)*(1 + x^36 + (x - 2)^-3)")
    out = _run(_compile(e), _MIRROR_GRID.view(Spy))
    assert len(bases) == 2    # x^36 and (x-2)^-3; x^2 squares
    assert not any(np.signbit(base).any() for base in bases)
    assert np.asarray(out).tobytes() == evaluate(e, _MIRROR_GRID).tobytes()


# --- differentiation without dead terms ---------------------------------------

def _plain_derivative(e):
    """The textbook rules with nothing left out, kept as the reference:
    ``0*u``, ``u*1``, ``u^1``, ``u^0`` and ``0 - u`` terms and all."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0)
    if isinstance(e, Neg):
        return Neg(_plain_derivative(e.arg))
    if isinstance(e, Add):
        return Add(_plain_derivative(e.left), _plain_derivative(e.right))
    if isinstance(e, Sub):
        return Sub(_plain_derivative(e.left), _plain_derivative(e.right))
    if isinstance(e, Mul):
        return Add(Mul(_plain_derivative(e.left), e.right),
                   Mul(e.left, _plain_derivative(e.right)))
    if isinstance(e, Div):
        num = Sub(Mul(_plain_derivative(e.left), e.right),
                  Mul(e.left, _plain_derivative(e.right)))
        return Div(num, Pow(e.right, 2))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Const(0.0)
        n = e.exponent
        factor = Mul(Neg(Const(float(-n))) if n < 0 else Const(float(n)),
                     Pow(e.base, n - 1))
        return Mul(factor, _plain_derivative(e.base))
    du = _plain_derivative(e.arg)
    if e.func == "sqrt":
        return Div(du, Mul(Const(2.0), Call("sqrt", e.arg)))
    if e.func == "sin":
        return Mul(Call("cos", e.arg), du)
    if e.func == "cos":
        return Neg(Mul(Call("sin", e.arg), du))
    if e.func == "exp":
        return Mul(Call("exp", e.arg), du)
    return Div(du, e.arg)


_GRID = np.linspace(-1.5, 1.5, 2001)


def _assert_same_where_the_plain_value_is_finite(d, plain, x):
    try:
        want = np.asarray(evaluate(plain, x), dtype=float)
    except EvalDomainError:
        return  # the dropped terms may hold the failing node
    got = np.asarray(evaluate(d, x), dtype=float)
    finite = np.isfinite(want)
    # == tells nonzero floats apart bit for bit, and 0.0 from -0.0 not
    assert np.array_equal(got[finite], want[finite]), to_string(d)


@given(st.one_of(_exprs, _checked_exprs))
def test_dropping_dead_terms_keeps_every_finite_value(e):
    """f' and f'' give the plain rules' values bit for bit, up to the sign
    of an exact zero, wherever those are finite; and a derivative of a
    tree in normal form is in normal form."""
    d1, p1 = differentiate(e), _plain_derivative(e)
    for d, plain in ((d1, p1), (differentiate(d1), _plain_derivative(p1))):
        for x in [*_XS.tolist(), _GRID]:
            _assert_same_where_the_plain_value_is_finite(d, plain, x)
    normal = parse(to_string(e))  # negative constants become Neg(Const)
    d1 = differentiate(normal)
    for d in (d1, differentiate(d1)):
        assert parse(to_string(d)) == d


@pytest.mark.parametrize("text, derivative", [
    ("3*x", "3"),                 # 0*x + 3*1
    ("x*3", "3"),                 # 1*3 + x*0
    ("x + 3", "1"), ("3 + x", "1"), ("x - 3", "1"),
    ("3 - x", "-1"),              # 0 - 1
    ("-3 + x", "1"),              # -0 + 1
    ("x^2", "2*x"),               # 2*x^1*1
    ("x^1", "1"),                 # 1*x^0*1
    ("3/2 + x", "1"),             # (0*2 - 3*0)/2^2 + 1
    ("sqrt(2)*x", "sqrt(2)"),     # 0/(2*sqrt(2))*x + sqrt(2)*1
    ("sin(2) + cos(2) + x", "1"),
])
def test_each_dead_form_is_left_out(text, derivative):
    assert differentiate(parse(text)) == parse(derivative)


def test_a_dead_term_refuses_no_profile():
    """The plain f' of this round sphere holds the dead quotient
    ``0/(2*sqrt(0))``, which divides by zero everywhere."""
    text = "(1 - x^2)*(1 + sqrt(0)*x)"
    with pytest.raises(EvalDomainError, match="'0.0/"):
        evaluate(_plain_derivative(parse(text)), 0.5)
    p, round_ = profile_from_text(text), profile_from_text("1 - x^2")
    require_valid(p)
    xs = np.linspace(-1.0, 1.0, 101)
    for g, h in ((p.df, round_.df), (p.d2f, round_.d2f)):
        assert np.array_equal(g(xs), h(xs))


def test_the_paper_example_derivatives_carry_no_dead_arithmetic():
    """The plain rules compile f' and f'' to 25 and 68 instructions; 22 of
    the second program's multiply by 0 or 1 or add 0."""
    e = profile_from_text(BUILTIN_EXPRESSIONS["paper-example"]).form
    d1 = differentiate(e)
    assert [len(_compile(d).code) for d in (d1, differentiate(d1))] == [17, 35]
