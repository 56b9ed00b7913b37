import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

import revspec
from revspec.exprs import evaluate, to_string
from revspec.profile import (
    ArclengthProfile, AreaMismatchError, InvalidProfileError,
    PROXY_MAX_DEGREE, Profile, ProfileDefinitionError, ProxyResolutionError, area_of,
    arclength_recover, curvature,
    gauss_bonnet_residual, make_profile, momentum_transform, normalize_area,
    profile_from_text, require_valid, validate, validate_arclength,
    validation_grid, _MeridianMap,
)
from revspec.quadrature import SEGMENT_ORDER, CumulativeIntegral, gauss_legendre


def sine_arclength(c=1.0):
    """Arclength form of the round sphere scaled by the homothety ``c``."""
    return ArclengthProfile(
        a=lambda s: c * np.sin(np.asarray(s) / c),
        da=lambda s: np.cos(np.asarray(s) / c),
        d2a=lambda s: -np.sin(np.asarray(s) / c) / c,
        length=float(c * np.pi))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_expression_profile_has_exact_derivatives(round_profile):
    x = np.linspace(-1.0, 1.0, 101)
    assert np.allclose(round_profile.f(x), 1 - x * x, atol=1e-15)
    assert np.allclose(round_profile.df(x), -2 * x, atol=1e-15)
    assert np.allclose(round_profile.d2f(x), -2.0, atol=1e-15)
    assert round_profile.source == "expression"


def test_profile_from_text_records_name():
    p = profile_from_text("1 - x^2", name="unit")
    assert p.name == "unit"
    assert float(p.f(0.0)) == 1.0


def test_unevaluable_expression_is_a_definition_error():
    with pytest.raises(ProfileDefinitionError, match="not evaluable"):
        profile_from_text("log(x)")


def test_empty_definition_rejected():
    with pytest.raises(ProfileDefinitionError, match="empty"):
        make_profile(None)


@pytest.mark.parametrize("defn", [
    "1 - x^2",
    {"x": list(np.linspace(-1.0, 1.0, 20)), "f": [0.0] * 20},
    [(x, 0.0) if i % 2 else (x,) for i, x in enumerate(np.linspace(-1.0, 1.0, 20))],
    5,
], ids=["text", "json-layout", "ragged", "number"])
def test_a_malformed_definition_is_a_definition_error(defn):
    """Neither a tree nor (x, f) pairs: one definition error, not numpy's."""
    with pytest.raises(ProfileDefinitionError,
                       match=r"^a profile needs an expression tree or \(x, f\) pairs"):
        make_profile(defn)


def test_a_profile_has_five_fields():
    assert [f.name for f in dataclasses.fields(Profile)] == [
        "f", "df", "d2f", "form", "name"]


def test_an_expression_profile_carries_its_tree():
    text = "(1.0-x^2)*(1.0+0.3*x*(1.0-x^2))"
    p = profile_from_text(text)
    assert p.source == "expression"
    assert to_string(p.form) == text
    x = np.linspace(-1.0, 1.0, 101)
    assert np.array_equal(p.f(x), evaluate(p.form, x))


def test_a_sample_profile_carries_its_spline():
    x = np.linspace(-1.0, 1.0, 41)
    y = (1.0 - x * x) * (1.0 + 0.3 * np.sin(3.0 * x))
    p = make_profile(list(zip(x, y)))
    assert p.source == "samples"
    assert p.form.knots == tuple(x.tolist())
    assert [len(row) for row in p.form.rows] == [40] * 4
    # s = 0 at a piece's left end leaves its constant term, the sample
    assert [p.f(v) for v in x[:-1]] == y[:-1].tolist()
    assert np.array_equal(p.f(x[:-1]), y[:-1])


def test_a_transformed_profile_carries_its_series():
    q = momentum_transform(_bumped_sine(0.3, 0.4))
    assert q.source == "transformed"
    assert isinstance(q.form, np.polynomial.Chebyshev)
    x = np.linspace(-1.0, 1.0, 1001)
    assert np.array_equal(q.f(x), (1.0 - x) * (1.0 + x) * q.form(x))
    assert q.form(-1.0) == pytest.approx(1.0, abs=1e-15)
    assert q.form(1.0) == pytest.approx(1.0, abs=1e-15)


def test_sample_profile_reproduces_quadratic_exactly():
    # clamped cubic spline through quadratic data is that quadratic
    xs = np.linspace(-1.0, 1.0, 41)
    p = make_profile(list(zip(xs, 1 - xs ** 2)), name="sampled")
    assert p.source == "samples"
    assert p.form.knots == tuple(xs.tolist())
    grid = np.linspace(-1.0, 1.0, 401)
    assert np.max(np.abs(p.f(grid) - (1 - grid ** 2))) < 1e-12
    assert validate(p).passed


@pytest.mark.parametrize("samples,snippet", [
    ([], "no samples"),
    ([1.0, 2.0, 3.0], "pairs"),
    ([(x, 1 - x * x) for x in np.linspace(-1, 1, 10)], "at least 16"),
    ([(-1.0, 0.0), (-1.0, 0.1)] + [(x, 1.0) for x in np.linspace(-0.9, 1, 15)],
     "strictly increasing"),
    ([(x, 1 - x * x) for x in np.linspace(-0.5, 1.0, 20)], "endpoint"),
])
def test_bad_sample_sets_rejected(samples, snippet):
    with pytest.raises(ProfileDefinitionError, match=snippet):
        make_profile(samples)


def _spike(value):
    """40 uniform samples, all 0 but sample 20."""
    return list(zip(np.linspace(-1.0, 1.0, 40), [0.0] * 20 + [value] + [0.0] * 19))


@pytest.mark.parametrize("samples,message", [
    ([(np.nan if i == 5 else x, 0.0) for i, x in enumerate(np.linspace(-1, 1, 40))],
     "sample 5: x = nan is not finite"),
    (_spike(np.inf), "sample 20: f = inf is not finite"),
    (_spike(np.nan), "sample 20: f = nan is not finite"),
    # finite, but its slopes overflow in the solve
    (_spike(1e308), "samples too large: the spline's slope at sample 0 "
                    "(x = -1.0) is not finite"),
])
def test_non_finite_samples_are_named(samples, message):
    with pytest.raises(ProfileDefinitionError) as exc_info:
        make_profile(samples)
    assert str(exc_info.value) == message


def test_a_large_finite_spike_builds_and_fails_validation():
    assert not validate(make_profile(_spike(1e200))).passed


def _spline_knots():
    rng = np.random.default_rng(20261020)
    for n in (16, 201, 225, 2001):
        yield f"uniform-{n}", np.linspace(-1.0, 1.0, n)
        yield f"chebyshev-{n}", -np.cos(np.pi * np.arange(n) / (n - 1))
        yield f"random-{n}", np.concatenate(
            ([-1.0], np.sort(rng.uniform(-1.0, 1.0, n - 2)), [1.0]))
    # the clamped first row has pivot 1, and h_1 = 1.499 sits below it:
    # the first elimination step interchanges rows
    yield "interchange", np.concatenate(([-1.0, -0.999], np.linspace(0.5, 1.0, 16)))


SPLINE_KNOTS = dict(_spline_knots())


@pytest.mark.parametrize("name", SPLINE_KNOTS)
def test_sample_spline_is_scipys_bit_for_bit(name):
    # the reference only: no module of the package imports scipy
    from scipy.interpolate import CubicSpline
    x = SPLINE_KNOTS[name]
    rng = np.random.default_rng(x.size)
    y = (1.0 - x * x) * (1.0 + 0.1 * rng.standard_normal(x.size))
    p = make_profile(list(zip(x, y)))
    ref = CubicSpline(x, y, bc_type=((1, 2.0), (1, -2.0)))
    at = np.concatenate((x, [-1.5, -1.0, 1.0, 1.5], np.linspace(-1.0, 1.0, 100_001)))
    for ours, theirs in ((p.f, ref), (p.df, ref.derivative(1)),
                         (p.d2f, ref.derivative(2))):
        assert np.array_equal(ours(at), theirs(at))
        assert [ours(v) for v in (-1.5, 1.0)] == [float(theirs(v)) for v in (-1.5, 1.0)]


def test_validation_grid_is_sorted_and_interior():
    g = validation_grid()
    assert g.size == 1024
    assert np.all(np.diff(g) > 0)
    assert g[0] > -1.0 and g[-1] < 1.0
    assert validation_grid() is g  # cached


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_round_passes(round_profile):
    report = validate(round_profile)
    assert report.passed
    assert {c.name for c in report.checks} == {
        "f(-1)", "f(+1)", "f'(-1)", "f'(+1)", "min interior f"}


def test_validate_flags_wrong_pole_slopes():
    p = profile_from_text("2*(1 - x^2)")
    report = validate(p)
    assert not report.passed
    failing = {c.name for c in report.checks if not c.passed}
    assert failing == {"f'(-1)", "f'(+1)"}


def test_validate_flags_interior_sign_change():
    # boundary values and slopes hold but f dips negative near the equator
    p = profile_from_text("(1 - x^2) * (x^2 - 0.04) / 0.96")
    failing = {c.name for c in validate(p).checks if not c.passed}
    assert failing == {"min interior f"}


def test_require_valid_carries_the_report():
    p = profile_from_text("2*(1 - x^2)")
    with pytest.raises(InvalidProfileError, match="f'") as exc_info:
        require_valid(p, context="unit")
    assert not exc_info.value.report.passed
    assert "unit" in str(exc_info.value)


def test_validation_report_is_json_ready():
    import json
    doc = validate(profile_from_text("1 - x^2")).to_json_dict()
    text = json.dumps(doc)
    assert '"passed": true' in text
    assert len(doc["checks"]) == 5


def test_full_report_validates_a_profile_once():
    """Every guarded entry inside ``full_report`` reads the one report the
    profile keeps: ``f`` is evaluated on the validation grid once."""
    base = profile_from_text(revspec.BUILTIN_EXPRESSIONS["paper-example"])
    grid = validation_grid()
    on_grid = []

    def f(x):
        if np.shape(x) == grid.shape and np.array_equal(x, grid):
            on_grid.append(x)
        return base.f(x)

    revspec.full_report(dataclasses.replace(base, f=f))
    assert len(on_grid) == 1


def test_replaced_profile_is_validated_afresh():
    good = profile_from_text("1 - x^2")
    assert validate(good).passed
    wide = profile_from_text("2*(1 - x^2)")
    bad = dataclasses.replace(good, f=wide.f, df=wide.df)
    assert not validate(bad).passed
    with pytest.raises(InvalidProfileError):
        require_valid(bad)
    assert validate(good).passed


def test_expression_pole_slopes_are_held_to_1e_10():
    # pole slopes off by 2e-12 pass, off by 2e-9 fail
    assert validate(profile_from_text("(1 - x^2) * (1 + 1e-12*x)")).passed
    p = profile_from_text("(1 - x^2) * (1 + 1e-9*x)")
    failing = {c.name for c in validate(p).checks if not c.passed}
    assert failing == {"f'(-1)", "f'(+1)"}
    with pytest.raises(InvalidProfileError):
        require_valid(p)


@pytest.fixture(scope="module")
def round_sphere_curve():
    return revspec.embed_profile_curve(profile_from_text("1 - x^2"), n_samples=64)


GUARDED_ENTRIES = {
    "sup_test": lambda p, curve: revspec.sup_test(p),
    "spectral_test": lambda p, curve: revspec.spectral_test(p),
    "even_multiplicity_test": lambda p, curve: revspec.even_multiplicity_test(p),
    "negative_curvature_witness":
        lambda p, curve: revspec.negative_curvature_witness(p),
    "full_report": lambda p, curve: revspec.full_report(p),
    "trace0_integral": lambda p, curve: revspec.trace0_integral(p),
    "lambda01_upper_bound": lambda p, curve: revspec.lambda01_upper_bound(p),
    "enumerate_below": lambda p, curve: revspec.enumerate_below(p, 5.0),
    "channel_lower_bound": lambda p, curve: revspec.channel_lower_bound(p, 0, 1),
    "bounds_report": lambda p, curve: revspec.bounds_report(p),
    "assemble": lambda p, curve: revspec.assemble(p, 0, 32),
    "refine": lambda p, curve: revspec.refine(p, 0, 1),
    "rayleigh_quotient": lambda p, curve: revspec.rayleigh_quotient(
        p, 4, revspec.parse("sqrt(1 - x^2)")),
    "arclength_recover": lambda p, curve: revspec.arclength_recover(p),
    "gauss_bonnet_residual": lambda p, curve: revspec.gauss_bonnet_residual(p),
    "embed_profile_curve": lambda p, curve: revspec.embed_profile_curve(p),
    "induced_metric_residual":
        lambda p, curve: revspec.induced_metric_residual(curve, p),
}


@pytest.mark.parametrize("entry", sorted(GUARDED_ENTRIES))
def test_guarded_entries_reject_an_invalid_profile(entry, round_sphere_curve):
    with pytest.raises(InvalidProfileError):
        GUARDED_ENTRIES[entry](profile_from_text("2*(1 - x^2)"),
                               round_sphere_curve)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def test_round_curvature_is_one(round_profile):
    x = np.linspace(-1, 1, 64)
    assert np.allclose(curvature(round_profile, x), 1.0, atol=1e-14)
    assert curvature(round_profile, 0.3) == pytest.approx(1.0)


def test_pinched_equator_curvature(pinched_profile):
    # the pinch factor is flat to high order at the equator, so the
    # curvature there is just the amplitude of the leading quadratic
    assert curvature(pinched_profile, 0.0) == pytest.approx(10.0, abs=1e-9)


@pytest.mark.parametrize("maker,bound", [
    (lambda: profile_from_text("1 - x^2"), 1e-12),
    (lambda: profile_from_text("10*(1 - x^2) / (1 + 9*x^36)"), 1e-11),
    (lambda: make_profile(
        [(x, 1 - x * x) for x in np.linspace(-1, 1, 41)]), 1e-12),
])
def test_gauss_bonnet_residual_vanishes(maker, bound):
    assert gauss_bonnet_residual(maker()) < bound


# ---------------------------------------------------------------------------
# arclength form and the transforms between the two pictures
# ---------------------------------------------------------------------------

def test_arclength_recover_round_is_the_sine_curve(round_profile):
    ap = arclength_recover(round_profile)
    assert ap.length == pytest.approx(np.pi, abs=1e-10)
    s = np.linspace(0.0, ap.length, 301)
    assert np.max(np.abs(ap.a(s) - np.sin(s))) < 1e-10
    assert np.max(np.abs(ap.da(s) - np.cos(s))) < 1e-10
    assert np.max(np.abs(_MeridianMap(round_profile).x_of_s(s) + np.cos(s))) < 1e-10
    assert validate_arclength(ap).passed


def test_arclength_recover_rejects_invalid_profiles():
    with pytest.raises(InvalidProfileError):
        arclength_recover(profile_from_text("2*(1 - x^2)"))


def test_meridian_maps_are_mutually_inverse(pinched_profile):
    """``x_of_s`` inverts the tabulated arclength ``s(x)`` of each chart."""
    mm = _MeridianMap(pinched_profile)
    assert mm.x_of_s(0.0) == pytest.approx(-1.0, abs=1e-12)
    assert mm.x_of_s(mm.length) == pytest.approx(1.0, abs=1e-12)
    x = np.linspace(-1.0, 1.0, 301)
    south, north = x[x <= 0.0], x[x > 0.0]
    s = np.concatenate((mm._cum_left.value(np.sqrt(1.0 + south)),
                        mm.length - mm._cum_right.value(np.sqrt(1.0 - north))))
    assert np.max(np.abs(mm.x_of_s(s) - x)) < 1e-10
    ap = arclength_recover(pinched_profile)
    assert np.max(np.abs(ap.a(s) ** 2 - pinched_profile.f(x))) < 1e-12


def test_momentum_transform_of_sine_recovers_round():
    q = momentum_transform(sine_arclength())
    assert q.source == "transformed"
    x = np.linspace(-1.0, 1.0, 401)
    assert np.max(np.abs(q.f(x) - (1 - x ** 2))) < 1e-12
    assert np.max(np.abs(q.df(x) + 2 * x)) < 1e-12
    assert validate(q).passed


def test_momentum_transform_rejects_wrong_area():
    with pytest.raises(AreaMismatchError) as exc_info:
        momentum_transform(sine_arclength(0.5))
    assert exc_info.value.area == pytest.approx(np.pi, rel=1e-9)


def test_transform_round_trip_on_the_pinched_profile(pinched_profile):
    ap = arclength_recover(pinched_profile)
    q = momentum_transform(ArclengthProfile(a=ap.a, da=ap.da, length=ap.length))
    x = np.linspace(-1.0, 1.0, 301)
    assert np.max(np.abs(q.f(x) - pinched_profile.f(x))) < 1e-10
    assert np.max(np.abs(q.df(x) - pinched_profile.df(x))) < 1e-9


# Tolerances of the transformed profile against the closed forms, relative
# to the largest |exact value| on the grid.  arclength_recover stores x near
# a pole as a float near -1 or +1, so its a(s) carries a relative error of
# about 1e-16 / (1 -+ x) there: the noise floor of the samples.  The sharp
# waist of paper-example needs degree 256, where that floor is ~1e-12 and
# each derivative multiplies it by about the degree.
_TRANSFORM_TOLERANCES = {
    "1 - x^2": (1e-14, 1e-14, 1e-13),
    "(1 - x^2)*exp(0.4*x*(1 - x^2))": (1e-11, 1e-10, 1e-9),
    "10*(1 - x^2)/(1 + 9*x^36)": (1e-11, 1e-9, 1e-7),
}


def _transformed(p):
    """``p`` through its arclength form and back, as a caller with only
    ``a``, ``a'`` and the length would build it."""
    ap = arclength_recover(p)
    return momentum_transform(ArclengthProfile(a=ap.a, da=ap.da, length=ap.length))


@pytest.mark.parametrize("text", sorted(_TRANSFORM_TOLERANCES))
def test_transformed_profile_matches_the_closed_forms(text):
    p = profile_from_text(text)
    q = _transformed(p)
    x = np.linspace(-1.0, 1.0, 2001)
    for name, tol in zip(("f", "df", "d2f"), _TRANSFORM_TOLERANCES[text]):
        exact = getattr(p, name)(x)
        err = np.max(np.abs(getattr(q, name)(x) - exact)) / np.max(np.abs(exact))
        assert err < tol, (text, name, err)


def _bumped_sine(d, e):
    """``a = sin s (1 + d sin^2 s + e sin^2 s cos s)`` on ``[0, pi]``,
    normalized to area 4*pi."""
    def a(s):
        sn = np.sin(s)
        return sn * (1.0 + d * sn ** 2 + e * sn ** 2 * np.cos(s))

    def da(s):
        sn, cs = np.sin(s), np.cos(s)
        return (cs * (1.0 + d * sn ** 2 + e * sn ** 2 * cs)
                + sn * (2.0 * d * sn * cs + e * (2.0 * sn * cs * cs - sn ** 3)))
    return normalize_area(ArclengthProfile(a=a, da=da, length=np.pi))


@pytest.mark.parametrize("make", [
    sine_arclength,
    lambda: _bumped_sine(0.3, 0.4),
    lambda: _bumped_sine(-0.2, 0.9),
    lambda: _bumped_sine(1.5, -1.0),
    lambda: arclength_recover(profile_from_text("(1 - x^2)*exp(0.4*x*(1 - x^2))")),
], ids=["sine", "bump-a", "bump-b", "bump-c", "recovered-bump"])
def test_transformed_profile_meets_the_pole_conditions_to_rounding(make):
    """f(+-1) = 0 exactly, and f'(+-1) = -+2 within 4 ulps of 2."""
    q = momentum_transform(make())
    assert q.f(1.0) == 0.0 and q.f(-1.0) == 0.0
    ulp = np.spacing(2.0)
    assert abs(q.df(1.0) + 2.0) <= 4 * ulp
    assert abs(q.df(-1.0) - 2.0) <= 4 * ulp
    assert gauss_bonnet_residual(q) < 1e-13


def test_an_arclength_profile_without_a_chebyshev_plateau_is_named():
    """A kink in a(s) leaves Chebyshev coefficients decaying like k^-2:
    no plateau by the largest degree, and a definition error saying so."""
    # of a', only the end values +-1 are read
    ap = normalize_area(ArclengthProfile(
        a=lambda s: np.sin(s) * (1.0 + 0.1 * np.sin(s) ** 2 * np.abs(s - 1.3)),
        da=lambda s: np.cos(s), length=np.pi))
    with pytest.raises(ProxyResolutionError,
                       match=f"no noise plateau by degree {PROXY_MAX_DEGREE}$"):
        momentum_transform(ap)
    assert issubclass(ProxyResolutionError, ProfileDefinitionError)


def test_area_of_round_arclength():
    assert area_of(sine_arclength()) == pytest.approx(4 * np.pi, rel=1e-12)


def test_normalize_area_undoes_a_homothety():
    nz = normalize_area(sine_arclength(0.5))
    assert nz.scale_factor == pytest.approx(2.0, rel=1e-12)
    assert nz.length == pytest.approx(np.pi, rel=1e-12)
    assert area_of(nz) == pytest.approx(4 * np.pi, rel=1e-12)


@given(c=st.floats(0.4, 2.5))
def test_normalize_area_property(c):
    """Any homothety of the round arclength profile normalizes back to area
    4*pi with the inverse factor recorded."""
    nz = normalize_area(sine_arclength(c))
    assert area_of(nz) == pytest.approx(4 * np.pi, rel=1e-9)
    assert nz.scale_factor * c == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# the cumulative quadrature behind the meridian map and the height
# ---------------------------------------------------------------------------

def test_cumulative_integral_sums_nodes_in_index_order():
    """``cum`` and ``value`` are the Gauss sums of the recorded node values
    taken node by node in index order, bit for bit, so no CPU-dependent
    BLAS summation order reaches the meridian map or the OBJ heights."""
    calls = []

    def fn(t):
        vals = np.exp(np.sin(3.0 * t)) / (1.5 + t)
        calls.append(vals.copy())
        return vals

    grid = np.linspace(-1.0, 1.0, 41) ** 3
    ci = CumulativeIntegral(fn, grid)
    _, wi = gauss_legendre(SEGMENT_ORDER)

    def gauss_sums(a, b, vals):
        out = []
        for lo, hi, row in zip(a, b, vals.reshape(-1, wi.size)):
            acc = float(row[0]) * float(wi[0])
            for v, w in zip(row[1:], wi[1:]):
                acc = acc + float(v) * float(w)
            out.append(0.5 * (float(hi) - float(lo)) * acc)
        return out

    cum = [0.0]
    for seg in gauss_sums(grid[:-1], grid[1:], calls[-1]):
        cum.append(cum[-1] + seg)
    assert ci.cum.tolist() == cum

    u = np.linspace(-0.95, 0.97, 29)
    got = ci.value(u)
    idx = np.searchsorted(grid, u, side="right") - 1
    partial = gauss_sums(grid[idx], u, calls[-1])
    assert got.tolist() == [cum[i] + part for i, part in zip(idx, partial)]
