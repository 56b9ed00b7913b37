import dataclasses
import math
import sys

import numpy as np
import pytest

import revspec.obstruction as obstruction
import revspec.solver as solver
from revspec.families import squeeze_profile
from revspec.obstruction import (
    ABREU_FREITAS_THRESHOLD, TRACE_FLAG_THRESHOLD, XI1,
    even_multiplicity_test, full_report, negative_curvature_witness,
    spectral_test, sup_test, trace_flag,
)
from revspec.profile import (curvature, make_profile, profile_from_text,
                             validate)
from revspec.solver import refine
from revspec.spectrum import enumerate_below


@pytest.fixture(scope="module")
def borderline_profile():
    """Slope maximum 2.011 just inside the equator band: fails the sup test
    while staying below every spectral threshold."""
    return profile_from_text("(1 - x^2) * (1 + 0.3*(1 - x^2))", name="bump03")


def test_threshold_constants():
    assert ABREU_FREITAS_THRESHOLD == pytest.approx(XI1 ** 2 / 2, rel=1e-15)
    assert ABREU_FREITAS_THRESHOLD == pytest.approx(2.8915929824, rel=1e-9)
    assert TRACE_FLAG_THRESHOLD == pytest.approx(math.pi ** 2 / 16, rel=1e-15)


# ---------------------------------------------------------------------------
# the decisive slope test
# ---------------------------------------------------------------------------

def test_sup_round_is_exactly_two(round_profile):
    st = sup_test(round_profile)
    assert st.max_slope == pytest.approx(2.0, abs=1e-12)
    assert st.embeddable


def test_sup_pinched(pinched_profile):
    st = sup_test(pinched_profile)
    assert st.max_slope == pytest.approx(26.09171798323459, rel=1e-9)
    assert abs(st.argmax_x) == pytest.approx(0.91024836, abs=1e-6)
    assert not st.embeddable


def test_sup_borderline(borderline_profile):
    st = sup_test(borderline_profile)
    assert st.max_slope == pytest.approx(2.011325955, rel=1e-8)
    assert not st.embeddable


def test_an_even_profile_has_a_mirror_exact_slope_maximum(bench_squeezes):
    for p in bench_squeezes:
        a = sup_test(p).argmax_x
        assert abs(p.df(a)) == abs(p.df(-a)), p.name


def test_sup_refines_inside_the_pole_cells():
    # |f'| = 2|x| (1 + 2c(1 - x^2)) peaks at 2 + (4c - 1)^2/(12c) where
    # 1 - |x| = (4c - 1)/(12c), 1.3e-4 from each pole: inside the last grid
    # cell, whose only grid maximum is the pole sample with |f'| = 2
    st = sup_test(profile_from_text("(1 - x^2) * (1 + 0.2501*(1 - x^2))"))
    assert abs(st.argmax_x) == pytest.approx(1.0 - 0.0004 / 3.0012, abs=1e-6)
    assert st.max_slope - 2.0 == pytest.approx(0.0004 ** 2 / 3.0012, rel=1e-3)
    assert not st.embeddable


# ---------------------------------------------------------------------------
# golden-section reference: the scalar searches the array refinement
# replaces, one evaluation per step around each candidate grid point
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_extremum(fn, xs, i, find_max=True):
    a, b = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, xs.size - 1)])
    sign = 1.0 if find_max else -1.0
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = sign * fn(c), sign * fn(d)
    for _ in range(64):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = sign * fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = sign * fn(d)
    return 0.5 * (a + b), sign * max(fc, fd)


def golden_sup_test(p):
    xs = np.linspace(-1.0, 1.0, 4097)
    slopes = np.abs(p.df(xs))
    best_i = int(np.argmax(slopes))
    best_x, best_v = float(xs[best_i]), float(slopes[best_i])
    padded = np.concatenate(([-np.inf], slopes, [-np.inf]))
    for i in np.flatnonzero((slopes >= padded[:-2]) & (slopes >= padded[2:])):
        x, v = golden_extremum(lambda t: abs(float(p.df(t))), xs, i)
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v


def golden_witness(p):
    xs = np.linspace(-1.0, 1.0, 4097)
    ks = curvature(p, xs)
    i = int(np.argmin(ks))
    if ks[i] >= 0.0:
        return None
    x, v = golden_extremum(lambda t: curvature(p, t), xs, i, find_max=False)
    return x if v < 0.0 else float(xs[i])


@pytest.fixture(scope="module")
def search_inputs(acceptance_family, round_profile, pinched_profile):
    """The acceptance family, both builtins, the pole-tangent c-family and
    a sharp x^144 pinch."""
    extra = [profile_from_text(f"(1-x^2)*(1+{c}*(1-x^2))", name=f"c={c}")
             for c in ("0.25", "0.25001", "0.2501")]
    extra.append(profile_from_text("101*(1-x^2)/(1+100*x^144)", name="x144"))
    return [*acceptance_family, round_profile, pinched_profile, *extra]


def test_the_searches_agree_with_the_golden_section_reference(search_inputs):
    """The array refinement finds what the scalar searches found: mirror
    images of one maximum are the same place here."""
    for p in search_inputs:
        st = sup_test(p)
        x, v = golden_sup_test(p)
        assert st.embeddable == (v <= 2.0 + 1e-9), p.name
        assert st.max_slope == pytest.approx(v, rel=1e-12), p.name
        assert abs(st.argmax_x) == pytest.approx(abs(x), abs=1e-6), p.name
        w, ref = negative_curvature_witness(p), golden_witness(p)
        assert (w is None) == (ref is None), p.name
        if ref is not None:
            assert w == pytest.approx(ref, abs=1e-6), p.name


def test_the_reported_points_are_evaluated_points(search_inputs):
    for p in search_inputs:
        st = sup_test(p)
        assert abs(p.df(st.argmax_x)) == st.max_slope, p.name
        w = negative_curvature_witness(p)
        assert w is None or curvature(p, w) < 0.0, p.name


def _straight_stretch_profile():
    """401 samples of 1 - x^2 outside |x| <= 1/2 and of a tent inside:
    |f'| is constant on long runs, so most grid points are peaks."""
    x = np.linspace(-1.0, 1.0, 401)
    f = np.where(np.abs(x) > 0.5, 1.0 - x * x, 0.75 + (0.5 - np.abs(x)))
    f[0] = f[-1] = 0.0
    return make_profile(list(zip(x, f)), name="straight-stretch")


@pytest.mark.parametrize("which,peaks", [("sine", 311), ("straight", 825)])
def test_the_searches_cost_does_not_grow_with_the_peaks(which, peaks):
    p = (profile_from_text("(1-x^2)*(1+0.0001*sin(1000*x)*(1-x^2))")
         if which == "sine" else _straight_stretch_profile())
    calls = {"df": 0, "d2f": 0}

    def counted(name):
        fn = getattr(p, name)

        def spy(x):
            calls[name] += 1
            return fn(x)
        return spy

    q = dataclasses.replace(p, df=counted("df"), d2f=counted("d2f"))
    validate(q)
    calls.update(df=0, d2f=0)
    slopes = np.abs(p.df(np.linspace(-1.0, 1.0, 4097)))
    padded = np.concatenate(([-np.inf], slopes, [-np.inf]))
    assert np.count_nonzero((slopes >= padded[:-2])
                            & (slopes >= padded[2:])) == peaks
    sup_test(q)
    assert calls["df"] <= 1 + obstruction._ROUNDS
    negative_curvature_witness(q)
    assert calls["d2f"] <= 1 + obstruction._ROUNDS


def _spline_max_slope(p) -> float:
    """max |f'| of a sample profile from its cubic pieces: on each,
    f' = 3 c0 s^2 + 2 c1 s + c2 peaks at an end or at the vertex."""
    c0, c1, c2, _ = p.form.rows
    h = np.diff(p.form.knots)
    best = np.maximum(np.abs(c2), np.abs(3.0 * c0 * h * h + 2.0 * c1 * h + c2))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -c1 / (3.0 * c0)
    inside = (s > 0.0) & (s < h)
    s = np.where(inside, s, 0.0)
    return float(np.max(np.maximum(best, np.abs(3.0 * c0 * s * s + 2.0 * c1 * s + c2))))


def test_the_slope_search_on_samples_meets_the_closed_form(pinched_profile):
    """``sup_test`` against the exact max of ``|f'|`` over the spline's
    pieces: at a pole (the quadratic, the tent) or inside (the bump, the
    sampled paper-example, on uniform and Chebyshev knots)."""
    x41, x201 = np.linspace(-1.0, 1.0, 41), np.linspace(-1.0, 1.0, 201)
    cheb = -np.cos(np.pi * np.arange(101) / 100)
    bump = profile_from_text("(1 - x^2) * (1 + (1 - x^2)*(0.3*x + 0.2*x^2))")
    profiles = [make_profile(list(zip(x41, 1.0 - x41 ** 2)), name="quadratic-41"),
                _straight_stretch_profile(),
                make_profile(list(zip(x201, bump.f(x201))), name="sampled-bump"),
                *(make_profile(list(zip(x, pinched_profile.f(x))), name=f"pinched-{x.size}")
                  for x in (x201, cheb))]
    interior = 0
    for p in profiles:
        st = sup_test(p)
        exact = _spline_max_slope(p)
        assert st.max_slope == pytest.approx(exact, rel=1e-12, abs=0.0), p.name
        interior += abs(st.argmax_x) < 0.99
    assert interior == 3


def test_a_nan_slope_sample_is_not_embeddable(round_profile):
    """A slope the grid cannot evaluate is no evidence of embeddability."""
    def df(x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(round_profile.df(x), dtype=float)
        return np.where(x == 0.5, np.nan, out)

    st = sup_test(dataclasses.replace(round_profile, df=df))
    assert math.isnan(st.max_slope)
    assert not st.embeddable


# ---------------------------------------------------------------------------
# spectral obstructions
# ---------------------------------------------------------------------------

def test_spectral_test_round(round_profile):
    t = spectral_test(round_profile)
    assert t.lambda01 == pytest.approx(2.0, rel=1e-9)
    assert t.threshold == 3.0
    assert not t.triggered


def test_spectral_test_pinched(pinched_profile):
    t = spectral_test(pinched_profile)
    assert t.lambda01 == pytest.approx(19.5846802667, rel=1e-8)
    assert t.triggered


def test_even_multiplicities_round(round_profile):
    t = even_multiplicity_test(round_profile)
    assert t.multiplicities == (3, 5, 7, 9)
    assert not t.all_even
    assert t.lambda_m == pytest.approx(20.0, rel=1e-8)
    assert t.explanation == ""


def test_even_multiplicities_pinched(pinched_profile):
    t = even_multiplicity_test(pinched_profile)
    assert t.multiplicities == (2, 2, 2, 2)
    assert t.all_even
    assert t.lambda_m == pytest.approx(5.66338545, rel=1e-6)
    assert t.lambda_m < t.lambda01


def test_the_window_holds_the_first_four_distinct_eigenvalues(small_family):
    """The window sized by channels 1-4 gives what the wider window past
    both lambda_0^1 and lambda_1^4 certifies.  The family opens with both
    builtins: the round sphere, and squeeze(9, 36), which is paper-example."""
    for p in small_family:
        t = even_multiplicity_test(p)
        wide = max(refine(p, 0, 1).eigenvalues[0],
                   refine(p, 1, 4).eigenvalues[-1]) * (1.0 + 1e-3)
        table = enumerate_below(p, wide)
        head = [e for e in table.entries if e.value <= table.cutoff][:4]
        assert t.explanation == "", p.name
        assert t.multiplicities == tuple(e.multiplicity for e in head), p.name
        assert t.lambda_m == pytest.approx(head[-1].value, rel=1e-10), p.name


# eps where lambda_0^1 of squeeze(eps, 36) lies just above lambda_4^1, the
# fourth eigenvalue of channels k >= 1: 5.4e-7 relative, 54 times the
# solver's target, so the first four multiplicities are even
PARITY_FLIP_EPS = 3.023191452026367
# and where the two lie 4.0e-10 relative apart, below the solver's resolution
UNDECIDED_EPS = 3.0231899981553854


def _gap_to_lambda41(p, lambda01):
    lambda41 = refine(p, 4, 1).eigenvalues[0]
    return (lambda01 - lambda41) / lambda41


def test_the_parity_flip_squeeze_reads_all_even():
    p = squeeze_profile(PARITY_FLIP_EPS, 36)
    t = even_multiplicity_test(p)
    assert t.multiplicities == (2, 2, 2, 2)
    assert t.all_even and t.explanation == ""
    assert t.lambda01 == spectral_test(p).lambda01
    assert 5e-7 < _gap_to_lambda41(p, t.lambda01) < 6e-7


def test_the_spectrum_and_the_report_tell_eigenvalues_apart_alike():
    """Both merge at ten times the solver's target: lambda_0^1 and
    lambda_4^1, 5.4e-7 relative apart, are two entries of each table."""
    p = squeeze_profile(PARITY_FLIP_EPS, 36)
    table = enumerate_below(p, 9.0)
    report = full_report(p).even_multiplicity_test
    assert table.cluster_tol == report.table.cluster_tol == 1e-7
    assert tuple(e.multiplicity for e in table.entries[:4]) == \
        report.multiplicities == (2, 2, 2, 2)


def test_an_undecided_parity_is_not_all_even_and_says_why():
    p = squeeze_profile(UNDECIDED_EPS, 36)
    t = even_multiplicity_test(p)
    assert abs(_gap_to_lambda41(p, t.lambda01)) < 1e-9
    assert not t.all_even
    assert "parity undecided" in t.explanation
    assert any(m % 2 for m in t.multiplicities)


# squeeze-grid points with a large lambda_0^1: a window sized by it would
# ask channel 1 for up to 233 eigenvalues, which do not converge
FORMERLY_FAILING_PINCHES = [(100, 72), (100, 144), (300, 36), (300, 72),
                            (300, 144), (1000, 36), (1000, 72), (1000, 144)]


@pytest.mark.parametrize("eps,n", FORMERLY_FAILING_PINCHES)
def test_sharp_pinches_get_a_report(eps, n):
    r = full_report(squeeze_profile(eps, n))
    assert r.even_multiplicity_test.multiplicities == (2, 2, 2, 2)
    assert r.spectral_verdict == "not_embeddable"
    assert r.consistency_failures == ()
    if (eps, n) == (300, 72):
        # Chebyshev collocation at 160 points gives 231.87716375783
        assert r.spectral_test.lambda01 == pytest.approx(231.87716375783,
                                                         abs=1e-9)


# ---------------------------------------------------------------------------
# curvature witness and the informational flag
# ---------------------------------------------------------------------------

def test_no_witness_on_the_round_sphere(round_profile):
    assert negative_curvature_witness(round_profile) is None


def test_witness_on_the_pinched_profile(pinched_profile):
    x = negative_curvature_witness(pinched_profile)
    assert x is not None
    assert curvature(pinched_profile, x) < 0
    assert abs(x) == pytest.approx(0.95348615, abs=1e-4)


def test_trace_flag_round(round_profile):
    flag = trace_flag(round_profile)
    assert flag.trace0 == pytest.approx(1.0, abs=1e-12)
    assert not flag.suggestive
    # 24 reciprocal terms of j(j+1) telescope to 24/25
    assert flag.partial_sum == pytest.approx(24.0 / 25.0, rel=1e-6)
    assert flag.partial_sum < flag.trace0


def test_trace_flag_pinched(pinched_profile):
    flag = trace_flag(pinched_profile)
    assert flag.trace0 == pytest.approx(23.0 / 185.0, rel=1e-10)
    assert flag.suggestive
    assert flag.partial_sum < flag.trace0


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

def test_full_report_round(round_profile):
    r = full_report(round_profile)
    assert r.verdict == "embeddable"
    assert r.spectral_verdict == "undetermined_by_spectral_tests"
    assert not r.abreu_freitas_test.triggered
    assert r.negative_curvature_witness is None
    assert r.consistency_failures == ()


def test_full_report_pinched(pinched_profile):
    r = full_report(pinched_profile)
    assert r.verdict == "not_embeddable"
    assert r.spectral_verdict == "not_embeddable"
    assert r.spectral_test.triggered
    assert r.abreu_freitas_test.triggered
    assert r.even_multiplicity_test.all_even
    assert r.negative_curvature_witness is not None
    assert r.consistency_failures == ()


def test_full_report_borderline(borderline_profile):
    # the slope test alone catches it; every spectral test stays silent
    r = full_report(borderline_profile)
    assert r.verdict == "not_embeddable"
    assert r.spectral_verdict == "undetermined_by_spectral_tests"
    assert not r.spectral_test.triggered
    assert not r.abreu_freitas_test.triggered
    assert r.even_multiplicity_test.multiplicities == (2, 1, 2, 2)
    assert r.consistency_failures == ()


def test_report_json_labels(pinched_profile):
    doc = full_report(pinched_profile).to_json_dict()
    assert doc["abreu_freitas_test"]["label"] == "external (Abreu-Freitas)"
    assert doc["verdict"] == "not_embeddable"
    assert doc["even_multiplicity_test"]["multiplicities"] == [2, 2, 2, 2]


def _record_calls(monkeypatch, original, record) -> list:
    """``record(*args, **kwargs)`` of every call of ``original``, under each
    name that holds it in a loaded revspec module."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and name.split(".")[0] == "revspec":
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, spy)
    return calls


def _count_refines(monkeypatch) -> tuple[list, list]:
    """``(k, n)`` of every run of the one refinement loop, the channel
    store's ``refine``, and ``(k, N)`` of every solve."""
    runs, loop = [], solver._Channels.refine
    solves, solve = [], solver._raw_eigenvalues

    def spy(self, k, n, *args):
        runs.append((k, n))
        return loop(self, k, n, *args)

    def solve_spy(p, k, N, *args):
        solves.append((k, N))
        return solve(p, k, N, *args)

    monkeypatch.setattr(solver._Channels, "refine", spy)
    monkeypatch.setattr(solver, "_raw_eigenvalues", solve_spy)
    return runs, solves


def test_full_report_is_composed_of_the_public_tests(pinched_profile,
                                                     monkeypatch):
    names = ("sup_test", "even_multiplicity_test", "negative_curvature_witness")
    calls = {name: _record_calls(monkeypatch, getattr(obstruction, name),
                                 lambda p, *args, **kwargs: p)
             for name in names}
    full_report(pinched_profile)
    for name in names:
        assert len(calls[name]) == 1, name
        assert calls[name][0] is pinched_profile, name


@pytest.mark.parametrize("which,runs_k0", [("round", 2), ("pinched", 1)],
                         ids=["round", "pinched"])
def test_full_report_solves_each_channel_0_basis_once(which, runs_k0,
                                                      round_profile,
                                                      pinched_profile,
                                                      monkeypatch):
    """Channel 0 is refined first, for lambda_0^1 alone as
    :func:`spectral_test` does.  Where lambda_0^1 lies inside the table's
    window (the round sphere's 2), the table refines it once more, from
    the same store; no basis is solved twice."""
    p = round_profile if which == "round" else pinched_profile
    runs, solves = _count_refines(monkeypatch)
    full_report(p)
    assert runs[0] == (0, 1)
    assert [k for k, _ in runs].count(0) == runs_k0
    assert len(solves) == len(set(solves))


def _assert_same(a, b, path="report"):
    """Equal but for floats, which agree to 1e-10 relative."""
    if isinstance(a, float) and isinstance(b, float):
        assert a == pytest.approx(b, rel=1e-10), path
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            _assert_same(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (u, v) in enumerate(zip(a, b)):
            _assert_same(u, v, f"{path}[{i}]")
    else:
        assert a == b, path


def test_full_report_agrees_with_the_standalone_tests(round_profile,
                                                      pinched_profile,
                                                      small_family):
    """One store per report gives the tests what each computes alone."""
    for p in [round_profile, pinched_profile, *small_family]:
        r = full_report(p)
        _assert_same(dataclasses.asdict(r.spectral_test),
                     dataclasses.asdict(spectral_test(p)))
        lam = spectral_test(p).lambda01
        _assert_same(dataclasses.asdict(r.abreu_freitas_test),
                     {"lambda01": lam, "threshold": ABREU_FREITAS_THRESHOLD,
                      "triggered": lam > ABREU_FREITAS_THRESHOLD})
        _assert_same(dataclasses.asdict(r.even_multiplicity_test),
                     dataclasses.asdict(even_multiplicity_test(p)))


def test_the_standalone_spectral_test_agrees_with_the_report(family_reports):
    """:func:`spectral_test` refines channel 0 for one value, the report
    reads ``lambda_0^1`` from the deeper solve of its parity window: both
    meet the one target, so they agree far within it and on the verdict."""
    x = np.linspace(-1.0, 1.0, 201)
    bump = profile_from_text("(1 - x^2) * (1 + (1 - x^2)*(0.3*x + 0.2*x^2))")
    sampled = make_profile(list(zip(x, bump.f(x))), name="sampled-bump")
    reports, _ = family_reports
    for p, report in [*reports, (sampled, full_report(sampled))]:
        alone = spectral_test(p)
        assert alone.triggered == report.spectral_test.triggered, p.name
        assert alone.lambda01 == pytest.approx(report.spectral_test.lambda01,
                                               rel=1e-9), p.name
