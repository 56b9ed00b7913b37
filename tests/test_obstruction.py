import dataclasses
import math
import sys

import pytest

import revspec.obstruction as obstruction
import revspec.solver as solver
from revspec.families import squeeze_profile
from revspec.obstruction import (
    ABREU_FREITAS_THRESHOLD, TRACE_FLAG_THRESHOLD, XI1,
    even_multiplicity_test, full_report, negative_curvature_witness,
    spectral_test, sup_test, trace_flag,
)
from revspec.profile import curvature, profile_from_text
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


def test_sup_refines_inside_the_pole_cells():
    # |f'| = 2|x| (1 + 2c(1 - x^2)) peaks at 2 + (4c - 1)^2/(12c) where
    # 1 - |x| = (4c - 1)/(12c), 1.3e-4 from each pole: inside the last grid
    # cell, whose only grid maximum is the pole sample with |f'| = 2
    st = sup_test(profile_from_text("(1 - x^2) * (1 + 0.2501*(1 - x^2))"))
    assert abs(st.argmax_x) == pytest.approx(1.0 - 0.0004 / 3.0012, abs=1e-6)
    assert st.max_slope - 2.0 == pytest.approx(0.0004 ** 2 / 3.0012, rel=1e-3)
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
    assert not t.reduction_holds
    assert t.lambda_m == pytest.approx(20.0, rel=1e-8)
    assert t.explanation == ""


def test_even_multiplicities_pinched(pinched_profile):
    t = even_multiplicity_test(pinched_profile)
    assert t.multiplicities == (2, 2, 2, 2)
    assert t.all_even and t.reduction_holds
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


def _count_refines(monkeypatch) -> list[int]:
    """Channels of every run of the one refinement loop, the channel
    store's ``refine``."""
    channels, loop = [], solver._Channels.refine

    def spy(self, k, n):
        channels.append(k)
        return loop(self, k, n)

    monkeypatch.setattr(solver._Channels, "refine", spy)
    return channels


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


@pytest.mark.parametrize("which", ["round", "pinched"])
def test_full_report_refines_channel_0_once(which, round_profile,
                                            pinched_profile, monkeypatch):
    p = round_profile if which == "round" else pinched_profile
    channels = _count_refines(monkeypatch)
    full_report(p)
    assert channels.count(0) == 1


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
