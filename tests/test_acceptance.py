"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run ``pytest tests/test_acceptance.py -s`` to see the ``[acceptance N]``
lines as they complete.  Every quantity asserted here is either a closed
form, a pinned rational constant, or a reference value computed once at
high precision and frozen into the assertion.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from revspec import (
    channel_lower_bound, embed_profile_curve, full_report,
    gauss_bonnet_residual, induced_metric_residual, lambda01_upper_bound,
    make_mesh, mesh_area, parse, profile_from_text, rayleigh_quotient,
    refine, solve_channel, trace0_integral, trace_partial_sum,
)


@contextmanager
def _criterion(number, label, budget_s=None, spent_s=0.0):
    """``spent_s``: seconds of the criterion's work already done in fixtures."""
    start = time.perf_counter()
    try:
        yield
        if budget_s is not None:
            elapsed = spent_s + time.perf_counter() - start
            assert elapsed < budget_s, (
                f"runtime {elapsed:.1f}s exceeded the {budget_s:g}s budget")
    except BaseException:
        print(f"\n[acceptance {number}] {label}: FAIL")
        raise
    print(f"\n[acceptance {number}] {label}: PASS")


def test_acceptance_1_round_sphere_oracle(round_profile):
    """Every channel eigenvalue of the round sphere matches its closed form."""
    with _criterion(1, "round-sphere spectrum matches the closed form", 10.0):
        for k in range(0, 9):
            cs = solve_channel(round_profile, k, n_eigs=10, basis_size=96)
            for j, lam in enumerate(cs.eigenvalues, start=1):
                exact = j * (j + 1) if k == 0 else (k + j - 1) * (k + j)
                assert lam == pytest.approx(exact, rel=1e-6), (k, j)


def test_acceptance_2_pinned_constants(pinched_profile):
    """The pinched profile's rational trace constant and the channel-4
    quotient bracket, against pinned values."""
    with _criterion(2, "pinched-profile pinned constants", 5.0):
        assert 1.0 / trace0_integral(pinched_profile) == \
            pytest.approx(185 / 23, rel=1e-9)
        q = rayleigh_quotient(pinched_profile, 4, parse("sqrt(1 - x^2)"))
        # reference value computed independently at 40 digits and frozen;
        # 1477/185 is the looser hand bracket obtained by bounding the
        # denominator of the slope term, so the true quotient sits below it
        assert q == pytest.approx(7.147139801758811, rel=1e-9)
        assert q < 8.0
        assert q <= 1477 / 185


def test_acceptance_3_pinched_end_to_end(pinched_profile):
    """Even multiplicities, the spectral threshold, and the slope bound all
    fire together on the pinched profile, with no internal contradiction."""
    with _criterion(3, "pinched profile end-to-end obstruction", 60.0):
        report = full_report(pinched_profile)
        em = report.even_multiplicity_test
        assert len(em.multiplicities) == 4
        assert all(m % 2 == 0 for m in em.multiplicities)
        assert em.all_even
        assert report.spectral_test.lambda01 > 3.0
        assert report.sup_test.max_slope > 2.0
        assert report.verdict == "not_embeddable"
        assert report.spectral_verdict == "not_embeddable"
        assert report.consistency_failures == ()


def test_acceptance_4_trace_partial_sums(round_profile):
    """Partial reciprocal sums approach each channel's trace from below,
    within the telescoping remainder."""
    with _criterion(4, "channel trace partial sums", None):
        for k in range(0, 5):
            cs = refine(round_profile, k, n_eigs=50, target_rel_err=1e-10)
            s = trace_partial_sum(cs, 50)
            target = 1.0 if k == 0 else 1.0 / k
            remainder = 1.0 / 51 if k == 0 else 1.0 / (k + 50)
            assert abs(s - target) <= remainder + 1e-6, k
            assert s < target, k


def test_acceptance_5_family_properties(family_reports):
    """Structural invariants hold across a 50-member randomized family."""
    reports, report_seconds = family_reports
    with _criterion(5, "randomized-family property suite", 600.0,
                    spent_s=report_seconds):
        assert len(reports) >= 50
        for p, report in reports:
            assert gauss_bonnet_residual(p) <= 1e-6, p.name
            table = report.even_multiplicity_test.table
            certified = [e for e in table.entries if e.value <= table.cutoff]
            assert certified, p.name
            for m, e in enumerate(certified, start=1):
                # multiplicity parity tracks the invariant channel exactly
                has_invariant = any(k == 0 for k, _ in e.channels)
                assert (e.multiplicity % 2 == 1) == has_invariant, p.name
                for k, j in e.channels:
                    # trace-derived lower bounds, strictly
                    assert e.value > channel_lower_bound(p, k, j), p.name
                    # channel eigenvalues interlace into the merged list
                    assert m >= k + j - 1, (p.name, m, k, j)
            # first nonzero eigenvalue respects the closed-form upper bound
            assert certified[0].value <= \
                lambda01_upper_bound(p) * (1 + 1e-9), p.name
            assert report.spectral_test.lambda01 > channel_lower_bound(p, 0, 1)
            # implication chain of the obstruction verdicts
            if report.spectral_test.triggered or \
                    report.even_multiplicity_test.all_even:
                assert report.spectral_verdict == "not_embeddable", p.name
            if report.spectral_verdict == "not_embeddable":
                assert not report.sup_test.embeddable, p.name
                assert report.verdict == "not_embeddable", p.name
            if report.sup_test.embeddable:
                assert report.verdict == "embeddable", p.name
                assert not report.spectral_test.triggered, p.name
                assert not report.even_multiplicity_test.all_even, p.name
            assert report.consistency_failures == (), p.name


def test_acceptance_6_embedding_isometry(round_profile):
    """Exported surfaces carry the right induced metric and total area."""
    with _criterion(6, "embedding isometry and area", None):
        profiles = [round_profile]
        for c in (0.05, 0.1, 0.15, 0.2, 0.24):
            profiles.append(profile_from_text(
                f"(1 - x^2) * (1 + {c}*(1 - x^2))", name=f"bump-{c}"))
        for p in profiles:
            curve = embed_profile_curve(p, n_samples=256)
            mesh = make_mesh(curve, n_theta=128)
            res = induced_metric_residual(mesh, p)
            assert res.sup <= 1e-5, p.name
            area = mesh_area(mesh)
            assert abs(area - 4 * np.pi) / (4 * np.pi) <= 1e-3, p.name


def test_acceptance_7_external_frequency_threshold(family_reports):
    """Every slope-embeddable family member sits below the external
    first-frequency threshold (flagged informational: a failure here would
    be investigated, not auto-rejected)."""
    with _criterion(7, "external threshold on embeddable members", None):
        checked = 0
        reports, _ = family_reports
        for p, report in reports:
            if report.sup_test.embeddable:
                checked += 1
                assert report.abreu_freitas_test.lambda01 < 2.8916, p.name
                assert not report.abreu_freitas_test.triggered, p.name
        assert checked >= 25  # the family must genuinely exercise the check
