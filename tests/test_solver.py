import ast
import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import revspec.solver as solver
from revspec.exprs import parse
from revspec.families import builtin_profile
from revspec.profile import InvalidProfileError, make_profile, profile_from_text
from revspec.quadrature import gauss_legendre, integrate_gl
from revspec.solver import (
    AdmissibilityError, ConvergenceError, SolverError, assemble,
    rayleigh_quotient, refine, solve_channel,
)
from revspec.spectrum import enumerate_below

# Gauss-Legendre weights of the nonnegative nodes, ascending, computed with
# mpmath at 50 digits (Newton on mpmath.legendre) and rounded to 17 digits
MPMATH_WEIGHTS = {
    8: [0.36268378337836198, 0.31370664587788729, 0.22238103445337447,
        0.10122853629037626],
    64: [0.04869095700913972, 0.048575467441503427, 0.048344762234802957,
         0.047999388596458308, 0.047540165714830309, 0.046968182816210017,
         0.046284796581314417, 0.045491627927418144, 0.044590558163756563,
         0.043583724529323453, 0.042473515123653589, 0.041262563242623529,
         0.039953741132720341, 0.038550153178615629, 0.037055128540240046,
         0.035472213256882384, 0.033805161837141609, 0.032057928354851554,
         0.030234657072402479, 0.028339672614259483, 0.026377469715054659,
         0.024352702568710873, 0.022270173808383254, 0.020134823153530209,
         0.017951715775697343, 0.015726030476024719, 0.013463047896718643,
         0.011168139460131129, 0.0088467598263639477, 0.0065044579689783629,
         0.0041470332605624676, 0.0017832807216964329],
}


SRC = Path(__file__).resolve().parents[1] / "src"

# the round sphere times a multiplier with an odd term, equal to 1 to
# second order at the poles
ASYMMETRIC_BUMP = profile_from_text("(1 - x^2) * (1 + (1 - x^2)*(0.3*x + 0.2*x^2))")


def round_eigenvalue(k, j):
    """Closed form for the round sphere: j(j+1) in the invariant channel,
    (k+j-1)(k+j) in channel k >= 1."""
    return j * (j + 1) if k == 0 else (k + j - 1) * (k + j)


# ---------------------------------------------------------------------------
# Gauss-Legendre rules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 7, 8, 64, 200, 2048])
def test_gauss_rule_is_symmetric_and_exact_on_even_monomials(n):
    x, w = gauss_legendre.__wrapped__(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    for p in range(0, 2 * n, 2):
        exact = 2.0 / (p + 1)
        # rounding the nodes to doubles alone moves x^p by up to p/2 ulps
        tol = 1e-14 + p * 2.0 ** -53
        assert abs(math.fsum(w * x ** p) - exact) <= tol * exact, p


@pytest.mark.parametrize("n", sorted(MPMATH_WEIGHTS))
def test_gauss_weights_match_mpmath(n):
    _, w = gauss_legendre(n)
    want = np.array(MPMATH_WEIGHTS[n])
    assert np.max(np.abs(w[n // 2:] - want) / want) <= 2e-13


@pytest.mark.parametrize("n", [64, 200, 1024, 2048, 8192])
def test_fixed_order_integral_rounds_the_exact_gauss_sum(n):
    """``integrate_gl`` is the correctly rounded sum of the weighted node
    values, bit for bit, so no CPU-dependent BLAS summation order reaches
    ``trace0_integral``, ``lambda01_upper_bound`` or ``gauss_bonnet_residual``."""
    def fn(x):
        return (1.0 - x * x) / (1.0 + 9.0 * x ** 36) + np.sin(7.0 * x)

    a, b = -1.0, 0.75
    xi, wi = gauss_legendre(n)
    half = 0.5 * (b - a)
    terms = wi * fn(0.5 * (a + b) + half * xi)
    exact = float(sum(Fraction(float(t)) for t in terms))
    assert integrate_gl(fn, a, b, n) == half * exact


def test_gauss_rule_rejects_empty_rules():
    with pytest.raises(ValueError, match="at least one node"):
        gauss_legendre.__wrapped__(0)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [0, 1, 3])
def test_assembled_matrices_are_symmetric(pinched_profile, k):
    sys = assemble(pinched_profile, k, 24)
    assert np.array_equal(sys.stiffness, sys.stiffness.T)
    assert np.array_equal(sys.mass, sys.mass.T)
    assert sys.quad_points == (2 if k == 1 else 1) * 4 * 24


@pytest.mark.parametrize("k", [0, 2, 5, 97, 150, 436, 511])
def test_mass_matrix_is_identity(round_profile, k):
    # the weighted basis is orthonormal and the quadrature is exact for it:
    # the mass entries have degree 2k + 2N - 2, within 2Q - 1 once Q >= N + k
    sys = assemble(round_profile, k, 32)
    assert sys.quad_points >= 32 + k
    assert np.max(np.abs(sys.mass - np.eye(32))) < 1e-11


def test_assemble_argument_checks(round_profile):
    with pytest.raises(ValueError, match="mirror"):
        assemble(round_profile, -1, 32)
    with pytest.raises(ValueError, match="basis_size"):
        assemble(round_profile, 0, 4)
    with pytest.raises(InvalidProfileError):
        assemble(profile_from_text("2*(1 - x^2)"), 0, 32)


# ---------------------------------------------------------------------------
# fixed-basis solves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
def test_round_channels_reproduce_the_closed_form(round_profile, k):
    assert assemble(round_profile, k, 64).parity_split
    cs = solve_channel(round_profile, k, 6, 64)
    expected = [round_eigenvalue(k, j) for j in range(1, 7)]
    assert np.allclose(cs.eigenvalues, expected, rtol=1e-12)


def test_zero_mode_is_dropped_not_reported(round_profile):
    cs = solve_channel(round_profile, 0, 1, 32)
    assert cs.eigenvalues[0] == pytest.approx(2.0, rel=1e-12)


def test_eigenvalues_decrease_with_basis_size(pinched_profile):
    # nested trial spaces: every eigenvalue can only move down
    coarse = solve_channel(pinched_profile, 0, 4, 32).eigenvalues
    fine = solve_channel(pinched_profile, 0, 4, 64).eigenvalues
    finer = solve_channel(pinched_profile, 0, 4, 128).eigenvalues
    for a, b, c in zip(coarse, fine, finer):
        assert a >= b - 1e-10 * abs(a)
        assert b >= c - 1e-10 * abs(b)


def test_convergence_estimates_shrink(pinched_profile):
    est32 = solve_channel(pinched_profile, 1, 2, 32).convergence_estimates
    est128 = solve_channel(pinched_profile, 1, 2, 128).convergence_estimates
    assert est128[0] < est32[0]


def test_solve_channel_argument_checks(round_profile):
    with pytest.raises(ValueError, match="n_eigs"):
        solve_channel(round_profile, 0, 0, 32)
    with pytest.raises(ValueError, match="at least 16"):
        solve_channel(round_profile, 0, 1, 8)
    with pytest.raises(ValueError, match="exceeds"):
        solve_channel(round_profile, 0, 20, 32)


def test_channel_one_respects_the_linear_lower_bound(small_family):
    for p in small_family:
        cs = solve_channel(p, 1, 3, 32)
        for j, lam in enumerate(cs.eigenvalues, start=1):
            assert lam > j


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def test_refine_meets_the_requested_estimate(pinched_profile):
    cs = refine(pinched_profile, 0, 3, target_rel_err=1e-8)
    assert max(cs.convergence_estimates) <= 1e-8
    assert list(cs.eigenvalues) == sorted(cs.eigenvalues)


def test_refine_cap_carries_the_best_spectrum(pinched_profile):
    with pytest.raises(ConvergenceError) as exc_info:
        refine(pinched_profile, 0, 4, target_rel_err=1e-12, basis_cap=32)
    best = exc_info.value.best
    assert best.basis_size == 32
    assert len(best.eigenvalues) == 4


def test_refine_solves_each_basis_size_once(pinched_profile, monkeypatch):
    sizes = []

    def counting(p, k, basis_size, quad_mult=4):
        sizes.append(basis_size)
        return assemble(p, k, basis_size, quad_mult=quad_mult)

    monkeypatch.setattr(solver, "assemble", counting)
    cs = refine(pinched_profile, 2, 12)
    assert cs.basis_size == 256
    # 32 to 256 takes four sizes; only the first one solves its half
    assert sizes == [32, 16, 64, 128, 256]
    monkeypatch.undo()
    two_solves = solve_channel(pinched_profile, 2, 12, 256)
    assert np.allclose(cs.eigenvalues, two_solves.eigenvalues, rtol=1e-12, atol=0)
    assert np.allclose(cs.convergence_estimates, two_solves.convergence_estimates,
                       rtol=1e-12, atol=1e-15)


def test_identity_mass_takes_the_standard_eigenproblem(pinched_profile, monkeypatch):
    calls, orders, eigh = [], [], solver.eigh

    def spy(*args, **kwargs):
        calls.append(len(args))  # the matrix alone: the standard problem
        orders.append(args[0].shape[0])
        return eigh(*args, **kwargs)

    monkeypatch.setattr(solver, "eigh", spy)
    # paper-example is even in x: sizes 32 and 16 each solve an even-n and
    # an odd-n block of half the order
    solve_channel(pinched_profile, 3, 4, 32)
    assert calls == [1, 1, 1, 1]
    assert orders == [16, 16, 8, 8]

    # scaling the pencil (A, B) to (2A, 2B) keeps its eigenvalues but moves
    # B off the identity, which the node rule rules out: a broken assembly,
    # reported with its channel and basis size before any eigensolve
    def scaled(p, k, basis_size, quad_mult=4):
        sys = assemble(p, k, basis_size, quad_mult=quad_mult)
        return dataclasses.replace(sys, stiffness=2.0 * sys.stiffness,
                                   mass=2.0 * sys.mass)

    calls.clear()
    monkeypatch.setattr(solver, "assemble", scaled)
    with pytest.raises(SolverError, match=r"channel 3, basis 32, 128 nodes"):
        solve_channel(pinched_profile, 3, 4, 32)
    assert calls == []

    # an asymmetric profile is solved whole: one standard solve per size
    calls.clear()
    orders.clear()
    monkeypatch.setattr(solver, "assemble", assemble)
    solve_channel(ASYMMETRIC_BUMP, 3, 4, 32)
    assert calls == [1, 1]
    assert orders == [32, 16]


def test_no_module_imports_scipy_linalg():
    """Every channel solves the standard problem with numpy: no module
    under ``src/`` imports ``scipy.linalg``, at its top or in a function."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not any(n == "scipy.linalg" or n.startswith("scipy.linalg.")
                           for n in names), f"{path.name}:{node.lineno}"


def test_refine_rejects_unresolvable_targets(round_profile):
    with pytest.raises(ValueError, match="floor"):
        refine(round_profile, 0, 1, target_rel_err=1e-13)


# ---------------------------------------------------------------------------
# parity split of mirror-symmetric profiles
# ---------------------------------------------------------------------------

def with_odd_term(p, size):
    """``p`` times ``1 + size * x``: the same endpoint values, and a mirror
    asymmetry of relative size about ``size``."""
    f = p.f
    return dataclasses.replace(p, f=lambda x: f(x) * (1.0 + size * x))


def assert_same_table(a, b, rtol):
    assert [(e.multiplicity, e.channels) for e in a.entries] == \
        [(e.multiplicity, e.channels) for e in b.entries]
    assert np.allclose(a.values(), b.values(), rtol=rtol, atol=0)
    assert a.cutoff == pytest.approx(b.cutoff, rel=rtol)


def split_decisions(monkeypatch, p, below):
    """``enumerate_below(p, below)`` and the ``parity_split`` of every
    system it assembled."""
    seen = []

    def recording(*args, **kwargs):
        sys = assemble(*args, **kwargs)
        seen.append(sys.parity_split)
        return sys

    with monkeypatch.context() as m:
        m.setattr(solver, "assemble", recording)
        table = enumerate_below(p, below)
    assert seen
    return table, seen


@pytest.mark.parametrize("name", ["round", "paper-example"])
def test_split_matches_the_full_assembly(name, monkeypatch):
    # an odd term of 1e-13 relative is far above the mirror check's
    # roundoff level and moves no eigenvalue by more than about 1e-13
    p = builtin_profile(name)
    split, decisions = split_decisions(monkeypatch, p, 21)
    full, full_decisions = split_decisions(monkeypatch, with_odd_term(p, 1e-13), 21)
    assert all(decisions) and not any(full_decisions)
    assert_same_table(split, full, 1e-12)


def test_a_small_odd_term_is_never_split(round_profile, monkeypatch):
    p = profile_from_text("(1 - x^2) * (1 + 1e-9*x*(1 - x^2))")
    table, decisions = split_decisions(monkeypatch, p, 13)
    assert not any(decisions)
    for k in (0, 1, 4):
        for n in (8, 32, 256):
            assert not assemble(p, k, n).parity_split
    assert_same_table(table, enumerate_below(round_profile, 13), 1e-8)


def test_spline_through_symmetric_samples(monkeypatch):
    # samples on a mirrored grid; the spline may or may not evaluate to an
    # exactly mirrored f on the Gauss nodes, and either path must agree
    h = np.linspace(0.0, 1.0, 65)
    x = np.concatenate((-h[:0:-1], h))
    expr = profile_from_text("2*(1 - x^2) / (1 + x^8)")
    p = make_profile(list(zip(x, expr.f(x))))
    table, _ = split_decisions(monkeypatch, p, 13)
    full, full_decisions = split_decisions(monkeypatch, with_odd_term(p, 1e-13), 13)
    assert not any(full_decisions)
    assert_same_table(table, full, 1e-12)


@pytest.mark.parametrize("k,n", [(0, 32), (1, 33), (4, 64)])
def test_split_system_layout(pinched_profile, k, n):
    sys = assemble(pinched_profile, k, n)
    q = 4 * n * (2 if k == 1 else 1)
    assert sys.parity_split and sys.quad_points == q
    assert sys.stiffness.shape == sys.mass.shape == (n, n)
    cross = (np.arange(n)[:, None] + np.arange(n)) % 2 == 1
    assert np.all(sys.stiffness[cross] == 0.0) and np.all(sys.mass[cross] == 0.0)
    assert np.max(np.abs(sys.mass - np.eye(n))) < 1e-11


def test_an_odd_node_count_is_assembled_whole(pinched_profile):
    # nine nodes put one at x = 0, which has no mirror partner
    sys = assemble(pinched_profile, 0, 9, quad_mult=1)
    assert sys.quad_points == 9 and not sys.parity_split


# ---------------------------------------------------------------------------
# Rayleigh quotients
# ---------------------------------------------------------------------------

def test_quotient_of_the_exact_eigenfunction(round_profile):
    assert rayleigh_quotient(round_profile, 0, parse("x")) == \
        pytest.approx(2.0, rel=1e-12)
    assert rayleigh_quotient(round_profile, 1, parse("sqrt(1 - x^2)")) == \
        pytest.approx(2.0, rel=1e-10)


@pytest.mark.parametrize("k,trial", [(0, "x"), (2, "1 - x^2")])
def test_quotient_bounds_the_first_eigenvalue(pinched_profile, k, trial):
    rq = rayleigh_quotient(pinched_profile, k, parse(trial))
    lam = refine(pinched_profile, k, 1).eigenvalues[0]
    assert rq >= lam * (1 - 1e-9)


def test_quotient_admissibility(round_profile):
    with pytest.raises(AdmissibilityError, match="orthogonal"):
        rayleigh_quotient(round_profile, 0, parse("1 + x"))
    with pytest.raises(AdmissibilityError, match="vanish"):
        rayleigh_quotient(round_profile, 2, parse("1"))
    with pytest.raises(ValueError, match=">= 0"):
        rayleigh_quotient(round_profile, -1, parse("x"))
