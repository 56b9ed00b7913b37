import ast
import dataclasses
import functools
import importlib
import math
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import revspec.solver as solver
from revspec.exprs import parse
from revspec.families import builtin_profile, reference_family
from revspec.obstruction import full_report
from revspec.profile import InvalidProfileError, make_profile, profile_from_text
from revspec.quadrature import QuadratureError, gauss_legendre, integrate_gl
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


def mass_matrix(sys):
    """The mass matrix of an assembled system, built from the basis on its
    own node rule: on a parity split, each parity block on the nonnegative
    nodes with doubled weights, exact zeros between the blocks."""
    x, w = gauss_legendre(sys.quad_points)
    if sys.parity_split:
        half = sys.quad_points // 2
        x, w = x[half:], 2.0 * w[half:]
    phi, _ = solver._basis_values(sys.k, x, sys.basis_size)
    B = np.zeros((sys.basis_size, sys.basis_size))
    for rows in solver._parity_blocks(sys.parity_split, sys.basis_size):
        B[rows, rows] = (phi[rows] * w) @ phi[rows].T
    return B


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


@pytest.mark.parametrize("fn, n, message", [
    (lambda x: np.where(x > 0.0, np.inf, -np.inf), 8, "not finite"),
    (lambda x: np.full_like(x, np.nan), 8, "not finite"),
    (lambda x: np.full_like(x, 1e308), 1, "not finite"),  # times the weight 2
    (lambda x: np.full_like(x, 1e308), 8, "overflows"),   # summed
], ids=["infinite", "nan", "weighted", "sum"])
def test_fixed_order_integral_refuses_non_finite_sums(fn, n, message):
    with pytest.raises(QuadratureError, match=message):
        integrate_gl(fn, -1.0, 1.0, n)


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
    assert sys.quad_points == (2 if k == 1 else 1) * 4 * 24


@pytest.mark.parametrize("k", [0, 2, 5, 97, 150, 436, 511])
def test_mass_matrix_is_identity(round_profile, k):
    # the weighted basis is orthonormal and the quadrature is exact for it:
    # the mass entries have degree 2k + 2N - 2, within 2Q - 1 once Q >= N + k
    sys = assemble(round_profile, k, 32)
    assert sys.quad_points >= 32 + k
    assert np.max(np.abs(mass_matrix(sys) - np.eye(32))) < 1e-11


@pytest.mark.parametrize("k,n", [(0, 32), (2, 32), (5, 64), (3, 256)])
def test_one_node_short_misses_only_the_diagonal(k, n, monkeypatch):
    """With ``N + k - 1`` nodes only the top-degree entry ``(N-1, N-1)`` is
    out of the rule's reach, so the diagonal check that ``assemble`` makes
    sees a rule one node short."""
    x, w = gauss_legendre(n + k - 1)
    phi, _ = solver._basis_values(k, x, n)
    B = (phi * w) @ phi.T
    assert np.max(np.abs(np.diag(B) - 1.0)) > 0.5
    assert np.max(np.abs(B - np.diag(np.diag(B)))) < 1e-13
    # the mirror-asymmetric profile keeps the whole short rule
    monkeypatch.setattr(solver, "gauss_legendre", lambda q: (x, w))
    with pytest.raises(SolverError, match=rf"channel {k}, basis {n}, \d+ nodes: "
                                          r"mass matrix diagonal"):
        assemble(ASYMMETRIC_BUMP, k, n)


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


# ---------------------------------------------------------------------------
# failures name the profile, the channel and the basis size
# ---------------------------------------------------------------------------

def test_a_refinement_failure_names_the_profile_channel_and_basis(pinched_profile):
    with pytest.raises(ConvergenceError,
                       match=r"^expression profile 'paper-example', channel 0, "
                             r"basis 32: estimates"):
        refine(pinched_profile, 0, 4, target_rel_err=1e-12, basis_cap=32)


def test_a_nonpositive_profile_on_the_nodes_names_where(round_profile, monkeypatch):
    # nodes pushed past the poles, where 1 - x^2 is negative
    monkeypatch.setattr(solver, "gauss_legendre",
                        lambda q: (2.0 * gauss_legendre(q)[0], gauss_legendre(q)[1]))
    with pytest.raises(SolverError,
                       match=r"^expression profile 'round', channel 2, basis 16, "
                             r"64 nodes: profile not positive"):
        assemble(round_profile, 2, 16)


def test_a_nonfinite_stiffness_names_where(monkeypatch):
    basis_values = solver._basis_values

    def broken(k, x, n):
        phi, dphi = basis_values(k, x, n)
        return phi, np.where(x > 0.5, np.inf, dphi)

    monkeypatch.setattr(solver, "_basis_values", broken)
    with pytest.raises(SolverError,
                       match=r"^expression profile '', channel 1, basis 16, "
                             r"128 nodes: assembled stiffness"):
        assemble(ASYMMETRIC_BUMP, 1, 16)


def test_an_unresolved_zero_mode_names_where(pinched_profile, monkeypatch):
    monkeypatch.setattr(solver, "eigh", lambda a: np.linalg.eigvalsh(a) + 1.0)
    with pytest.raises(SolverError,
                       match=r"^expression profile 'paper-example', channel 0, "
                             r"basis 32: zero mode not resolved "
                             r"\(leading value [0-9.e+-]+\)$"):
        solve_channel(pinched_profile, 0, 4, 32)


def test_refine_solves_each_basis_size_once(pinched_profile, monkeypatch):
    sizes = []

    def counting(p, k, basis_size, **kwargs):
        sizes.append(basis_size)
        return assemble(p, k, basis_size, **kwargs)

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

    # Gauss weights scaled by 1 + 1e-9 move the mass matrix off the
    # identity, which the node rule rules out: a broken assembly, reported
    # with its channel, basis size and node count before any eigensolve
    def scaled(n):
        x, w = gauss_legendre(n)
        return x, w * (1.0 + 1e-9)

    calls.clear()
    monkeypatch.setattr(solver, "gauss_legendre", scaled)
    with pytest.raises(SolverError, match=r"channel 3, basis 32, 128 nodes"):
        solve_channel(pinched_profile, 3, 4, 32)
    assert calls == []

    # an asymmetric profile is solved whole: one standard solve per size
    calls.clear()
    orders.clear()
    monkeypatch.setattr(solver, "gauss_legendre", gauss_legendre)
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


def test_no_module_imports_scipy():
    """numpy is the one numerical dependency: no module under ``src/``
    imports ``scipy`` or any of its submodules, at its top or in a
    function (the sample spline is the package's own)."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), \
                f"{path.name}:{node.lineno}"


def test_every_exported_name_resolves():
    """Each module under ``src/revspec`` lists in ``__all__`` only names it
    defines or imports, so a deletion cannot leave an export behind."""
    paths = sorted((SRC / "revspec").glob("*.py"))
    assert len(paths) == 11
    for path in paths:
        name = "revspec" if path.stem == "__init__" else f"revspec.{path.stem}"
        module = importlib.import_module(name)
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (name, missing)


def test_refine_rejects_unresolvable_targets(round_profile):
    with pytest.raises(ValueError, match="floor"):
        refine(round_profile, 0, 1, target_rel_err=1e-13)
    # ten times the target, the tables' resolution, must stay below 1e-2
    with pytest.raises(ValueError, match=r"\[1e-12, 0\.001\)"):
        refine(round_profile, 0, 1, target_rel_err=1e-3)


def test_refine_names_the_basis_an_oversized_request_needs():
    # 600 eigenvalues need 1200 basis functions: the first doubling of 32
    # at or above that is 2048, past the default cap
    with pytest.raises(ValueError,
                       match=r"n_eigs=600 needs a basis of 2048, above basis_cap=1024"):
        refine(builtin_profile("round"), 0, 600)


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


def test_even_expressions_are_mirror_exact_on_every_rule(bench_squeezes):
    """f of an even expression equals its mirror bit for bit on each Gauss
    rule the solver uses, so its split needs no allowance; the 8-ulp one
    is for sample and transformed profiles."""
    for p in bench_squeezes:
        for q in (64, 128, 256, 512, 1024):
            fq = p.f(gauss_legendre(q)[0])
            assert fq.tobytes() == fq[::-1].tobytes(), (p.name, q)


@pytest.mark.parametrize("k,n", [(0, 32), (1, 33), (4, 64)])
def test_split_system_layout(pinched_profile, k, n):
    sys = assemble(pinched_profile, k, n)
    q = 4 * n * (2 if k == 1 else 1)
    assert sys.parity_split and sys.quad_points == q
    assert sys.stiffness.shape == (n, n)
    cross = (np.arange(n)[:, None] + np.arange(n)) % 2 == 1
    assert np.all(sys.stiffness[cross] == 0.0)
    assert np.max(np.abs(mass_matrix(sys) - np.eye(n))) < 1e-11


# ---------------------------------------------------------------------------
# basis tables kept across calls
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,n,q,split", [(0, 32, 128, True), (1, 32, 256, False),
                                         (3, 64, 256, True), (5, 16, 64, False)])
def test_a_kept_table_is_the_fresh_build_and_read_only(k, n, q, split):
    phi, dphi = solver._basis_table(k, n, q, split)
    assert solver._kept_table.cache_info().currsize == 1
    assert solver._basis_table(k, n, q, split)[0] is phi
    assert solver._kept_table.cache_info().hits == 1
    x = gauss_legendre(q)[0]
    x = x[q // 2:] if split else x
    fresh = solver._basis_values(k, x, n)
    # the weights applied out of place, as a product and a sum of products
    P, dP = solver._jacobi_values(k, n, x)
    w = (1.0 - x * x) ** (0.5 * k)
    dw = -k * x * w / (1.0 - x * x)
    for kept, built, formula in ((phi, fresh[0], w * P), (dphi, fresh[1], dw * P + w * dP)):
        assert kept.tobytes() == built.tobytes() == formula.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            kept[0, 0] = 0.0


def loop_jacobi_values(k, n_max, x):
    """The Jacobi recurrence row by row, values and derivatives apart."""
    P = np.empty((n_max, x.size))
    dP = np.empty((n_max, x.size))
    P[0] = 1.0 / math.sqrt(solver._weight_mass(k))
    dP[0] = 0.0
    if n_max == 1:
        return P, dP
    sb = np.empty(n_max + 1)
    for n in range(1, n_max + 1):
        sb[n] = math.sqrt(n * (n + 2 * k)
                          / ((2 * n + 2 * k - 1.0) * (2 * n + 2 * k + 1.0)))
    P[1] = x * P[0] / sb[1]
    dP[1] = P[0] / sb[1]
    for n in range(1, n_max - 1):
        P[n + 1] = (x * P[n] - sb[n] * P[n - 1]) / sb[n + 1]
        dP[n + 1] = (P[n] + x * dP[n] - sb[n] * dP[n - 1]) / sb[n + 1]
    return P, dP


def loop_basis_values(k, x, n_max):
    """The weights applied to the row-by-row recurrence, one row at a time."""
    P, dP = loop_jacobi_values(k, n_max, x)
    if k == 0:
        return P, dP
    om = 1.0 - x * x
    w = om ** (0.5 * k)
    dw = -k * x * w / om
    dP *= w
    for n in range(n_max):
        dP[n] += dw * P[n]
    P *= w
    return P, dP


@pytest.mark.parametrize("k,n,q", [(0, 1, 16), (7, 2, 16), (0, 8, 32), (1, 9, 64),
                                   (2, 33, 100), (5, 128, 512), (1, 128, 1024)])
def test_the_stacked_recurrence_is_the_row_by_row_one_bit_for_bit(k, n, q):
    x = gauss_legendre(q)[0]
    stacked = solver._jacobi_values(k, n, x)
    assert stacked.shape == (2, n, q) and stacked.flags.c_contiguous
    tables = solver._basis_values(k, x, n)
    for got, want in zip((*stacked, *tables),
                         (*loop_jacobi_values(k, n, x), *loop_basis_values(k, x, n))):
        assert got.flags.c_contiguous
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def test_a_table_above_the_admission_size_is_built_on_each_use():
    admission = solver.BASIS_CACHE_BYTES // 64
    # 128 rows on 128 nonnegative nodes: 256 KiB, the largest kept pair;
    # twice the nodes: built for each use, read-only all the same
    kept = solver._basis_table(2, 128, 256, True)
    assert kept[0].nbytes + kept[1].nbytes == admission
    assert solver._basis_table(2, 128, 256, True)[0] is kept[0]
    big = solver._basis_table(2, 128, 512, True)
    assert big[0].nbytes + big[1].nbytes > admission
    again = solver._basis_table(2, 128, 512, True)
    assert again[0] is not big[0]
    assert again[0].tobytes() == big[0].tobytes()
    with pytest.raises(ValueError, match="read-only"):
        big[1][0, 0] = 0.0
    assert solver._kept_table.cache_info().currsize == 1


def _reports():
    """``repr`` of the full reports of paper-example and an asymmetric bump,
    on new profile objects."""
    bump = "(1 - x^2) * (1 + (1 - x^2)*(0.3*x + 0.2*x^2))"
    return [repr(full_report(p)) for p in (builtin_profile("paper-example"),
                                           profile_from_text(bump, name="bump"))]


def test_reports_do_not_depend_on_the_cache_history(monkeypatch):
    cache = solver._kept_table
    cold = _reports()
    assert cache.cache_info().currsize
    assert _reports() == cold
    # a deeper enumeration fills the cache, dropping some of the reports'
    # tables and keeping others
    enumerate_below(builtin_profile("paper-example"), 60)
    info = cache.cache_info()
    assert info.currsize == info.maxsize < info.misses
    assert _reports() == cold
    monkeypatch.setattr(solver, "BASIS_CACHE_BYTES", 0)
    cache.cache_clear()
    assert _reports() == cold
    assert cache.cache_info().currsize == 0


def test_the_cache_stays_within_its_budget(monkeypatch):
    """At most ``maxsize`` pairs, none above ``BASIS_CACHE_BYTES // 64``:
    the cache stays within ``BASIS_CACHE_BYTES``.  A stand-in cache of four
    pairs shows both halves under eviction."""
    maxsize = solver._kept_table.cache_parameters()["maxsize"]
    assert maxsize * (solver.BASIS_CACHE_BYTES // 64) == solver.BASIS_CACHE_BYTES
    built, admitted, checked = {}, [], []
    basis_values, build = solver._basis_values, solver._build_table

    def recording(k, x, n):
        phi, dphi = basis_values(k, x, n)
        built[k, n, x.size] = phi.nbytes + dphi.nbytes
        return phi, dphi

    def admitting(k, n, q, split):
        admitted.append((k, n, q // 2 if split else q))
        return build(k, n, q, split)

    small = functools.lru_cache(maxsize=4)(admitting)

    def checking(*args, **kwargs):
        sys = assemble(*args, **kwargs)
        assert small.cache_info().currsize <= 4
        checked.append(sys.quad_points)
        return sys

    monkeypatch.setattr(solver, "_basis_values", recording)
    monkeypatch.setattr(solver, "_kept_table", small)
    monkeypatch.setattr(solver, "assemble", checking)
    enumerate_below(builtin_profile("paper-example"), 30)
    assert checked
    # some pairs were too large to keep, and some were kept and then dropped
    admission = solver.BASIS_CACHE_BYTES // 64
    assert any(size > admission for size in built.values())
    assert small.cache_info().misses > 4
    assert all(built[key] <= admission for key in admitted)


def test_a_warm_sweep_builds_no_kept_table_again():
    """The capacity guard: a warm report sweep and an enumeration, the
    traffic of the benchmark's workloads, fit in the cache with room to
    spare, so a second sweep finds every table it may keep."""
    cache = solver._kept_table
    family = reference_family(11, 8)
    for p in family:
        full_report(p)
    assert cache.cache_info().currsize < cache.cache_info().maxsize
    misses = cache.cache_info().misses
    for p in family:
        full_report(p)
    assert cache.cache_info().misses == misses
    enumerate_below(builtin_profile("paper-example"), 21)
    assert cache.cache_info().currsize < cache.cache_info().maxsize


def test_threads_share_the_cache(monkeypatch):
    """Four threads, more than the cores, read and fill a stand-in cache
    small enough to evict on most admissions: every table is its fresh
    build, and the cache ends within its size."""
    small = functools.lru_cache(maxsize=4)(solver._build_table)
    monkeypatch.setattr(solver, "_kept_table", small)
    keys = [(k, n, 4 * n, split) for k in (0, 2, 3) for n in (8, 16, 32)
            for split in (False, True)]
    fresh = {}
    for k, n, q, split in keys:
        x = gauss_legendre(q)[0]
        fresh[k, n, q, split] = solver._basis_values(k, x[q // 2:] if split else x, n)
    errors = []

    def work(offset):
        try:
            for i in range(200):
                key = keys[(offset + 7 * i) % len(keys)]
                phi, dphi = solver._basis_table(*key)
                if not (np.array_equal(phi, fresh[key][0])
                        and np.array_equal(dphi, fresh[key][1])):
                    errors.append(key)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    info = small.cache_info()
    assert info.currsize == 4 and info.hits and info.misses > 4


def test_tables_are_built_only_through_the_cache():
    """``_basis_values`` has one caller in ``src/``, the builder
    ``_build_table``; the one cache wraps that builder, and ``assemble``
    reads its tables only through ``_basis_table``, which picks the cache
    or the builder."""

    def calls(tree, name):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]

    def names(tree, name):
        return [node for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == name]

    def definition(tree, name):
        return next(node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == name)

    tree = ast.parse(Path(solver.__file__).read_text())
    assert calls(tree, "_basis_values") == \
        calls(definition(tree, "_build_table"), "_basis_values")
    assert len(calls(tree, "_basis_values")) == 1
    assert calls(tree, "_jacobi_values") == \
        calls(definition(tree, "_basis_values"), "_jacobi_values")
    # one lru_cache in the module, around the builder
    assert len(names(tree, "lru_cache")) == 1
    assert solver._kept_table.__wrapped__ is solver._build_table
    picker = definition(tree, "_basis_table")
    assert calls(tree, "_kept_table") == calls(picker, "_kept_table")
    assert calls(tree, "_build_table") == calls(picker, "_build_table")
    assert len(calls(picker, "_kept_table")) == len(calls(picker, "_build_table")) == 1
    builder = definition(tree, "assemble")
    assert len(calls(builder, "_basis_table")) == 1
    assert calls(builder, "_basis_values") == calls(builder, "_jacobi_values") == []
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "solver.py":
            text = path.read_text()
            for name in ("_basis_values", "_basis_table", "_build_table", "_kept_table"):
                assert name not in text, (path.name, name)


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
