"""Singular Sturm-Liouville solver for the angular-mode channels.

Separating the Laplace eigenproblem of the metric ``(1/f) dx^2 + f dtheta^2``
into Fourier modes ``e^(i k theta)`` leaves the family of operators

    L_k u = -(f u')' + (k^2 / f) u        on (-1, 1),

one channel per integer ``k``, sharing the spectrum between ``k`` and
``-k``.  Channel 0 keeps the constant as a zero mode; every channel is
solved here on the quadratic-form side (the Friedrichs extension, the one
realized by the Laplacian on the smooth sphere).

Discretization: Rayleigh-Ritz with the weighted basis

    phi_n(x) = (1 - x^2)^(k/2) * P_n(x),   n = 0 .. N-1,

where ``P_n`` are the symmetric Jacobi polynomials orthonormal under the
weight ``(1 - x^2)^k``.  The prefactor carries exactly the indicial endpoint
behavior that the boundary slopes ``|f'| = 2`` force on eigenfunctions, so
every product appearing in the stiffness and mass integrands contains only
integer powers of ``(1 - x^2)`` and is smooth.  For ``k = 0`` the basis is
the orthonormal Legendre family.  All integrals use one Gauss-Legendre rule
of ``Q = 4 N`` nodes (``8 N`` for ``k = 1``, whose integrand is kept on a
shorter leash near the endpoints), doubled until ``Q >= N + k``: the rule
is exact to degree ``2Q - 1`` and the mass entries ``(1 - x^2)^k P_m P_n``
have degree ``2k + 2N - 2``, so the mass matrix is the identity by
construction and each channel is the standard problem ``A v = lambda v``
(``numpy.linalg.eigvalsh``).  Doubling stays on the sizes whose rules
:func:`~revspec.quadrature.gauss_legendre` already holds: Newton's method
on the Legendre recurrence, O(n^2) work with weights accurate to about
1e-14 relative.

Mirror-symmetric profiles split by parity.  The symmetric Jacobi
polynomials satisfy ``P_n(-x) = (-1)^n P_n(x)``, so for an even ``f`` every
stiffness and mass entry between an even and an odd ``n`` integrates an
odd function and vanishes: each channel is two problems of about half the
size, one per parity.  :func:`assemble` splits when the node count ``Q`` is
even and ``max |f(x_i) - f(-x_i)| <= 8 eps max f`` over its ``Q`` nodes;
the Gauss rule is mirrored exactly, so this compares ``f`` at exact mirror
pairs and dropping the cross terms moves no eigenvalue by more than that
roundoff (Weyl's inequality).  A split assembles on the ``Q/2``
nonnegative nodes with doubled weights, fills the two diagonal blocks
through the same block builder as the unsplit case, records
``parity_split``, and leaves exact zeros between the parities.

Because trial spaces are nested in ``N``, eigenvalues decrease monotonically
with ``N`` and sit above the true values; the convergence estimate attached
to each eigenvalue is the relative change against the half-size solve.
:func:`refine` doubles ``N`` from 32 until the requested estimate is met or
a cap is hit.  Each size's eigenvalues are the next size's half-size
reference, so every size is assembled and solved once; only the first size
solves its half-size basis as well.

The round profile ``f = 1 - x^2`` is the exact oracle for all of this: the
basis contains its true eigenfunctions, so the discrete spectrum reproduces
``(k + j - 1)(k + j)`` (and ``j (j + 1)`` in channel 0) to roundoff.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .exprs import Expr, differentiate, evaluate
from .profile import Profile, require_valid
from .quadrature import gauss_legendre, integrate_adaptive

__all__ = [
    "GalerkinSystem", "ChannelSpectrum", "SolverError", "ConvergenceError",
    "AdmissibilityError", "NearDegenerateWarning",
    "assemble", "solve_channel", "refine", "rayleigh_quotient",
    "REFINE_START", "REFINE_CAP",
]

REFINE_START = 32
REFINE_CAP = 1024
# largest |B - I| an assembly may leave; a larger one raises SolverError
MASS_IDENTITY_TOL = 1e-12


class SolverError(RuntimeError):
    """Assembly or eigensolve failed a structural check."""


class ConvergenceError(SolverError):
    """Refinement hit the basis cap; carries the best spectrum obtained."""

    def __init__(self, message: str, best: "ChannelSpectrum"):
        self.best = best
        super().__init__(message)


class AdmissibilityError(ValueError):
    """Trial function violates the admissibility conditions of its channel."""


class NearDegenerateWarning(UserWarning):
    """Two eigenvalues in one channel are closer than the solver resolves."""


@dataclass(frozen=True)
class GalerkinSystem:
    k: int
    basis_size: int
    stiffness: np.ndarray
    mass: np.ndarray
    quad_rule: str
    quad_points: int
    parity_split: bool = False


@dataclass(frozen=True)
class ChannelSpectrum:
    """Leading eigenvalues of one channel, ascending, with convergence data.

    ``eigenvalues[j]`` approximates the (j+1)-th eigenvalue; for channel 0
    the zero mode has already been dropped, so index 0 is the first
    nonconstant invariant eigenvalue.  ``convergence_estimates[j]`` is the
    relative change against the half-size basis (infinite where the smaller
    basis could not produce a partner).  The ``-k`` channel is identical by
    symmetry; callers fold negative ``k`` through ``abs`` before solving.
    """

    k: int
    eigenvalues: tuple[float, ...]
    basis_size: int
    convergence_estimates: tuple[float, ...]


# ---------------------------------------------------------------------------
# orthonormal symmetric Jacobi basis
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _weight_mass(k: int) -> float:
    # integral of (1 - x^2)^k over [-1, 1], exact rational
    return float(2 ** (2 * k + 1) * math.factorial(k) ** 2
                 / math.factorial(2 * k + 1))


def _jacobi_values(k: int, n_max: int, x: np.ndarray):
    """Values and derivatives of the orthonormal Jacobi family for weight
    ``(1 - x^2)^k`` at the points ``x``; both arrays have shape
    (n_max, len(x)), one contiguous row per degree.

    Three-term recurrence with the squared off-diagonal entries
    ``beta_n = n (n + 2k) / ((2n + 2k - 1)(2n + 2k + 1))`` (Legendre at
    ``k = 0``); the derivative recurrence is the differentiated one.
    """
    P = np.empty((n_max, x.size))
    dP = np.empty((n_max, x.size))
    P[0] = 1.0 / math.sqrt(_weight_mass(k))
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


def _basis_values(k: int, x: np.ndarray, n_max: int):
    """Weighted basis ``phi_n = (1-x^2)^(k/2) P_n`` and its derivative,
    one row per ``n``."""
    P, dP = _jacobi_values(k, n_max, x)
    if k == 0:
        return P, dP
    om = 1.0 - x * x
    w = om ** (0.5 * k)
    dw = -k * x * w / om
    return w * P, dw * P + w * dP


# ---------------------------------------------------------------------------
# assembly and eigensolve
# ---------------------------------------------------------------------------

def assemble(p: Profile, k: int, basis_size: int,
             quad_mult: int = 4) -> GalerkinSystem:
    """Stiffness and mass matrices of channel ``k`` in the weighted basis.

    Requires a validated profile, ``k >= 0`` and ``basis_size >= 8``.  Node
    count is ``quad_mult * basis_size``, doubled for ``k = 1``, then doubled
    until it is at least ``basis_size + k`` so that every mass entry is
    integrated exactly.  A mirror-symmetric profile is assembled by parity
    (``parity_split``): the entries between even and odd ``n`` are exact
    zeros.
    """
    require_valid(p, context="assemble")
    if k < 0:
        raise ValueError("channel index must be >= 0 (negative channels are mirrors)")
    N = int(basis_size)
    if N < 8:
        raise ValueError("basis_size must be at least 8")
    if quad_mult < 1:
        raise ValueError("quad_mult must be at least 1")
    Q = quad_mult * N * (2 if k == 1 else 1)
    while Q < N + k:
        Q *= 2
    xq, wq = gauss_legendre(Q)
    fq = np.asarray(p.f(xq), dtype=float)
    if np.any(~np.isfinite(fq)) or np.any(fq <= 0.0):
        raise SolverError("profile not positive and finite on quadrature nodes")
    # the rule is exactly mirrored, so fq[::-1] is f at the mirrored nodes
    split = bool(Q % 2 == 0 and np.max(np.abs(fq - fq[::-1]))
                 <= 8.0 * np.finfo(float).eps * np.max(fq))
    if split:
        # every integrand within one parity is even: twice its half-interval
        # integral over the nonnegative nodes
        xq, wq, fq = xq[Q // 2:], 2.0 * wq[Q // 2:], fq[Q // 2:]
    phi, dphi = _basis_values(k, xq, N)
    A = np.zeros((N, N))
    B = np.zeros((N, N))
    for rows in _parity_blocks(split, N):
        A[rows, rows], B[rows, rows] = _block(k, phi[rows], dphi[rows], wq, fq)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise SolverError("assembled matrices contain non-finite entries")
    return GalerkinSystem(k=k, basis_size=N, stiffness=A, mass=B,
                          quad_rule="gauss-legendre", quad_points=Q,
                          parity_split=split)


def _parity_blocks(split: bool, N: int) -> tuple[slice, ...]:
    """Basis indices of the diagonal blocks: even and odd ``n`` on a
    parity split, else all of them."""
    return (slice(0, N, 2), slice(1, N, 2)) if split else (slice(0, N),)


def _block(k: int, phi: np.ndarray, dphi: np.ndarray, wq: np.ndarray,
           fq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stiffness and mass among the basis rows of ``phi`` and ``dphi``,
    integrated with weights ``wq`` against ``f`` values ``fq``."""
    # G @ G.T of one scaled table runs as a symmetric rank-Q update (BLAS
    # syrk), about 30 % faster than a product of two different tables
    G = dphi * np.sqrt(wq * fq)
    A = G @ G.T
    if k:
        G = phi * np.sqrt(wq / fq)
        A += (k * k) * (G @ G.T)
    G = phi * np.sqrt(wq)
    B = G @ G.T
    return 0.5 * (A + A.T), 0.5 * (B + B.T)


def eigh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric ``a`` (``a v = lambda v``);
    one named function so that ``bench/tracer.py`` can count the solves."""
    return np.linalg.eigvalsh(a)


def _raw_eigenvalues(p: Profile, k: int, N: int, quad_mult: int) -> np.ndarray:
    sys = assemble(p, k, N, quad_mult=quad_mult)
    off = np.max(np.abs(sys.mass - np.eye(N)))
    if off > MASS_IDENTITY_TOL:
        raise SolverError(
            f"{p.source} profile {p.name!r}, channel {k}, basis {N}, "
            f"{sys.quad_points} nodes: mass matrix is {off:.3e} off the identity")
    vals = [eigh(sys.stiffness[s, s]) for s in _parity_blocks(sys.parity_split, N)]
    return np.sort(np.concatenate(vals))


def _strip_zero_mode(vals: np.ndarray, k: int) -> np.ndarray:
    if k != 0:
        return vals
    lam1 = vals[1] if vals.size > 1 else 1.0
    if abs(vals[0]) > 1e-6 * max(1.0, abs(lam1)):
        raise SolverError(
            f"channel 0 zero mode not resolved (leading value {vals[0]!r})")
    return vals[1:]


def solve_channel(p: Profile, k: int, n_eigs: int, basis_size: int,
                  quad_mult: int = 4, *,
                  reference: Sequence[float] | None = None) -> ChannelSpectrum:
    """First ``n_eigs`` eigenvalues of channel ``k`` at a fixed basis size.

    ``n_eigs <= basis_size / 2`` keeps the reported part of the spectrum in
    the trustworthy half of the discretization; the convergence estimate per
    eigenvalue compares against ``reference``, the eigenvalues of the same
    channel in a smaller basis (zero mode removed, as in
    ``ChannelSpectrum.eigenvalues``), and by default against the half-size
    solve, so ``basis_size`` must be at least 16.  Channel 0's zero mode is
    removed by index after a magnitude check, never by deflation.
    """
    if n_eigs < 1:
        raise ValueError("n_eigs must be positive")
    N = int(basis_size)
    if N < 16:
        raise ValueError("basis_size must be at least 16 (half-size solve needs 8)")
    if n_eigs > N // 2:
        raise ValueError(f"n_eigs={n_eigs} exceeds basis_size/2={N // 2}")
    vals = _strip_zero_mode(_raw_eigenvalues(p, k, N, quad_mult), k)
    if reference is None:
        ref = _strip_zero_mode(_raw_eigenvalues(p, k, N // 2, quad_mult), k)
    else:
        ref = np.asarray(reference, dtype=float)
    lam = vals[:n_eigs]
    if np.any(lam <= 0.0):
        raise SolverError(f"nonpositive eigenvalue in channel {k}: {lam[lam <= 0]}")
    if k:
        j = np.arange(1, n_eigs + 1)
        if np.any(lam <= j * k * (1.0 - 1e-12)):
            raise SolverError(
                f"channel {k} eigenvalues fell below the j*k lower bound; "
                f"discretization is inconsistent")
    gaps = np.diff(lam)
    if np.any(gaps < 1e-9 * lam[1:]):
        warnings.warn(
            f"channel {k}: eigenvalue gap below 1e-9 relative at basis {N}; "
            f"values in this cluster are not individually resolved",
            NearDegenerateWarning, stacklevel=2)
    est = np.full(n_eigs, np.inf)
    m = min(n_eigs, ref.size)
    est[:m] = np.abs(lam[:m] - ref[:m]) / np.abs(lam[:m])
    return ChannelSpectrum(k=k, eigenvalues=tuple(float(v) for v in lam),
                           basis_size=N,
                           convergence_estimates=tuple(float(v) for v in est))


def refine(p: Profile, k: int, n_eigs: int, target_rel_err: float = 1e-8,
           basis_cap: int = REFINE_CAP, quad_mult: int = 4) -> ChannelSpectrum:
    """Double the basis from 32 until every requested eigenvalue's estimate
    meets ``target_rel_err`` (floor 1e-12), or raise :class:`ConvergenceError`
    carrying the best spectrum when the cap is reached.

    Each size is solved once: its eigenvalues are the next size's
    half-size reference, and only the first size solves its half.
    """
    if target_rel_err < 1e-12:
        raise ValueError("target_rel_err below the 1e-12 floor is not resolvable")
    N = REFINE_START
    while N < 2 * n_eigs:
        N *= 2
    best = None
    while N <= basis_cap:
        best = solve_channel(p, k, n_eigs, N, quad_mult=quad_mult,
                             reference=None if best is None else best.eigenvalues)
        if max(best.convergence_estimates) <= target_rel_err:
            return best
        N *= 2
    if best is None:
        raise ValueError(f"basis_cap={basis_cap} below the smallest usable basis")
    raise ConvergenceError(
        f"channel {k}: estimates {max(best.convergence_estimates):.3e} did not "
        f"reach {target_rel_err:g} within basis cap {basis_cap}", best)


# ---------------------------------------------------------------------------
# Rayleigh quotients for explicit trial functions
# ---------------------------------------------------------------------------

def rayleigh_quotient(p: Profile, k: int, u: Expr) -> float:
    """Form quotient ``(int f u'^2 + k^2 int u^2/f) / int u^2`` for a trial
    expression ``u`` in channel ``k``.

    Admissibility: for ``k != 0`` the trial must vanish at both endpoints;
    for ``k = 0`` it must be orthogonal to constants.  Both are checked to
    1e-8 (relative to the trial's size) and violations raise
    :class:`AdmissibilityError`.  By the variational principle the value is
    an upper bound for the channel's first eigenvalue.
    """
    require_valid(p, context="rayleigh_quotient")
    if k < 0:
        raise ValueError("channel index must be >= 0")
    du = differentiate(u)

    def u2(x):
        v = evaluate(u, x)
        return v * v

    norm2, _ = integrate_adaptive(u2, -1.0, 1.0, rtol=1e-12, n0=64)
    if norm2 <= 0 or not np.isfinite(norm2):
        raise AdmissibilityError("trial function has no mass on [-1, 1]")
    scale = math.sqrt(norm2 / 2.0)
    if k == 0:
        mean, _ = integrate_adaptive(lambda x: evaluate(u, x), -1.0, 1.0,
                                     rtol=1e-12, n0=64,
                                     atol=1e-12 * max(1.0, scale))
        if abs(mean) > 1e-8 * max(1.0, scale):
            raise AdmissibilityError(
                f"channel 0 trial must be orthogonal to constants "
                f"(integral {mean:.3e})")
    else:
        for endpoint in (-1.0, 1.0):
            val = evaluate(u, endpoint)
            if abs(val) > 1e-8 * max(1.0, scale):
                raise AdmissibilityError(
                    f"channel {k} trial must vanish at x={endpoint:+.0f} "
                    f"(value {val:.3e})")

    def energy(x):
        dv = evaluate(du, x)
        out = np.asarray(p.f(x), dtype=float) * dv * dv
        if k:
            v = evaluate(u, x)
            out = out + (k * k) * v * v / np.asarray(p.f(x), dtype=float)
        return out

    num, _ = integrate_adaptive(energy, -1.0, 1.0, rtol=1e-11, n0=128)
    return float(num / norm2)
