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
have degree at most ``2k + 2N - 2``, so the mass matrix is the identity by
construction and each channel is the standard problem ``A v = lambda v``
(``numpy.linalg.eigvalsh``) on the stiffness matrix alone.  The identity
is checked on its diagonal, where the ``(N-1, N-1)`` entry has the top
degree and is the first a short rule misses.  Doubling stays on the sizes
whose rules :func:`~revspec.quadrature.gauss_legendre` already holds:
Newton's method on the Legendre recurrence, O(n^2) work with weights
accurate to about 1e-14 relative.

Mirror-symmetric profiles split by parity.  The symmetric Jacobi
polynomials satisfy ``P_n(-x) = (-1)^n P_n(x)``, so for an even ``f`` every
stiffness entry between an even and an odd ``n`` integrates an odd function
and vanishes: each channel is two problems of about half the size, one per
parity.  :func:`assemble` splits when ``max |f(x_i) - f(-x_i)| <= 8 eps
max f`` over its ``Q`` nodes; ``Q`` is even and the Gauss rule is mirrored
exactly, so this compares ``f`` at exact mirror pairs and dropping the
cross terms moves no eigenvalue by more than that roundoff (Weyl's
inequality).  A split assembles on the ``Q/2`` nonnegative nodes with
doubled weights, fills the two diagonal blocks through the same block
builder as the unsplit case, records ``parity_split``, and leaves exact
zeros between the parities.

Because trial spaces are nested in ``N``, eigenvalues decrease monotonically
with ``N`` and sit above the true values; the convergence estimate attached
to each eigenvalue is the relative change against the half-size solve.
Refinement doubles ``N`` from 32 until the requested values (a number of
them, or those up to the first one above a cutoff) meet their target or a
cap is hit, in one store per top-level call that keeps the eigenvalues
of every ``(k, N)`` it has solved: each size is the next one's half-size
reference, and no size is solved twice, however often a channel is asked.
The target lies in ``[1e-12, 1e-3)``; ten times it is the one resolution
at which :func:`~revspec.spectrum.enumerate_below` tells values apart, so
two values of one channel closer than that show as one table entry.

The basis tables ``phi`` and ``phi'`` on the nodes depend only on the
channel, the basis size, the rule and the parity split, never on the
profile, so one process-wide cache keeps them, keyed by ``(k, N, Q,
split)``, in a :func:`functools.lru_cache` of 64 pairs.  A kept pair is
read-only and bit for bit the fresh build.  A pair above
``BASIS_CACHE_BYTES // 64`` (256 KiB: ``N > 64`` at ``Q = 4N``) is built
on each use, so the cache holds at most ``BASIS_CACHE_BYTES``, 16 MiB, a
loose bound: the benchmark's report sweep keeps 26 pairs (1.8 MB), a
paper-example enumeration below 21 keeps 33 (2.1 MB), and the deepest one
measured holds at most 3.9 MB.  The mass diagonal is checked on every
assembly, against that call's weights.  Eigenvalues are not kept from one
call to the next.

The round profile ``f = 1 - x^2`` is the exact oracle for all of this: the
basis contains its true eigenfunctions, so the discrete spectrum reproduces
``(k + j - 1)(k + j)`` (and ``j (j + 1)`` in channel 0) to roundoff.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
import numpy as np

from .exprs import Expr, differentiate, evaluate
from .profile import Profile, require_valid
from .quadrature import gauss_legendre, integrate_adaptive

__all__ = [
    "GalerkinSystem", "ChannelSpectrum", "SolverError", "ConvergenceError",
    "AdmissibilityError",
    "assemble", "solve_channel", "refine", "rayleigh_quotient",
    "REFINE_START", "REFINE_CAP", "TARGET_REL_ERR",
]

REFINE_START = 32
REFINE_CAP = 1024
TARGET_REL_ERR = 1e-8  # default relative convergence target of an eigenvalue
# the targets a store accepts, [low, high): below 1e-12 is not resolvable,
# and 1e-3 keeps the tables' resolution, ten times the target, below 1e-2
_TARGET_RANGE = (1e-12, 1e-3)
# largest |diag(B) - 1| an assembly may leave; a larger one raises SolverError
MASS_IDENTITY_TOL = 1e-12
# bytes of basis tables kept across calls: at most 64 pairs, none above
# BASIS_CACHE_BYTES // 64
BASIS_CACHE_BYTES = 16 << 20


class SolverError(RuntimeError):
    """Assembly or eigensolve failed a structural check.  The message
    opens with :func:`_where`: the profile, the channel and the basis size."""


def _where(p: Profile, k: int, N: int) -> str:
    return f"{p.source} profile {p.name!r}, channel {k}, basis {N}"


class ConvergenceError(SolverError):
    """Refinement hit the basis cap; carries the best spectrum obtained."""

    def __init__(self, message: str, best: "ChannelSpectrum"):
        self.best = best
        super().__init__(message)


class AdmissibilityError(ValueError):
    """Trial function violates the admissibility conditions of its channel."""


@dataclass(frozen=True)
class GalerkinSystem:
    """Stiffness of channel ``k`` in ``basis_size`` functions on ``quad_points``
    Gauss nodes (the mass matrix is the identity); on a ``parity_split``,
    the entries between even and odd indices are exact zeros."""

    k: int
    basis_size: int
    stiffness: np.ndarray
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
    ``ritz_values`` holds the lowest ``basis_size / 2`` Rayleigh-Ritz values
    of the same basis, converged or not (the first ``len(eigenvalues)`` of
    them are ``eigenvalues``): each is an upper bound of the true eigenvalue
    of its index, up to quadrature error where ``f`` is not a polynomial.
    """

    k: int
    eigenvalues: tuple[float, ...]
    basis_size: int
    convergence_estimates: tuple[float, ...]
    ritz_values: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# orthonormal symmetric Jacobi basis
# ---------------------------------------------------------------------------

def _weight_mass(k: int) -> float:
    # integral of (1 - x^2)^k over [-1, 1], exact rational
    return float(2 ** (2 * k + 1) * math.factorial(k) ** 2
                 / math.factorial(2 * k + 1))


def _jacobi_values(k: int, n_max: int, x: np.ndarray):
    """Values and derivatives of the orthonormal Jacobi family for weight
    ``(1 - x^2)^k`` at the points ``x``: one array of shape
    (2, n_max, len(x)), values then derivatives, one contiguous row per
    degree.

    Three-term recurrence with the squared off-diagonal entries
    ``beta_n = n (n + 2k) / ((2n + 2k - 1)(2n + 2k + 1))`` (Legendre at
    ``k = 0``); the derivative recurrence is the differentiated one,
    ``((x P'_n + P_n) - sqrt(beta_n) P'_{n-1}) / sqrt(beta_{n+1})``.  Both
    rows of a degree are made by the same few ufunc calls.
    """
    PP = np.empty((2, n_max, x.size))
    PP[0, 0] = 1.0 / math.sqrt(_weight_mass(k))
    PP[1, 0] = 0.0
    if n_max == 1:
        return PP
    sb = np.empty(n_max + 1)
    for n in range(1, n_max + 1):
        sb[n] = math.sqrt(n * (n + 2 * k)
                          / ((2 * n + 2 * k - 1.0) * (2 * n + 2 * k + 1.0)))
    PP[0, 1] = x * PP[0, 0] / sb[1]
    PP[1, 1] = PP[0, 0] / sb[1]
    back = np.empty((2, x.size))
    for n in range(1, n_max - 1):
        nxt = PP[:, n + 1]
        np.multiply(x, PP[:, n], out=nxt)
        nxt[1] += PP[0, n]
        np.multiply(sb[n], PP[:, n - 1], out=back)
        nxt -= back
        nxt /= sb[n + 1]
    return PP


def _basis_values(k: int, x: np.ndarray, n_max: int):
    """Weighted basis ``phi_n = (1-x^2)^(k/2) P_n`` and its derivative,
    one row per ``n``, as two C-contiguous tables of one (2, n_max, len(x))
    array."""
    PP = _jacobi_values(k, n_max, x)
    if k > 0:
        om = 1.0 - x * x
        w = om ** (0.5 * k)
        dw = -k * x * w / om
        # the bits of w*P and w*dP + dw*P; the one table-sized temporary is
        # no larger than those assemble makes from the tables
        dwP = dw * PP[0]
        PP *= w
        PP[1] += dwP
    return PP[0], PP[1]


def _basis_table(k: int, N: int, Q: int, split: bool):
    """Read-only :func:`_basis_values` of channel ``k``, ``N`` rows, on the
    ``Q``-node Gauss rule (its nonnegative half on a parity ``split``):
    from the process-wide cache when the pair is at most
    ``BASIS_CACHE_BYTES // 64``, else built for this use alone."""
    # two float64 tables of N rows on the nodes
    if 16 * N * (Q // 2 if split else Q) <= BASIS_CACHE_BYTES // 64:
        return _kept_table(k, N, Q, split)
    return _build_table(k, N, Q, split)


def _build_table(k: int, N: int, Q: int, split: bool):
    x = gauss_legendre(Q)[0]
    pair = _basis_values(k, x[Q // 2:] if split else x, N)
    for table in pair:
        table.flags.writeable = False
    return pair


# the solver's one cache: (k, N, Q, split) -> (phi, dphi), thread-safe
_kept_table = lru_cache(maxsize=64)(_build_table)


# ---------------------------------------------------------------------------
# assembly and eigensolve
# ---------------------------------------------------------------------------

def assemble(p: Profile, k: int, basis_size: int, *,
             _f_kept: dict | None = None) -> GalerkinSystem:
    """Stiffness matrix of channel ``k`` in the weighted basis.

    Requires a validated profile, ``k >= 0`` and ``basis_size >= 8``.  Node
    count ``Q`` is ``4 * basis_size``, doubled for ``k = 1``, then doubled
    until ``Q >= basis_size + k``: exact to degree ``2Q - 1``, the rule then
    integrates every mass entry (degree ``2 basis_size + 2k - 2`` at most),
    so the mass matrix is the identity.  Its diagonal, which holds the
    top-degree entry, is checked: further than ``MASS_IDENTITY_TOL`` from 1,
    it raises :class:`SolverError`; the check reads this call's weights, so
    it is made on every call, cached basis tables or not.  A
    mirror-symmetric profile is assembled by parity (``parity_split``): the
    entries between even and odd ``n`` are exact zeros.  ``_f_kept``, the
    channel store's ``Q -> f`` on the nodes, evaluates ``f`` once per rule.
    """
    require_valid(p, context="assemble")
    if k < 0:
        raise ValueError("channel index must be >= 0 (negative channels are mirrors)")
    N = int(basis_size)
    if N < 8:
        raise ValueError("basis_size must be at least 8")
    Q = 4 * N * (2 if k == 1 else 1)
    while Q < N + k:
        Q *= 2
    xq, wq = gauss_legendre(Q)
    kept = {} if _f_kept is None else _f_kept
    if Q not in kept:
        kept[Q] = np.asarray(p.f(xq), dtype=float)
    fq = kept[Q]
    if np.any(~np.isfinite(fq)) or np.any(fq <= 0.0):
        raise SolverError(f"{_where(p, k, N)}, {Q} nodes: profile not "
                          f"positive and finite on the quadrature nodes")
    # the rule is exactly mirrored, so fq[::-1] is f at the mirrored nodes
    split = bool(np.max(np.abs(fq - fq[::-1]))
                 <= 8.0 * np.finfo(float).eps * np.max(fq))
    if split:
        # every integrand within one parity is even: twice its half-interval
        # integral over the nonnegative nodes
        xq, wq, fq = xq[Q // 2:], 2.0 * wq[Q // 2:], fq[Q // 2:]
    phi, dphi = _basis_table(k, N, Q, split)
    # the (N-1, N-1) mass entry has the top degree: an inexact rule misses it first
    off = np.max(np.abs((phi * phi) @ wq - 1.0))
    if not off <= MASS_IDENTITY_TOL:
        raise SolverError(
            f"{_where(p, k, N)}, {Q} nodes: mass matrix diagonal is "
            f"{off:.3e} off the identity")
    A = np.zeros((N, N))
    for rows in _parity_blocks(split, N):
        A[rows, rows] = _stiffness(k, phi[rows], dphi[rows], wq, fq)
    if not np.all(np.isfinite(A)):
        raise SolverError(f"{_where(p, k, N)}, {Q} nodes: assembled stiffness "
                          f"matrix contains non-finite entries")
    return GalerkinSystem(k=k, basis_size=N, stiffness=A, quad_points=Q,
                          parity_split=split)


def _parity_blocks(split: bool, N: int) -> tuple[slice, ...]:
    """Basis indices of the diagonal blocks: even and odd ``n`` on a
    parity split, else all of them."""
    return (slice(0, N, 2), slice(1, N, 2)) if split else (slice(0, N),)


def _stiffness(k: int, phi: np.ndarray, dphi: np.ndarray, wq: np.ndarray,
               fq: np.ndarray) -> np.ndarray:
    """Stiffness among the basis rows of ``phi`` and ``dphi``, integrated
    with weights ``wq`` against ``f`` values ``fq``."""
    # G @ G.T of one scaled table runs as a symmetric rank-Q update (BLAS
    # syrk), about 30 % faster than a product of two different tables
    G = dphi * np.sqrt(wq * fq)
    A = G @ G.T
    if k:
        G = phi * np.sqrt(wq / fq)
        A += (k * k) * (G @ G.T)
    return 0.5 * (A + A.T)


def eigh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric ``a`` (``a v = lambda v``);
    one named function so that ``bench/tracer.py`` can count the solves."""
    return np.linalg.eigvalsh(a)


def _raw_eigenvalues(p: Profile, k: int, N: int, f_kept: dict) -> np.ndarray:
    """Channel ``k``'s eigenvalues at basis size ``N`` (``f_kept``: see
    :func:`assemble`), channel 0's zero mode removed after a magnitude check."""
    sys = assemble(p, k, N, _f_kept=f_kept)
    vals = np.sort(np.concatenate(
        [eigh(sys.stiffness[s, s]) for s in _parity_blocks(sys.parity_split, N)]))
    if k != 0:
        return vals
    lam1 = vals[1] if vals.size > 1 else 1.0
    if abs(vals[0]) > 1e-6 * max(1.0, abs(lam1)):
        raise SolverError(f"{_where(p, k, N)}: zero mode not resolved "
                          f"(leading value {float(vals[0])!r})")
    return vals[1:]


def solve_channel(p: Profile, k: int, n_eigs: int,
                  basis_size: int) -> ChannelSpectrum:
    """First ``n_eigs`` eigenvalues of channel ``k`` at a fixed basis size.

    ``n_eigs <= basis_size / 2`` keeps the reported part of the spectrum in
    the trustworthy half of the discretization; the convergence estimate per
    eigenvalue compares against the half-size solve of the same channel, so
    ``basis_size`` must be at least 16.  Channel 0's zero mode is removed by
    index after a magnitude check, never by deflation.
    """
    N = int(basis_size)
    if N < 16:
        raise ValueError("basis_size must be at least 16 (half-size solve needs 8)")
    if n_eigs > N // 2:
        raise ValueError(f"n_eigs={n_eigs} exceeds basis_size/2={N // 2}")
    return _Channels(p)._spectrum(k, n_eigs, N)


class _Channels:
    """One profile's channel solves for one top-level call (a report, an
    enumeration, a :func:`refine`), refined to one target within one cap.
    ``channels(k, n[, below])`` serves what :meth:`refine` would, from the
    spectrum it holds for ``k`` when that has those values (a deeper solve
    meets the target on them too), else refines and holds that instead.
    :meth:`_eigenvalues`, the one solve point, keeps the whole eigenvalue
    array of each ``(k, N)``, and ``f`` on the nodes of each rule.
    ``n_cap``, the most values a refinement can serve within ``basis_cap``,
    is 0 when that is below ``REFINE_START``.
    """

    def __init__(self, p: Profile, target_rel_err: float = TARGET_REL_ERR,
                 basis_cap: int = REFINE_CAP):
        self.p, self.target_rel_err, self.basis_cap = p, target_rel_err, basis_cap
        self.n_cap, N = 0, REFINE_START
        while N <= basis_cap:
            self.n_cap, N = N // 2, 2 * N
        self._solved: dict[tuple[int, int], np.ndarray] = {}
        self._held: dict[int, ChannelSpectrum] = {}
        self._f_kept: dict[int, np.ndarray] = {}

    def __call__(self, k: int, n: int, below: float = math.inf) -> ChannelSpectrum:
        cs = self._held.get(k)
        if cs is None or (len(cs.eigenvalues) < n and cs.eigenvalues[-1] <= below):
            cs = self._held[k] = self.refine(k, n, below)
        count = min(n, bisect_right(cs.eigenvalues, below) + 1)
        return replace(cs, eigenvalues=cs.eigenvalues[:count],
                       convergence_estimates=cs.convergence_estimates[:count])

    def f_bound(self) -> float:
        """Twice the largest ``f`` on the nodes of the rules solved so far:
        an upper bound of ``sup f`` that evaluates ``f`` at no new point.
        The factor 2 is assumed, not proved."""
        return 2.0 * max(float(fq.max()) for fq in self._f_kept.values())

    def _eigenvalues(self, k: int, N: int) -> np.ndarray:
        if (k, N) not in self._solved:
            self._solved[k, N] = _raw_eigenvalues(self.p, k, N, self._f_kept)
        return self._solved[k, N]

    def _spectrum(self, k: int, n_eigs: int, N: int) -> ChannelSpectrum:
        """:func:`solve_channel` with ``N >= 16`` and ``n_eigs <= N/2``;
        the estimates compare against the whole basis-``N/2`` array."""
        if n_eigs < 1:
            raise ValueError("n_eigs must be positive")
        vals = self._eigenvalues(k, N)
        ref = self._eigenvalues(k, N // 2)
        p, lam = self.p, vals[:n_eigs]
        if np.any(lam <= 0.0):
            raise SolverError(f"{_where(p, k, N)}: nonpositive eigenvalues {lam[lam <= 0]}")
        if k:
            j = np.arange(1, n_eigs + 1)
            if np.any(lam <= j * k * (1.0 - 1e-12)):
                raise SolverError(
                    f"{_where(p, k, N)}: eigenvalues fell below the j*k lower "
                    f"bound; discretization is inconsistent")
        est = np.full(n_eigs, np.inf)
        m = min(n_eigs, ref.size)
        est[:m] = np.abs(lam[:m] - ref[:m]) / np.abs(lam[:m])
        # eigenvalues is a slice of the Ritz tuple: one set of float objects
        ritz = tuple(vals[:N // 2].tolist())
        return ChannelSpectrum(k=k, eigenvalues=ritz[:n_eigs], basis_size=N,
                               convergence_estimates=tuple(est.tolist()),
                               ritz_values=ritz)

    def refine(self, k: int, n: int, below: float = math.inf) -> ChannelSpectrum:
        """The one refinement loop, :func:`refine` on this store: the first
        ``n`` values, or, if fewer, those up to and including the first one
        above ``below`` in the basis' trustworthy half.  Each size's
        estimates compare against the whole basis-``N/2`` array, which the
        size before solved, so a request that revisits held sizes gets a
        fresh refinement's result bit for bit."""
        low, high = _TARGET_RANGE
        if not low <= self.target_rel_err < high:
            raise ValueError(f"target_rel_err must lie in [{low:g}, {high:g}): "
                             f"below the floor is not resolvable, and the "
                             f"ceiling keeps the tables' resolution below 1e-2")
        N = REFINE_START
        while N < 2 * n:
            N *= 2
        if n > self.n_cap:
            raise ValueError(f"n_eigs={n} needs a basis of {N}, "
                             f"above basis_cap={self.basis_cap}")
        if below < math.inf:  # the solves find the count, from the smallest size
            N = REFINE_START
        while True:
            count = min(n, bisect_right(self._eigenvalues(k, N), below, 0, N // 2) + 1)
            if count <= N // 2:
                best = self._spectrum(k, count, N)
                if max(best.convergence_estimates) <= self.target_rel_err:
                    return best
            if 2 * N > self.basis_cap:
                raise ConvergenceError(
                    f"{_where(self.p, k, N)}: estimates "
                    f"{max(best.convergence_estimates):.3e} did not reach "
                    f"{self.target_rel_err:g} within basis cap {self.basis_cap}",
                    best)
            N *= 2


def refine(p: Profile, k: int, n_eigs: int, target_rel_err: float = TARGET_REL_ERR,
           basis_cap: int = REFINE_CAP) -> ChannelSpectrum:
    """Double the basis from 32 until every requested eigenvalue's estimate
    meets ``target_rel_err``, in ``[1e-12, 1e-3)``, or raise
    :class:`ConvergenceError` carrying the best spectrum when the cap is
    reached.  Runs the loop of :class:`_Channels` on a store of its own."""
    return _Channels(p, target_rel_err, basis_cap).refine(k, n_eigs)


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
        fx = np.asarray(p.f(x), dtype=float)
        out = fx * dv * dv
        if k:
            v = evaluate(u, x)
            out = out + (k * k) * v * v / fx
        return out

    num, _ = integrate_adaptive(energy, -1.0, 1.0, rtol=1e-11, n0=128)
    return float(num / norm2)
