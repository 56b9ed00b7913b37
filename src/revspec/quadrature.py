"""Gauss-Legendre quadrature helpers shared by the profile and solver modules.

Three shapes of integral come up repeatedly:

* fixed-order integrals over an interval (``integrate_gl``),
* integrals driven to a relative tolerance by doubling the node count
  (``integrate_adaptive``), used where the integrand is smooth but not
  polynomial and a convergence certificate is wanted,
* cumulative integrals along a grid with cheap partial-segment evaluation
  at arbitrary interior points (:class:`CumulativeIntegral`), used for the
  arclength and height functions of the meridian.

All integrand callables must accept numpy arrays.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureError", "gauss_legendre", "integrate_gl",
    "integrate_adaptive", "CumulativeIntegral",
]


# largest node count of integrate_adaptive
ADAPTIVE_MAX_NODES = 8192
# Gauss nodes per segment of a CumulativeIntegral
SEGMENT_ORDER = 8


class QuadratureError(RuntimeError):
    """An integrand was not finite, or adaptive quadrature did not converge."""


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``P_n(x)`` and ``P_{n-1}(x)``, accurate to a few ulps up to ``x = 1``.

    The three-term recurrence in Reinsch's form, carrying the difference
    ``D_j = P_j - P_{j-1}`` and the exactly representable ``x - 1``; the
    plain recurrence loses about ``n^2`` ulps near ``x = 1``.
    """
    u = x - 1.0
    prev, p, d = np.ones_like(x), x.copy(), u.copy()
    for j in range(1, n):
        # D_{j+1} = ((2j + 1)(x - 1) P_j + j D_j) / (j + 1)
        d *= j / (j + 1.0)
        d += ((2 * j + 1.0) / (j + 1.0)) * u * p
        prev, p = p, p + d
    return p, prev


@lru_cache(maxsize=128)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the ``n``-point rule on [-1, 1], cached.

    Newton's method on ``P_n`` from Tricomi's asymptotic initial guesses
    (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013), run on the
    nonnegative half and mirrored, so the rule is exactly symmetric.  Each
    step evaluates the three-term recurrence on all ``n/2`` nodes at once:
    O(n^2) vectorized work against the O(n^3) eigenvalue route.  Weights are
    ``2 / ((1 - x^2) P_n'(x)^2)``, corrected to first order for the last
    Newton step, which is below the nodes' rounding but not below the
    weights' sensitivity ``2x / (1 - x^2)`` near the endpoints.
    """
    n = int(n)
    if n < 1:
        raise ValueError("a Gauss rule needs at least one node")
    half = (n + 1) // 2
    theta = np.pi * (4.0 * np.arange(1, half + 1) - 1.0) / (4.0 * n + 2.0)
    x = (1.0 - (n - 1.0) / (8.0 * n ** 3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n ** 4)) * np.cos(theta)
    for _ in range(100):
        pn, pm = _legendre_pair(n, x)
        om = (1.0 - x) * (1.0 + x)
        dp = n * (pm - x * pn) / om
        step = pn / dp
        x = x - step
        if np.max(np.abs(step)) <= 2e-16:
            break
    else:
        raise QuadratureError(f"Gauss-Legendre nodes did not converge at n={n}")
    w = 2.0 / (om * dp * dp) * (1.0 + 2.0 * x * step / om)
    if n % 2:
        x[-1] = 0.0  # the middle root of the odd P_n, exactly
    return (np.concatenate((-x[:n // 2], x[::-1])),
            np.concatenate((w[:n // 2], w[::-1])))


def integrate_gl(fn, a: float, b: float, n: int) -> float:
    """The ``n``-point Gauss rule on ``[a, b]``; :class:`QuadratureError`
    when a weighted node value, or their sum, is not finite."""
    xi, wi = gauss_legendre(n)
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * xi
    vals = fn(x)
    with np.errstate(over="ignore"):
        terms = wi * vals
    if not np.all(np.isfinite(terms)):
        raise QuadratureError("integrand not finite on quadrature nodes")
    try:
        # fsum rounds the exact sum once: no BLAS kernel's summation order shows
        return float(half * math.fsum(terms.tolist()))
    except OverflowError as exc:
        raise QuadratureError(f"integral overflows: {exc}") from exc


def integrate_adaptive(fn, a: float, b: float, rtol: float = 1e-11,
                       n0: int = 32, atol: float = 0.0) -> tuple[float, float]:
    """Double the node count until two consecutive values agree to ``rtol``.

    Returns ``(value, estimate)`` where the estimate is the relative change
    in the last doubling.  Raises :class:`QuadratureError` if the sequence
    has not settled by ``ADAPTIVE_MAX_NODES`` nodes, which for profile
    integrands signals an integrand that is not actually smooth (for
    instance a profile whose boundary behavior is wrong, making
    ``(1-x^2)/f`` blow up).  ``atol``
    (default off) accepts the value once the doubling change falls below it
    in absolute terms — needed for integrals whose true value is zero, where
    no relative test can ever pass.
    """
    prev = integrate_gl(fn, a, b, n0)
    n = 2 * n0
    while n <= ADAPTIVE_MAX_NODES:
        cur = integrate_gl(fn, a, b, n)
        scale = max(abs(cur), abs(prev), 1e-300)
        est = abs(cur - prev) / scale
        if est <= rtol or abs(cur - prev) <= atol:
            return cur, est
        prev = cur
        n *= 2
    raise QuadratureError(
        f"integral did not converge to rtol={rtol:g} by {ADAPTIVE_MAX_NODES} nodes "
        f"(last change {est:.3e}); integrand may be singular")


def _gauss_sums(vals: np.ndarray, wi: np.ndarray) -> np.ndarray:
    """Row-wise ``sum_j vals[:, j] * wi[j]``, accumulated in node-index order.

    Elementwise ufuncs only, so no BLAS kernel (whose summation order
    depends on the CPU it selects at runtime) touches the result.
    """
    acc = vals[:, 0] * wi[0]
    for j in range(1, wi.size):
        acc = acc + vals[:, j] * wi[j]
    return acc


class CumulativeIntegral:
    """Cumulative integral of ``fn`` from ``grid[0]``, with partial segments.

    The grid is fixed at construction; each segment is integrated with a
    ``SEGMENT_ORDER``-point Gauss rule (all segments in one vectorized call).
    ``value(u)`` then returns the integral from ``grid[0]`` to arbitrary
    points ``u`` inside the grid span by adding a partial-segment Gauss
    integral to the precomputed cumulative sums.  Nodes never touch the
    grid points themselves, so integrands with removable endpoint
    singularities are safe as long as the closed-form limit exists.

    Each segment's Gauss sum is accumulated over the nodes in index order
    without going through BLAS (a matrix-vector product there sums in an
    order chosen by the CPU-specific kernel), so ``cum`` and ``value`` are
    bit-identical on every CPU for the same nodes and integrand values.
    """

    def __init__(self, fn, grid: np.ndarray):
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be a 1-d array with at least 2 points")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        self.fn = fn
        self.grid = grid
        xi, wi = gauss_legendre(SEGMENT_ORDER)
        self._xi, self._wi = xi, wi
        a = grid[:-1]
        half = 0.5 * np.diff(grid)
        nodes = (a + half)[:, None] + half[:, None] * xi[None, :]
        vals = np.asarray(fn(nodes.ravel()), dtype=float).reshape(nodes.shape)
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("integrand not finite on quadrature nodes")
        seg = half * _gauss_sums(vals, wi)
        self.cum = np.concatenate(([0.0], np.cumsum(seg)))

    @property
    def total(self) -> float:
        return float(self.cum[-1])

    def value(self, u):
        """Integral from ``grid[0]`` to each entry of ``u`` (scalar or array)."""
        scalar = np.ndim(u) == 0
        u = np.atleast_1d(np.asarray(u, dtype=float))
        lo, hi = self.grid[0], self.grid[-1]
        if np.any(u < lo - 1e-12) or np.any(u > hi + 1e-12):
            raise ValueError("query point outside the tabulated range")
        u = np.clip(u, lo, hi)
        idx = np.clip(np.searchsorted(self.grid, u, side="right") - 1,
                      0, self.grid.size - 2)
        a = self.grid[idx]
        half = 0.5 * (u - a)
        nodes = (a + half)[:, None] + half[:, None] * self._xi[None, :]
        vals = np.asarray(self.fn(nodes.ravel()), dtype=float).reshape(nodes.shape)
        partial = half * _gauss_sums(vals, self._wi)
        out = self.cum[idx] + partial
        return float(out[0]) if scalar else out
