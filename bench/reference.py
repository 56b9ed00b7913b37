"""Reference values computed apart from revspec, with numpy and scipy only.

Every input the benchmark generates carries a closed form of its metric:

* :class:`MomentumShape` -- ``f(x) = (1 - x^2) g(x)`` on ``[-1, 1]`` with
  ``g`` and ``g'`` given as numpy callables (expression and sample inputs);
* :class:`ArclengthShape` -- ``ds^2 + a(s)^2 dtheta^2`` on ``[0, L]`` with
  ``a`` and ``a'`` given as numpy callables (arclength inputs).  The program
  rescales such a metric to area ``4 pi`` by the homothety
  ``a -> c a(s / c)``; the values below refer to that rescaled metric.

The eigenvalue reference is a Chebyshev collocation of the channel-0
operator in the coordinates the input was given in, the integrals are
Gauss-Legendre sums, and the meridian is rebuilt from Chebyshev series of
its arclength and height integrands.  None of this shares code with the
program's Galerkin solver, its quadrature module or its meridian map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
from numpy.polynomial import Chebyshev
from numpy.polynomial.legendre import leggauss

COLLOCATION_POINTS = 160
GAUSS_POINTS = 600
SERIES_DEGREE = 256


@dataclass(frozen=True)
class MomentumShape:
    """``f = (1 - x^2) g`` on ``[-1, 1]``."""

    g: Callable
    dg: Callable

    def f(self, x):
        return (1.0 - x * x) * self.g(x)

    def df(self, x):
        return -2.0 * x * self.g(x) + (1.0 - x * x) * self.dg(x)


@dataclass(frozen=True)
class ArclengthShape:
    """``ds^2 + a(s)^2 dtheta^2`` on ``[0, length]`` before area rescaling."""

    a: Callable
    da: Callable
    length: float

    def scale(self) -> float:
        """Homothety factor ``c`` that brings the area to ``4 pi``."""
        return math.sqrt(2.0 / gauss_integral(self.a, 0.0, self.length))


def gauss_integral(fn, lo: float, hi: float, n: int = GAUSS_POINTS) -> float:
    t, w = leggauss(n)
    half = 0.5 * (hi - lo)
    return float(half * np.sum(w * fn(0.5 * (lo + hi) + half * t)))


def chebyshev_matrix(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Differentiation matrix on the ``n + 1`` Chebyshev-Lobatto points."""
    t = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    dt = t[:, None] - t[None, :]
    d = np.outer(c, 1.0 / c) / (dt + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return d, t


def _smallest_positive(values: np.ndarray) -> float:
    values = values[np.isfinite(values)]
    real = np.sort(values[np.abs(values.imag) < 1e-6].real)
    return float(real[real > 1e-6][0])


def lambda01(shape, n: int = COLLOCATION_POINTS) -> float:
    """First nonzero eigenvalue of the invariant channel.

    Momentum coordinates: ``-(f u')' = lambda u``.  Arclength coordinates:
    ``-(a u')' = lambda a u``, then divided by ``c^2`` for the rescaling.
    No boundary rows are imposed: collocating at the poles, where the
    coefficient vanishes, selects the bounded solution.
    """
    d, t = chebyshev_matrix(n)
    if isinstance(shape, MomentumShape):
        return _smallest_positive(np.linalg.eigvals(-d @ (shape.f(t)[:, None] * d)))
    s = 0.5 * shape.length * (t + 1.0)
    ds = d * (2.0 / shape.length)
    av = shape.a(s)
    vals = scipy.linalg.eigvals(-ds @ (av[:, None] * ds), np.diag(av))
    return _smallest_positive(vals) / shape.scale() ** 2


def slope_grid(n: int = 20000) -> np.ndarray:
    """Uniform points plus Chebyshev points (dense at the ends) of [-1, 1]."""
    return np.union1d(np.linspace(-1.0, 1.0, n + 1),
                      np.cos(np.pi * np.arange(n + 1) / n))


def max_slope(shape) -> float:
    """``max |f'|``; on the arclength side ``f' = 2 a'`` along the meridian."""
    t = slope_grid()
    if isinstance(shape, MomentumShape):
        return float(np.max(np.abs(shape.df(t))))
    return float(2.0 * np.max(np.abs(shape.da(0.5 * shape.length * (t + 1.0)))))


def integral_f(shape) -> float:
    """``int f dx`` over ``[-1, 1]`` (of the rescaled metric)."""
    if isinstance(shape, MomentumShape):
        return gauss_integral(shape.f, -1.0, 1.0)
    c = shape.scale()
    return c ** 4 * gauss_integral(lambda s: shape.a(s) ** 3, 0.0, shape.length)


def integral_trace0(shape) -> float:
    """``int (1 - x^2) / f dx`` (of the rescaled metric)."""
    if isinstance(shape, MomentumShape):
        return gauss_integral(lambda x: 1.0 / shape.g(x), -1.0, 1.0)
    c2 = shape.scale() ** 2
    x_of = Chebyshev.interpolate(shape.a, SERIES_DEGREE,
                                 domain=[0.0, shape.length]).integ(lbnd=0.0)
    return gauss_integral(lambda s: (1.0 - (c2 * x_of(s) - 1.0) ** 2) / shape.a(s),
                          0.0, shape.length)


def meridian(shape, n_samples: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Length, radius and height of the meridian at ``n_samples`` uniform
    arclength points from the south pole, ``z`` measured from that pole."""
    if isinstance(shape, MomentumShape):
        # x = -cos(phi): ds = dphi / sqrt(g), a = sin(phi) sqrt(g), and
        # dz = sqrt(1 - f'^2 / 4) ds, all smooth in phi up to the poles
        def inv_root_g(phi):
            return 1.0 / np.sqrt(shape.g(-np.cos(phi)))

        def dz(phi):
            half_slope = 0.5 * shape.df(-np.cos(phi))
            return np.sqrt(np.clip(1.0 - half_slope ** 2, 0.0, None)) * inv_root_g(phi)

        s_of = Chebyshev.interpolate(inv_root_g, SERIES_DEGREE,
                                     domain=[0.0, np.pi]).integ(lbnd=0.0)
        z_of = Chebyshev.interpolate(dz, SERIES_DEGREE,
                                     domain=[0.0, np.pi]).integ(lbnd=0.0)
        length = float(s_of(np.pi))
        s = np.linspace(0.0, length, n_samples)
        phi = np.pi * s / length
        for _ in range(50):
            step = (s_of(phi) - s) / inv_root_g(phi)
            phi = np.clip(phi - step, 0.0, np.pi)
            if np.max(np.abs(step)) < 1e-15:
                break
        a = np.sin(phi) * np.sqrt(shape.g(-np.cos(phi)))
        return length, a, z_of(phi)
    c = shape.scale()

    def dz(s):
        return np.sqrt(np.clip(1.0 - shape.da(s) ** 2, 0.0, None))

    z_of = Chebyshev.interpolate(dz, SERIES_DEGREE,
                                 domain=[0.0, shape.length]).integ(lbnd=0.0)
    sigma = np.linspace(0.0, shape.length, n_samples)
    return c * shape.length, c * shape.a(sigma), c * z_of(sigma)
