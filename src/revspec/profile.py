"""Rotation-invariant metric profiles on the sphere and their coordinate forms.

A metric invariant under the circle action is stored through a single
profile function ``f`` on ``[-1, 1]``: the metric is
``(1/f) dx (x) dx + f dtheta (x) dtheta`` on the cylinder over ``(-1, 1)``.
Smoothness of the underlying metric at the two poles pins down the boundary
behavior

    f(-1) = f(1) = 0,       f'(-1) = 2,       f'(1) = -2,

and in these coordinates the area form is ``dx dtheta``, so the total area
is automatically ``4*pi``.  The Gauss curvature is ``K = -f''/2`` and the
round metric is ``f = 1 - x^2``.

The same metric can be written in arclength form ``ds^2 + a(s)^2 dtheta^2``
with ``a(0) = a(L) = 0`` and ``a'(0) = 1 = -a'(L)``; the two pictures are
linked by ``x(s) = -1 + integral of a`` and ``f = a^2`` along that change of
variable.  This module holds both representations and the transforms between
them:

* :func:`make_profile` builds a :class:`Profile` from an expression tree or
  from samples (clamped cubic spline with the exact endpoint slopes),
* :func:`validate` checks the boundary conditions and interior positivity
  and returns a :class:`ValidationReport`,
* :func:`arclength_recover` integrates ``ds = dx / sqrt(f)``; the endpoint
  square-root singularity is removed exactly by the substitution
  ``x = -1 + t^2`` (and mirrored at the other pole), in which the integrand
  ``2 / sqrt(f(x(t)) / t^2)`` extends smoothly to the pole,
* :func:`momentum_transform` goes the other way from an
  :class:`ArclengthProfile`,
* :func:`normalize_area` rescales an arclength profile to total area
  ``4*pi`` by the homothety ``a -> c * a(s / c)``,
* :func:`curvature` and :func:`gauss_bonnet_residual` expose the curvature
  and the integrated-curvature check ``integral(K dA) = 4*pi``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .exprs import Expr, EvalDomainError, differentiate, evaluate, parse, to_string
from .quadrature import CumulativeIntegral, QuadratureError, integrate_adaptive, integrate_gl

__all__ = [
    "Profile", "ArclengthProfile", "Check", "ValidationReport",
    "ProfileDefinitionError", "InvalidProfileError", "AreaMismatchError",
    "make_profile", "profile_from_text", "validate", "require_valid",
    "validate_arclength", "arclength_recover", "momentum_transform",
    "normalize_area", "area_of", "curvature", "gauss_bonnet_residual",
    "validation_grid",
]

BC_SLOPE = 2.0  # |f'| at the poles forced by smoothness
FOUR_PI = 4.0 * np.pi


class ProfileDefinitionError(ValueError):
    """The definition itself is unusable (bad samples, unevaluable expression)."""


class InvalidProfileError(ValueError):
    """A profile failed validation where a validated profile is required."""

    def __init__(self, report: "ValidationReport", context: str = ""):
        self.report = report
        failing = ", ".join(c.name for c in report.checks if not c.passed)
        prefix = f"{context}: " if context else ""
        super().__init__(f"{prefix}profile validation failed ({failing})")


class AreaMismatchError(ValueError):
    """Arclength profile does not have total area 4*pi."""

    def __init__(self, area: float):
        self.area = area
        super().__init__(
            f"total area {area!r} differs from 4*pi by more than the tolerance; "
            f"normalize_area first")


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    target: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "value": c.value, "target": c.target,
                 "tol": c.tol, "passed": c.passed}
                for c in self.checks
            ],
        }


@dataclass(frozen=True)
class Profile:
    """Metric profile in the coordinates where the area form is flat.

    ``f``, ``df``, ``d2f`` are vectorized callables on [-1, 1].  ``source``
    is one of ``"expression"``, ``"samples"``, ``"transformed"``.  Profiles
    are immutable, so each keeps its validation report once computed.
    """

    f: Callable
    df: Callable
    d2f: Callable
    source: str
    expr: Optional[Expr] = None
    name: str = ""
    knots: Optional[tuple[float, ...]] = None

    @cached_property
    def _report(self) -> ValidationReport:
        return _profile_report(self, 1e-10 if self.source == "expression" else 1e-6)


@dataclass(frozen=True)
class ArclengthProfile:
    """Metric in arclength form ``ds^2 + a(s)^2 dtheta^2`` on ``[0, length]``.

    ``d2a`` may be None for externally built profiles; transforms that need
    it fall back to a finite difference of ``da``.  ``scale_factor`` records
    the cumulative homothety applied by :func:`normalize_area` (eigenvalues
    of the original metric are ``scale_factor**2`` times those of the
    normalized one).  ``x_of_s``/``s_of_x`` are carried by profiles produced
    from :func:`arclength_recover` so downstream consumers can reuse the
    meridian parametrization.
    """

    a: Callable
    da: Callable
    length: float
    d2a: Optional[Callable] = None
    source: str = "expression"
    scale_factor: float = 1.0
    x_of_s: Optional[Callable] = None
    s_of_x: Optional[Callable] = None


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def validation_grid(n: int = 1024) -> np.ndarray:
    """Chebyshev-distributed interior points of [-1, 1], densest at the ends."""
    i = np.arange(n)
    return np.sort(np.cos(np.pi * (2 * i + 1) / (2 * n)))


def make_profile(defn, name: str = "") -> Profile:
    """Build a profile from an expression tree or from ``(x, f)`` samples.

    Expression profiles get exact symbolic first and second derivatives.
    Sample profiles (at least 16 points, strictly increasing, spanning
    [-1, 1]) are interpolated by a cubic spline clamped to the known
    endpoint slopes +2 and -2, following the boundary conditions that any
    valid profile must satisfy anyway.
    """
    if defn is None:
        raise ProfileDefinitionError("empty profile definition")
    if isinstance(defn, Expr):
        return _profile_from_expr(defn, name)
    return _profile_from_samples(defn, name)


def profile_from_text(text: str, name: str = "") -> Profile:
    """Parse expression text (variable ``x``) and build a profile from it."""
    return _profile_from_expr(parse(text, var="x"), name)


def _profile_from_expr(expr: Expr, name: str) -> Profile:
    d1 = differentiate(expr)
    d2 = differentiate(d1)
    probe = np.concatenate(([-1.0], validation_grid(), np.linspace(-1, 1, 257)))
    try:
        for e in (expr, d1, d2):
            evaluate(e, probe)
    except EvalDomainError as err:
        raise ProfileDefinitionError(
            f"expression '{to_string(expr)}' is not evaluable on [-1, 1]: {err}"
        ) from err

    def f(x):
        return evaluate(expr, x)

    def df(x):
        return evaluate(d1, x)

    def d2f(x):
        return evaluate(d2, x)

    return Profile(f=f, df=df, d2f=d2f, source="expression", expr=expr, name=name)


def _profile_from_samples(defn, name: str) -> Profile:
    arr = np.asarray(list(defn), dtype=float)
    if arr.size == 0:
        raise ProfileDefinitionError("no samples given")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ProfileDefinitionError("samples must be pairs (x, f(x))")
    if arr.shape[0] < 16:
        raise ProfileDefinitionError(
            f"need at least 16 samples, got {arr.shape[0]}")
    x, y = arr[:, 0], arr[:, 1]
    if np.any(np.diff(x) <= 0):
        raise ProfileDefinitionError("sample abscissae must be strictly increasing")
    if abs(x[0] + 1.0) > 1e-9 or abs(x[-1] - 1.0) > 1e-9:
        raise ProfileDefinitionError("samples must cover [-1, 1] endpoint to endpoint")
    # scipy.interpolate takes most of the import time; expression profiles
    # never need it, so it loads here and in the two meridian maps only
    from scipy.interpolate import CubicSpline
    spline = CubicSpline(x, y, bc_type=((1, BC_SLOPE), (1, -BC_SLOPE)))
    d1 = spline.derivative(1)
    d2 = spline.derivative(2)

    def f(t):
        return np.asarray(spline(t), dtype=float) if np.ndim(t) else float(spline(t))

    def df(t):
        return np.asarray(d1(t), dtype=float) if np.ndim(t) else float(d1(t))

    def d2f(t):
        return np.asarray(d2(t), dtype=float) if np.ndim(t) else float(d2(t))

    return Profile(f=f, df=df, d2f=d2f, source="samples", name=name,
                   knots=tuple(float(v) for v in x))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _append_checks(checks: list, tol: float, endpoints, fn, grid,
                   interior: str) -> None:
    """Append to ``checks`` one check per ``(name, function, point, target)``
    row of ``endpoints``, then the minimum of ``fn`` on ``grid``."""
    for name, g, at, target in endpoints:
        val = float(g(at))
        ok = np.isfinite(val) and abs(val - target) <= tol
        checks.append(Check(name, val, target, tol, bool(ok)))
    vals = np.asarray(fn(grid), dtype=float)
    mn = float(np.min(vals)) if np.all(np.isfinite(vals)) else float("nan")
    checks.append(Check(interior, mn, 0.0, 0.0, bool(np.isfinite(mn) and mn > 0.0)))


def _profile_report(p: Profile, tol: float) -> ValidationReport:
    checks: list[Check] = []
    try:
        ends = (("f(-1)", p.f, -1.0, 0.0), ("f(+1)", p.f, 1.0, 0.0),
                ("f'(-1)", p.df, -1.0, BC_SLOPE), ("f'(+1)", p.df, 1.0, -BC_SLOPE))
        _append_checks(checks, tol, ends, p.f, validation_grid(), "min interior f")
    except EvalDomainError as err:
        checks.append(Check(f"evaluable ({err.subexpression})",
                            float("nan"), 0.0, 0.0, False))
    return ValidationReport(checks=tuple(checks))


def validate(p: Profile, tol_bc: float | None = None) -> ValidationReport:
    """Check boundary conditions and interior positivity.

    Expression-backed profiles are held to 1e-10 on the endpoint values and
    slopes; sample-backed and transformed ones to 1e-6.  Positivity is
    checked on the Chebyshev validation grid (1024 points, clustered at the
    endpoints where profiles degenerate).  The report at the default
    tolerance is computed once per profile and kept on it; an explicit
    ``tol_bc`` is checked afresh.
    """
    if tol_bc is None:
        return p._report
    return _profile_report(p, float(tol_bc))


def require_valid(p: Profile, tol_bc: float | None = None,
                  context: str = "") -> None:
    report = validate(p, tol_bc=tol_bc)
    if not report.passed:
        raise InvalidProfileError(report, context=context)


def validate_arclength(ap: ArclengthProfile,
                       tol_bc: float = 1e-8) -> ValidationReport:
    """Arclength-side analog of :func:`validate`."""
    L = ap.length
    ok_len = np.isfinite(L) and L > 0
    checks = [Check("length", float(L), float(L) if ok_len else float("nan"),
                    0.0, bool(ok_len))]
    if ok_len:
        ends = (("a(0)", ap.a, 0.0, 0.0), ("a(L)", ap.a, L, 0.0),
                ("a'(0)", ap.da, 0.0, 1.0), ("a'(L)", ap.da, L, -1.0))
        _append_checks(checks, tol_bc, ends, ap.a,
                       0.5 * L * (validation_grid() + 1.0), "min interior a")
    return ValidationReport(checks=tuple(checks))


# ---------------------------------------------------------------------------
# meridian parametrization: s(x) and x(s)
# ---------------------------------------------------------------------------

class _MeridianMap:
    """Arclength along the meridian, built with pole-regular charts.

    In the chart ``x = -1 + t^2`` the arclength element is
    ``ds = 2 dt / sqrt(f(x)/t^2)`` and ``f(x)/t^2`` tends to the finite limit
    ``2 - t^2`` times ``f/(1-x^2)`` at the pole, so plain Gauss quadrature in
    ``t`` converges fast; the mirrored chart ``x = 1 - t^2`` covers the other
    half.  The inverse ``x(s)`` is found per half by inverting the smooth,
    strictly increasing map ``t -> s`` (monotone interpolation plus a couple
    of Newton corrections against the quadrature-accurate forward map).
    """

    def __init__(self, p: Profile, n_seg: int = 1024, order: int = 8):
        from scipy.interpolate import PchipInterpolator
        t_grid = np.linspace(0.0, 1.0, n_seg + 1)

        def make_g(sign, side):
            def g(t):
                t = np.asarray(t, dtype=float)
                x = sign * (t * t - 1.0)
                fv = np.asarray(p.f(x), dtype=float)
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = fv / (t * t)
                # below float resolution x rounds onto the pole itself; use the
                # exact limit ratio -> (2 - t^2) valid for any profile with the
                # correct boundary slope (validation has already enforced it)
                tiny = t < 1e-7
                if np.any(tiny):
                    ratio = np.where(tiny, 2.0 - t * t, ratio)
                if np.any(~np.isfinite(ratio)) or np.any(ratio <= 0):
                    raise QuadratureError(
                        f"meridian integrand not positive; profile degenerate near x={side}")
                return 2.0 / np.sqrt(ratio)
            return g

        g_left = make_g(+1, "-1")    # x = -1 + t^2
        g_right = make_g(-1, "+1")   # x = 1 - t^2

        self._cum_left = CumulativeIntegral(g_left, t_grid, order)
        self._cum_right = CumulativeIntegral(g_right, t_grid, order)
        self._g_left, self._g_right = g_left, g_right
        self.s_mid = self._cum_left.total          # s at x = 0
        self.length = self.s_mid + self._cum_right.total
        # inverse tables t(s), one per half
        sl = self._cum_left.cum
        self._t_of_s_left = PchipInterpolator(sl, t_grid, extrapolate=False)
        sr = self._cum_right.cum                   # arc measured inward from x=+1
        self._t_of_s_right = PchipInterpolator(sr, t_grid, extrapolate=False)

    def s_of_x(self, x):
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x < -1.0 - 1e-12) or np.any(x > 1.0 + 1e-12):
            raise ValueError("x outside [-1, 1]")
        x = np.clip(x, -1.0, 1.0)
        out = np.empty_like(x)
        left = x <= 0.0
        if np.any(left):
            t = np.sqrt(x[left] + 1.0)
            out[left] = self._cum_left.value(t)
        if np.any(~left):
            t = np.sqrt(1.0 - x[~left])
            out[~left] = self.length - self._cum_right.value(t)
        return float(out[0]) if scalar else out

    def _invert_half(self, s_target, cum, t_table, g):
        t = np.clip(np.asarray(t_table(s_target), dtype=float), 0.0, 1.0)
        for _ in range(2):
            resid = cum.value(t) - s_target
            # slope taken a hair inside the chart; g is smooth so the Newton
            # correction is unaffected at the accuracy that matters here
            t = np.clip(t - resid / g(np.clip(t, 1e-3, 1.0)), 0.0, 1.0)
        return t

    def x_of_s(self, s):
        scalar = np.ndim(s) == 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s < -1e-9) or np.any(s > self.length + 1e-9):
            raise ValueError("s outside [0, length]")
        s = np.clip(s, 0.0, self.length)
        out = np.empty_like(s)
        left = s <= self.s_mid
        if np.any(left):
            t = self._invert_half(s[left], self._cum_left,
                                  self._t_of_s_left, self._g_left)
            out[left] = -1.0 + t * t
        if np.any(~left):
            t = self._invert_half(self.length - s[~left], self._cum_right,
                                  self._t_of_s_right, self._g_right)
            out[~left] = 1.0 - t * t
        return float(out[0]) if scalar else out


def arclength_recover(p: Profile, n_seg: int = 1024) -> ArclengthProfile:
    """Recover the arclength form of a validated profile.

    ``a = sqrt(f)`` along the meridian, ``a' = f'/2`` (chain rule through
    ``dx/ds = a``), ``a'' = f'' a / 2``.  The endpoint slopes come out as
    +1 and -1 exactly because the profile's boundary slopes are +2 and -2.
    """
    require_valid(p, context="arclength_recover")
    mm = _MeridianMap(p, n_seg=n_seg)

    def a(s):
        vals = np.clip(np.asarray(p.f(mm.x_of_s(s)), dtype=float), 0.0, None)
        out = np.sqrt(vals)
        return float(out) if np.ndim(s) == 0 else out

    def da(s):
        out = 0.5 * np.asarray(p.df(mm.x_of_s(s)), dtype=float)
        return float(out) if np.ndim(s) == 0 else out

    def d2a(s):
        x = mm.x_of_s(s)
        av = np.sqrt(np.clip(np.asarray(p.f(x), dtype=float), 0.0, None))
        out = 0.5 * np.asarray(p.d2f(x), dtype=float) * av
        return float(out) if np.ndim(s) == 0 else out

    return ArclengthProfile(a=a, da=da, d2a=d2a, length=mm.length,
                            source="recovered", x_of_s=mm.x_of_s,
                            s_of_x=mm.s_of_x)


# ---------------------------------------------------------------------------
# arclength side: area, normalization, transform to momentum coordinates
# ---------------------------------------------------------------------------

def area_of(ap: ArclengthProfile, n_seg: int = 2048) -> float:
    """Total area ``2*pi * integral of a over [0, L]``."""
    grid = np.linspace(0.0, ap.length, n_seg + 1)
    return 2.0 * np.pi * CumulativeIntegral(ap.a, grid).total


def normalize_area(ap: ArclengthProfile, n_seg: int = 2048) -> ArclengthProfile:
    """Rescale to total area ``4*pi`` by the homothety ``a -> c a(s/c)``.

    The homothety preserves the pole slopes, so validity is unchanged.  The
    applied factor is recorded in ``scale_factor`` (composed with any factor
    already recorded); eigenvalues of the original metric are recovered from
    the normalized one by dividing by ``c**2``.
    """
    area = area_of(ap, n_seg=n_seg)
    if not np.isfinite(area) or area <= 0:
        raise ValueError(f"cannot normalize: measured area is {area!r}")
    c = float(np.sqrt(FOUR_PI / area))

    def a(s):
        return c * np.asarray(ap.a(np.asarray(s) / c), dtype=float) \
            if np.ndim(s) else c * float(ap.a(s / c))

    def da(s):
        return np.asarray(ap.da(np.asarray(s) / c), dtype=float) \
            if np.ndim(s) else float(ap.da(s / c))

    d2a = None
    if ap.d2a is not None:
        def d2a(s):  # noqa: F811 - deliberate conditional definition
            return np.asarray(ap.d2a(np.asarray(s) / c), dtype=float) / c \
                if np.ndim(s) else float(ap.d2a(s / c)) / c

    return ArclengthProfile(a=a, da=da, d2a=d2a, length=c * ap.length,
                            source=ap.source,
                            scale_factor=c * ap.scale_factor)


def momentum_transform(ap: ArclengthProfile, n_seg: int = 2048,
                       area_tol: float = 1e-8) -> Profile:
    """Rewrite a validated arclength profile in the flat-area coordinates.

    Preconditions: the arclength profile validates, and the total area is
    ``4*pi`` within ``area_tol`` (otherwise :class:`AreaMismatchError`;
    run :func:`normalize_area` first).  The change of variable is
    ``x(s) = -1 + integral of a``; its inverse is found per half in the
    pole-regular variable ``t = sqrt(1 -/+ x)`` where the map ``t -> s`` has
    a bounded, nonvanishing derivative.
    """
    from scipy.interpolate import PchipInterpolator
    report = validate_arclength(ap)
    if not report.passed:
        raise InvalidProfileError(report, context="momentum_transform")
    L = ap.length
    s_grid = np.linspace(0.0, L, n_seg + 1)
    cum = CumulativeIntegral(ap.a, s_grid)
    area = 2.0 * np.pi * cum.total
    if abs(area - FOUR_PI) > area_tol:
        raise AreaMismatchError(area)
    x_grid = np.clip(-1.0 + cum.cum, -1.0, 1.0)
    x_grid[-1] = 1.0

    # inverse tables sigma(x) built in the pole-regular charts
    mid = int(np.searchsorted(x_grid, 0.0, side="right"))
    li = slice(0, min(mid + 2, x_grid.size))
    ri = slice(max(mid - 2, 0), x_grid.size)
    tl = np.sqrt(np.clip(x_grid[li] + 1.0, 0.0, None))
    tr = np.sqrt(np.clip(1.0 - x_grid[ri], 0.0, None))[::-1]
    sl = s_grid[li]
    sr = s_grid[ri][::-1]
    tl, il = np.unique(tl, return_index=True)
    tr, ir = np.unique(tr, return_index=True)
    s_of_t_left = PchipInterpolator(tl, sl[il], extrapolate=True)
    s_of_t_right = PchipInterpolator(tr, (L - sr)[ir], extrapolate=True)

    def sigma(x):
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        x = np.clip(x, -1.0, 1.0)
        s = np.empty_like(x)
        left = x <= 0.0
        if np.any(left):
            s[left] = s_of_t_left(np.sqrt(x[left] + 1.0))
        if np.any(~left):
            s[~left] = L - s_of_t_right(np.sqrt(1.0 - x[~left]))
        s = np.clip(s, 0.0, L)
        # Newton polish against the accurate forward map, away from the poles
        av = np.asarray(ap.a(s), dtype=float)
        safe = av > 1e-8
        for _ in range(2):
            if not np.any(safe):
                break
            resid = cum.value(s[safe]) - (x[safe] + 1.0)
            s[safe] = np.clip(s[safe] - resid / np.asarray(ap.a(s[safe]), dtype=float),
                              0.0, L)
        return float(s[0]) if scalar else s

    d2a = ap.d2a
    if d2a is None:
        h = 1e-6 * L

        def d2a(s):  # noqa: F811
            s = np.asarray(s, dtype=float)
            return (np.asarray(ap.da(np.clip(s + h, 0, L)), dtype=float)
                    - np.asarray(ap.da(np.clip(s - h, 0, L)), dtype=float)) / (2 * h)

    eps_pole = 1e-7 * L

    def f(x):
        av = np.asarray(ap.a(sigma(x)), dtype=float)
        out = av * av
        return float(out) if np.ndim(x) == 0 else out

    def df(x):
        out = 2.0 * np.asarray(ap.da(sigma(x)), dtype=float)
        return float(out) if np.ndim(x) == 0 else out

    def d2f(x):
        # f'' = 2 a''/a along the meridian; clamp s away from the poles,
        # where the ratio tends to a finite limit (both factors vanish linearly)
        s = np.clip(np.atleast_1d(sigma(x)), eps_pole, L - eps_pole)
        out = 2.0 * np.asarray(d2a(s), dtype=float) / np.asarray(ap.a(s), dtype=float)
        return float(out[0]) if np.ndim(x) == 0 else out

    return Profile(f=f, df=df, d2f=d2f, source="transformed")


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def curvature(p: Profile, x):
    """Gauss curvature ``K = -f''/2`` (vectorized)."""
    out = -0.5 * np.asarray(p.d2f(x), dtype=float)
    return float(out) if np.ndim(x) == 0 else out


def gauss_bonnet_residual(p: Profile) -> float:
    """``|integral(K dA) - 4*pi|`` with the integral done by quadrature.

    ``integral(K dA) = -pi * integral(f'')``, so the residual measures how
    well the second derivative integrates against the boundary slopes; the
    identity holds exactly whenever the boundary conditions do.  For
    sample-backed profiles the quadrature panels are aligned to the spline
    knots, where a fixed Gauss rule is exact per panel.
    """
    require_valid(p, context="gauss_bonnet_residual")
    if p.knots is not None:
        total = 0.0
        ks = p.knots
        for a, b in zip(ks[:-1], ks[1:]):
            total += integrate_gl(p.d2f, a, b, 4)
    else:
        total, _ = integrate_adaptive(p.d2f, -1.0, 1.0, rtol=1e-11,
                                      n0=64, n_max=8192)
    return abs(-np.pi * total - FOUR_PI)
