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
  from samples: the clamped C^2 cubic spline with the exact endpoint
  slopes, solved in LAPACK ``dgtsv``'s order (:func:`_clamped_spline`),
* a :class:`Profile` keeps the exact ``form`` it was built from (an ``Expr``
  tree, a spline's pieces or a Chebyshev series), and its ``f``, ``f'``,
  ``f''`` and ``source`` derive from that form in one place per kind,
* :func:`validate` checks the boundary conditions and interior positivity
  and returns a :class:`ValidationReport`,
* :func:`arclength_recover` integrates ``ds = dx / sqrt(f)``; the endpoint
  square-root singularity is removed exactly by the substitution
  ``x = -1 + t^2`` (and mirrored at the other pole), in which the integrand
  ``2 / sqrt(f(x(t)) / t^2)`` extends smoothly to the pole,
* :func:`momentum_transform` goes the other way from an
  :class:`ArclengthProfile`: it inverts ``x(s)`` once per sample point of
  one Chebyshev series for ``f/(1-x^2)``, sampled at doubling degrees until
  its coefficients chop at a noise plateau, and the profile's ``f``,
  ``f'`` and ``f''`` are that series times ``1-x^2`` and its derivatives,
* :func:`normalize_area` rescales an arclength profile to total area
  ``4*pi`` by the homothety ``a -> c * a(s / c)``,
* :func:`curvature` and :func:`gauss_bonnet_residual` expose the curvature
  and the integrated-curvature check ``integral(K dA) = 4*pi``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, Optional

import numpy as np

from .exprs import Expr, EvalDomainError, differentiate, evaluate, parse, to_string
from .quadrature import CumulativeIntegral, QuadratureError, integrate_adaptive, integrate_gl

__all__ = [
    "Profile", "ArclengthProfile", "Check", "ValidationReport",
    "ProfileDefinitionError", "InvalidProfileError", "AreaMismatchError",
    "ProxyResolutionError", "PROXY_MAX_DEGREE",
    "make_profile", "profile_from_text", "validate", "require_valid",
    "validate_arclength", "arclength_recover", "momentum_transform",
    "normalize_area", "area_of", "curvature", "gauss_bonnet_residual",
    "validation_grid",
]

BC_SLOPE = 2.0  # |f'| at the poles forced by smoothness
FOUR_PI = 4.0 * np.pi
# largest degree of the Chebyshev series behind a transformed profile
PROXY_MAX_DEGREE = 2048
# uniform segments over [0, L] of an arclength profile's area integrals
_ARCLENGTH_SEGMENTS = 2048


class ProfileDefinitionError(ValueError):
    """The definition itself is unusable (bad samples, unevaluable expression)."""


class InvalidProfileError(ValueError):
    """A profile failed validation where a validated profile is required."""

    def __init__(self, report: "ValidationReport", context: str = ""):
        self.report = report
        failing = ", ".join(c.name for c in report.checks if not c.passed)
        prefix = f"{context}: " if context else ""
        super().__init__(f"{prefix}profile validation failed ({failing})")


class ProxyResolutionError(ProfileDefinitionError):
    """A transformed profile's Chebyshev series found no noise plateau by
    degree :data:`PROXY_MAX_DEGREE`: the arclength input is not smooth
    enough to be represented."""


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
        """The checks, with ``None`` (JSON ``null``) for each value, target
        or tolerance that is not finite (a check so valued has failed)."""
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "value": _finite_or_none(c.value),
                 "target": _finite_or_none(c.target),
                 "tol": _finite_or_none(c.tol), "passed": c.passed}
                for c in self.checks
            ],
        }


def _finite_or_none(v: float) -> float | None:
    return v if np.isfinite(v) else None


@dataclass(frozen=True)
class _Spline:
    """A cubic spline's ``knots`` and the coefficient ``rows`` c0..c3 of its
    pieces, as :func:`_power_sum` reads them: on piece ``i``, ``f = c0 s^3 +
    c1 s^2 + c2 s + c3`` with ``s = x - knots[i]``."""

    knots: tuple[float, ...]
    rows: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class Profile:
    """Metric profile in the coordinates where the area form is flat.

    ``f``, ``df``, ``d2f`` are vectorized callables on [-1, 1], derived
    from the exact ``form``: an ``Expr`` tree, a :class:`_Spline` through
    samples, or the ``Chebyshev`` series ``g`` with ``f = (1 - x^2) g`` of a
    transformed profile.  ``source`` names the kind: ``"expression"``,
    ``"samples"`` or ``"transformed"``.  Profiles are immutable, so each
    keeps its validation report and its channel-0 trace integral once
    computed; they compare by identity (a series is unhashable).
    """

    f: Callable
    df: Callable
    d2f: Callable
    form: object
    name: str = ""

    @property
    def source(self) -> str:    # keyed without loading numpy.polynomial
        return ("samples" if isinstance(self.form, _Spline) else
                "expression" if isinstance(self.form, Expr) else "transformed")

    @cached_property
    def _report(self) -> ValidationReport:
        return _profile_report(self, 1e-10 if self.source == "expression" else 1e-6)

    @cached_property
    def _trace0(self) -> float:
        return _trace0_integral(self)


@dataclass(frozen=True)
class ArclengthProfile:
    """Metric in arclength form ``ds^2 + a(s)^2 dtheta^2`` on ``[0, length]``.

    ``d2a`` is optional and nothing here fills or reads it; it stays because
    callers such as ``bench/workloads.py`` pass it.  ``scale_factor`` records
    the cumulative homothety applied by :func:`normalize_area` (eigenvalues
    of the original metric are ``scale_factor**2`` times those of the
    normalized one).  The profile holds functions of ``s`` only; the
    meridian's ``x(s)`` stays with the map that computes it.
    """

    a: Callable
    da: Callable
    length: float
    d2a: Optional[Callable] = None
    source: str = "expression"
    scale_factor: float = 1.0


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def validation_grid() -> np.ndarray:
    """The 1024 Chebyshev points of [-1, 1], ascending, densest at the ends."""
    n = 1024
    i = np.arange(n)
    return np.sort(np.cos(np.pi * (2 * i + 1) / (2 * n)))


def _pointwise(g: Callable) -> Callable:
    """``g`` as a profile function: a float for scalar input, else an array."""
    def h(t):
        out = np.asarray(g(t), dtype=float)
        return out if np.ndim(t) else float(out)
    return h


def make_profile(defn, name: str = "") -> Profile:
    """Build a profile from an expression tree or from ``(x, f)`` samples.

    Expression profiles get exact symbolic first and second derivatives.
    Sample profiles (at least 16 finite points, strictly increasing,
    spanning [-1, 1]) are interpolated by the clamped C^2 cubic spline with
    the known endpoint slopes +2 and -2, the boundary conditions that any
    valid profile must satisfy anyway.  Its knot slopes solve one
    tridiagonal system, eliminated in reference LAPACK ``dgtsv``'s order,
    row interchanges included, so f, f' and f'' are the floats of
    ``scipy.interpolate.CubicSpline`` and its derivatives, bit for bit.  A
    non-finite sample, or slopes that overflow, raise
    :class:`ProfileDefinitionError` naming the first such sample; so does a
    definition that is neither a tree nor a sequence of number pairs.
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
    trees = (expr, d1, differentiate(d1))
    probe = np.concatenate(([-1.0], validation_grid(), np.linspace(-1, 1, 257)))
    try:
        for e in trees:
            evaluate(e, probe)
    except EvalDomainError as err:
        raise ProfileDefinitionError(
            f"expression '{to_string(expr)}' is not evaluable on [-1, 1]: {err}"
        ) from err
    f, df, d2f = (partial(evaluate, e) for e in trees)
    return Profile(f=f, df=df, d2f=d2f, form=expr, name=name)


def _profile_from_samples(defn, name: str) -> Profile:
    try:
        arr = np.asarray(list(defn), dtype=float)
    except (TypeError, ValueError) as err:
        raise ProfileDefinitionError(
            f"a profile needs an expression tree or (x, f) pairs: {err}") from err
    if arr.size == 0:
        raise ProfileDefinitionError("no samples given")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ProfileDefinitionError("samples must be pairs (x, f(x))")
    if arr.shape[0] < 16:
        raise ProfileDefinitionError(
            f"need at least 16 samples, got {arr.shape[0]}")
    x, y = arr[:, 0], arr[:, 1]
    for label, v in (("x", x), ("f", y)):
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ProfileDefinitionError(
                f"sample {bad[0]}: {label} = {float(v[bad[0]])!r} is not finite")
    if np.any(np.diff(x) <= 0):
        raise ProfileDefinitionError("sample abscissae must be strictly increasing")
    if abs(x[0] + 1.0) > 1e-9 or abs(x[-1] - 1.0) > 1e-9:
        raise ProfileDefinitionError("samples must cover [-1, 1] endpoint to endpoint")
    spline = _clamped_spline(x, y)
    c0, c1, c2, _ = spline.rows
    with np.errstate(all="ignore"):    # as in the solve, pieces may overflow
        pieces = (spline.rows, (3 * c0, 2 * c1, c2), (6 * c0, 2 * c1))
    f, df, d2f = (_pointwise(_power_sum(x, rows)) for rows in pieces)
    return Profile(f=f, df=df, d2f=d2f, form=spline, name=name)


def _clamped_spline(x: np.ndarray, y: np.ndarray) -> _Spline:
    """The clamped C^2 cubic spline through ``(x, y)`` with end slopes +2
    and -2 (de Boor, *A Practical Guide to Splines*, ch. IV).

    Its pieces are those of ``scipy.interpolate.CubicSpline(x, y,
    bc_type=((1, 2), (1, -2)))``, bit for bit (scipy's system for the knot
    slopes, :func:`_dgtsv`, and its Hermite coefficients), and so are f, f'
    and f'' evaluated from them by :func:`_power_sum`.
    """
    h = np.diff(x)
    with np.errstate(all="ignore"):    # samples near the float range overflow
        d = np.diff(y) / h
        rhs = 3 * (h[1:] * d[:-1] + h[:-1] * d[1:])
        m = np.array(_dgtsv(h[1:].tolist() + [0.0],
                            [1.0] + (2 * (h[:-1] + h[1:])).tolist() + [1.0],
                            [0.0] + h[:-1].tolist(),
                            [BC_SLOPE] + rhs.tolist() + [-BC_SLOPE]))
        bad = np.flatnonzero(~np.isfinite(m))
        if bad.size:
            raise ProfileDefinitionError(
                f"samples too large: the spline's slope at sample {bad[0]} "
                f"(x = {float(x[bad[0]])!r}) is not finite")
        t = (m[:-1] + m[1:] - 2 * d) / h
        rows = (t / h, (d - m[:-1]) / h - t, m[:-1], y[:-1])
    return _Spline(knots=tuple(float(v) for v in x), rows=rows)


def _dgtsv(dl: list, d: list, du: list, b: list) -> list:
    """The solution of the tridiagonal system with sub-, main and
    super-diagonals ``dl``, ``d`` and ``du`` and right-hand side ``b``, in
    the operation order of reference LAPACK ``dgtsv`` for one right-hand
    side (Anderson et al., *LAPACK Users' Guide*, 3rd ed., 1999): Gaussian
    elimination with partial pivoting, whose row interchanges fill a second
    superdiagonal (kept in ``dl``), then back substitution.  The lists are
    overwritten.  The spline's rows are unit rows at the ends and strictly
    diagonally dominant inside, so no pivot is zero."""
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    b[n - 1] = b[n - 1] / d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def _power_sum(x: np.ndarray, rows: tuple) -> Callable:
    """The piecewise polynomial with breakpoints ``x`` and coefficient
    ``rows`` (highest degree first, one column per piece), evaluated as
    ``scipy.interpolate.PPoly`` does: the piece is the last one whose left
    end is at or below the point (the first and last pieces extend past
    ``x[0]`` and ``x[-1]``, and ``x[-1]`` belongs to the last), and with
    ``s`` the offset from that left end the terms are summed from the
    constant up, each coefficient times ``s``'s power formed by repeated
    multiplication.  This is not Horner's rule; its roundings differ."""
    inner, left = x[1:-1].copy(), x[:-1].copy()
    const, rows = 0.0 + rows[-1], rows[-2::-1]

    def g(t):
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(inner, t, side="right")
        s = t - left.take(i)
        out, z = const.take(i), s
        with np.errstate(all="ignore"):
            for j, row in enumerate(rows):
                if j:
                    z = z * s
                term = row.take(i)
                term *= z
                out += term
        return out
    return g


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


def _trace0_integral(p: Profile) -> float:
    """``(1/2) int (1-x^2)/f``, kept on the profile as ``_trace0``; see
    :func:`revspec.spectrum.trace0_integral`."""
    try:
        val, _ = integrate_adaptive(lambda x: (1.0 - x * x) / p.f(x), -1.0, 1.0,
                                    rtol=1e-12, n0=64)
    except QuadratureError as exc:
        raise QuadratureError(
            f"trace integrand (1-x^2)/f did not converge — profile boundary "
            f"behavior is suspect despite validation: {exc}") from exc
    return 0.5 * val


def validate(p: Profile) -> ValidationReport:
    """Check boundary conditions and interior positivity.

    Expression-backed profiles are held to 1e-10 on the endpoint values and
    slopes; sample-backed and transformed ones to 1e-6.  Positivity is
    checked on the Chebyshev validation grid (:func:`validation_grid`,
    clustered at the endpoints where profiles degenerate).  The report is
    computed once per profile and kept on it.
    """
    return p._report


def require_valid(p: Profile, context: str = "") -> None:
    """Raise :class:`InvalidProfileError`, naming ``context``, unless the
    profile passes :func:`validate`."""
    report = validate(p)
    if not report.passed:
        raise InvalidProfileError(report, context=context)


def validate_arclength(ap: ArclengthProfile) -> ValidationReport:
    """Arclength-side analog of :func:`validate`: a finite positive length,
    end values 0 and slopes +1, -1 to within 1e-8, positive ``a`` inside."""
    L = ap.length
    ok_len = np.isfinite(L) and L > 0
    checks = [Check("length", float(L), float(L) if ok_len else float("nan"),
                    0.0, bool(ok_len))]
    if ok_len:
        ends = (("a(0)", ap.a, 0.0, 0.0), ("a(L)", ap.a, L, 0.0),
                ("a'(0)", ap.da, 0.0, 1.0), ("a'(L)", ap.da, L, -1.0))
        _append_checks(checks, 1e-8, ends, ap.a,
                       0.5 * L * (validation_grid() + 1.0), "min interior a")
    return ValidationReport(checks=tuple(checks))


# ---------------------------------------------------------------------------
# meridian parametrization: s(x) and x(s)
# ---------------------------------------------------------------------------

def _invert_cumulative(cum: CumulativeIntegral, target) -> np.ndarray:
    """The points of ``cum.grid``'s span where ``cum`` reaches each ``target``.

    The seed interpolates the table linearly against the square root of the
    integral, a chart in which the map stays regular at a pole even where
    the integrand vanishes (there the integral grows like the square of the
    distance); three Newton steps with the integrand as the slope then
    settle at rounding level.  Every target must lie in ``[0, cum.total]``
    up to rounding; points are clipped to the grid's span.
    """
    lo, hi = cum.grid[0], cum.grid[-1]
    y = np.interp(np.sqrt(target), np.sqrt(cum.cum), cum.grid)
    for _ in range(3):
        y = np.clip(y - (cum.value(y) - target) / cum.fn(y), lo, hi)
    return y


class _MeridianMap:
    """Arclength along the meridian, built with pole-regular charts.

    In the chart ``x = -1 + t^2`` the arclength element is
    ``ds = 2 dt / sqrt(f(x)/t^2)`` and ``f(x)/t^2`` tends to the finite limit
    ``2 - t^2`` times ``f/(1-x^2)`` at the pole, so Gauss quadrature on 1024
    uniform segments of ``t`` converges fast; the mirrored chart
    ``x = 1 - t^2`` covers the other half.  The inverse ``x(s)`` is found
    per half by inverting the smooth, strictly increasing map ``t -> s``
    (:func:`_invert_cumulative`).
    """

    def __init__(self, p: Profile):
        t_grid = np.linspace(0.0, 1.0, 1024 + 1)

        def make_g(sign, side):
            def g(t):
                t = np.asarray(t, dtype=float)
                x = sign * (t * t - 1.0)
                fv = np.asarray(p.f(x), dtype=float)
                # 1 + sign*x (= t^2) is exact for the rounded x; t*t is not
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = fv / (1.0 + sign * x)
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

        # x = -1 + t^2 on the left half, x = 1 - t^2 on the right
        self._cum_left = CumulativeIntegral(make_g(+1, "-1"), t_grid)
        self._cum_right = CumulativeIntegral(make_g(-1, "+1"), t_grid)
        self.s_mid = self._cum_left.total          # s at x = 0
        self.length = self.s_mid + self._cum_right.total

    def x_of_s(self, s):
        scalar = np.ndim(s) == 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s < -1e-9) or np.any(s > self.length + 1e-9):
            raise ValueError("s outside [0, length]")
        s = np.clip(s, 0.0, self.length)
        out = np.empty_like(s)
        left = s <= self.s_mid
        if np.any(left):
            t = _invert_cumulative(self._cum_left, s[left])
            out[left] = -1.0 + t * t
        if np.any(~left):
            t = _invert_cumulative(self._cum_right, self.length - s[~left])
            out[~left] = 1.0 - t * t
        return float(out[0]) if scalar else out


def arclength_recover(p: Profile) -> ArclengthProfile:
    """Recover the arclength form of a validated profile.

    ``a = sqrt(f)`` along the meridian and ``a' = f'/2`` (chain rule
    through ``dx/ds = a``).  The endpoint slopes come out as +1 and -1
    exactly because the profile's boundary slopes are +2 and -2.
    """
    require_valid(p, context="arclength_recover")
    mm = _MeridianMap(p)
    a = _pointwise(lambda s: np.sqrt(np.clip(p.f(mm.x_of_s(s)), 0.0, None)))
    da = _pointwise(lambda s: 0.5 * np.asarray(p.df(mm.x_of_s(s)), dtype=float))
    return ArclengthProfile(a=a, da=da, length=mm.length, source="recovered")


# ---------------------------------------------------------------------------
# arclength side: area, normalization, transform to momentum coordinates
# ---------------------------------------------------------------------------

def area_of(ap: ArclengthProfile) -> float:
    """Total area ``2*pi * integral of a over [0, L]``."""
    grid = np.linspace(0.0, ap.length, _ARCLENGTH_SEGMENTS + 1)
    return 2.0 * np.pi * CumulativeIntegral(ap.a, grid).total


def normalize_area(ap: ArclengthProfile) -> ArclengthProfile:
    """Rescale to total area ``4*pi`` by the homothety ``a -> c a(s/c)``.

    The homothety preserves the pole slopes, so validity is unchanged.  The
    applied factor is recorded in ``scale_factor`` (composed with any factor
    already recorded); eigenvalues of the original metric are recovered from
    the normalized one by dividing by ``c**2``.
    """
    area = area_of(ap)
    if not np.isfinite(area) or area <= 0:
        raise ValueError(f"cannot normalize: measured area is {area!r}")
    c = float(np.sqrt(FOUR_PI / area))

    a = _pointwise(lambda s: c * np.asarray(ap.a(np.asarray(s) / c), dtype=float))
    da = _pointwise(lambda s: ap.da(np.asarray(s) / c))
    return ArclengthProfile(a=a, da=da, length=c * ap.length, source=ap.source,
                            scale_factor=c * ap.scale_factor)


def momentum_transform(ap: ArclengthProfile) -> Profile:
    """Rewrite a validated arclength profile in the flat-area coordinates.

    Preconditions: the arclength profile validates, and the total area is
    ``4*pi`` within 1e-8 (otherwise :class:`AreaMismatchError`;
    run :func:`normalize_area` first).  The change of variable is
    ``x(s) = -1 + integral of a``, tabulated from each pole over its half of
    the meridian so that ``1 + x`` and ``1 - x`` both keep their relative
    accuracy near their pole.

    The profile is ``f = (1 - x^2) g`` with one Chebyshev series ``g``.
    ``g = f/(1 - x^2)`` is smooth and equals 1 at both poles (there
    ``a ~ distance`` and ``1 -/+ x ~ distance^2/2``), so ``g(+-1) = 1`` is set
    exactly, which makes ``f(+-1) = 0`` and ``f'(+-1) = -+2`` hold by
    construction.  Inside, ``g`` is sampled on the Chebyshev-Lobatto points
    of degree 16, 32, 64, ... (one inversion of ``x(s)`` per point) until
    the coefficients reach a noise plateau under the chop of Aurentz &
    Trefethen ("Chopping a Chebyshev series", ACM TOMS 43, 2017) at
    ``tol`` = machine epsilon.  The chopped series, with its end values set
    back to 1 (the dropped tail moved them by its sum), is the profile's
    ``form``; ``f'`` and ``f''`` are the derivatives of ``(1 - x^2) g``.  A
    profile with no plateau by degree :data:`PROXY_MAX_DEGREE` raises
    :class:`ProxyResolutionError`.
    """
    report = validate_arclength(ap)
    if not report.passed:
        raise InvalidProfileError(report, context="momentum_transform")
    L = ap.length
    half = np.linspace(0.0, 0.5 * L, _ARCLENGTH_SEGMENTS // 2 + 1)
    south = CumulativeIntegral(ap.a, half)                     # 1 + x at s
    north = CumulativeIntegral(lambda r: ap.a(L - r), half)    # 1 - x at L - r
    area = 2.0 * np.pi * (south.total + north.total)
    if abs(area - FOUR_PI) > 1e-8:
        raise AreaMismatchError(area)

    def coefficients(degree: int) -> np.ndarray:
        # g at x_j = cos(pi j / degree), j = 0..degree, with 1 + x_j and
        # 1 - x_j computed without cancellation, and g(+-1) = 1 exactly
        half_theta = 0.5 * np.pi * np.arange(1, degree) / degree
        u, v = 2.0 * np.cos(half_theta) ** 2, 2.0 * np.sin(half_theta) ** 2
        south_side = u <= south.total
        a = np.empty(degree - 1)
        for side, cum, target in ((south_side, south, u), (~south_side, north, v)):
            a[side] = cum.fn(_invert_cumulative(cum, target[side]))
        return _lobatto_coefficients(np.concatenate(([1.0], a * a / (u * v), [1.0])))

    degree, coeffs = 16, coefficients(16)
    while (keep := _chop(coeffs)) is None:
        if degree >= PROXY_MAX_DEGREE:
            raise ProxyResolutionError(
                f"transformed profile does not resolve: its Chebyshev series "
                f"reaches no noise plateau by degree {degree}")
        degree *= 2
        coeffs = coefficients(degree)

    # the dropped tail moved g(+-1) off 1 by its sum; the cardinal functions
    # of the kept degree's end points set both back, vanishing on its other
    # Lobatto points
    c = coeffs[:max(keep, 2)]
    miss_north, miss_south = 1.0 - c.sum(), 1.0 - c[::2].sum() + c[1::2].sum()
    alternating = 1.0 - 2.0 * (np.arange(c.size) & 1)    # (-1)^j, exactly
    pin = (miss_north + miss_south * alternating) / (c.size - 1)
    pin[[0, -1]] *= 0.5
    # numpy.polynomial is not loaded by numpy itself; only this path needs it
    from numpy.polynomial import Chebyshev
    g = Chebyshev(c + pin)
    f = g * Chebyshev((0.5, 0.0, -0.5))    # (1 - x^2) g

    @_pointwise
    def f_value(x):
        # the factored form keeps f's relative accuracy at the poles
        x = np.asarray(x, dtype=float)
        return (1.0 - x) * (1.0 + x) * g(x)

    return Profile(f=f_value, df=_pointwise(f.deriv()), d2f=_pointwise(f.deriv(2)),
                   form=g)


def _lobatto_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the polynomial through ``values`` at the
    points ``cos(pi j / n)``, ``j = 0..n``: a DCT-I by the FFT of the even
    extension."""
    n = values.size - 1
    c = np.fft.rfft(np.concatenate((values, values[-2:0:-1]))).real / n
    c[0] *= 0.5
    c[-1] *= 0.5
    return c


def _chop(coeffs: np.ndarray) -> int | None:
    """How many leading coefficients to keep, or None without a plateau.

    Aurentz & Trefethen's ``standardChop`` (ACM TOMS 43, 2017) at ``tol`` =
    machine epsilon: the normalized monotone envelope of ``|coeffs|`` must
    flatten out (a plateau, at a level that may rise to about
    ``tol^(2/3)``), and the cut goes where the envelope, tilted by a linear
    bias towards short series, is least.
    """
    tol = np.finfo(float).eps
    n = coeffs.size
    env = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    if env[0] == 0.0:
        return 1
    env = env / env[0]
    # 1-based j and j2 = round(1.25 j + 5), as in the paper
    for j in range(2, n + 1):
        j2 = int(1.25 * j + 5.5)
        if j2 > n:
            return None
        e1, e2 = env[j - 1], env[j2 - 1]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - np.log(e1) / np.log(tol)):
            break
    plateau = j - 1
    if env[plateau - 1] == 0.0:
        return plateau
    j3 = int(np.sum(env >= tol ** (7.0 / 6.0)))
    if j3 < j2:
        j2 = j3 + 1
        env[j2 - 1] = tol ** (7.0 / 6.0)
    tilted = np.log10(env[:j2]) + np.linspace(0.0, -np.log10(tol) / 3.0, j2)
    return max(int(np.argmin(tilted)), 1)


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
    try:
        if p.source == "samples":
            ks = p.form.knots
            total = sum(integrate_gl(p.d2f, a, b, 4) for a, b in zip(ks[:-1], ks[1:]))
        else:
            total, _ = integrate_adaptive(p.d2f, -1.0, 1.0, rtol=1e-11, n0=64)
    except QuadratureError as exc:
        raise QuadratureError(
            f"Gauss-Bonnet integrand f'' of {p.source} profile {p.name!r} "
            f"did not integrate: {exc}") from exc
    return abs(-np.pi * total - FOUR_PI)
