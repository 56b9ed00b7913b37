"""Embeddability verdicts: the decisive slope test and the spectral obstructions.

A profile metric embeds isometrically (C^1) into 3-space as a surface of
revolution exactly when ``|f'| <= 2`` everywhere — :func:`sup_test` settles
that directly and is the only decisive criterion here.  The spectral tests
are one-sided obstructions:

* ``lambda_0^1 > 3``  =>  not embeddable (:func:`spectral_test`);
* first four distinct eigenvalues all of even multiplicity  =>  not
  embeddable (:func:`even_multiplicity_test`), equivalent to
  ``lambda_4 < lambda_0^1`` — both formulations are computed and must agree;
* ``lambda_0^1 >= xi_1^2 / 2``  (xi_1 the first zero of the Bessel function
  J0)  =>  not embeddable — an external result (Abreu–Freitas), labeled as
  such in reports and kept out of the internal consistency checks.

Either internal obstruction forces a point of negative curvature, so
:func:`full_report` cross-checks every proved implication (trigger => slope
test fails, trigger => :func:`negative_curvature_witness` finds a point) and
records any violation as an internal-consistency failure — those would be
bugs, not geometry.  :func:`trace_flag`, an informational comparison of the
invariant channel's trace with ``pi^2/16``, stands apart: it feeds no
verdict and is not part of the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profile import Profile, curvature, require_valid
from .spectrum import (SpectrumInvariantError, SpectrumTable, _Channels,
                       _enumerate_below, trace0_integral, trace_partial_sum)

__all__ = [
    "XI1", "ABREU_FREITAS_THRESHOLD", "TRACE_FLAG_THRESHOLD",
    "SupTest", "SpectralTest", "EvenMultiplicityTest", "TraceFlag",
    "ObstructionReport",
    "sup_test", "spectral_test", "even_multiplicity_test",
    "negative_curvature_witness", "trace_flag", "full_report",
]

# First positive zero of the Bessel function J0, to 20 significant digits.
XI1 = 2.4048255576957727686
ABREU_FREITAS_THRESHOLD = XI1 * XI1 / 2.0
TRACE_FLAG_THRESHOLD = math.pi * math.pi / 16.0

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 64
# uniform sampling intervals on [-1, 1] of the slope and curvature searches
_GRID = 4096
# the slope test's allowance above 2
_SLOPE_TOL = 1e-9
# lambda_0^1 above this obstructs embedding
_SPECTRAL_THRESHOLD = 3.0
# the corollary reads the first four distinct eigenvalues; the window that
# holds them sits this far (relative) above the value that sizes it
_DISTINCT = 4
_MARGIN = 1e-3


@dataclass(frozen=True)
class SupTest:
    max_slope: float
    argmax_x: float
    embeddable: bool


@dataclass(frozen=True)
class SpectralTest:
    lambda01: float
    threshold: float
    triggered: bool


@dataclass(frozen=True)
class EvenMultiplicityTest:
    """Parity of the first distinct multiplicities, both ways.

    ``multiplicities`` lists the first (up to) four distinct
    multiplicities inside the certified part of the table; ``all_even`` is
    the direct parity answer, ``reduction_holds`` the equivalent
    ``lambda_4 < lambda_0^1`` comparison.  ``explanation`` is non-empty only
    when the table could not certify four distinct eigenvalues, in which
    case ``all_even`` is conservatively false.
    """

    multiplicities: tuple[int, ...]
    all_even: bool
    reduction_holds: bool
    lambda01: float
    lambda_m: float | None
    table: SpectrumTable
    explanation: str = ""


@dataclass(frozen=True)
class TraceFlag:
    """Informational only: invariant-channel trace against ``pi^2/16``."""

    trace0: float
    threshold: float
    partial_sum: float
    suggestive: bool


@dataclass(frozen=True)
class ObstructionReport:
    sup_test: SupTest
    spectral_test: SpectralTest
    abreu_freitas_test: SpectralTest
    even_multiplicity_test: EvenMultiplicityTest
    negative_curvature_witness: float | None
    verdict: str
    spectral_verdict: str
    consistency_failures: tuple[str, ...]

    def to_json_dict(self) -> dict:
        s, em = self.sup_test, self.even_multiplicity_test
        return {
            "sup_test": {"max_slope": s.max_slope, "argmax_x": s.argmax_x,
                         "embeddable": s.embeddable},
            "spectral_test": {
                "lambda01": self.spectral_test.lambda01,
                "threshold": self.spectral_test.threshold,
                "triggered": self.spectral_test.triggered},
            "abreu_freitas_test": {
                "lambda01": self.abreu_freitas_test.lambda01,
                "threshold": self.abreu_freitas_test.threshold,
                "triggered": self.abreu_freitas_test.triggered,
                "label": "external (Abreu-Freitas)"},
            "even_multiplicity_test": {
                "multiplicities": list(em.multiplicities),
                "all_even": em.all_even,
                "reduction_holds": em.reduction_holds,
                "lambda01": em.lambda01,
                "lambda_m": em.lambda_m,
                "explanation": em.explanation},
            "negative_curvature_witness": self.negative_curvature_witness,
            "verdict": self.verdict,
            "spectral_verdict": self.spectral_verdict,
            "consistency_failures": list(self.consistency_failures),
        }


# ---------------------------------------------------------------------------
# individual tests
# ---------------------------------------------------------------------------

def _golden_extremum(fn, xs: np.ndarray, i: int,
                     find_max: bool = True) -> tuple[float, float]:
    """Golden-section search around grid point ``xs[i]``, in the bracket
    between its neighbours clipped to ``[-1, 1]``; returns (arg, value)."""
    a, b = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, xs.size - 1)])
    sign = 1.0 if find_max else -1.0
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = sign * fn(c), sign * fn(d)
    for _ in range(_GOLDEN_STEPS):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = sign * fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = sign * fn(d)
    x = 0.5 * (a + b)
    return x, sign * max(fc, fd)


def sup_test(p: Profile) -> SupTest:
    """Maximum of ``|f'|`` as resolved by a 4 097-point grid, and the
    decisive embeddability verdict.

    Uniform grid of spacing ``2/4096`` (about 4.9e-4; endpoints included —
    the poles attain ``|f'| = 2`` exactly), then golden-section refinement
    around every grid local maximum, poles included (a maximum just inside
    a pole lies in its grid cell).  A feature of ``f'`` narrower than the
    spacing can fall between the samples and go unseen: this is the sup
    over what the grid resolves, not a proved global bound.  Embeddable iff
    that max is at most ``2 + 1e-9``; meshing asks this test too.
    """
    require_valid(p, context="sup_test")
    xs = np.linspace(-1.0, 1.0, _GRID + 1)
    slopes = np.abs(np.asarray(p.df(xs), dtype=float))
    best_i = int(np.argmax(slopes))
    best_x, best_v = float(xs[best_i]), float(slopes[best_i])

    def slope_at(x: float) -> float:
        return abs(float(p.df(x)))

    padded = np.concatenate(([-np.inf], slopes, [-np.inf]))
    peaks = np.flatnonzero((slopes >= padded[:-2]) & (slopes >= padded[2:]))
    for i in peaks:
        x, v = _golden_extremum(slope_at, xs, i)
        if v > best_v:
            best_x, best_v = x, v
    return SupTest(max_slope=best_v, argmax_x=best_x,
                   embeddable=bool(best_v <= 2.0 + _SLOPE_TOL))


def spectral_test(p: Profile) -> SpectralTest:
    """First invariant eigenvalue against 3; exceeding it obstructs
    embedding.  :func:`full_report` also compares it with the external
    ``ABREU_FREITAS_THRESHOLD`` (its ``abreu_freitas_test``)."""
    require_valid(p, context="spectral_test")
    return _threshold_test(_Channels(p)(0, 1).eigenvalues[0], _SPECTRAL_THRESHOLD)


def _threshold_test(lambda01: float, threshold: float) -> SpectralTest:
    return SpectralTest(lambda01=lambda01, threshold=float(threshold),
                        triggered=bool(lambda01 > threshold))


def even_multiplicity_test(p: Profile,
                           cluster_tol: float = 1e-6) -> EvenMultiplicityTest:
    """Parity of the first four distinct multiplicities, cross-checked.

    Enumerates below ``W = min(lambda_1^4, lambda_4^1) (1 + 1e-3)``, a
    window that holds four distinct eigenvalues for two proved reasons:
    channel 1 is a Sturm-Liouville problem, so its spectrum is simple, and
    ``lambda_1^1 < ... < lambda_4^1``, because the form of ``L_k`` grows
    with ``k^2``.  So the first four distinct eigenvalues lie below ``W``,
    where the table is complete, and ``lambda_0^1`` is read afterwards from
    the same store of channel solves.  The ``lambda_4 < lambda_0^1``
    reduction is evaluated on the same table and must agree with the direct
    parity reading — disagreement raises, since the equivalence is a
    theorem.  A ``cluster_tol`` large enough to merge some of the four
    leaves parity undecidable, reported as not-all-even.
    """
    require_valid(p, context="even_multiplicity_test")
    channels = _Channels(p)
    below = min(channels(1, _DISTINCT).eigenvalues[-1],
                channels(_DISTINCT, 1).eigenvalues[0]) * (1.0 + _MARGIN)
    table = _enumerate_below(channels, below, cluster_tol)
    lambda01 = channels(0, 1).eigenvalues[0]
    certified = [e for e in table.entries if e.value <= table.cutoff]
    if len(certified) < _DISTINCT:
        return EvenMultiplicityTest(
            multiplicities=tuple(e.multiplicity for e in certified),
            all_even=False, reduction_holds=False, lambda01=lambda01,
            lambda_m=None, table=table,
            explanation=(
                f"only {len(certified)} distinct eigenvalues certified below "
                f"{table.cutoff:.6g}; need {_DISTINCT} — parity undecidable, "
                f"reported as not-all-even"))
    head = certified[:_DISTINCT]
    mults = tuple(e.multiplicity for e in head)
    all_even = all(m % 2 == 0 for m in mults)
    lambda_m = head[-1].value
    reduction = bool(lambda_m < lambda01)
    if reduction != all_even:
        raise SpectrumInvariantError(
            f"even-multiplicity formulations disagree: direct parity "
            f"{mults} -> {all_even}, but lambda_{_DISTINCT}={lambda_m!r} vs "
            f"lambda_0^1={lambda01!r} -> {reduction}; table or solver is "
            f"inconsistent")
    return EvenMultiplicityTest(multiplicities=mults, all_even=all_even,
                                reduction_holds=reduction, lambda01=lambda01,
                                lambda_m=lambda_m, table=table)


def negative_curvature_witness(p: Profile) -> float | None:
    """A point where the Gauss curvature is negative, or None at this resolution.

    Samples ``K = -f''/2`` on a dense grid and refines around the most
    negative sample by golden-section descent.  Returning None means no
    witness was *found*; it is not a proof that curvature is nonnegative.
    """
    require_valid(p, context="negative_curvature_witness")
    xs = np.linspace(-1.0, 1.0, _GRID + 1)
    ks = np.asarray(curvature(p, xs), dtype=float)
    i = int(np.argmin(ks))
    if ks[i] >= 0.0:
        return None
    x, v = _golden_extremum(lambda t: float(curvature(p, t)), xs, i,
                            find_max=False)
    return x if v < 0.0 else float(xs[i])


def trace_flag(p: Profile, j_terms: int = 24) -> TraceFlag:
    """Informational comparison of the invariant-channel trace with ``pi^2/16``.

    The trace is taken from its exact integral form; a reciprocal partial
    sum over ``j_terms`` computed eigenvalues (a strict lower bound of the
    same trace) is reported alongside as corroboration.  Never a verdict
    source, and not part of :func:`full_report`.  Its eigenvalues are
    refined to the one target of all solves, 1e-8.
    """
    t0 = trace0_integral(p)
    cs = _Channels(p)(0, j_terms)
    return TraceFlag(trace0=t0, threshold=TRACE_FLAG_THRESHOLD,
                     partial_sum=trace_partial_sum(cs, j_terms),
                     suggestive=bool(t0 <= TRACE_FLAG_THRESHOLD))


def full_report(p: Profile, cluster_tol: float = 1e-6) -> ObstructionReport:
    """Run every test, derive verdicts, and cross-check proved implications.

    ``verdict`` comes from the decisive slope test alone.
    ``spectral_verdict`` is "not_embeddable" when an internal spectral
    obstruction fires and "undetermined_by_spectral_tests" otherwise (the
    spectral conditions are one-sided).  Violations of the proved
    implication chain — an internal spectral trigger with the slope test
    happy, or a trigger without a negative-curvature point — land in
    ``consistency_failures``; a non-empty list indicates a bug, not a
    geometric discovery.  The external Abreu–Freitas comparison is reported
    but takes part in no verdict and no consistency check.  Both threshold
    tests read ``lambda_0^1`` from the even-multiplicity test, whose one
    store of channel solves refines channel 0 once per report and solves
    no basis size twice.
    """
    require_valid(p, context="full_report")
    sup = sup_test(p)
    even = even_multiplicity_test(p, cluster_tol=cluster_tol)
    spec = _threshold_test(even.lambda01, _SPECTRAL_THRESHOLD)
    af = _threshold_test(even.lambda01, ABREU_FREITAS_THRESHOLD)
    witness = negative_curvature_witness(p)

    failures = []
    if spec.triggered and sup.embeddable:
        failures.append(
            "lambda_0^1 > 3 yet max|f'| <= 2: contradicts the proved "
            "obstruction chain")
    if even.all_even and sup.embeddable:
        failures.append(
            "first multiplicities all even yet max|f'| <= 2: contradicts "
            "the proved obstruction chain")
    if (spec.triggered or even.all_even) and witness is None:
        failures.append(
            "spectral obstruction triggered but no negative-curvature point "
            "found: witness search or solver inconsistent")
    verdict = "embeddable" if sup.embeddable else "not_embeddable"
    spectral_verdict = ("not_embeddable" if (spec.triggered or even.all_even)
                        else "undetermined_by_spectral_tests")
    return ObstructionReport(
        sup_test=sup, spectral_test=spec, abreu_freitas_test=af,
        even_multiplicity_test=even, negative_curvature_witness=witness,
        verdict=verdict, spectral_verdict=spectral_verdict,
        consistency_failures=tuple(failures))
