"""Embeddability verdicts: the decisive slope test and the spectral obstructions.

A profile metric embeds isometrically (C^1) into 3-space as a surface of
revolution exactly when ``|f'| <= 2`` everywhere — :func:`sup_test` settles
that directly and is the only decisive criterion here.  The spectral tests
are one-sided obstructions:

* ``lambda_0^1 > 3``  =>  not embeddable (:func:`spectral_test`);
* first four distinct eigenvalues all of even multiplicity  =>  not
  embeddable (:func:`even_multiplicity_test`), read from the channel
  structure in one comparison at the resolution every table merges at, or
  reported as undecided;
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
from .spectrum import (SpectrumTable, _Channels, _enumerate_below,
                       trace0_integral, trace_partial_sum)

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

# uniform sampling intervals on [-1, 1] of the slope and curvature searches
_GRID = 4096
# points per bracket and rounds of the refinement: each round narrows every
# bracket 32-fold, so 10 take two grid steps below one ulp
_POINTS, _ROUNDS = 65, 10
# the slope test's allowance above 2
_SLOPE_TOL = 1e-9
# lambda_0^1 above this obstructs embedding
_SPECTRAL_THRESHOLD = 3.0
# the corollary reads the first four distinct eigenvalues; the window of the
# report's table sits this far (relative) above the value that sizes it
_DISTINCT = 4
_MARGIN = 1e-3
_TRACE_TERMS = 24     # channel-0 eigenvalues in the trace flag's partial sum


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
    """Parity of the first four distinct multiplicities.

    ``all_even`` is the decision of :func:`even_multiplicity_test`, proved
    at the solver's resolution.  ``explanation`` is non-empty only when the
    resolution cannot decide it, and then ``all_even`` is false.
    ``multiplicities`` and ``lambda_m`` are the first (up to) four distinct
    multiplicities and the fourth value inside the certified part of
    ``table``, a display of the spectrum around the decision.
    """

    multiplicities: tuple[int, ...]
    all_even: bool
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

def _refine_max(g, centres: np.ndarray) -> tuple[float, float]:
    """(arg, value) of the largest ``g`` found in the grid cells around
    ``centres``.  Each round evaluates ``g`` once, on :data:`_POINTS` points
    across every bracket (clipped to [-1, 1]), then narrows each to the
    neighbours of its best point.  A bracket's middle point is its centre,
    so no best value drops, and ``value`` is ``g`` at ``arg``."""
    offsets = np.linspace(-1.0, 1.0, _POINTS)
    half = 2.0 / _GRID
    rows = np.arange(centres.size)
    for _ in range(_ROUNDS):
        xs = np.clip(centres[:, None] + half * offsets, -1.0, 1.0)
        vals = np.asarray(g(xs), dtype=float)
        best = np.argmax(vals, axis=1)
        centres, top = xs[rows, best], vals[rows, best]
        half /= (_POINTS - 1) // 2
    i = int(np.argmax(top))
    return float(centres[i]), float(top[i])


def sup_test(p: Profile) -> SupTest:
    """Maximum of ``|f'|`` as resolved by a 4 097-point grid, and the
    decisive embeddability verdict.

    Uniform grid of spacing ``2/4096`` (about 4.9e-4; endpoints included —
    the poles attain ``|f'| = 2`` exactly), then :func:`_refine_max` of
    every grid local maximum at once, poles included (a maximum just inside
    a pole lies in its grid cell); ``max_slope`` is ``|f'(argmax_x)|``.  A
    feature of ``f'`` narrower than the spacing can fall between the
    samples and go unseen: this is the sup over what the grid resolves, not
    a proved global bound.  Embeddable iff that max is at most ``2 + 1e-9``;
    meshing asks this test too.
    """
    require_valid(p, context="sup_test")
    xs = np.linspace(-1.0, 1.0, _GRID + 1)
    slopes = np.abs(np.asarray(p.df(xs), dtype=float))
    padded = np.concatenate(([-np.inf], slopes, [-np.inf]))
    # no neighbour larger: a nan sample is a peak, so nan is not embeddable
    peaks = np.flatnonzero(~((slopes < padded[:-2]) | (slopes < padded[2:])))
    x, v = _refine_max(lambda t: np.abs(p.df(t)), xs[peaks])
    return SupTest(max_slope=v, argmax_x=x,
                   embeddable=bool(v <= 2.0 + _SLOPE_TOL))


def spectral_test(p: Profile) -> SpectralTest:
    """First invariant eigenvalue against 3; exceeding it obstructs
    embedding.  :func:`full_report` also compares it with the external
    ``ABREU_FREITAS_THRESHOLD`` (its ``abreu_freitas_test``).  Both refine
    channel 0 for one value, so they read the same ``lambda_0^1``."""
    require_valid(p, context="spectral_test")
    return _threshold_test(_Channels(p)(0, 1).eigenvalues[0], _SPECTRAL_THRESHOLD)


def _threshold_test(lambda01: float, threshold: float) -> SpectralTest:
    return SpectralTest(lambda01=lambda01, threshold=float(threshold),
                        triggered=bool(lambda01 > threshold))


def even_multiplicity_test(p: Profile) -> EvenMultiplicityTest:
    """Whether the first four distinct multiplicities are all even.

    Channel 0's eigenvalues are simple (Sturm-Liouville) and each ``k >= 1``
    value counts twice, for ``k`` and ``-k``: the four are all even exactly
    when ``lambda_0^1`` lies above the fourth distinct ``k >= 1`` value.
    ``lambda_k^j`` grows in ``k`` (the form of ``L_k`` grows with ``k^2``)
    and in ``j``, so only the eight with ``k j <= 4`` can be among the first
    four.  Sorted as ``v_1 <= ... <= v_8``, with ``R`` the resolution the
    table merges at (``cluster_tol``, 1e-7 at the default target):
    ``lambda_0^1 < v_4 (1 - R)`` proves "not all even";
    ``lambda_0^1 > v_4 (1 + R)``, with ``v_1 .. v_4`` pairwise more than
    ``R`` apart, proves "all even"; anything else is undecided, so
    ``all_even`` is false and ``explanation`` says why.  ``lambda_0^1`` is
    refined for one value first, as :func:`spectral_test` does.  Each of
    ``lambda_0^1 < .. < lambda_0^4`` (channel 0 is simple),
    ``lambda_1^1 < .. < lambda_1^4`` and ``lambda_1^1 < .. < lambda_4^1``
    holds four distinct values, so the table enumerates below
    ``min(lambda_0^4, lambda_1^4, lambda_4^1) (1 + 1e-3)``, which holds the
    first four distinct values.  ``lambda_0^4`` enters as the fourth
    Rayleigh-Ritz value of the solve that gave ``lambda_0^1``, an upper
    bound that costs no solve.  The window may lie below ``v_4``, so the
    eight are asked without its cut; the table's entries give only the
    multiplicities shown.
    """
    require_valid(p, context="even_multiplicity_test")
    channels = _Channels(p)
    cs0 = channels(0, 1)
    lambda01 = cs0.eigenvalues[0]
    below = min(cs0.ritz_values[_DISTINCT - 1],
                channels(1, _DISTINCT).eigenvalues[-1],
                channels(_DISTINCT, 1).eigenvalues[0]) * (1.0 + _MARGIN)
    table = _enumerate_below(channels, below)
    resolution = table.cluster_tol
    v = sorted(lam for k in range(1, _DISTINCT + 1)
               for lam in channels(k, _DISTINCT // k).eigenvalues)
    v_m = v[_DISTINCT - 1]
    all_even, why = False, ""
    if lambda01 > v_m * (1.0 + resolution):
        all_even = all(b > a * (1.0 + resolution)
                       for a, b in zip(v, v[1:_DISTINCT]))
        if not all_even:
            why = (f"two of the first {_DISTINCT} eigenvalues of channels "
                   f"k >= 1, {v[:_DISTINCT]}, lie within {resolution:g} "
                   f"relative of each other")
    elif not lambda01 < v_m * (1.0 - resolution):
        why = (f"lambda_0^1 = {lambda01!r} lies within {resolution:g} "
               f"relative of {v_m!r}, the fourth eigenvalue of channels k >= 1")
    explanation = (f"{why}: parity undecided at the solver's resolution, "
                   f"reported as not-all-even") if why else ""
    head = [e for e in table.entries if e.value <= table.cutoff][:_DISTINCT]
    return EvenMultiplicityTest(
        multiplicities=tuple(e.multiplicity for e in head), all_even=all_even,
        lambda01=lambda01,
        lambda_m=head[-1].value if len(head) == _DISTINCT else None,
        table=table, explanation=explanation)


def negative_curvature_witness(p: Profile) -> float | None:
    """A point where the Gauss curvature is negative, or None at this resolution.

    Samples ``K = -f''/2`` on the slope test's grid and refines the cell of
    the most negative sample (:func:`_refine_max` of ``-K``); ``K`` is
    negative at the returned point.  Returning None means no witness was
    *found*; it is not a proof that curvature is nonnegative.
    """
    require_valid(p, context="negative_curvature_witness")
    xs = np.linspace(-1.0, 1.0, _GRID + 1)
    ks = np.asarray(curvature(p, xs), dtype=float)
    i = int(np.argmin(ks))
    if ks[i] >= 0.0:
        return None
    return _refine_max(lambda t: -curvature(p, t), xs[i:i + 1])[0]


def trace_flag(p: Profile) -> TraceFlag:
    """Informational comparison of the invariant-channel trace with ``pi^2/16``.

    The trace is taken from its exact integral form; a reciprocal partial
    sum over the first 24 computed eigenvalues (a strict lower bound of the
    same trace) is reported alongside as corroboration.  Never a verdict
    source, and not part of :func:`full_report`.  Its eigenvalues are
    refined to the one target of all solves, ``TARGET_REL_ERR``.
    """
    t0 = trace0_integral(p)
    cs = _Channels(p)(0, _TRACE_TERMS)
    return TraceFlag(trace0=t0, threshold=TRACE_FLAG_THRESHOLD,
                     partial_sum=trace_partial_sum(cs, _TRACE_TERMS),
                     suggestive=bool(t0 <= TRACE_FLAG_THRESHOLD))


def full_report(p: Profile) -> ObstructionReport:
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
    store of channel solves serves the whole report and solves no basis
    size twice.
    """
    require_valid(p, context="full_report")
    sup = sup_test(p)
    even = even_multiplicity_test(p)
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
