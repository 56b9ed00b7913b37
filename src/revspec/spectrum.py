"""Merged spectra, trace quantities, and two-sided eigenvalue bounds.

The full Laplace spectrum of a profile metric is the union of its channel
spectra, with the ``+-k`` pairing doubling every contribution from ``k >= 1``.
:func:`enumerate_below` turns refined channel solves into the ascending table
of *distinct* eigenvalues with multiplicities and channel attributions, and
certifies completeness below a cutoff ``Lambda``.  Two values are distinct
when they differ by more than ``R``, ten times the solves' relative target
(1e-7 at the default): every table, the report's included, merges at that
one resolution and records it.  A channel's count ``m`` rests on its value
``m + 1``, converged and above ``Lambda``: the ``m`` values at or below are
Rayleigh-Ritz upper bounds, and the true eigenvalues are ordered.  The
per-channel lower bounds

    lambda_0^m > 2m / int (1-x^2)/f,      lambda_k^m > m |k|   (k != 0),

cap the values a channel may take: its a-priori budget for ``Lambda``.

Which channels can contribute at all follows from min-max.  For ``k >= 1``
the forms ``q_k(u) = int f u'^2 + k^2 int u^2/f`` share one form domain and
``q_{k+1} - q_k = (2k+1) int u^2/f > 0``, so ``lambda_{k+1}^j > lambda_k^j``
for every ``j``: once a channel ``k >= 1`` has no eigenvalue at or below
``Lambda``, no higher channel has one, and the enumeration stops there.

Trace side: the Green's operator of channel ``k`` has trace ``1/|k|`` for
``k != 0`` and ``(1/2) int (1-x^2)/f`` for the invariant channel; these are
exact identities (for ``k != 0``, ``e^{+-k tau}`` with ``d tau = dx/f``
solve ``L_k u = 0``, so ``G(x, x) = 1/(2k)``).  They certify counts: with
Rayleigh-Ritz values ``v_1 <= ... <= v_M``, each an upper bound of the true
eigenvalue of its index, and ``m = #{v_j <= Lambda} < M``, a hidden true
``mu_{m+1} <= Lambda`` would force ``T >= S_M - 1/v_{m+1} + 1/Lambda`` with
``S_M = sum 1/v_j``.  So ``T - S_M < 1/Lambda - 1/v_{m+1}`` proves that the
channel has exactly ``m`` eigenvalues at or below ``Lambda``, whether or not
``v_{m+1..M}`` have converged; :func:`enumerate_below` checks every count
against it where it holds.  Caveat: the upper-bound property assumes the
stiffness form is integrated exactly, which for a non-polynomial ``f`` holds
only up to quadrature error.  The first invariant eigenvalue is also bounded
above by ``(3/2) int f``, with equality only for the round sphere.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

from .profile import Profile, require_valid
from .quadrature import integrate_adaptive
from .solver import (REFINE_CAP, REFINE_START, TARGET_REL_ERR,
                     ChannelSpectrum, _Channels)

__all__ = [
    "SpectrumEntry", "SpectrumTable", "BoundsReport",
    "SpectrumInvariantError", "BudgetError",
    "trace0_integral", "trace_partial_sum", "lambda01_upper_bound",
    "channel_lower_bound", "bounds_report", "enumerate_below",
    "check_invariants",
]


class SpectrumInvariantError(AssertionError):
    """A merged table violated a structural law (parity, ordering, bounds)."""


class BudgetError(ValueError):
    """Requested cutoff implies a channel budget beyond the solver caps."""


@dataclass(frozen=True)
class SpectrumEntry:
    """One distinct eigenvalue: value, total multiplicity, attributions.

    ``channels`` lists the contributing ``(k, j)`` pairs — channel ``k``'s
    ``j``-th eigenvalue (1-based, zero mode excluded in channel 0) — sorted
    by ``k``.  Multiplicity counts each ``k >= 1`` attribution twice for its
    mirror channel ``-k``.
    """

    value: float
    multiplicity: int
    channels: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SpectrumTable:
    """Ascending distinct eigenvalues, certified complete below ``cutoff``.

    ``cutoff`` is the requested bound shrunk by the worst convergence
    estimate among the merged solves, so nothing that could wander across
    the boundary under the reported numerical error is certified.  Entries
    above ``cutoff`` (but below the requested bound) still appear; they are
    simply outside the certificate.  ``cluster_tol`` is the resolution the
    contributions were merged at, ten times the solves' target: values
    within it of each other are one entry.
    """

    entries: tuple[SpectrumEntry, ...]
    cutoff: float
    cluster_tol: float

    def values(self) -> list[float]:
        return [e.value for e in self.entries]

    def to_json_dict(self) -> dict:
        return {
            "cutoff": self.cutoff,
            "cluster_tol": self.cluster_tol,
            "entries": [
                {"m": i + 1, "lambda": e.value, "multiplicity": e.multiplicity,
                 "channels": [{"k": k, "j": j} for k, j in e.channels]}
                for i, e in enumerate(self.entries)
            ],
        }

    def to_csv_text(self) -> str:
        lines = ["m,lambda,multiplicity,channels"]
        for i, e in enumerate(self.entries):
            attrib = ";".join(f"{k}:{j}" for k, j in e.channels)
            lines.append(f"{i + 1},{e.value:.17g},{e.multiplicity},{attrib}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BoundsReport:
    """The closed-form bounds for one profile, ready for serialization."""

    lambda01_upper: float
    trace0_integral: float
    channel_lower_bounds: dict[tuple[int, int], float]

    def to_json_dict(self) -> dict:
        return {
            "lambda01_upper": self.lambda01_upper,
            "trace0_integral": self.trace0_integral,
            "channel_lower_bounds": [
                {"k": k, "m": m, "bound": b}
                for (k, m), b in sorted(self.channel_lower_bounds.items())
            ],
        }


# ---------------------------------------------------------------------------
# trace quantities and closed-form bounds
# ---------------------------------------------------------------------------

def trace0_integral(p: Profile) -> float:
    """Trace of the invariant channel's Green's operator: ``(1/2) int (1-x^2)/f``.

    The integrand extends continuously to the endpoints (both factors vanish
    to first order with matching slopes), so adaptive Gauss quadrature
    converges for every valid profile; failure to converge is re-raised with
    that diagnosis.  The integral is computed once per profile and kept on
    it, like its validation report.  Round sphere: exactly 1.
    """
    require_valid(p, context="trace0_integral")
    return p._trace0


def trace_partial_sum(cs: ChannelSpectrum, j_count: int) -> float:
    """Sum of ``1/lambda`` over the first ``j_count`` eigenvalues of a channel.

    Strictly increasing in ``j_count`` and strictly below the exact trace
    (``1/|k|``, or the invariant-channel integral) — the tail is never
    estimated here, so the value is a certified lower bound of the trace.
    """
    if not 1 <= j_count <= len(cs.eigenvalues):
        raise ValueError(
            f"j_count={j_count} outside the available range "
            f"1..{len(cs.eigenvalues)}")
    return _reciprocal_sum(cs.eigenvalues[:j_count])


def _reciprocal_sum(values) -> float:
    return float(sum(1.0 / v for v in values))


def lambda01_upper_bound(p: Profile) -> float:
    """Upper bound ``(3/2) int f`` for the first invariant eigenvalue.

    Equality holds only for the round sphere (where both sides are 2); for
    every other valid profile the computed eigenvalue sits strictly below.
    """
    require_valid(p, context="lambda01_upper_bound")
    val, _ = integrate_adaptive(lambda x: p.f(x), -1.0, 1.0, rtol=1e-12, n0=64)
    return 1.5 * val


def _lower_bound(k: int, m: int, trace0: float | None) -> float:
    """``m / trace0`` for ``k = 0`` (only then is ``trace0`` read), else ``m |k|``."""
    return m / trace0 if k == 0 else float(m * abs(k))


def _channel_budget(below: float, k: int, trace0: float) -> int:
    """Eigenvalue count after which channel ``k`` provably exceeds ``below``;
    the inverse of :func:`_lower_bound`."""
    if k == 0:
        return max(1, math.ceil(below * trace0))
    return max(1, math.ceil(below / k))


def _trace_count(cs: ChannelSpectrum, below: float) -> int | None:
    """Number of eigenvalues at or below ``below`` of channel ``cs.k >= 1``,
    certified by the trace identity on its Ritz values (module docstring),
    or None when the certificate fails or counts an unconverged value."""
    v = cs.ritz_values
    m = bisect_right(v, below)
    if m >= len(v) or m > len(cs.eigenvalues):
        return None
    if 1.0 / cs.k - _reciprocal_sum(v) < 1.0 / below - 1.0 / v[m]:
        return m
    return None


def channel_lower_bound(p: Profile, k: int, m: int) -> float:
    """Lower bound for the ``m``-th eigenvalue of channel ``k``.

    ``m |k|`` away from the invariant channel; ``2m [int (1-x^2)/f]^{-1}``
    — i.e. ``m`` over the channel-0 trace — for ``k = 0``.  Both are strict
    for every valid profile.
    """
    if m < 1:
        raise ValueError("eigenvalue index m must be >= 1")
    return _lower_bound(k, m, trace0_integral(p) if k == 0 else None)


def bounds_report(p: Profile) -> BoundsReport:
    """Bundle the closed-form bounds for channels ``0..4``, orders ``1..4``."""
    t0 = trace0_integral(p)
    bounds = {(k, m): _lower_bound(k, m, t0)
              for k in range(0, 5) for m in range(1, 5)}
    return BoundsReport(lambda01_upper=lambda01_upper_bound(p),
                        trace0_integral=t0, channel_lower_bounds=bounds)


# ---------------------------------------------------------------------------
# enumeration with a completeness certificate
# ---------------------------------------------------------------------------

def enumerate_below(p: Profile, below: float,
                    target_rel_err: float = TARGET_REL_ERR,
                    basis_cap: int = REFINE_CAP) -> SpectrumTable:
    """All distinct Laplace eigenvalues in ``(0, below]`` with multiplicities.

    Channels are solved in the order ``k = 0, 1, 2, ...`` and the walk
    stops after the first ``k >= 1`` with no eigenvalue at or below
    ``below``: by min-max no higher channel has one (module docstring).
    Each channel is refined once, until its values up to and including the
    first one above ``below`` meet ``target_rel_err``; its count is the
    number before that one.  The channel's a-priori budget caps the values
    it may take: a channel whose budget of values all lie at or below
    ``below`` raises :class:`BudgetError`, since its lower bound has then
    been broken.  For ``k >= 1`` the trace certificate is checked on the
    same solve's Ritz values: where it holds and counts otherwise,
    :class:`SpectrumInvariantError` is raised.  Contributions within
    relative ``R = 10 target_rel_err`` of a cluster's first member merge
    into one entry whose value is the cluster mean: values that close are
    not told apart at the solver's resolution, and the table records ``R``
    as its ``cluster_tol``.  An entry drawing on several channels is the
    degeneracy signal, and one drawing on two values of one channel a pair
    closer than ``R``, both visible in its attribution list.  The result
    passes :func:`check_invariants` before being returned.
    """
    require_valid(p, context="enumerate_below")
    return _enumerate_below(_Channels(p, target_rel_err, basis_cap), below)


def _enumerate_below(channels: _Channels, below: float) -> SpectrumTable:
    if not (below > 0 and math.isfinite(below)):
        raise ValueError("cutoff must be positive and finite")
    if not channels.n_cap:
        raise ValueError(f"basis_cap must be at least {REFINE_START}")
    t0 = trace0_integral(channels.p)
    k_max = math.ceil(below) - 1
    # budgets only shrink with k, so the worst is that of k = 0 or k = 1:
    # checked before any solve, and before math.ceil could meet an inf
    worst = max(below * t0, below if k_max >= 1 else 0.0)
    if worst > channels.n_cap:
        count = math.ceil(worst) if math.isfinite(worst) else worst
        raise BudgetError(
            f"cutoff {below:g} needs {count:.6g} eigenvalues in one channel; "
            f"the basis cap {channels.basis_cap} supports at most {channels.n_cap}")

    found: list[tuple[float, int, int]] = []  # (value, k, j)
    worst_est = 0.0
    for k in range(k_max + 1):
        cs = _channel_below(channels, k, below, t0)
        found.extend((lam, k, j) for j, lam in enumerate(cs.eigenvalues, start=1))
        worst_est = max([worst_est, *cs.convergence_estimates])
        if k and not cs.eigenvalues:
            break

    found.sort()
    resolution = 10.0 * channels.target_rel_err
    clusters: list[list[tuple[float, int, int]]] = []
    for item in found:
        if clusters and item[0] <= clusters[-1][0][0] * (1.0 + resolution):
            clusters[-1].append(item)
        else:
            clusters.append([item])
    entries = []
    for cl in clusters:
        ks = sorted((k, j) for _, k, j in cl)
        mult = sum(1 if k == 0 else 2 for k, _ in ks)
        entries.append(SpectrumEntry(
            value=float(sum(v for v, _, _ in cl) / len(cl)),
            multiplicity=mult, channels=tuple(ks)))
    table = SpectrumTable(tuple(entries), below * (1.0 - worst_est), resolution)
    check_invariants(table, p=channels.p)
    return table


def _channel_below(channels: _Channels, k: int, below: float,
                   t0: float) -> ChannelSpectrum:
    """Channel ``k``'s spectrum cut to its eigenvalues at or below ``below``,
    as :func:`enumerate_below` counts them."""
    budget = _channel_budget(below, k, t0)
    cs = channels(k, budget, below)
    m = bisect_right(cs.eigenvalues, below)
    if m == len(cs.eigenvalues):
        raise BudgetError(
            f"channel {k} did not clear {below:g} within its budget of "
            f"{budget} eigenvalues — lower-bound logic violated, solve "
            f"untrustworthy")
    certified = _trace_count(cs, below) if k else None
    if certified not in (None, m):
        raise SpectrumInvariantError(
            f"channel {k}: {m} eigenvalues at or below {below:g} by the first "
            f"converged value above it, {certified} by the trace certificate")
    return replace(cs, eigenvalues=cs.eigenvalues[:m],
                   convergence_estimates=cs.convergence_estimates[:m])


def check_invariants(table: SpectrumTable, p: Profile | None = None) -> None:
    """Raise :class:`SpectrumInvariantError` unless the table obeys the laws.

    Structural: strictly ascending values; multiplicity recomputable from
    the attribution list; parity (odd multiplicity exactly when channel 0
    contributes); the ``m``-th entry's multiplicity at most ``2m + 1``.
    With a profile: every entry strictly exceeds the lower bound of each of
    its attributions (the channel-0 bound reads the trace integral the
    profile keeps, so an enumeration's own check integrates nothing anew).
    """
    problems: list[str] = []
    prev = 0.0
    for i, e in enumerate(table.entries):
        m = i + 1
        if not e.value > prev:
            problems.append(f"entry {m}: value {e.value!r} not above predecessor")
        prev = e.value
        if not e.channels:
            problems.append(f"entry {m}: no attributions")
            continue
        mult = sum(1 if k == 0 else 2 for k, _ in e.channels)
        if mult != e.multiplicity:
            problems.append(
                f"entry {m}: multiplicity {e.multiplicity} != {mult} implied "
                f"by attributions {e.channels}")
        has0 = any(k == 0 for k, _ in e.channels)
        if (e.multiplicity % 2 == 1) != has0:
            problems.append(
                f"entry {m}: parity law broken (multiplicity "
                f"{e.multiplicity}, channel-0 present: {has0})")
        if e.multiplicity > 2 * m + 1:
            problems.append(
                f"entry {m}: multiplicity {e.multiplicity} exceeds 2m+1={2 * m + 1}")
    if p is not None:
        trace0 = trace0_integral(p)
        for i, e in enumerate(table.entries):
            for k, j in e.channels:
                bound = _lower_bound(k, j, trace0)
                if not e.value > bound:
                    problems.append(
                        f"entry {i + 1}: value {e.value!r} does not exceed the "
                        f"channel ({k},{j}) lower bound {bound!r}")
    if problems:
        raise SpectrumInvariantError("; ".join(problems))
