"""Merged spectra, trace quantities, and two-sided eigenvalue bounds.

The full Laplace spectrum of a profile metric is the union of its channel
spectra, with the ``+-k`` pairing doubling every contribution from ``k >= 1``.
:func:`enumerate_below` turns refined channel solves into the ascending table
of *distinct* eigenvalues with multiplicities and channel attributions, and
certifies completeness below a cutoff using the per-channel lower bounds

    lambda_0^m > 2m / int (1-x^2)/f,      lambda_k^m > m |k|   (k != 0),

which convert a target ``Lambda`` into a finite solve budget per channel and
a hard bound on which channels can contribute at all.

Trace side: the Green's operator of channel ``k`` has trace ``1/|k|`` for
``k != 0`` and ``(1/2) int (1-x^2)/f`` for the invariant channel; these are
exact identities, so partial reciprocal sums from a solve must increase
strictly toward them from below — a free consistency check on every
spectrum this module touches.  The first invariant eigenvalue is also
bounded above by ``(3/2) int f``, with equality only for the round sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .profile import Profile, require_valid
from .quadrature import QuadratureError, integrate_adaptive
from .solver import REFINE_CAP, REFINE_START, ChannelSpectrum, refine

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
    simply outside the certificate.
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
    that diagnosis.  Round sphere: exactly 1.
    """
    require_valid(p, context="trace0_integral")

    def integrand(x):
        return (1.0 - x * x) / p.f(x)

    try:
        val, _ = integrate_adaptive(integrand, -1.0, 1.0, rtol=1e-12, n0=64)
    except QuadratureError as exc:
        raise QuadratureError(
            f"trace integrand (1-x^2)/f did not converge — profile boundary "
            f"behavior is suspect despite validation: {exc}") from exc
    return 0.5 * val


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
    return float(sum(1.0 / v for v in cs.eigenvalues[:j_count]))


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


def channel_lower_bound(p: Profile, k: int, m: int) -> float:
    """Lower bound for the ``m``-th eigenvalue of channel ``k``.

    ``m |k|`` away from the invariant channel; ``2m [int (1-x^2)/f]^{-1}``
    — i.e. ``m`` over the channel-0 trace — for ``k = 0``.  Both are strict
    for every valid profile.
    """
    if m < 1:
        raise ValueError("eigenvalue index m must be >= 1")
    return _lower_bound(k, m, trace0_integral(p) if k == 0 else None)


def bounds_report(p: Profile, k_max: int = 4, m_max: int = 4) -> BoundsReport:
    """Bundle the closed-form bounds for channels ``0..k_max``, orders ``1..m_max``."""
    t0 = trace0_integral(p)
    bounds = {(k, m): _lower_bound(k, m, t0)
              for k in range(0, k_max + 1) for m in range(1, m_max + 1)}
    return BoundsReport(lambda01_upper=lambda01_upper_bound(p),
                        trace0_integral=t0, channel_lower_bounds=bounds)


# ---------------------------------------------------------------------------
# enumeration with a completeness certificate
# ---------------------------------------------------------------------------

class _Channels:
    """One profile's channel spectra, at most one per ``k``, refined to one
    target within one basis cap.  ``channels(k, n)`` serves the first ``n``
    values of channel ``k`` from the held spectrum when it has that many (a
    deeper solve meets the target on them too), and otherwise refines the
    channel to ``n`` values and holds that spectrum instead."""

    def __init__(self, p: Profile, target_rel_err: float = 1e-8,
                 basis_cap: int = REFINE_CAP):
        self.p, self.target_rel_err, self.basis_cap = p, target_rel_err, basis_cap
        self._held: dict[int, ChannelSpectrum] = {}

    def __call__(self, k: int, n: int) -> ChannelSpectrum:
        cs = self._held.get(k)
        if cs is None or len(cs.eigenvalues) < n:
            cs = self._held[k] = refine(self.p, k, n,
                                        target_rel_err=self.target_rel_err,
                                        basis_cap=self.basis_cap)
        return replace(cs, eigenvalues=cs.eigenvalues[:n],
                       convergence_estimates=cs.convergence_estimates[:n])


def enumerate_below(p: Profile, below: float, cluster_tol: float = 1e-6,
                    target_rel_err: float = 1e-8,
                    basis_cap: int = REFINE_CAP) -> SpectrumTable:
    """All distinct Laplace eigenvalues in ``(0, below]`` with multiplicities.

    Channels ``1 <= k < below`` are the only ones whose first eigenvalue can
    undercut ``below`` (it exceeds ``k``); each is solved just deep enough
    that its lower bound puts its last requested eigenvalue past ``below``,
    and a channel whose computed values do not clear the bar raises
    :class:`BudgetError`, since the bound has then been broken.
    Contributions within relative ``cluster_tol`` of a cluster's first
    member merge into one entry whose value is the cluster mean; an entry
    drawing on several channels is the degeneracy signal, visible in its
    attribution list.  The result passes :func:`check_invariants` before
    being returned.
    """
    require_valid(p, context="enumerate_below")
    return _enumerate_below(_Channels(p, target_rel_err, basis_cap), below,
                            cluster_tol)


def _enumerate_below(channels: _Channels, below: float,
                     cluster_tol: float) -> SpectrumTable:
    if not (below > 0 and math.isfinite(below)):
        raise ValueError("cutoff must be positive and finite")
    if cluster_tol <= 0 or cluster_tol >= 1e-2:
        raise ValueError("cluster_tol must lie in (0, 1e-2)")
    if channels.basis_cap < REFINE_START:
        raise ValueError(f"basis_cap must be at least {REFINE_START}")
    # refine doubles its basis from REFINE_START, so the largest basis it
    # reaches within basis_cap holds at most half as many eigenvalues
    n_cap = REFINE_START // 2
    while 4 * n_cap <= channels.basis_cap:
        n_cap *= 2
    t0 = trace0_integral(channels.p)
    k_max = math.ceil(below) - 1
    # budgets only shrink with k, so the worst ones are k = 0 and k = 1;
    # check them before materializing anything sized by k_max
    worst_budget = _channel_budget(below, 0, t0)
    if k_max >= 1:
        worst_budget = max(worst_budget, _channel_budget(below, 1, t0))
    if worst_budget > n_cap:
        raise BudgetError(
            f"cutoff {below:g} needs {worst_budget} eigenvalues in one channel; "
            f"the basis cap {channels.basis_cap} supports at most {n_cap}")
    budgets = {k: _channel_budget(below, k, t0) for k in range(0, k_max + 1)}

    found: list[tuple[float, int, int]] = []  # (value, k, j)
    worst_est = 0.0
    for k, n in sorted(budgets.items()):
        cs = channels(k, n)
        if cs.eigenvalues[-1] <= below:
            raise BudgetError(
                f"channel {k} did not clear {below:g} within its budget of {n} "
                f"eigenvalues — lower-bound logic violated, solve untrustworthy")
        for j, (lam, est) in enumerate(zip(cs.eigenvalues,
                                           cs.convergence_estimates), start=1):
            if lam <= below:
                found.append((lam, k, j))
                worst_est = max(worst_est, est)

    found.sort()
    clusters: list[list[tuple[float, int, int]]] = []
    for item in found:
        if clusters and item[0] <= clusters[-1][0][0] * (1.0 + cluster_tol):
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
    table = SpectrumTable(entries=tuple(entries),
                          cutoff=below * (1.0 - worst_est),
                          cluster_tol=cluster_tol)
    check_invariants(table, trace0=t0)
    return table


def check_invariants(table: SpectrumTable, p: Profile | None = None,
                     trace0: float | None = None) -> None:
    """Raise :class:`SpectrumInvariantError` unless the table obeys the laws.

    Structural: strictly ascending values; multiplicity recomputable from
    the attribution list; parity (odd multiplicity exactly when channel 0
    contributes); the ``m``-th entry's multiplicity at most ``2m + 1``.
    With a profile (or its precomputed channel-0 trace): every entry
    strictly exceeds the lower bound of each of its attributions.
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
    if p is not None or trace0 is not None:
        if trace0 is None:
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
