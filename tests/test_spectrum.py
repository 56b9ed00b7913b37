import ast
import importlib
import itertools
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import revspec
import revspec.obstruction as obstruction
import revspec.solver as solver
import revspec.spectrum as spectrum
from revspec.families import squeeze_profile
from revspec.profile import (ArclengthProfile, make_profile, momentum_transform,
                             normalize_area)
from revspec.quadrature import gauss_legendre
from revspec.solver import TARGET_REL_ERR, ChannelSpectrum, ConvergenceError, refine
from revspec.spectrum import (
    BudgetError, SpectrumEntry, SpectrumInvariantError, SpectrumTable,
    bounds_report, channel_lower_bound, check_invariants, enumerate_below,
    lambda01_upper_bound, trace0_integral, trace_partial_sum,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


# ---------------------------------------------------------------------------
# traces and closed-form bounds
# ---------------------------------------------------------------------------

def test_trace_integral_round_is_one(round_profile):
    assert trace0_integral(round_profile) == pytest.approx(1.0, abs=1e-13)


def test_trace_integral_pinched(pinched_profile):
    # (1/2) int (1-x^2)/f for the pinch reduces to an exact rational
    assert trace0_integral(pinched_profile) == \
        pytest.approx(float(Fraction(23, 185)), rel=1e-12)


def test_upper_bound_round_saturates(round_profile):
    assert lambda01_upper_bound(round_profile) == pytest.approx(2.0, rel=1e-13)


def test_upper_bound_pinched(pinched_profile):
    # reference value computed independently at 40 digits and frozen
    assert lambda01_upper_bound(pinched_profile) == \
        pytest.approx(19.842502774174018, rel=1e-11)
    # strict for any non-round profile: the eigenvalue sits below the bound
    assert refine(pinched_profile, 0, 1).eigenvalues[0] < \
        lambda01_upper_bound(pinched_profile)


def test_channel_lower_bounds(round_profile, pinched_profile):
    assert channel_lower_bound(round_profile, 0, 3) == pytest.approx(3.0, rel=1e-12)
    assert channel_lower_bound(round_profile, 4, 2) == 8.0
    assert channel_lower_bound(pinched_profile, 0, 1) == \
        pytest.approx(float(Fraction(185, 23)), rel=1e-9)
    with pytest.raises(ValueError):
        channel_lower_bound(round_profile, 0, 0)


@pytest.mark.parametrize("which", ["round", "pinched"])
def test_bounds_report_uses_the_channel_lower_bound(which, round_profile,
                                                    pinched_profile):
    p = round_profile if which == "round" else pinched_profile
    bounds = bounds_report(p).channel_lower_bounds
    assert bounds
    for (k, m), b in bounds.items():
        assert b == channel_lower_bound(p, k, m)


def _record_refinements(monkeypatch, record) -> None:
    """Call ``record(store, k, n, result)`` after every run of the store's
    refinement loop."""
    loop = solver._Channels.refine

    def recording(self, k, n, *below):
        cs = loop(self, k, n, *below)
        record(self, k, n, cs)
        return cs

    monkeypatch.setattr(solver._Channels, "refine", recording)


def _record_solves(monkeypatch) -> list[tuple[int, int]]:
    """``(k, N)`` of every channel solve: the store's one solve point calls
    ``_raw_eigenvalues``, which assembles."""
    solves, solve = [], solver._raw_eigenvalues

    def spy(p, k, N, f_kept):
        solves.append((k, N))
        return solve(p, k, N, f_kept)

    monkeypatch.setattr(solver, "_raw_eigenvalues", spy)
    return solves


@pytest.mark.parametrize("below", [3.0, 21.0])
@pytest.mark.parametrize("which", ["round", "pinched"])
def test_channel_budgets_push_the_next_bound_past_the_cutoff(
        which, below, round_profile, pinched_profile, monkeypatch):
    """The walk solves exactly the channels ``0..k0``, ``k0`` where it
    stopped: at the first channel with no value at or below the cutoff, at
    ``ceil(below)-1``, or earlier where the gap bound proves the next
    channel empty.  Every channel in ``k0+1 .. ceil(below)-1`` indeed has
    its first eigenvalue above the cutoff, by a solve of its own; a higher
    channel has its first bound at or above the cutoff.  Each solved channel's count ``m``
    rests on one fact: its value ``m + 1`` has converged and lies above
    the cutoff, within the channel's a-priori budget (the true eigenvalues
    are ordered, so every later one lies above it too).  Where the trace
    certificate holds on the same Ritz values, it counts the same ``m``."""
    p = round_profile if which == "round" else pinched_profile
    last = {}
    _record_refinements(monkeypatch,
                        lambda store, k, n, cs: last.__setitem__(k, cs))
    solves = _record_solves(monkeypatch)
    table = enumerate_below(p, below)
    assert sorted({k for k, _ in solves}) == sorted(last)
    monkeypatch.undo()
    counts = Counter(k for e in table.entries for k, _ in e.channels)
    k0 = max(last)
    assert sorted(last) == list(range(k0 + 1))
    assert k0 <= min(next(k for k in itertools.count(1) if counts[k] == 0),
                     math.ceil(below) - 1)
    for k in range(k0 + 1, math.ceil(below)):
        assert refine(p, k, 1).eigenvalues[0] > below
    for k in range(math.ceil(below), math.ceil(below) + 3):
        assert channel_lower_bound(p, k, 1) >= below
    for k, cs in last.items():
        m = counts[k]
        assert len(cs.eigenvalues) == m + 1
        assert cs.eigenvalues[m] > below
        assert cs.convergence_estimates[m] <= TARGET_REL_ERR
        assert m + 1 <= spectrum._channel_budget(below, k, trace0_integral(p))
        if k:
            assert spectrum._trace_count(cs, below) in (None, m)


def test_bounds_report_layout(round_profile):
    rep = bounds_report(round_profile)
    assert len(rep.channel_lower_bounds) == 20
    doc = rep.to_json_dict()
    assert doc["channel_lower_bounds"][0] == {
        "k": 0, "m": 1, "bound": pytest.approx(1.0)}
    assert doc["lambda01_upper"] == pytest.approx(2.0)


def test_partial_sums_increase_toward_the_trace(round_profile):
    # channel 1 of the round sphere telescopes: sum of 1/(j(j+1)) = 1 - 1/(J+1)
    cs = refine(round_profile, 1, 10)
    sums = [trace_partial_sum(cs, j) for j in range(1, 11)]
    assert all(b > a for a, b in zip(sums, sums[1:]))
    assert sums[-1] == pytest.approx(10.0 / 11.0, rel=1e-10)
    assert sums[-1] < 1.0  # the exact channel trace 1/|k|
    with pytest.raises(ValueError):
        trace_partial_sum(cs, 0)
    with pytest.raises(ValueError):
        trace_partial_sum(cs, 11)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_channel_store_serves_smaller_requests_and_replaces_on_larger(
        pinched_profile, monkeypatch):
    calls = []
    _record_refinements(monkeypatch, lambda store, k, n, cs: calls.append(
        (k, n, {"target_rel_err": store.target_rel_err,
                "basis_cap": store.basis_cap})))
    solves = _record_solves(monkeypatch)
    channels = spectrum._Channels(pinched_profile, 1e-7, 512)
    five = channels(0, 5)
    three = channels(0, 3)
    assert calls == [(0, 5, {"target_rel_err": 1e-7, "basis_cap": 512})]
    assert three.eigenvalues == five.eigenvalues[:3]
    assert three.convergence_estimates == five.convergence_estimates[:3]
    assert (three.k, three.basis_size) == (0, five.basis_size)
    # a larger request refines again, and the deeper spectrum serves from
    # then on; it solves only the sizes the first request did not reach
    held = len(solves)
    eight = channels(0, 8)
    assert [c[:2] for c in calls] == [(0, 5), (0, 8)]
    assert len(eight.eigenvalues) == 8
    assert channels(0, 6).eigenvalues == eight.eigenvalues[:6]
    assert channels(0, 8) == eight
    assert len(calls) == 2
    assert all(N > five.basis_size for _, N in solves[held:])
    # each channel is held apart
    assert channels(1, 2).k == 1
    assert [c[:2] for c in calls] == [(0, 5), (0, 8), (1, 2)]
    assert len(solves) == len(set(solves))


def _calls_of(tree: ast.AST, *names: str) -> list[ast.Call]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in names]


def _definition(tree: ast.AST, name: str) -> ast.AST:
    return next(node for node in ast.walk(tree)
                if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                and node.name == name)


def test_refine_is_called_only_inside_the_channel_store():
    """How deep each channel is solved is decided in one place: the one
    refinement loop is ``solver._Channels.refine``, and the public
    ``refine`` and ``solve_channel`` run on stores of their own.  The one
    ``_raw_eigenvalues`` call of ``solver.py`` is the store's solve point.
    ``spectrum.py`` and ``obstruction.py`` neither call nor import a solver
    entry point."""
    tree = ast.parse(Path(solver.__file__).read_text())
    store = _definition(tree, "_Channels")
    loop = _definition(store, "refine")
    assert _calls_of(tree, "_raw_eigenvalues") == \
        _calls_of(_definition(store, "_eigenvalues"), "_raw_eigenvalues")
    assert len(_calls_of(tree, "_raw_eigenvalues")) == 1
    assert len(_calls_of(tree, "_spectrum")) == 2
    assert len(_calls_of(loop, "_spectrum")) == 1
    assert len(_calls_of(_definition(tree, "solve_channel"), "_spectrum")) == 1
    assert [type(node) for node in loop.body].count(ast.While) == 2
    for name in ("refine", "solve_channel"):
        public = _definition(tree, name)
        assert not any(isinstance(node, ast.While) for node in ast.walk(public))
        assert [c.func.id for c in _calls_of(public, "_Channels")] == ["_Channels"]
    assert spectrum._Channels is solver._Channels
    entry_points = ("refine", "solve_channel", "_raw_eigenvalues", "assemble")
    for module in (spectrum, obstruction):
        tree = ast.parse(Path(module.__file__).read_text())
        assert _calls_of(tree, *entry_points) == []
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        assert not imported & set(entry_points)


def _sample_member():
    xs = np.linspace(-1.0, 1.0, 33)
    return make_profile(list(zip(xs, (1 - xs ** 2) * (1 + 0.3 * (1 - xs ** 2)))),
                        name="samples")


def _arclength_member():
    # a = sin(s) + 0.05 sin(s)^3 keeps a(0) = a(pi) = 0 and a' = +-1 there
    ap = ArclengthProfile(
        a=lambda s: np.sin(s) + 0.05 * np.sin(s) ** 3,
        da=lambda s: np.cos(s) * (1.0 + 0.15 * np.sin(s) ** 2),
        d2a=lambda s: np.sin(s) * (0.3 * np.cos(s) ** 2 - 1.0
                                   - 0.15 * np.sin(s) ** 2),
        length=math.pi)
    return momentum_transform(normalize_area(ap))


@pytest.mark.parametrize("call", [
    "full_report(paper-example)", "enumerate_below(round, 437)",
    "full_report(samples)", "full_report(arclength)"])
def test_each_basis_size_is_assembled_once_per_call(call, round_profile,
                                                    pinched_profile, monkeypatch):
    """One top-level call solves each ``(k, N)`` at most once, however
    often its requests revisit a channel; the next call starts afresh."""
    p = {"full_report(paper-example)": pinched_profile,
         "enumerate_below(round, 437)": round_profile,
         "full_report(samples)": _sample_member(),
         "full_report(arclength)": _arclength_member()}[call]
    run = ((lambda: enumerate_below(p, 437.0)) if "437" in call
           else (lambda: obstruction.full_report(p)))
    assembled, assemble = [], solver.assemble

    def spy(p, k, N, **kwargs):
        assembled.append((k, N))
        return assemble(p, k, N, **kwargs)

    monkeypatch.setattr(solver, "assemble", spy)
    runs = []
    for _ in range(2):
        assembled.clear()
        run()
        runs.append(list(assembled))
        assert assembled
        assert len(assembled) == len(set(assembled)), Counter(assembled).most_common(3)
    # nothing is kept from one call to the next
    assert runs[0] == runs[1]
    if "437" in call:
        # 88 when each channel was solved to its whole a-priori budget, 44
        # when the walk also solved channel 21, the first empty one
        assert len(assembled) == 42


def test_a_large_cutoff_solves_no_channel_past_its_first_value_above_it(
        round_profile, monkeypatch):
    """Round, below 437: channel 1 holds 20 values at or below the cutoff
    (``j (j + 1)``), so its count needs 21 converged values, which N = 64
    serves; its a-priori budget of 437 values alone would take N = 1024.
    The table is the round sphere's, ``l (l + 1)`` of multiplicity
    ``2l + 1``."""
    solves = _record_solves(monkeypatch)
    table = enumerate_below(round_profile, 437.0)
    assert max(N for k, N in solves if k == 1) <= 64
    assert max(N for _, N in solves) <= 64
    assert [e.multiplicity for e in table.entries] == \
        [2 * l + 1 for l in range(1, 21)]
    assert table.values() == pytest.approx(
        [l * (l + 1) for l in range(1, 21)], rel=1e-12)


def _outcome(solve):
    """A spectrum, or the ConvergenceError's message and best spectrum, or
    the ValueError's message."""
    try:
        return solve()
    except ConvergenceError as exc:
        return ("ConvergenceError", str(exc), exc.best)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _first(outcome, n):
    if not isinstance(outcome, ChannelSpectrum):
        return outcome
    return replace(outcome, eigenvalues=outcome.eigenvalues[:n],
                   convergence_estimates=outcome.convergence_estimates[:n])


_REQUESTS = [(1, 4), (1, 9), (1, 2), (0, 1), (1, 20), (0, 13), (4, 1),
             (1, 5), (0, 1), (0, 40), (1, 33), (1, 70), (4, 3), (1, 8)]


@pytest.mark.parametrize("target, cap, kinds", [
    (1e-8, 1024, {"spectrum"}),
    (1e-8, 128, {"spectrum", "ConvergenceError", "ValueError"}),
    (1e-12, 256, {"spectrum", "ConvergenceError"}),
    (1e-13, 1024, {"ValueError"})],
    ids=["converging", "capped-128", "capped-256", "below-the-floor"])
def test_a_store_gives_what_a_fresh_refinement_gives(pinched_profile, target,
                                                     cap, kinds):
    """Over growing and shrinking requests, the store's loop returns what
    a fresh ``refine`` returns, field for field, and so does its failure,
    with the best spectrum it carries; ``store(k, n)`` is the fresh
    refinement of the deepest request so far, cut to ``n`` values."""
    store = solver._Channels(pinched_profile, target, cap)
    served = solver._Channels(pinched_profile, target, cap)
    deepest, outcomes = {}, set()
    for k, n in _REQUESTS:
        fresh = _outcome(lambda: refine(pinched_profile, k, n,
                                        target_rel_err=target, basis_cap=cap))
        assert _outcome(lambda: store.refine(k, n)) == fresh
        outcomes.add(fresh[0] if isinstance(fresh, tuple) else "spectrum")
        depth = max(n, deepest.get(k, 0))
        expected = _first(_outcome(lambda: refine(
            pinched_profile, k, depth, target_rel_err=target, basis_cap=cap)), n)
        assert _outcome(lambda: served(k, n)) == expected
        if isinstance(expected, ChannelSpectrum):
            deepest[k] = depth
    assert outcomes == kinds


@pytest.mark.parametrize("cap", [1024, 128])
def test_a_store_counts_below_a_cutoff_as_a_fresh_store_does(pinched_profile,
                                                            cap):
    """Requests with a cutoff, mixed with plain ones: the store's loop
    gives what the loop of a fresh store gives, field for field, failures
    included, and the store serves the values up to and including the first
    one above the cutoff, at most ``n``, each meeting the target."""
    requests = [(1, 20, 5.0), (1, 4), (1, 30, 12.0), (0, 40, 30.0), (0, 2),
                (4, 10, 40.0), (1, 70, 60.0), (0, 3, 1e-3), (2, 3, 400.0)]
    store = solver._Channels(pinched_profile, basis_cap=cap)
    served = solver._Channels(pinched_profile, basis_cap=cap)
    for k, n, *below in requests:
        fresh = _outcome(lambda: solver._Channels(
            pinched_profile, basis_cap=cap).refine(k, n, *below))
        assert _outcome(lambda: store.refine(k, n, *below)) == fresh
        cs = _outcome(lambda: served(k, n, *below))
        if not isinstance(cs, ChannelSpectrum):
            assert cs == fresh
            continue
        m = bisect_right(cs.eigenvalues, below[0] if below else math.inf)
        assert len(cs.eigenvalues) == min(n, m + 1)
        assert max(cs.convergence_estimates) <= TARGET_REL_ERR


def test_round_table_below_13(round_profile):
    table = enumerate_below(round_profile, 13.0)
    assert [e.value for e in table.entries] == \
        pytest.approx([2.0, 6.0, 12.0], rel=1e-9)
    assert [e.multiplicity for e in table.entries] == [3, 5, 7]
    assert table.entries[0].channels == ((0, 1), (1, 1))
    assert table.entries[1].channels == ((0, 2), (1, 2), (2, 1))
    assert table.entries[2].channels == ((0, 3), (1, 3), (2, 2), (3, 1))
    assert 12.0 < table.cutoff <= 13.0


def test_pinched_low_spectrum_is_all_pairs(pinched_profile):
    # below its huge invariant eigenvalue the pinch only has mirror pairs
    table = enumerate_below(pinched_profile, 6.0)
    assert len(table.entries) == 4
    for e in table.entries:
        assert e.multiplicity == 2
        assert len(e.channels) == 1
        assert e.channels[0][0] >= 1
    assert [e.value for e in table.entries] == pytest.approx(
        [1.11250849, 2.43170390, 3.94924150, 5.66338545], rel=1e-6)


def test_family_tables_respect_the_global_bounds(small_family):
    for p in small_family[:6]:
        table = enumerate_below(p, 5.0)
        assert table.entries, "spectrum below 5 should never be empty here"
        lam1 = table.entries[0].value
        assert lam1 <= lambda01_upper_bound(p) * (1 + 1e-9)


def test_enumerate_argument_checks(round_profile):
    with pytest.raises(ValueError, match="positive"):
        enumerate_below(round_profile, 0.0)
    with pytest.raises(ValueError, match="target_rel_err"):
        enumerate_below(round_profile, 5.0, target_rel_err=1e-3)
    with pytest.raises(ValueError, match="basis_cap"):
        enumerate_below(round_profile, 5.0, basis_cap=16)


def test_budget_error_fires_before_any_solve(round_profile):
    with pytest.raises(BudgetError, match="cap"):
        enumerate_below(round_profile, 1e5)


def test_budget_error_names_the_given_basis_cap(round_profile):
    with pytest.raises(BudgetError,
                       match="basis cap 256 supports at most 128$"):
        enumerate_below(round_profile, 200.0, basis_cap=256)
    # a cap between powers of two supports what its largest reachable basis
    # (64 here) holds
    with pytest.raises(BudgetError,
                       match="basis cap 100 supports at most 32$"):
        enumerate_below(round_profile, 40.0, basis_cap=100)


def test_a_channel_that_does_not_clear_its_budget_is_asked_once(round_profile):
    """The budget already puts the last eigenvalue it allows past the
    cutoff, so a channel whose values stop short has broken the lower
    bound: it is reported at once, not re-requested deeper.  Each channel
    is asked once, for its budget with the cutoff as the stop."""
    requests = []

    class Store(spectrum._Channels):
        def __call__(self, k, n, *below):
            requests.append((k, n, *below))
            cs = super().__call__(k, n, *below)
            if k != 2:
                return cs
            return replace(cs, eigenvalues=tuple(v / 100 for v in cs.eigenvalues))

    with pytest.raises(BudgetError, match="channel 2 did not clear 13 "
                                          "within its budget of 7 eigenvalues"):
        spectrum._enumerate_below(Store(round_profile), 13.0)
    assert requests == [(0, 13, 13.0), (1, 13, 13.0), (2, 7, 13.0)]


def test_budget_error_is_immediate_even_for_absurd_cutoffs(round_profile):
    # must fail fast without building per-channel state sized by the cutoff
    import time
    start = time.monotonic()
    with pytest.raises(BudgetError):
        enumerate_below(round_profile, 1e300)
    assert time.monotonic() - start < 1.0


def _exhaustive_table(every, below, cluster_tol):
    """``(channels, multiplicity, value)`` per distinct eigenvalue at or
    below ``below``, merged as the module documents, from ``(k, j) ->
    value`` solves."""
    found = sorted((v, kj) for kj, v in every.items() if v <= below)
    clusters = []
    for v, kj in found:
        if clusters and v <= clusters[-1][0][0] * (1.0 + cluster_tol):
            clusters[-1].append((v, kj))
        else:
            clusters.append([(v, kj)])
    return [(tuple(sorted(kj for _, kj in cl)),
             sum(1 if k == 0 else 2 for _, (k, _) in cl),
             sum(v for v, _ in cl) / len(cl)) for cl in clusters]


def test_the_stop_rule_matches_an_exhaustive_enumeration(small_family):
    """Every channel ``k < below`` solved to its a-priori budget gives the
    table that the walk gives, which stops where the gap bound proves the
    next channel empty (or at the first empty channel) and counts the deep
    channels by the trace certificate.  ``small_family``
    opens with the round sphere and the paper example."""
    cutoffs = (3.0, 13.0, 21.0, 60.0)
    top = max(cutoffs)
    for p in small_family:
        t0 = trace0_integral(p)
        # one solve per channel at the largest cutoff's budget serves all
        every = {}
        for k in range(math.ceil(top)):
            n = math.ceil(top * t0) if k == 0 else math.ceil(top / k)
            cs = refine(p, k, n)
            assert cs.eigenvalues[-1] > top
            every.update(((k, j), v) for j, v in enumerate(cs.eigenvalues, 1))
        for below in cutoffs:
            table = enumerate_below(p, below)
            expected = _exhaustive_table(every, below, table.cluster_tol)
            assert [e.channels for e in table.entries] == \
                [chans for chans, _, _ in expected], (p.name, below)
            assert [e.multiplicity for e in table.entries] == \
                [mult for _, mult, _ in expected]
            assert [e.value for e in table.entries] == \
                pytest.approx([v for _, _, v in expected], rel=1e-9)


def _round_channel_1(n_eigs, n_ritz, drop=None):
    """Round-sphere channel 1, ``v_j = j (j + 1)``, trace 1: ``n_ritz`` Ritz
    values, the first ``n_eigs`` of them converged, the ``drop``-th value
    (1-based) left out."""
    v = [float(j * (j + 1)) for j in range(1, n_ritz + 2) if j != drop][:n_ritz]
    return ChannelSpectrum(k=1, eigenvalues=tuple(v[:n_eigs]), basis_size=2 * n_ritz,
                           convergence_estimates=(0.0,) * n_eigs,
                           ritz_values=tuple(v))


def test_the_trace_certificate_counts_the_round_channel_1():
    # T - S_M = 1/(M+1) against 1/Lambda - 1/v_{m+1}
    assert spectrum._trace_count(_round_channel_1(8, 16), 3.0) == 1
    assert spectrum._trace_count(_round_channel_1(8, 256), 21.0) == 4
    assert spectrum._trace_count(_round_channel_1(8, 256), 20.0) == 4
    # 1/17 is not below 1/21 - 1/30: too few Ritz values to tell
    assert spectrum._trace_count(_round_channel_1(8, 16), 21.0) is None
    # the four values below 21 must all be converged ones
    assert spectrum._trace_count(_round_channel_1(4, 256), 21.0) == 4
    assert spectrum._trace_count(_round_channel_1(3, 256), 21.0) is None
    # with no Ritz value above the cutoff there is no v_{m+1} to compare
    assert spectrum._trace_count(_round_channel_1(8, 16), 300.0) is None
    # one left out far above the cutoff barely moves the sum
    assert spectrum._trace_count(_round_channel_1(8, 256, drop=100), 21.0) == 4


@pytest.mark.parametrize("drop", [1, 2, 3, 4])
def test_the_trace_certificate_refuses_a_missing_eigenvalue(drop):
    """Leaving out one true eigenvalue below the cutoff undercounts the
    channel by one; the trace gap it leaves is too wide to certify."""
    cs = _round_channel_1(8, 256, drop=drop)
    assert bisect_right(cs.ritz_values, 21.0) == 3
    assert spectrum._trace_count(cs, 21.0) is None


def test_each_channel_is_refined_once_to_its_first_value_above_the_cutoff(
        round_profile, pinched_profile, monkeypatch):
    """Round, below 21: each of the channels 0..4 is asked once, for its
    a-priori budget with the cutoff as the stop, and is served its values
    up to the first one above 21 from the sizes 16 and 32 alone; channel
    4's first value, 20, proves channel 5 empty by the gap bound.  Channel 1 (budget 21,
    four values below) gets five values, where the budget alone asked for
    21.  The trace certificate, checked on the same Ritz values, refuses
    it (T - S_16 = 1/17 against 1/21 - 1/30).  Paper example, below 21:
    channel 1 (one value below) is served two values, and the certificate
    counts the same one."""
    requests, last = [], {}

    class Store(spectrum._Channels):
        def __call__(self, k, n, *below):
            requests.append((k, n, *below))
            return super().__call__(k, n, *below)

    _record_refinements(monkeypatch,
                        lambda store, k, n, cs: last.__setitem__(k, cs))
    solves = _record_solves(monkeypatch)
    table = spectrum._enumerate_below(Store(round_profile), 21.0)
    assert [e.multiplicity for e in table.entries] == [3, 5, 7, 9]
    t0 = trace0_integral(round_profile)
    assert requests == [(k, spectrum._channel_budget(21.0, k, t0), 21.0)
                        for k in range(5)]
    assert sorted(solves) == [(k, N) for k in range(5) for N in (16, 32)]
    assert {k: len(cs.eigenvalues) for k, cs in last.items()} == \
        {0: 5, 1: 5, 2: 4, 3: 3, 4: 2}
    assert spectrum._trace_count(last[1], 21.0) is None
    requests.clear()
    table = spectrum._enumerate_below(Store(pinched_profile), 21.0)
    assert [n for k, n, _ in requests if k == 1] == [21]
    assert len(last[1].eigenvalues) == 2
    assert spectrum._trace_count(last[1], 21.0) == 1
    assert sum(1 for e in table.entries for k, _ in e.channels if k == 1) == 1


def test_the_gap_bound_the_walk_stops_by_holds(small_family, round_profile,
                                              monkeypatch):
    """``lambda_{k+1}^1 - lambda_k^1 >= (2k+1) / sup f``: the first
    eigenfunction of ``L_{k+1}`` in the form of ``L_k`` (module docstring).
    Each value is a fresh solve and ``sup f`` a dense grid's, so the check
    reads nothing of the walk.  ``small_family`` opens with the round sphere
    and the paper example; the squeeze is the one whose ``lambda_0^1`` lies
    next to ``lambda_4^1``.  Round below 21, the bound after channel 4's
    first value, 20, proves channel 5 empty, and no solve reaches it."""
    xs = np.linspace(-1.0, 1.0, 20001)
    for p in [*small_family, squeeze_profile(3.023191452026367, 36)]:
        sup_f = float(np.max(p.f(xs)))
        first = [refine(p, k, 1).eigenvalues[0] for k in range(1, 8)]
        for k, (a, b) in enumerate(zip(first, first[1:]), start=1):
            assert b - a >= (2 * k + 1) / sup_f, (p.name, k)
    solves = _record_solves(monkeypatch)
    enumerate_below(round_profile, 21.0)
    assert sorted({k for k, _ in solves}) == [0, 1, 2, 3, 4]


def test_an_enumeration_evaluates_f_once_per_gauss_rule(pinched_profile):
    """The walk's bound on ``sup f`` reads the values the solves keep: with
    the profile's validation report and trace already kept, every
    evaluation of ``f`` is on the nodes of one Gauss rule, and no rule is
    evaluated twice."""
    calls = []

    def f(x):
        calls.append(np.array(x, copy=True))
        return pinched_profile.f(x)

    p = replace(pinched_profile, f=f)
    trace0_integral(p)
    calls.clear()
    enumerate_below(p, 21.0)
    rules = [x.size for x in calls]
    assert rules and len(rules) == len(set(rules))
    for x in calls:
        assert np.array_equal(x, gauss_legendre(x.size)[0])


def test_a_trace_count_that_disagrees_with_the_count_raises(round_profile):
    """The trace certificate cross-checks the count on the same Ritz
    values.  Round, below 13: channel 2 counts 6 and 12; a Ritz list made
    to hold one more value at or below 13 (12.5 in place of its last) is
    certified at three, and the disagreement is raised."""

    class Store(spectrum._Channels):
        def __call__(self, k, n, *below):
            cs = super().__call__(k, n, *below)
            if k != 2:
                return cs
            return replace(cs, ritz_values=tuple(
                sorted(cs.ritz_values[:-1] + (12.5,))))

    with pytest.raises(SpectrumInvariantError,
                       match="channel 2: 2 eigenvalues at or below 13 by the "
                             "first converged value above it, 3 by the trace "
                             "certificate"):
        spectrum._enumerate_below(Store(round_profile), 13.0)
    spectrum._enumerate_below(spectrum._Channels(round_profile), 13.0)


def _loop_channel_below(channels, k, below, t0):
    """The count as it was made before it stopped at the first converged
    value above the cutoff: channel 0, and a channel whose a-priori budget
    is at most 8 values, is solved to its budget; any other is asked for
    8, counted by the trace certificate, and asked for twice as many on
    each refusal, up to its budget, which is the fallback."""
    budget = spectrum._channel_budget(below, k, t0)
    n = budget if k == 0 else min(budget, 8)
    while n < budget:
        cs = channels(k, n)
        m = spectrum._trace_count(cs, below)
        if m is not None:
            break
        n = min(2 * n, budget)
    else:
        cs = channels(k, budget)
        assert cs.eigenvalues[-1] > below
        m = bisect_right(cs.eigenvalues, below)
    return replace(cs, eigenvalues=cs.eigenvalues[:m],
                   convergence_estimates=cs.convergence_estimates[:m])


@pytest.fixture
def ninety_two(acceptance_family, monkeypatch):
    """``(kind, profile)`` of the benchmark's ``family_inputs`` of seeds 11,
    77 and 5 (expression, sample and arclength members) and of the
    50-member acceptance family."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    members = [(inp.kind, workloads.make_profile(revspec, inp))
               for seed in (11, 77, 5) for inp in workloads.family_inputs(seed)]
    members += [("expression", p) for p in acceptance_family]
    assert len(members) == 92
    return members


def test_reports_match_the_budget_schedule_on_92_profiles(ninety_two,
                                                          monkeypatch):
    """On the 92 profiles, the reports are those of the loop reference,
    verdicts, multiplicities and channel attributions alike; values agree
    within 1e-12 relative, or 1e-9 on sample-backed members, whose spline
    ``f`` converges slower."""
    reports = [obstruction.full_report(p) for _, p in ninety_two]
    monkeypatch.setattr(spectrum, "_channel_below", _loop_channel_below)
    for (kind, p), new in zip(ninety_two, reports):
        old = obstruction.full_report(p)
        rel = 1e-9 if kind == "samples" else 1e-12
        assert (new.verdict, new.spectral_verdict) == \
            (old.verdict, old.spectral_verdict), p.name
        a, b = new.even_multiplicity_test, old.even_multiplicity_test
        assert (a.multiplicities, a.all_even) == \
            (b.multiplicities, b.all_even), p.name
        assert [(e.multiplicity, e.channels) for e in a.table.entries] == \
            [(e.multiplicity, e.channels) for e in b.table.entries], p.name
        assert a.table.values() == pytest.approx(b.table.values(), rel=rel)
        assert a.lambda01 == pytest.approx(b.lambda01, rel=rel)


def test_the_report_reads_the_spectral_tests_lambda01_bit_for_bit(ninety_two):
    for _, p in ninety_two:
        report = obstruction.full_report(p)
        assert report.spectral_test.lambda01 == \
            obstruction.spectral_test(p).lambda01, p.name


# ---------------------------------------------------------------------------
# the table laws
# ---------------------------------------------------------------------------

def _table(*entries):
    return SpectrumTable(entries=tuple(entries), cutoff=100.0, cluster_tol=1e-6)


def test_invariants_catch_misordered_values():
    t = _table(
        SpectrumEntry(6.0, 2, ((1, 2),)),
        SpectrumEntry(2.0, 2, ((1, 1),)))
    with pytest.raises(SpectrumInvariantError, match="predecessor"):
        check_invariants(t)


def test_invariants_catch_multiplicity_mismatch():
    t = _table(SpectrumEntry(2.0, 3, ((1, 1),)))
    with pytest.raises(SpectrumInvariantError, match="multiplicity"):
        check_invariants(t)


def test_invariants_catch_parity_violation():
    t = _table(SpectrumEntry(2.0, 2, ((0, 1), (0, 2))))
    with pytest.raises(SpectrumInvariantError, match="parity"):
        check_invariants(t)


def test_invariants_catch_excessive_multiplicity():
    t = _table(SpectrumEntry(
        2.0, 9, ((0, 1), (1, 1), (2, 1), (3, 1), (4, 1))))
    with pytest.raises(SpectrumInvariantError, match="2m"):
        check_invariants(t)


def test_invariants_catch_missing_attribution():
    t = _table(SpectrumEntry(2.0, 1, ()))
    with pytest.raises(SpectrumInvariantError, match="no attributions"):
        check_invariants(t)


def test_invariants_check_lower_bounds_with_a_profile(round_profile):
    t = _table(SpectrumEntry(1.5, 2, ((2, 1),)))
    check_invariants(t)  # structurally fine
    with pytest.raises(SpectrumInvariantError, match="lower bound"):
        check_invariants(t, p=round_profile)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_table_csv_layout(round_profile):
    table = enumerate_below(round_profile, 7.0)
    lines = table.to_csv_text().splitlines()
    assert lines[0] == "m,lambda,multiplicity,channels"
    assert len(lines) == 1 + len(table.entries)
    m, lam, mult, channels = lines[1].split(",")
    assert (m, mult, channels) == ("1", "3", "0:1;1:1")
    assert float(lam) == pytest.approx(2.0, rel=1e-9)


def test_table_json_layout(round_profile):
    table = enumerate_below(round_profile, 7.0)
    doc = table.to_json_dict()
    assert set(doc) == {"cutoff", "cluster_tol", "entries"}
    assert doc["entries"][0]["m"] == 1
    assert doc["entries"][0]["channels"] == [{"k": 0, "j": 1}, {"k": 1, "j": 1}]
