import ast
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import revspec.obstruction as obstruction
import revspec.spectrum as spectrum
from revspec.solver import refine
from revspec.spectrum import (
    BudgetError, SpectrumEntry, SpectrumInvariantError, SpectrumTable,
    bounds_report, channel_lower_bound, check_invariants, enumerate_below,
    lambda01_upper_bound, trace0_integral, trace_partial_sum,
)


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


@pytest.mark.parametrize("below", [3.0, 21.0])
@pytest.mark.parametrize("which", ["round", "pinched"])
def test_channel_budgets_push_the_next_bound_past_the_cutoff(
        which, below, round_profile, pinched_profile, monkeypatch):
    """The first solve budget ``n`` of each channel leaves the lower bound
    of index ``n + 1`` above the cutoff; a channel left unsolved has its
    first bound at or above it."""
    p = round_profile if which == "round" else pinched_profile
    budgets = {}

    def recording_refine(p, k, n_eigs, **kwargs):
        budgets.setdefault(k, n_eigs)
        return refine(p, k, n_eigs, **kwargs)

    monkeypatch.setattr(spectrum, "refine", recording_refine)
    enumerate_below(p, below)
    assert sorted(budgets) == list(range(math.ceil(below)))
    for k in range(6):
        if k in budgets:
            assert channel_lower_bound(p, k, budgets[k] + 1) > below
        else:
            assert channel_lower_bound(p, k, 1) >= below


def test_bounds_report_layout(round_profile):
    rep = bounds_report(round_profile, k_max=4, m_max=4)
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

    def counting_refine(p, k, n_eigs, **kwargs):
        calls.append((k, n_eigs, kwargs))
        return refine(p, k, n_eigs, **kwargs)

    monkeypatch.setattr(spectrum, "refine", counting_refine)
    channels = spectrum._Channels(pinched_profile, 1e-7, 512)
    five = channels(0, 5)
    three = channels(0, 3)
    assert calls == [(0, 5, {"target_rel_err": 1e-7, "basis_cap": 512})]
    assert three.eigenvalues == five.eigenvalues[:3]
    assert three.convergence_estimates == five.convergence_estimates[:3]
    assert (three.k, three.basis_size) == (0, five.basis_size)
    # a larger request re-solves, and the deeper spectrum serves from then on
    eight = channels(0, 8)
    assert [c[:2] for c in calls] == [(0, 5), (0, 8)]
    assert len(eight.eigenvalues) == 8
    assert channels(0, 6).eigenvalues == eight.eigenvalues[:6]
    assert channels(0, 8) == eight
    assert len(calls) == 2
    # each channel is held apart
    assert channels(1, 2).k == 1
    assert [c[:2] for c in calls] == [(0, 5), (0, 8), (1, 2)]


def _refine_calls(tree: ast.AST) -> list[ast.Call]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "refine"]


def test_refine_is_called_only_inside_the_channel_store():
    """How deep each channel is solved is decided in one place: the one
    ``refine`` call of ``spectrum.py`` is inside ``_Channels``, and
    ``obstruction.py`` neither calls nor imports ``refine``."""
    tree = ast.parse(Path(spectrum.__file__).read_text())
    store = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "_Channels")
    assert len(_refine_calls(tree)) == 1
    assert len(_refine_calls(store)) == 1
    tree = ast.parse(Path(obstruction.__file__).read_text())
    assert _refine_calls(tree) == []
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert "refine" not in imported


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
    with pytest.raises(ValueError, match="cluster_tol"):
        enumerate_below(round_profile, 5.0, cluster_tol=0.5)
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
    """The budget already puts the last requested eigenvalue past the
    cutoff, so a channel that stops short has broken the lower bound: it is
    reported at once, not re-requested deeper."""
    requests = []

    class Store(spectrum._Channels):
        def __call__(self, k, n):
            requests.append((k, n))
            cs = super().__call__(k, n)
            if k != 2:
                return cs
            return replace(cs, eigenvalues=tuple(v / 100 for v in cs.eigenvalues))

    with pytest.raises(BudgetError, match="channel 2 did not clear 13 "
                                          "within its budget of 7 eigenvalues"):
        spectrum._enumerate_below(Store(round_profile), 13.0, 1e-6)
    assert requests == [(0, 13), (1, 13), (2, 7)]


def test_budget_error_is_immediate_even_for_absurd_cutoffs(round_profile):
    # must fail fast without building per-channel state sized by the cutoff
    import time
    start = time.monotonic()
    with pytest.raises(BudgetError):
        enumerate_below(round_profile, 1e300)
    assert time.monotonic() - start < 1.0


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
