import importlib
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import revspec.solver as solver
from revspec.families import builtin_profile, reference_family
from revspec.profile import profile_from_text

settings.register_profile(
    "suite", deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

FAMILY_SEED = 20260822


@pytest.fixture(autouse=True)
def cold_basis_tables():
    """Each test starts and ends with an empty basis-table cache: a test
    that swaps in another Gauss rule or table builder leaves tables under
    the usual keys that no other test may read."""
    solver._kept_table.cache_clear()
    yield
    solver._kept_table.cache_clear()


@pytest.fixture(scope="session")
def round_profile():
    return builtin_profile("round")


@pytest.fixture(scope="session")
def pinched_profile():
    return builtin_profile("paper-example")


@pytest.fixture(scope="session")
def small_family():
    """A dozen members for the cheaper property tests."""
    return reference_family(FAMILY_SEED, 12)


@pytest.fixture(scope="session")
def acceptance_family():
    """The 50-profile batch shared by the acceptance property suites."""
    return reference_family(FAMILY_SEED, 50)


@pytest.fixture(scope="session")
def family_reports(acceptance_family):
    """Full obstruction reports for the acceptance family, computed once,
    and the seconds the computation took.

    Both the implication-chain suite and the external-threshold check walk
    these; a single pass keeps the acceptance runtime inside its budget,
    and the recorded time lets that budget still cover the reports.
    """
    from revspec.obstruction import full_report
    start = time.perf_counter()
    reports = [(p, full_report(p)) for p in acceptance_family]
    return reports, time.perf_counter() - start


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's input module, ``bench/workloads.py``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        return importlib.import_module("workloads")


@pytest.fixture
def bench_squeezes(workloads):
    """paper-example and the other squeeze members of the benchmark's
    ``family_inputs(11)``: even expression profiles."""
    inputs = workloads.family_inputs(11)[:len(workloads.SQUEEZE_GRID)]
    return [profile_from_text(inp.text, name=inp.name) for inp in inputs]
