"""The benchmark tracer wraps revspec functions by module and name; every
name it lists must exist, so a rename fails here rather than in a traced
benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import revspec.solver as solver

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("revspec_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves(tracer):
    assert tracer.LAYERS
    for mod_name, attr in tracer.LAYERS:
        module = importlib.import_module(mod_name)
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"


def test_every_wrapped_method_resolves(tracer):
    assert tracer.CLASS_LAYERS
    for mod_name, cls_name, attr in tracer.CLASS_LAYERS:
        cls = getattr(importlib.import_module(mod_name), cls_name, None)
        assert inspect.isclass(cls), f"{mod_name}.{cls_name}"
        assert inspect.isfunction(vars(cls).get(attr)), f"{mod_name}.{cls_name}.{attr}"


def test_solver_counters_read_a_split_solve(tracer, pinched_profile, monkeypatch):
    # the counters see the wrapped function's arguments and result; apply
    # them to those of a real solve of a mirror-symmetric profile
    counts = {}

    def counting(name):
        original = getattr(solver, name.split(".")[1])
        metric, counter = tracer.COUNTERS[name]

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            counts.setdefault(f"{name}.{metric}", []).append(counter(args, kwargs, result))
            return result

        return wrapper

    for name in ("solver.assemble", "solver.eigh"):
        monkeypatch.setattr(solver, name.split(".")[1], counting(name))
    assert solver.assemble(pinched_profile, 2, 8).parity_split
    counts.clear()
    solver.solve_channel(pinched_profile, 2, 4, 64)
    # sizes 64 and 32, 4 nodes per basis function
    assert counts["solver.assemble.nodes"] == [4 * 64 * 64, 4 * 32 * 32]
    # two blocks of half the order per size: 2 (N/2)^3 per size
    assert counts["solver.eigh.n3"] == [32 ** 3, 32 ** 3, 16 ** 3, 16 ** 3]
