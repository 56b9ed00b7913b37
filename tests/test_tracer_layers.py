"""The benchmark tracer wraps revspec functions by module and name; every
name it lists must exist, so a rename fails here rather than in a traced
benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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
