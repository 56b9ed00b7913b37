import dataclasses
import math

import pytest

from revspec.obstruction import (EvenMultiplicityTest, ObstructionReport,
                                 SpectralTest, SupTest, full_report)
from revspec.serialize import plain


@dataclasses.dataclass(frozen=True)
class _Inner:
    value: float
    values: tuple[float, ...]


@dataclasses.dataclass(frozen=True)
class _Outer:
    inner: _Inner
    items: list
    hidden: object = dataclasses.field(metadata={"json": False})
    flag: bool = True
    count: int = 3
    name: str = "n"
    nothing: None = None


def test_plain_writes_fields_lists_and_null_for_what_is_not_finite():
    hidden = object()
    got = plain(_Outer(inner=_Inner(math.nan, (1.5, math.inf, -math.inf)),
                       items=[_Inner(-0.0, ()), (2.0, math.nan)],
                       hidden=hidden))
    assert got == {
        "inner": {"value": None, "values": [1.5, None, None]},
        "items": [{"value": -0.0, "values": []}, [2.0, None]],
        "flag": True, "count": 3, "name": "n", "nothing": None,
    }
    assert type(got["flag"]) is bool and type(got["count"]) is int


@pytest.mark.parametrize("value", [True, False, 0, -7, "", "nan", None, 0.25])
def test_plain_passes_scalars_through(value):
    assert plain(value) is value


def _keys(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)} - {"table"}


@pytest.mark.parametrize("name", ["round_profile", "pinched_profile"])
def test_a_report_serializes_as_its_fields(request, name):
    doc = full_report(request.getfixturevalue(name)).to_json_dict()
    assert set(doc) == _keys(ObstructionReport)
    assert set(doc["sup_test"]) == _keys(SupTest)
    assert set(doc["spectral_test"]) == _keys(SpectralTest)
    assert set(doc["abreu_freitas_test"]) == _keys(SpectralTest) | {"label"}
    assert doc["abreu_freitas_test"]["label"] == "external (Abreu-Freitas)"
    assert set(doc["even_multiplicity_test"]) == \
        _keys(EvenMultiplicityTest)
    assert "table" not in doc["even_multiplicity_test"]
