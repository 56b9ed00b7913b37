import numpy as np
import pytest
from hypothesis import given, strategies as st

from revspec.exprs import to_string
from revspec.families import (
    BUILTIN_EXPRESSIONS, builtin_profile, random_bump_profile,
    reference_family, squeeze_profile,
)
from revspec.profile import validate


def test_builtin_names():
    assert set(BUILTIN_EXPRESSIONS) == {"round", "paper-example"}


def test_builtin_round(round_profile):
    x = np.linspace(-1, 1, 65)
    assert np.allclose(round_profile.f(x), 1 - x * x)
    assert round_profile.name == "round"


def test_unknown_builtin_lists_the_known_ones():
    with pytest.raises(KeyError, match="paper-example"):
        builtin_profile("banana")


def test_squeeze_zero_is_round(round_profile):
    p = squeeze_profile(0.0)
    assert p.name == "round"
    assert to_string(p.form) == to_string(round_profile.form)


def test_squeeze_nine_is_the_pinched_builtin(pinched_profile):
    p = squeeze_profile(9.0, n=36)
    x = np.linspace(-1, 1, 513)
    assert np.array_equal(p.f(x), pinched_profile.f(x))
    assert np.array_equal(p.df(x), pinched_profile.df(x))


@pytest.mark.parametrize("eps,n", [(0.5, 8), (2.0, 8), (4.0, 36)])
def test_squeeze_members_validate(eps, n):
    p = squeeze_profile(eps, n=n)
    assert validate(p).passed
    # equator value is the pinch amplitude c = 1 + eps
    assert p.f(0.0) == pytest.approx(1.0 + eps, rel=1e-15)


@pytest.mark.parametrize("eps,n,snippet", [
    (-0.5, 8, "eps"),
    (1.0, 7, "even"),
    (1.0, 0, "even"),
])
def test_squeeze_rejects_bad_parameters(eps, n, snippet):
    with pytest.raises(ValueError, match=snippet):
        squeeze_profile(eps, n=n)


def test_random_bump_is_deterministic_per_seed():
    a = random_bump_profile(np.random.default_rng(7))
    b = random_bump_profile(np.random.default_rng(7))
    assert to_string(a.form) == to_string(b.form)
    c = random_bump_profile(np.random.default_rng(8))
    assert to_string(c.form) != to_string(a.form)


@given(seed=st.integers(0, 2 ** 32 - 1))
def test_random_bumps_always_validate(seed):
    p = random_bump_profile(np.random.default_rng(seed))
    report = validate(p)
    assert report.passed, [c for c in report.checks if not c.passed]


def test_family_layout(small_family):
    assert len(small_family) == 12
    assert small_family[0].name == "round"
    assert small_family[1].name.startswith("squeeze")
    assert small_family[2].name.startswith("squeeze")
    assert all(p.name == "random-bump" for p in small_family[3:])
    assert all(validate(p).passed for p in small_family)


def test_family_is_reproducible():
    xs = np.linspace(-1, 1, 33)
    for p, q in zip(reference_family(123, 6), reference_family(123, 6)):
        assert np.array_equal(p.f(xs), q.f(xs))


def test_family_rejects_empty_batch():
    with pytest.raises(ValueError):
        reference_family(0, 0)
