"""Ready-made profiles: named builtins, the squeeze family, random test bumps.

Everything here returns fully validated :class:`~revspec.profile.Profile`
objects built from expression text, so downstream code (solver, CLI, tests)
gets exact endpoint derivatives for free.

* ``BUILTIN_EXPRESSIONS`` holds the named profiles reachable from the CLI:
  the round sphere and the strongly squeezed example whose first invariant
  eigenvalue exceeds every channel-4 eigenvalue below 8.
* :func:`squeeze_profile` interpolates toward that example: a pinch of
  strength ``c >= 1`` and even sharpness ``n``, recovering the round sphere
  at ``c = 1``.
* :func:`random_bump_profile` perturbs the round sphere by a polynomial bump
  vanishing to second order at the poles, with coefficient mass bounded so
  positivity and the slope conditions survive; :func:`reference_family` packages
  a reproducible mixed batch for property tests.
"""

from __future__ import annotations

import numpy as np

from .exprs import parse
from .profile import Profile, make_profile, require_valid

__all__ = [
    "BUILTIN_EXPRESSIONS", "builtin_profile", "squeeze_profile",
    "random_bump_profile", "reference_family",
]

BUILTIN_EXPRESSIONS: dict[str, str] = {
    "round": "1 - x^2",
    "paper-example": "10*(1 - x^2) / (1 + 9*x^36)",
}


def builtin_profile(name: str) -> Profile:
    """Named profile from :data:`BUILTIN_EXPRESSIONS` (KeyError otherwise)."""
    try:
        text = BUILTIN_EXPRESSIONS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_EXPRESSIONS))
        raise KeyError(f"unknown builtin profile {name!r} (have: {known})") from None
    p = make_profile(parse(text), name=name)
    require_valid(p, context=f"builtin {name!r}")
    return p


def squeeze_profile(eps: float, n: int = 36) -> Profile:
    """Pinched profile ``c (1 - x^2) / (1 + eps * x^n)`` with ``c = 1 + eps``.

    ``eps >= 0`` sets the pinch strength (0 gives the round sphere) and even
    ``n >= 2`` its sharpness.  The denominator equals ``c`` at the poles, so
    ``f(+-1) = 0`` with slopes exactly ``-+2`` for every member, while the
    equator is scaled up to ``f(0) = c``; ``eps = 9`` at ``n = 36``
    reproduces the ``paper-example`` builtin.
    """
    eps = float(eps)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if n < 2 or n % 2:
        raise ValueError("sharpness n must be even and >= 2")
    if eps == 0:
        return builtin_profile("round")
    c = 1.0 + eps
    text = f"{c!r}*(1 - x^2) / (1 + {eps!r}*x^{n})"
    p = make_profile(parse(text), name=f"squeeze(eps={eps:g}, n={n})")
    require_valid(p, context="squeeze_profile")
    return p


def random_bump_profile(rng: np.random.Generator) -> Profile:
    """Round sphere times ``1 + (1 - x^2) r(x)`` for a random cubic ``r``.

    ``r`` has 4 coefficients drawn uniformly and rescaled so their absolute
    sum is at most 0.8.  The multiplier then stays positive and equals 1 to
    second order at the poles, preserving the endpoint values and slopes of
    the round profile exactly.
    """
    coeffs = rng.uniform(-1.0, 1.0, size=4)
    total = float(np.sum(np.abs(coeffs)))
    if total > 0:
        coeffs *= rng.uniform(0.2, 1.0) * 0.8 / total
    terms = " + ".join(f"{float(c)!r}*x^{i}" if i else f"{float(c)!r}"
                       for i, c in enumerate(coeffs))
    text = f"(1 - x^2) * (1 + (1 - x^2)*({terms}))"
    p = make_profile(parse(text), name="random-bump")
    require_valid(p, context="random_bump_profile")
    return p


def reference_family(seed: int, size: int) -> list[Profile]:
    """Reproducible batch: round sphere, two squeezes, then random bumps."""
    if size < 1:
        raise ValueError("size must be positive")
    rng = np.random.default_rng(seed)
    out: list[Profile] = [builtin_profile("round")]
    if size > 1:
        out.append(squeeze_profile(1.0, n=8))
    if size > 2:
        out.append(squeeze_profile(9.0, n=36))
    while len(out) < size:
        out.append(random_bump_profile(rng))
    return out[:size]
