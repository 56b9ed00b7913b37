"""The benchmark's inputs, generated from a seed, and its operations.

An :class:`Input` is the text, samples or arclength expression handed to
the program, together with the closed form (:mod:`reference`) that the
correctness checks compare the program's outputs against.  Nothing here
calls into revspec except :func:`make_profile` and the operations, which
look every program function up on its module at call time, so that the
traced mode's wrappers are the ones that run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from reference import ArclengthShape, MomentumShape, max_slope

SPECTRUM_ARGV = ("spectrum", "--builtin", "paper-example", "--below", "21")
PAPER_EXAMPLE_TEXT = "10*(1 - x^2) / (1 + 9*x^36)"
MESH_SAMPLES = 384
MESH_THETA = 96

# (eps, exponent) of the squeeze members of the family: paper-example
# exactly, the others with eps jittered by at most 0.5 % so that each
# seed gives other inputs at about the same cost (the solver's basis
# doubling makes cost jump between far-apart eps).
SQUEEZE_GRID = ((9.0, 36), (3.0, 36), (4.0, 18), (1.0, 8), (0.5, 8))
SQUEEZE_JITTER = 0.005
# bases of the other drawn members, each seed scaling every parameter by a
# factor within 1 +- MEMBER_JITTER: drawn freely, these members moved a
# sweep's solver work by up to 10 % between seeds, and the timings with it.
# Bump bases are cubics r (embeddable, embeddable, not, not); sample bases
# a cubic and a sample count; arclength bases (d, e) (embeddable,
# embeddable, not).
BUMP_BASES = ((-0.3, -0.1, 0.15, 0.05), (0.1, 0.1, -0.3, 0.2),
              (0.25, -0.15, 0.2, -0.1), (0.3, 0.2, -0.1, -0.1))
SAMPLE_BASES = (((0.2, 0.1, -0.15, -0.1), 225), ((-0.15, -0.2, 0.1, 0.1), 201))
ARCLENGTH_BASES = ((-0.3, -0.15), (-0.2, 0.2), (0.3, 0.2))
MEMBER_JITTER = 0.01
# margin around max|f'| = 2 inside which a drawn input is drawn again, so
# that no verdict rests on rounding
SLOPE_MARGIN = 1e-3
EMBEDDABLE_TOL = 1e-9


@dataclass(frozen=True)
class Input:
    """One generated input.

    ``kind`` is ``expression`` (``text`` in x), ``samples`` (``xs``, ``fs``)
    or ``arclength`` (``text`` in s on ``[0, length]``).  The program's
    profile of a sample input is a spline through samples of ``shape``, so
    the two agree only to the sampling error.
    """

    name: str
    kind: str
    shape: object
    text: str = ""
    xs: tuple = ()
    fs: tuple = ()
    length: float = 0.0
    is_round: bool = False

    @property
    def embeddable(self) -> bool:
        return max_slope(self.shape) <= 2.0 + EMBEDDABLE_TOL


def _num(v: float) -> str:
    return repr(float(v))


def squeeze_input(eps: float, n: int) -> Input:
    """``c (1 - x^2) / (1 + eps x^n)`` with ``c = 1 + eps``."""
    c = 1.0 + eps
    shape = MomentumShape(
        g=lambda x: c / (1.0 + eps * x ** n),
        dg=lambda x: -c * eps * n * x ** (n - 1) / (1.0 + eps * x ** n) ** 2)
    if (eps, n) == (9.0, 36):
        return Input("paper-example", "expression", shape, text=PAPER_EXAMPLE_TEXT)
    text = f"{_num(c)}*(1 - x^2)/(1 + {_num(eps)}*x^{n})"
    return Input(f"squeeze(eps={eps:.6g},n={n})", "expression", shape, text=text)


def round_input() -> Input:
    shape = MomentumShape(g=lambda x: np.ones_like(x), dg=lambda x: np.zeros_like(x))
    return Input("round", "expression", shape, text="1 - x^2", is_round=True)


def _jitter(rng: np.random.Generator, base) -> list[float]:
    return [float(v) * (1.0 + MEMBER_JITTER * rng.uniform(-1.0, 1.0)) for v in base]


def _bump_shape(r: Polynomial) -> MomentumShape:
    g = 1.0 + Polynomial([1.0, 0.0, -1.0]) * r
    dg = g.deriv()
    return MomentumShape(g=g, dg=dg)


def bump_input(rng: np.random.Generator, index: int) -> Input:
    """``g = 1 + (1 - x^2) r`` with ``r`` drawn around ``BUMP_BASES[index]``."""
    r = Polynomial(_jitter(rng, BUMP_BASES[index]))
    terms = " + ".join(f"{_num(c)}*x^{i}" if i else _num(c)
                       for i, c in enumerate(r.coef))
    text = f"(1 - x^2)*(1 + (1 - x^2)*({terms}))"
    return Input(f"bump-{index}", "expression", _bump_shape(r), text=text)


def sample_input(rng: np.random.Generator, index: int) -> Input:
    """``m`` uniform samples of a bump drawn around ``SAMPLE_BASES[index]``."""
    coeffs, m = SAMPLE_BASES[index]
    shape = _bump_shape(Polynomial(_jitter(rng, coeffs)))
    xs = np.linspace(-1.0, 1.0, m)
    fs = shape.f(xs)
    fs[0] = fs[-1] = 0.0
    return Input(f"samples-{index}", "samples", shape,
                 xs=tuple(float(v) for v in xs), fs=tuple(float(v) for v in fs))


def arclength_input(rng: np.random.Generator, index: int) -> Input:
    """``a(s) = sin s (1 + d sin^2 s + e sin^2 s cos s)`` on ``[0, pi]``, with
    ``(d, e)`` drawn around ``ARCLENGTH_BASES[index]``."""
    d, e = _jitter(rng, ARCLENGTH_BASES[index])

    def a(s):
        sn = np.sin(s)
        return sn * (1.0 + d * sn ** 2 + e * sn ** 2 * np.cos(s))

    def da(s):
        sn, cs = np.sin(s), np.cos(s)
        return (cs * (1.0 + d * sn ** 2 + e * sn ** 2 * cs)
                + sn * (2.0 * d * sn * cs + e * (2.0 * sn * cs * cs - sn ** 3)))

    text = f"sin(s)*(1 + {_num(d)}*sin(s)^2 + {_num(e)}*sin(s)^2*cos(s))"
    return Input(f"arclength-{index}", "arclength", ArclengthShape(a, da, math.pi),
                 text=text, length=math.pi)


def _draw(make, rng, index, embeddable=None) -> Input:
    """Draw until the input's max|f'| is clear of 2 by SLOPE_MARGIN (and,
    if asked, on the requested side of it)."""
    for _ in range(100):
        inp = make(rng, index)
        slope = max_slope(inp.shape)
        clear = slope <= 2.0 + EMBEDDABLE_TOL or slope > 2.0 + SLOPE_MARGIN
        if clear and (embeddable is None or inp.embeddable == embeddable):
            return inp
    raise ValueError(f"{make.__name__}({index}): no draw on the requested side of 2")


def family_inputs(seed: int) -> list[Input]:
    """The squeeze grid, the round sphere, four bumps, two sample inputs and
    two arclength inputs."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for eps, n in SQUEEZE_GRID:
        if (eps, n) != (9.0, 36):
            eps = float(eps * (1.0 + SQUEEZE_JITTER * rng.uniform(-1.0, 1.0)))
        out.append(squeeze_input(eps, n))
    out.append(round_input())
    out.extend(_draw(bump_input, rng, i) for i in range(4))
    out.extend(_draw(sample_input, rng, i) for i in range(2))
    out.extend(_draw(arclength_input, rng, i) for i in (0, 2))
    return out


def mesh_inputs(seed: int) -> list[Input]:
    """Embeddable inputs of all three kinds: the round sphere, one bump, two
    sample inputs and two arclength inputs."""
    rng = np.random.default_rng([seed, 2])
    return ([round_input(), _draw(bump_input, rng, 0, embeddable=True)]
            + [_draw(sample_input, rng, i, embeddable=True) for i in range(2)]
            + [_draw(arclength_input, rng, i, embeddable=True) for i in range(2)])


def make_profile(revspec, inp: Input):
    """The program's profile for an input, validated, through its public API."""
    if inp.kind == "expression":
        p = revspec.profile_from_text(inp.text, name=inp.name)
    elif inp.kind == "samples":
        p = revspec.make_profile(list(zip(inp.xs, inp.fs)), name=inp.name)
    else:
        a = revspec.parse(inp.text, var="s")
        da = revspec.differentiate(a)
        d2a = revspec.differentiate(da)
        ap = revspec.ArclengthProfile(
            a=lambda s: revspec.evaluate(a, s),
            da=lambda s: revspec.evaluate(da, s),
            d2a=lambda s: revspec.evaluate(d2a, s),
            length=inp.length, source="expression")
        p = revspec.momentum_transform(revspec.normalize_area(ap))
    revspec.require_valid(p, context=inp.name)
    return p


# ---------------------------------------------------------------------------
# operations: each returns a plain record the checks read
# ---------------------------------------------------------------------------

def report_record(revspec, p) -> dict:
    """``full_report`` of one profile, reduced to what the checks read."""
    rep = revspec.full_report(p)
    em = rep.even_multiplicity_test
    return {
        "verdict": rep.verdict,
        "spectral_verdict": rep.spectral_verdict,
        "max_slope": rep.sup_test.max_slope,
        "lambda01": rep.spectral_test.lambda01,
        "spectral_triggered": rep.spectral_test.triggered,
        "multiplicities": tuple(em.multiplicities),
        "all_even": em.all_even,
        "table": tuple((e.value, e.multiplicity, tuple(e.channels))
                       for e in em.table.entries),
        "cutoff": em.table.cutoff,
        "witness": rep.negative_curvature_witness,
        "consistency_failures": tuple(rep.consistency_failures),
    }


def mesh_record(revspec, p) -> dict:
    """The steps of ``revspec mesh`` on one profile, OBJ kept in memory."""
    curve = revspec.embed_profile_curve(p, n_samples=MESH_SAMPLES)
    mesh = revspec.make_mesh(curve, n_theta=MESH_THETA)
    res = revspec.induced_metric_residual(mesh, p)
    return {
        "vertices": int(mesh.vertices.shape[0]),
        "faces": int(mesh.faces.shape[0]),
        "area": revspec.mesh_area(mesh),
        "euler": revspec.euler_characteristic(mesh),
        "residual_sup": res.sup,
        "length": curve.length,
        "obj": revspec.export_obj(mesh),
    }
