import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest

from revspec.embed import (
    EmbeddingMesh, GrazingClampWarning, MeshError, NotEmbeddableError,
    ProfileCurve, curve_csv_text, embed_profile_curve, euler_characteristic,
    export_obj, induced_metric_residual, make_mesh, mesh_area,
)
from revspec.profile import InvalidProfileError, make_profile, profile_from_text
from revspec.serialize import fmt17

GOLDEN = Path(__file__).parent / "data" / "two_ring.obj"
# Vertex coordinates (|v| <= 2) may move by a few ULPs across CPUs, BLAS
# builds and numpy/scipy versions; a real numerical change of the meridian
# map moves them by orders of magnitude more.
GOLDEN_ATOL = 1e-14


@pytest.fixture(scope="module")
def round_curve(round_profile):
    return embed_profile_curve(round_profile, n_samples=256)


@pytest.fixture(scope="module")
def borderline_profile():
    return profile_from_text("(1 - x^2) * (1 + 0.3*(1 - x^2))", name="bump03")


# ---------------------------------------------------------------------------
# the generating curve
# ---------------------------------------------------------------------------

def test_round_curve_is_the_unit_circle_arc(round_curve):
    c = round_curve
    assert c.length == pytest.approx(np.pi, abs=1e-10)
    assert np.max(np.abs(c.x + np.cos(c.s))) < 1e-9
    assert np.max(np.abs(c.a - np.sin(c.s))) < 1e-9
    assert np.max(np.abs(c.z - (1 - np.cos(c.s)))) < 1e-9
    assert np.max(np.abs(c.dz - np.abs(np.sin(c.s)))) < 1e-9


def test_curve_endpoints_are_exact(round_curve):
    c = round_curve
    assert (c.x[0], c.x[-1]) == (-1.0, 1.0)
    assert c.a[0] == 0.0 and c.a[-1] == 0.0
    assert c.z[0] == 0.0
    assert c.z[-1] == pytest.approx(2.0, abs=1e-9)


def test_curve_needs_enough_samples(round_profile):
    with pytest.raises(ValueError, match="16"):
        embed_profile_curve(round_profile, n_samples=8)


def test_steep_profile_raises(borderline_profile):
    with pytest.raises(NotEmbeddableError) as exc_info:
        embed_profile_curve(borderline_profile)
    assert exc_info.value.max_slope == pytest.approx(2.0113, abs=1e-3)
    assert abs(exc_info.value.argmax_x) == pytest.approx(0.944, abs=1e-2)


@pytest.mark.parametrize("lower_side", [-1.0, 1.0])
def test_not_embeddable_names_the_same_x_on_a_symmetric_tie(borderline_profile,
                                                            lower_side):
    # scale f' up by a few ulps on one side: that side's radicand
    # 1 - f'^2/4 ends lower in its last bits, the other side's stays put
    def df(t):
        v = np.asarray(borderline_profile.df(t), dtype=float)
        return np.where(np.sign(t) == lower_side,
                        v * (1.0 + 4 * np.finfo(float).eps), v)

    nudged = dataclasses.replace(borderline_profile, df=df)
    with pytest.raises(NotEmbeddableError) as exc_info:
        embed_profile_curve(nudged)
    assert exc_info.value.argmax_x == pytest.approx(-0.9440593727832146, abs=1e-12)


def test_grazing_slope_clamps_with_warning(borderline_profile):
    # widening the tolerance turns the failure into an explicit clamp
    with pytest.warns(GrazingClampWarning):
        c = embed_profile_curve(borderline_profile, tol=0.05)
    assert float(np.min(c.dz)) == 0.0
    assert np.all(np.isfinite(c.z))


def test_sampled_round_profile_meshes_without_grazing():
    # the spline meets f'(+1) = -2 only to rounding; the pole is not grazing
    xs = np.linspace(-1.0, 1.0, 41)
    p = make_profile(list(zip(xs, 1 - xs ** 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", GrazingClampWarning)
        curve = embed_profile_curve(p, n_samples=64)
    assert curve.dz[0] == curve.dz[-1] == 0.0


def test_invalid_profile_rejected():
    with pytest.raises(InvalidProfileError):
        embed_profile_curve(profile_from_text("2*(1 - x^2)"))


# ---------------------------------------------------------------------------
# meshing
# ---------------------------------------------------------------------------

def test_mesh_counts(round_profile):
    curve = embed_profile_curve(round_profile, n_samples=64)
    mesh = make_mesh(curve, n_theta=16)
    assert mesh.vertices.shape == (16 * 62 + 2, 3)
    assert mesh.faces.shape == (2 * 16 * 62, 3)
    assert euler_characteristic(mesh) == 2


@pytest.mark.parametrize("vertices,faces,chi", [
    # closed tetrahedron: V - E + F = 4 - 6 + 4
    (4, [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0)], 2),
    # two triangles forming an open square: 4 - 5 + 2
    (4, [(0, 1, 2), (0, 2, 3)], 1),
], ids=["tetrahedron", "square"])
def test_euler_characteristic_of_hand_built_meshes(vertices, faces, chi):
    mesh = EmbeddingMesh(vertices=np.zeros((vertices, 3)),
                         faces=np.asarray(faces, dtype=np.int64),
                         curve=None, n_theta=0)
    assert euler_characteristic(mesh) == chi


def test_mesh_is_outward_oriented(round_curve):
    mesh = make_mesh(round_curve, n_theta=32)
    v, f = mesh.vertices, mesh.faces
    volume6 = np.sum(np.einsum("ij,ij->i", v[f[:, 0]],
                               np.cross(v[f[:, 1]], v[f[:, 2]])))
    assert volume6 > 0
    assert f.min() == 0 and f.max() == v.shape[0] - 1


def test_mesh_argument_checks(round_curve):
    with pytest.raises(ValueError, match="at least 8"):
        make_mesh(round_curve, n_theta=4)
    two = ProfileCurve(s=round_curve.s[:2], x=round_curve.x[:2],
                       a=round_curve.a[:2], z=round_curve.z[:2],
                       da=round_curve.da[:2], dz=round_curve.dz[:2],
                       length=round_curve.length)
    with pytest.raises(MeshError, match="3 samples"):
        make_mesh(two)
    stuck = ProfileCurve(s=np.zeros_like(round_curve.s), x=round_curve.x,
                         a=round_curve.a, z=round_curve.z, da=round_curve.da,
                         dz=round_curve.dz, length=round_curve.length)
    with pytest.raises(MeshError, match="backwards"):
        make_mesh(stuck)
    pinched_mid = ProfileCurve(s=round_curve.s, x=round_curve.x,
                               a=np.zeros_like(round_curve.a),
                               z=round_curve.z, da=round_curve.da,
                               dz=round_curve.dz, length=round_curve.length)
    with pytest.raises(MeshError, match="collapses"):
        make_mesh(pinched_mid)


def test_mesh_area_approaches_the_fixed_total(round_profile, round_curve):
    fine = mesh_area(make_mesh(round_curve, n_theta=64))
    coarse_curve = embed_profile_curve(round_profile, n_samples=64)
    coarse = mesh_area(make_mesh(coarse_curve, n_theta=32))
    target = 4 * np.pi
    assert abs(fine - target) / target < 2e-3
    assert abs(fine - target) < abs(coarse - target)


# ---------------------------------------------------------------------------
# isometry check
# ---------------------------------------------------------------------------

def test_induced_metric_matches(round_curve, round_profile):
    res = induced_metric_residual(round_curve, round_profile)
    assert res.sup < 1e-7
    assert res.rms <= res.sup


def test_mesh_carries_its_curve_into_the_residual(round_curve, round_profile):
    mesh = make_mesh(round_curve, n_theta=16)
    res_mesh = induced_metric_residual(mesh, round_profile)
    res_curve = induced_metric_residual(round_curve, round_profile)
    assert res_mesh == res_curve


def test_residual_detects_a_corrupted_height(round_curve, round_profile):
    bad = ProfileCurve(
        s=round_curve.s, x=round_curve.x, a=round_curve.a,
        z=round_curve.z + 0.01 * np.sin(np.pi * round_curve.s / round_curve.length),
        da=round_curve.da, dz=round_curve.dz, length=round_curve.length)
    res = induced_metric_residual(bad, round_profile)
    assert res.sup_ds > 1e-3


def test_residual_requires_a_uniform_grid(round_curve, round_profile):
    warped = ProfileCurve(s=round_curve.s ** 2 / round_curve.length,
                          x=round_curve.x, a=round_curve.a, z=round_curve.z,
                          da=round_curve.da, dz=round_curve.dz,
                          length=round_curve.length)
    with pytest.raises(ValueError, match="uniform"):
        induced_metric_residual(warped, round_profile)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_obj_export_matches_the_golden_bytes(round_profile):
    """The golden file holds to the OBJ output contract: line count and
    order, face lines and the 17-digit number format are exact; vertex
    coordinates agree to within a few ULPs."""
    c = embed_profile_curve(round_profile, n_samples=16)
    sub = ProfileCurve(s=c.s[::5], x=c.x[::5], a=c.a[::5], z=c.z[::5],
                       da=c.da[::5], dz=c.dz[::5], length=c.length)
    got = export_obj(make_mesh(sub, n_theta=8)).decode("ascii").split("\n")
    want = GOLDEN.read_bytes().decode("ascii").split("\n")
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if not w.startswith("v "):
            assert g == w
            continue
        tag, *tokens = g.split(" ")
        assert tag == "v" and len(tokens) == 3, g
        assert all(fmt17(float(tok)) == tok for tok in tokens), g
        coords = np.array([float(tok) for tok in tokens])
        golden = np.array([float(tok) for tok in w.split(" ")[1:]])
        assert np.max(np.abs(coords - golden)) <= GOLDEN_ATOL, (g, w)


def test_obj_layout(round_curve):
    mesh = make_mesh(round_curve, n_theta=8)
    text = export_obj(mesh).decode("ascii")
    assert "\r" not in text
    assert text.endswith("\n")
    lines = text.splitlines()
    n_v = sum(1 for ln in lines if ln.startswith("v "))
    n_f = sum(1 for ln in lines if ln.startswith("f "))
    assert n_v == mesh.vertices.shape[0]
    assert n_f == mesh.faces.shape[0]
    # face indices are 1-based
    smallest = min(int(tok) for ln in lines if ln.startswith("f ")
                   for tok in ln.split()[1:])
    assert smallest == 1


def test_obj_refuses_empty_mesh(round_curve):
    empty = EmbeddingMesh(vertices=np.empty((0, 3)),
                          faces=np.empty((0, 3), dtype=np.int64),
                          curve=round_curve, n_theta=8)
    with pytest.raises(ValueError, match="empty"):
        export_obj(empty)


def test_curve_csv(round_curve):
    lines = curve_csv_text(round_curve).splitlines()
    assert lines[0] == "s,a,z"
    assert len(lines) == 1 + round_curve.s.size
    s, a, z = (float(tok) for tok in lines[-1].split(","))
    assert s == pytest.approx(np.pi, abs=1e-10)
    assert a == 0.0
    assert z == pytest.approx(2.0, abs=1e-9)
