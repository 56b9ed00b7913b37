import ast
import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revspec import embed, obstruction
from revspec.embed import (
    _AREA_BLOCK_FACES, _OBJ_BLOCK_ROWS, EmbeddingMesh, GrazingClampWarning,
    MeshError, NotEmbeddableError,
    ProfileCurve, curve_csv_text, embed_profile_curve, euler_characteristic,
    export_obj, induced_metric_residual, make_mesh, mesh_area,
)
from revspec.families import random_bump_profile, squeeze_profile
from revspec.obstruction import sup_test
from revspec.profile import InvalidProfileError, make_profile, profile_from_text
from revspec.serialize import fmt17

GOLDEN = Path(__file__).parent / "data" / "two_ring.obj"
# Vertex coordinates (|v| <= 2) may move by a few ULPs across CPUs, BLAS
# builds and numpy/scipy versions; a real numerical change of the meridian
# map moves them by orders of magnitude more.
GOLDEN_ATOL = 1e-14


# ---------------------------------------------------------------------------
# loop references: the element-by-element code the numpy versions replace;
# the arithmetic is the same, so results must be equal, not close
# ---------------------------------------------------------------------------

def loop_circle(n):
    """cos and sin of 2 pi j/n, j < n, one j at a time: a first-quadrant
    angle (upper half circle for odd n) is read from np.cos and np.sin, and
    every other angle is the reflection of one before it."""
    theta = 2.0 * np.pi * np.arange(n) / n
    cos, sin = np.cos(theta), np.sin(theta)
    c, s = np.empty(n), np.empty(n)
    for j in range(n):
        if 2 * j > n:                       # lower half: mirror of n - j
            c[j], s[j] = c[n - j], -s[n - j]
        elif n % 2 == 0 and 4 * j > n:      # second quadrant: mirror of n/2 - j
            c[j], s[j] = -c[n // 2 - j], s[n // 2 - j]
        elif n % 4 == 0:                    # sine is the complement's cosine
            c[j] = 0.0 if 4 * j == n else cos[j]
            s[j] = 0.0 if j == 0 else cos[n // 4 - j]
        else:
            c[j], s[j] = cos[j], sin[j]
    return c, s


def loop_make_mesh(curve, n_theta):
    n = curve.s.size
    ct, st = loop_circle(n_theta)
    rings = n - 2
    verts = np.empty((n_theta * rings + 2, 3))
    for r in range(rings):
        av, zv = curve.a[r + 1], curve.z[r + 1]
        block = slice(r * n_theta, (r + 1) * n_theta)
        verts[block, 0] = av * ct
        verts[block, 1] = av * st
        verts[block, 2] = zv
    south = n_theta * rings
    north = south + 1
    verts[south] = (0.0, 0.0, curve.z[0])
    verts[north] = (0.0, 0.0, curve.z[-1])
    faces = []
    for j in range(n_theta):
        jn = (j + 1) % n_theta
        faces.append((south, jn, j))
    for r in range(rings - 1):
        lo, hi = r * n_theta, (r + 1) * n_theta
        for j in range(n_theta):
            jn = (j + 1) % n_theta
            faces.append((lo + j, lo + jn, hi + j))
            faces.append((lo + jn, hi + jn, hi + j))
    top = (rings - 1) * n_theta
    for j in range(n_theta):
        jn = (j + 1) % n_theta
        faces.append((north, top + j, top + jn))
    f = np.asarray(faces, dtype=np.int64)
    v0, v1, v2 = verts[f[:, 0]], verts[f[:, 1]], verts[f[:, 2]]
    if float(np.sum(np.einsum("ij,ij->i", v0, np.cross(v1, v2)))) < 0.0:
        f = f[:, ::-1]
    return verts, np.ascontiguousarray(f)


def loop_export_obj(mesh):
    lines = [f"v {vx:.17g} {vy:.17g} {vz:.17g}" for vx, vy, vz in mesh.vertices]
    lines.extend(f"f {i + 1} {j + 1} {k + 1}" for i, j, k in mesh.faces)
    return ("\n".join(lines) + "\n").encode("ascii")


def sort_count_euler(mesh):
    """V - E + F by the row sort and key count of the earlier implementation."""
    f = mesh.faces
    n = mesh.vertices.shape[0]
    edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    edges = np.sort(edges, axis=1)
    keys = edges[:, 0] * n
    keys += edges[:, 1]
    keys.sort()
    n_edges = int(np.count_nonzero(keys[1:] != keys[:-1])) + min(keys.size, 1)
    return int(n - n_edges + f.shape[0])


def cross_norm_area(mesh):
    """Mesh area by ``np.cross`` and ``np.linalg.norm``, block by block."""
    v, total = mesh.vertices, 0.0
    for start in range(0, mesh.faces.shape[0], _AREA_BLOCK_FACES):
        f = mesh.faces[start:start + _AREA_BLOCK_FACES]
        v0 = v[f[:, 0]]
        cr = np.cross(v[f[:, 1]] - v0, v[f[:, 2]] - v0)
        total += float(np.sum(np.linalg.norm(cr, axis=1)))
    return 0.5 * total


def hand_mesh(vertices, faces):
    return EmbeddingMesh(vertices=np.asarray(vertices, dtype=float),
                         faces=np.asarray(faces, dtype=np.int64),
                         curve=None, n_theta=0)


def loop_curve_csv_text(curve):
    lines = ["s,a,z"]
    lines.extend(f"{s:.17g},{a:.17g},{z:.17g}"
                 for s, a, z in zip(curve.s, curve.a, curve.z))
    return "\n".join(lines) + "\n"


def subsample(c, step):
    return ProfileCurve(s=c.s[::step], x=c.x[::step], a=c.a[::step],
                        z=c.z[::step], length=c.length)


def enclosed_volume6(mesh):
    v, f = mesh.vertices, mesh.faces
    return float(np.sum(np.einsum("ij,ij->i", v[f[:, 0]],
                                  np.cross(v[f[:, 1]], v[f[:, 2]]))))


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
    # z' = sin s, by 4th-order central differences on the interior
    h = c.s[1] - c.s[0]
    dz = (c.z[:-4] - 8.0 * c.z[1:-3] + 8.0 * c.z[3:-1] - c.z[4:]) / (12.0 * h)
    assert np.max(np.abs(dz - np.sin(c.s[2:-2]))) < 1e-9


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


def test_a_spike_between_the_samples_is_refused():
    # 256 curve samples step over the spike; the slope test's grid does not
    p = profile_from_text("(1-x^2)*(1+0.008*exp(-((x-0.3)/0.002)^2))")
    with pytest.raises(NotEmbeddableError) as exc_info:
        embed_profile_curve(p)
    assert exc_info.value.max_slope == pytest.approx(3.7251, abs=1e-4)
    assert exc_info.value.argmax_x == pytest.approx(0.3014, abs=1e-3)


def test_refusal_message_shows_the_excess_over_2():
    p = profile_from_text("(1 - x^2) * (1 + 0.2505*(1 - x^2))")
    with pytest.raises(NotEmbeddableError, match=r"max\|f'\| = 2 \+ 1\.33e-06 "):
        embed_profile_curve(p)


def test_grazing_slope_clamps_with_warning():
    # a little above c = 1/4, |f'| exceeds 2 just inside each pole by
    # 5.3e-10, within the slope test's 1e-9 allowance; samples that close
    # to the pole dip the radicand below 0
    p = profile_from_text("(1 - x^2) * (1 + 0.25001*(1 - x^2))")
    assert sup_test(p).embeddable
    with pytest.warns(GrazingClampWarning):
        c = embed_profile_curve(p, n_samples=1024)
    assert np.all(np.isfinite(c.z))
    # the clamped integrand leaves z flat next to the poles, and its slope
    # by central differences stays within [0, 1] everywhere
    assert float(np.min(np.diff(c.z))) == 0.0
    dz = (c.z[2:] - c.z[:-2]) / (2.0 * (c.s[1] - c.s[0]))
    assert np.all((dz >= 0.0) & (dz <= 1.0))


def test_an_excess_beyond_the_slope_allowance_is_refused():
    # 8.5e-9 above 2: the old 1e-8 radicand allowance clamped it
    p = profile_from_text("(1 - x^2) * (1 + 0.25004*(1 - x^2))")
    with pytest.raises(NotEmbeddableError) as exc_info:
        embed_profile_curve(p)
    assert exc_info.value.max_slope - 2.0 == pytest.approx(8.5e-9, rel=1e-2)


_c = st.floats(0.2, 0.3)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["bump", "random-bump", "squeeze"]),
       c=_c, seed=st.integers(0, 2 ** 32 - 1),
       eps=st.floats(0.0, 10.0), n=st.sampled_from([2, 4, 8, 36]))
def test_embedding_is_refused_exactly_when_the_slope_test_refuses(kind, c,
                                                                   seed, eps, n):
    if kind == "bump":
        p = profile_from_text(f"(1 - x^2) * (1 + {c!r}*(1 - x^2))")
    elif kind == "random-bump":
        p = random_bump_profile(np.random.default_rng(seed))
    else:
        p = squeeze_profile(eps, n)
    sup = sup_test(p)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GrazingClampWarning)
            embed_profile_curve(p, n_samples=64)
    except NotEmbeddableError as exc:
        assert not sup.embeddable
        assert (exc.max_slope, exc.argmax_x) == (sup.max_slope, sup.argmax_x)
    else:
        assert sup.embeddable


def test_embed_asks_the_slope_test_and_keeps_no_tolerance_of_its_own():
    """Embeddability is decided in one place: ``embed_profile_curve``
    raises ``NotEmbeddableError`` only from what ``sup_test`` returned, and
    ``embed.py`` holds no slope or radicand tolerance that could grow into a
    second gate."""
    tree = ast.parse(Path(embed.__file__).read_text())
    assert embed.sup_test is obstruction.sup_test
    curve_fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                    and node.name == "embed_profile_curve")
    asks = [node for node in ast.walk(curve_fn) if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "sup_test"]
    assert len(asks) == 1
    verdict = asks[0].targets[0].id
    raises = [node.exc for node in ast.walk(tree) if isinstance(node, ast.Raise)
              and getattr(getattr(node.exc, "func", None), "id", None)
              == "NotEmbeddableError"]
    assert len(raises) == 1
    assert [(kw.value.value.id, kw.value.attr) for kw in raises[0].keywords] == \
        [(verdict, "max_slope"), (verdict, "argmax_x")]
    # module constants are block sizes only, and the curve's own numbers
    # are the exact 0, 1/2 and 1 of a' = f'/2 and the clamp
    constants = [target.id for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets]
    assert constants == ["__all__", "_AREA_BLOCK_FACES", "_OBJ_BLOCK_ROWS"]
    numbers = {node.value for node in ast.walk(curve_fn)
               if isinstance(node, ast.Constant) and isinstance(node.value, float)}
    assert numbers <= {0.0, 0.5, 1.0}


def test_sampled_round_profile_meshes_without_grazing():
    # the spline meets f'(+1) = -2 only to rounding; the pole is not grazing
    xs = np.linspace(-1.0, 1.0, 41)
    p = make_profile(list(zip(xs, 1 - xs ** 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", GrazingClampWarning)
        curve = embed_profile_curve(p, n_samples=64)
    # z' vanishes at the poles: 2nd-order one-sided differences stay below h^2
    h = curve.s[1] - curve.s[0]
    slopes = np.gradient(curve.z, h, edge_order=2)[[0, -1]]
    assert np.all(np.abs(slopes) < h * h)


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
    # two disjoint closed tetrahedra: 8 - 12 + 8
    (8, [(0, 1, 2), (0, 3, 1), (1, 3, 2), (2, 3, 0),
         (4, 5, 6), (4, 7, 5), (5, 7, 6), (6, 7, 4)], 4),
    # a bow-tie, two triangles sharing only vertex 0: 5 - 6 + 2
    (5, [(0, 1, 2), (0, 3, 4)], 1),
], ids=["tetrahedron", "square", "two-tetrahedra", "bow-tie"])
def test_euler_characteristic_of_hand_built_meshes(vertices, faces, chi):
    mesh = EmbeddingMesh(vertices=np.zeros((vertices, 3)),
                         faces=np.asarray(faces, dtype=np.int64),
                         curve=None, n_theta=0)
    assert euler_characteristic(mesh) == chi


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
       rows=st.integers(0, 300))
def test_euler_characteristic_equals_the_sort_and_count_reference(seed, n, rows):
    rng = np.random.default_rng(seed)
    mesh = hand_mesh(np.zeros((n, 3)), rng.integers(0, n, size=(rows, 3)))
    assert euler_characteristic(mesh) == sort_count_euler(mesh)


def test_euler_characteristic_of_a_revolved_mesh_equals_the_reference(round_profile):
    mesh = make_mesh(embed_profile_curve(round_profile, n_samples=384), n_theta=96)
    assert euler_characteristic(mesh) == sort_count_euler(mesh) == 2


@pytest.mark.parametrize("faces,row,index", [
    ([(0, 1, 2), (0, 1, 3)], 1, 3),     # one past the last vertex
    ([(0, 1, 2), (-1, 0, 1)], 1, -1),   # one before the first
    ([(0, 1, 5), (-1, 0, 1)], 0, 5),    # the first bad row is named
], ids=["past-the-end", "negative", "first-bad-row"])
@pytest.mark.parametrize("check", [export_obj, euler_characteristic, mesh_area],
                         ids=["export_obj", "euler_characteristic", "mesh_area"])
def test_faces_outside_the_vertices_are_refused(check, faces, row, index):
    mesh = hand_mesh(np.eye(3), faces)
    with pytest.raises(ValueError) as exc_info:
        check(mesh)
    assert str(exc_info.value) == \
        f"face {row} indexes vertex {index}, but the mesh has 3 vertices"


def test_faces_on_the_first_and_last_vertex_are_accepted():
    mesh = hand_mesh(np.eye(3), [(0, 1, 2), (2, 1, 0)])
    assert export_obj(mesh).endswith(b"f 1 2 3\nf 3 2 1\n")
    assert euler_characteristic(mesh) == 2
    assert mesh_area(mesh) == cross_norm_area(mesh)


def test_mesh_is_outward_oriented(round_curve):
    mesh = make_mesh(round_curve, n_theta=32)
    assert enclosed_volume6(mesh) > 0
    assert mesh.faces.min() == 0 and mesh.faces.max() == mesh.vertices.shape[0] - 1


def test_mesh_argument_checks(round_curve):
    with pytest.raises(ValueError, match="at least 8"):
        make_mesh(round_curve, n_theta=4)
    two = ProfileCurve(s=round_curve.s[:2], x=round_curve.x[:2],
                       a=round_curve.a[:2], z=round_curve.z[:2],
                       length=round_curve.length)
    with pytest.raises(MeshError, match="3 samples"):
        make_mesh(two)
    stuck = ProfileCurve(s=np.zeros_like(round_curve.s), x=round_curve.x,
                         a=round_curve.a, z=round_curve.z,
                         length=round_curve.length)
    with pytest.raises(MeshError, match="backwards"):
        make_mesh(stuck)
    pinched_mid = ProfileCurve(s=round_curve.s, x=round_curve.x,
                               a=np.zeros_like(round_curve.a),
                               z=round_curve.z, length=round_curve.length)
    with pytest.raises(MeshError, match="collapses"):
        make_mesh(pinched_mid)


@pytest.mark.parametrize("field,bad", [
    ("a", np.nan), ("a", np.inf), ("z", np.nan), ("z", -np.inf),
], ids=["a-nan", "a-inf", "z-nan", "z-neg-inf"])
def test_mesh_refuses_a_non_finite_curve(round_curve, field, bad):
    values = getattr(round_curve, field).copy()
    values[5] = bad
    broken = dataclasses.replace(round_curve, **{field: values})
    with pytest.raises(MeshError, match="not finite"):
        make_mesh(broken, n_theta=16)


@pytest.mark.parametrize("n_samples,step,n_theta", [
    (17, 8, 8),      # 3 samples: one ring, pole fans only, no strips
    (17, 8, 9),
    (64, 1, 8),
    (64, 1, 9),
    (384, 1, 96),
], ids=["one-ring-8", "one-ring-9", "64x8", "64x9", "384x96"])
def test_mesh_equals_the_loop_reference(round_profile, n_samples, step, n_theta):
    curve = subsample(embed_profile_curve(round_profile, n_samples=n_samples), step)
    mesh = make_mesh(curve, n_theta=n_theta)
    want_v, want_f = loop_make_mesh(curve, n_theta)
    assert np.array_equal(mesh.vertices, want_v)
    assert np.array_equal(mesh.faces, want_f)
    assert mesh.faces.dtype == np.int64 and mesh.faces.flags.c_contiguous
    assert mesh.vertices.dtype == np.float64 and mesh.vertices.flags.c_contiguous
    assert euler_characteristic(mesh) == 2


def test_a_downward_curve_gets_its_faces_flipped(round_curve):
    up = make_mesh(round_curve, n_theta=9)
    down_curve = dataclasses.replace(round_curve, z=round_curve.z[::-1].copy())
    down = make_mesh(down_curve, n_theta=9)
    want_v, want_f = loop_make_mesh(down_curve, 9)
    assert np.array_equal(down.vertices, want_v)
    assert np.array_equal(down.faces, want_f)
    assert down.faces.dtype == np.int64 and down.faces.flags.c_contiguous
    # same connectivity as the upward curve, every triangle wound the other way
    assert np.array_equal(down.faces, up.faces[:, ::-1])
    assert enclosed_volume6(up) > 0 and enclosed_volume6(down) > 0


@pytest.mark.parametrize("n", [8, 9, 12, 96, 97, 1024])
def test_the_circle_table_is_exactly_mirrored(n):
    c, s = embed._circle(n)
    theta = 2.0 * np.pi * np.arange(n) / n
    assert np.max(np.abs(c - np.cos(theta))) <= 1e-15
    assert np.max(np.abs(s - np.sin(theta))) <= 1e-15
    j = np.arange(1, n)
    assert np.array_equal(c[n - j], c[j]) and np.array_equal(s[n - j], -s[j])
    if n % 2 == 0:
        j = np.arange(n // 2 + 1)
        assert np.array_equal(c[n // 2 - j], -c[j])
        assert np.array_equal(s[n // 2 - j], s[j])
    if n % 4 == 0:
        j = np.arange(n // 4 + 1)
        assert np.array_equal(s[j], c[n // 4 - j])
        assert np.unique(np.abs(np.concatenate([c, s]))).size == n // 4 + 1
    # every zero is +0.0, so a ring's x and y print no "-0"
    zeros = np.concatenate([c[c == 0.0], s[s == 0.0]])
    assert zeros.size == (4 if n % 4 == 0 else 2 if n % 2 == 0 else 1)
    assert not np.any(np.signbit(zeros))


def test_the_circle_table_equals_the_loop_reference():
    for n in range(8, 1025):
        got, want = embed._circle(n), loop_circle(n)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), n
        theta = 2.0 * np.pi * np.arange(n) / n
        assert np.max(np.abs(got[0] - np.cos(theta))) <= 1.4e-15, n
        assert np.max(np.abs(got[1] - np.sin(theta))) <= 1.4e-15, n


def test_a_ring_holds_a_quarter_of_its_width_in_magnitudes(round_profile):
    """x and y of a ring share n/4 + 1 magnitudes; with z, at most
    n/4 + 2 texts per ring go through %.17g."""
    mesh = make_mesh(embed_profile_curve(round_profile, n_samples=384), n_theta=96)
    rings = mesh.vertices[:-2].reshape(-1, 96 * 3)
    mags = rings.view(np.int64) & 0x7FFF_FFFF_FFFF_FFFF
    assert max(np.unique(ring).size for ring in mags) <= 96 // 4 + 2


def test_mesh_area_approaches_the_fixed_total(round_profile, round_curve):
    fine = mesh_area(make_mesh(round_curve, n_theta=64))
    coarse_curve = embed_profile_curve(round_profile, n_samples=64)
    coarse = mesh_area(make_mesh(coarse_curve, n_theta=32))
    target = 4 * np.pi
    assert abs(fine - target) / target < 2e-3
    assert abs(fine - target) < abs(coarse - target)


def test_mesh_area_sums_every_face_once(round_profile):
    mesh = make_mesh(embed_profile_curve(round_profile, n_samples=384), n_theta=96)
    assert _AREA_BLOCK_FACES < mesh.faces.shape[0] < 2 * _AREA_BLOCK_FACES
    v, f = mesh.vertices, mesh.faces
    cr = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    whole = 0.5 * np.sum(np.linalg.norm(cr, axis=1))
    assert mesh_area(mesh) == pytest.approx(whole, rel=1e-13)


@pytest.mark.parametrize("n_samples,n_theta", [(384, 96), (700, 100)],
                         ids=["one-boundary", "two-boundaries"])
def test_mesh_area_is_the_cross_and_norm_sum_bit_for_bit(round_profile,
                                                         n_samples, n_theta):
    mesh = make_mesh(embed_profile_curve(round_profile, n_samples=n_samples),
                     n_theta=n_theta)
    assert mesh.faces.shape[0] > _AREA_BLOCK_FACES
    assert mesh_area(mesh).hex() == cross_norm_area(mesh).hex()


def test_mesh_area_of_wide_ranging_coordinates_is_bit_for_bit():
    rng = np.random.default_rng(21)
    # scales from 1e-30 to 1e30: squared cross products stay finite
    verts = rng.standard_normal((5000, 3)) * 10.0 ** rng.integers(-30, 31, (5000, 1))
    verts[:4] = (0.0, -0.0, 5e-324), (1e-300, 0.0, 0.0), (0.0, 1e-300, 0.0), (1.0, 1.0, 1.0)
    faces = rng.integers(0, 5000, size=(2 * _AREA_BLOCK_FACES + 17, 3))
    faces[:3] = (0, 1, 2), (1, 2, 3), (0, 0, 3)
    mesh = hand_mesh(verts, faces)
    assert np.isfinite(mesh_area(mesh))
    assert mesh_area(mesh).hex() == cross_norm_area(mesh).hex()
    # one face at a time, so no rounding of a long sum hides a last bit
    for face in faces[:300]:
        one = hand_mesh(verts, [face])
        assert mesh_area(one).hex() == cross_norm_area(one).hex()


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
        length=round_curve.length)
    res = induced_metric_residual(bad, round_profile)
    assert res.sup_ds > 1e-3


def test_residual_requires_a_uniform_grid(round_curve, round_profile):
    warped = ProfileCurve(s=round_curve.s ** 2 / round_curve.length,
                          x=round_curve.x, a=round_curve.a, z=round_curve.z,
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
    got = export_obj(make_mesh(subsample(c, 5), n_theta=8)).decode("ascii").split("\n")
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


def test_the_golden_vertices_lie_on_the_round_sphere():
    """The golden file is the round sphere's two rings at s = pi/3 and
    2 pi/3 and its poles: a = sin s, z = 1 - cos s, 8 points per ring."""
    lines = GOLDEN.read_bytes().decode("ascii").splitlines()
    got = np.array([[float(t) for t in ln.split()[1:]]
                    for ln in lines if ln.startswith("v ")])
    s = np.array([np.pi / 3.0, 2.0 * np.pi / 3.0])
    theta = 2.0 * np.pi * np.arange(8) / 8
    a = np.repeat(np.sin(s), 8)
    ring = np.column_stack([a * np.tile(np.cos(theta), 2),
                            a * np.tile(np.sin(theta), 2),
                            np.repeat(1.0 - np.cos(s), 8)])
    want = np.vstack([ring, [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 2e-13


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


def test_obj_equals_the_loop_reference(round_profile):
    curve = embed_profile_curve(round_profile, n_samples=64)
    mesh = make_mesh(curve, n_theta=40)
    assert mesh.vertices.shape[0] > 2 * _OBJ_BLOCK_ROWS
    assert mesh.faces.shape[0] > 4 * _OBJ_BLOCK_ROWS
    verts = mesh.vertices.copy()
    verts[0] = (-0.0, 5e-324, 1e300)
    verts[_OBJ_BLOCK_ROWS] = (-1e-300, -0.0, -5e-324)
    hand_set = dataclasses.replace(mesh, vertices=verts)
    got = export_obj(hand_set)
    assert got == loop_export_obj(hand_set)
    lines = got.split(b"\n")
    assert lines[0] == b"v -0 4.9406564584124654e-324 1.0000000000000001e+300"
    assert lines[_OBJ_BLOCK_ROWS] == b"v -1e-300 -0 -4.9406564584124654e-324"


@pytest.mark.parametrize("rows", [1, _OBJ_BLOCK_ROWS - 1, _OBJ_BLOCK_ROWS,
                                  _OBJ_BLOCK_ROWS + 1, 2 * _OBJ_BLOCK_ROWS])
def test_obj_blocks_end_at_any_row_count(rows):
    rng = np.random.default_rng(rows)
    mesh = EmbeddingMesh(vertices=rng.standard_normal((rows, 3)),
                         faces=rng.integers(0, rows, size=(rows, 3)),
                         curve=None, n_theta=0)
    assert export_obj(mesh) == loop_export_obj(mesh)


def test_obj_refuses_empty_mesh(round_curve):
    empty = EmbeddingMesh(vertices=np.empty((0, 3)),
                          faces=np.empty((0, 3), dtype=np.int64),
                          curve=round_curve, n_theta=8)
    with pytest.raises(ValueError, match="empty"):
        export_obj(empty)


def test_obj_tells_signed_zeros_apart_in_one_block():
    mesh = hand_mesh([(0.0, -0.0, 0.0), (-0.0, 0.0, -0.0), (1.0, -0.0, 0.0)],
                     [(0, 1, 2)])
    got = export_obj(mesh)
    assert got == loop_export_obj(mesh)
    assert got.split(b"\n")[:3] == [b"v 0 -0 0", b"v -0 0 -0", b"v 1 -0 0"]


def test_obj_repeats_values_across_rows_and_columns():
    rng = np.random.default_rng(7)
    pool = np.array([0.1, -2.5, 1 / 3, 5e-324, -1e300, np.pi, -0.0, 0.0])
    verts = rng.choice(pool, size=(3 * _OBJ_BLOCK_ROWS + 7, 3))
    verts[::5] = verts[::5, :1]                 # one value across a row
    verts[1::7, 2] = verts[1::7, 0]             # a value in two columns
    verts[_OBJ_BLOCK_ROWS - 1:_OBJ_BLOCK_ROWS + 2] = (1 / 3, 1 / 3, -1e300)
    mesh = hand_mesh(verts, rng.integers(0, verts.shape[0], size=(50, 3)))
    assert export_obj(mesh) == loop_export_obj(mesh)


@pytest.mark.parametrize("n_vertices", [9, 10, 99, 100, 999, 1000, 9999, 10000])
def test_obj_face_indices_at_digit_width_boundaries(n_vertices):
    rng = np.random.default_rng(n_vertices)
    faces = rng.integers(0, n_vertices, size=(n_vertices + 5, 3))
    last = n_vertices - 1
    faces[0] = (last, 0, last)
    faces[-1] = (0, last, 9 % n_vertices)
    mesh = hand_mesh(rng.standard_normal((n_vertices, 3)), faces)
    got = export_obj(mesh)
    assert got == loop_export_obj(mesh)
    lines = got.split(b"\n")
    assert lines[n_vertices] == b"f %d 1 %d" % (n_vertices, n_vertices)
    assert lines[-2] == b"f 1 %d %d" % (n_vertices, 9 % n_vertices + 1)


def test_obj_writes_nan_and_inf_as_before():
    other_nans = np.array([0xFFF8000000000000, 0x7FF0000000000001],
                          dtype=np.uint64).view(np.float64)
    mesh = hand_mesh([(np.nan, np.inf, -np.inf), (*other_nans, 0.0),
                      (np.inf, np.nan, -0.0)], [(0, 1, 2)])
    got = export_obj(mesh)
    assert got == loop_export_obj(mesh)
    assert got.split(b"\n")[:3] == [b"v nan inf -inf", b"v nan nan 0",
                                     b"v inf nan -0"]


def test_vertex_lines_print_both_signs_of_a_magnitude_as_the_loop_does():
    payload_nan = np.array([0x7FF0_0000_DEAD_BEEF], dtype=np.uint64).view(np.float64)[0]
    pool = np.array([0.0, np.nan, payload_nan, np.inf, 5e-324, 2.5e-310,
                     np.finfo(float).tiny, 1 / 3, 2.0, 1e300, 0.1])
    pool = np.concatenate([pool, -pool])        # -0.0, -nan, -inf and the rest
    rng = np.random.default_rng(25)
    for rows in (1, 7, _OBJ_BLOCK_ROWS):
        verts = rng.choice(pool, size=(rows, 3))
        verts[0] = pool[:3] if rows == 1 else (-pool[rows % 11], pool[rows % 11], -0.0)
        lines = embed._vertex_lines(verts)
        assert lines + b"f 1 1 1\n" == loop_export_obj(hand_mesh(verts, [(0, 0, 0)]))
    # each value between its negatives
    half = pool[:11, None]
    mesh = hand_mesh(np.hstack([-half, half, -half]), [(0, 1, 2)])
    got = export_obj(mesh)
    assert got == loop_export_obj(mesh)
    assert got.split(b"\n")[:5] == [
        b"v -0 0 -0", b"v nan nan nan", b"v nan nan nan", b"v -inf inf -inf",
        b"v -4.9406564584124654e-324 4.9406564584124654e-324 -4.9406564584124654e-324"]


def test_obj_blocks_join_to_the_export(round_profile):
    mesh = make_mesh(embed_profile_curve(round_profile, n_samples=64), n_theta=40)
    blocks = list(embed._obj_blocks(mesh))
    n_v, n_f = mesh.vertices.shape[0], mesh.faces.shape[0]
    assert len(blocks) == -(-n_v // _OBJ_BLOCK_ROWS) + -(-n_f // _OBJ_BLOCK_ROWS)
    assert all(block.count(b"\n") <= _OBJ_BLOCK_ROWS for block in blocks)
    assert b"".join(blocks) == export_obj(mesh) == loop_export_obj(mesh)


def test_obj_blocks_check_the_mesh_before_the_first_block():
    # cmd_mesh opens its file only after this call returns
    with pytest.raises(ValueError, match="face 0 indexes vertex 3"):
        embed._obj_blocks(hand_mesh(np.eye(3), [(0, 1, 3)]))


def test_curve_csv(round_curve):
    lines = curve_csv_text(round_curve).splitlines()
    assert lines[0] == "s,a,z"
    assert len(lines) == 1 + round_curve.s.size
    s, a, z = (float(tok) for tok in lines[-1].split(","))
    assert s == pytest.approx(np.pi, abs=1e-10)
    assert a == 0.0
    assert z == pytest.approx(2.0, abs=1e-9)


def test_curve_csv_equals_the_loop_reference(round_curve):
    odd = round_curve.a.copy()
    odd[1:5] = (-0.0, 5e-324, 1e300, -1e-300)
    curve = dataclasses.replace(round_curve, a=odd)
    assert curve_csv_text(curve) == loop_curve_csv_text(curve)
