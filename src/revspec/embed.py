"""Surfaces of revolution realizing embeddable profile metrics in 3-space.

An embeddable profile (``|f'| <= 2`` everywhere) becomes the surface

    (a(s) cos theta,  a(s) sin theta,  z(s)),
    z(s) = integral_0^s sqrt(1 - a'(t)^2) dt,

over the unit-speed meridian parameter ``s``; the positive branch of the
square root is fixed throughout (the other branch mirrors the surface).
:func:`embed_profile_curve` computes the generating curve on a uniform
``s``-grid — the poles are regular points of that grid, so no endpoint
singularity ever enters the quadrature — and :func:`make_mesh` revolves it
into a watertight genus-0 triangle mesh with pole fans.  The isometry is
checked, not assumed: :func:`induced_metric_residual` compares the first
fundamental form of the realized curve (derivatives taken by finite
differences, independent of how the curve was built) against the metric's
``ds^2 + a^2 dtheta^2``, and the mesh area converges to the fixed total 4*pi.

Whether a profile embeds is decided once, by
:func:`~revspec.obstruction.sup_test`; a refused profile raises
:class:`NotEmbeddableError`.  On an accepted one, the sampled radicand
``1 - a'^2`` still dips below 0 where ``|f'|`` exceeds 2 within that test's
``1e-9`` allowance; such dips are clamped to 0 with
:class:`GrazingClampWarning`.
"""

from __future__ import annotations

import itertools
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .obstruction import sup_test
from .profile import Profile, _MeridianMap, require_valid
from .quadrature import CumulativeIntegral

__all__ = [
    "ProfileCurve", "EmbeddingMesh", "MetricResiduals",
    "NotEmbeddableError", "MeshError", "GrazingClampWarning",
    "embed_profile_curve", "make_mesh", "mesh_area", "euler_characteristic",
    "induced_metric_residual", "export_obj",
]


class NotEmbeddableError(ValueError):
    """Profile violates ``|f'| <= 2`` and admits no surface of revolution."""

    def __init__(self, max_slope: float, argmax_x: float):
        self.max_slope = max_slope
        self.argmax_x = argmax_x
        super().__init__(
            f"profile is not embeddable: max|f'| = 2 + {max_slope - 2.0:.3g} "
            f"near x = {argmax_x:.6g} (slope criterion)")


class MeshError(ValueError):
    """Curve unusable for meshing (too short, repeated or collapsed samples)."""


class GrazingClampWarning(UserWarning):
    """The meridian grazed ``|a'| = 1`` in the interior; radicand clamped to 0."""


@dataclass(frozen=True)
class ProfileCurve:
    """Generating curve of the surface of revolution on a uniform s-grid.

    Arrays share one length: ``s`` (0 to ``length``), the generating
    coordinate ``x``, radius ``a`` (exactly 0 at both ends) and height ``z``
    (0 at the south pole, integrated from ``f'`` between the samples).
    """

    s: np.ndarray
    x: np.ndarray
    a: np.ndarray
    z: np.ndarray
    length: float


@dataclass(frozen=True)
class EmbeddingMesh:
    """Closed triangle mesh: interior vertex rings plus two pole vertices."""

    vertices: np.ndarray
    faces: np.ndarray
    curve: ProfileCurve
    n_theta: int


@dataclass(frozen=True)
class MetricResiduals:
    """Sup / RMS relative residuals of the induced metric, by component.

    ``*_ds`` covers the meridian part ``(a')^2 + (z')^2`` against 1 (unit
    speed), ``*_dtheta`` the angular part ``a^2`` against ``f``; ``sup`` and
    ``rms`` aggregate both.
    """

    sup_ds: float
    rms_ds: float
    sup_dtheta: float
    rms_dtheta: float
    sup: float
    rms: float

    def to_json_dict(self) -> dict:
        return {"sup_ds": self.sup_ds, "rms_ds": self.rms_ds,
                "sup_dtheta": self.sup_dtheta, "rms_dtheta": self.rms_dtheta,
                "sup": self.sup, "rms": self.rms}


def embed_profile_curve(p: Profile, n_samples: int = 256) -> ProfileCurve:
    """Generating curve ``(a(s), z(s))`` of the embedded surface.

    ``n_samples >= 16`` uniform points on ``[0, L]`` of the meridian map
    ``x(s)`` (:class:`~revspec.profile._MeridianMap`).  A profile that
    :func:`~revspec.obstruction.sup_test` refuses raises
    :class:`NotEmbeddableError` with that test's maximum and its place;
    radicand dips on an accepted one are clamped with a warning.
    """
    require_valid(p, context="embed_profile_curve")
    if n_samples < 16:
        raise ValueError("n_samples must be at least 16")
    sup = sup_test(p)
    if not sup.embeddable:
        raise NotEmbeddableError(max_slope=sup.max_slope, argmax_x=sup.argmax_x)
    mm = _MeridianMap(p)
    L = mm.length
    s = np.linspace(0.0, L, n_samples)
    x = np.asarray(mm.x_of_s(s), dtype=float)
    a = np.sqrt(np.clip(np.asarray(p.f(x), dtype=float), 0.0, None))
    x[0], x[-1] = -1.0, 1.0
    a[0] = a[-1] = 0.0
    da = 0.5 * np.asarray(p.df(x), dtype=float)
    rad = 1.0 - da * da
    # |f'| = 2 at the poles is a validated boundary condition; a spline
    # profile meets it only to rounding, which must not read as grazing
    rad[0] = rad[-1] = 0.0
    worst = float(np.min(rad))
    if worst < 0.0:
        warnings.warn(
            f"meridian grazes |f'| = 2 (radicand dips to {worst:.3e}); "
            f"clamping to 0", GrazingClampWarning, stacklevel=2)

    def dz_of_s(t):
        xt = np.asarray(mm.x_of_s(t), dtype=float)
        v = 1.0 - (0.5 * np.asarray(p.df(xt), dtype=float)) ** 2
        return np.sqrt(np.clip(v, 0.0, None))

    z = CumulativeIntegral(dz_of_s, s).cum
    return ProfileCurve(s=s, x=x, a=a, z=z, length=float(L))


# ---------------------------------------------------------------------------
# meshing
# ---------------------------------------------------------------------------

# Faces per block of mesh_area: bounds its transient arrays to a few MB at
# any mesh size.
_AREA_BLOCK_FACES = 1 << 16


def _circle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``cos`` and ``sin`` of ``2 pi j / n`` for ``j < n``, exactly mirrored.

    Each ``j`` is folded onto an angle ``2 pi m / n`` of the first quadrant
    (of the upper half circle for odd ``n``) by the reflections
    ``c[n-j] = c[j]``, ``s[n-j] = -s[j]`` and, for even ``n``,
    ``c[n/2-j] = -c[j]``, ``s[n/2-j] = s[j]``; for ``n`` divisible by 4
    also ``s[j] = c[n/4-j]``, with ``c[n/4] = 0``.  Mirrored entries differ
    only in sign and every zero is ``+0.0``.  For ``n <= 1024`` an entry is
    within 1.4e-15 of ``np.cos`` or ``np.sin`` of ``2 pi j / n`` and within
    7e-16 of the exact value.
    """
    j = np.arange(n)
    m = np.minimum(j, n - j)
    s_sign = np.where(j > m, -1.0, 1.0)
    c_sign = np.ones(n)
    if n % 2 == 0:
        far = 4 * m > n
        m[far] = n // 2 - m[far]
        c_sign[far] = -1.0
    angle = 2.0 * np.pi * np.arange(m.max() + 1) / n
    c = np.cos(angle)
    if n % 4 == 0:
        c[-1] = 0.0
        s = c[::-1]
    else:
        s = np.sin(angle)
    return c_sign * c[m], s_sign * s[m]


def make_mesh(curve: ProfileCurve, n_theta: int = 64) -> EmbeddingMesh:
    """Revolve the curve: one vertex ring per interior sample, pole fans.

    ``n_theta >= 8`` vertices per ring.  Faces are oriented outward
    (positive enclosed volume), strips between rings are split quads.
    Vertex count is ``n_theta * (len(s) - 2) + 2``.  A ring's ``x`` and
    ``y`` are its radius times the exactly mirrored circle table of
    :func:`_circle`, so they share ``n_theta/4 + 1`` magnitudes when 4
    divides ``n_theta``, and each is within ``1.4e-15 * a`` of the
    product with ``np.cos`` or ``np.sin``.
    """
    if n_theta < 8:
        raise ValueError("n_theta must be at least 8")
    n = curve.s.size
    if n < 3:
        raise MeshError("curve needs at least 3 samples to mesh")
    if np.any(np.diff(curve.s) <= 0.0):
        raise MeshError("curve samples repeat or run backwards in s")
    if not (np.all(np.isfinite(curve.a)) and np.all(np.isfinite(curve.z))):
        raise MeshError("curve radius or height is not finite")
    if np.any(curve.a[1:-1] <= 0.0):
        raise MeshError("curve radius collapses between the poles")

    ct, st = _circle(n_theta)
    rings = n - 2
    ring_a, ring_z = curve.a[1:-1, None], curve.z[1:-1, None]
    verts = np.empty((n_theta * rings + 2, 3))
    ring = verts[:-2].reshape(rings, n_theta, 3)
    np.multiply(ring_a, ct, out=ring[:, :, 0])
    np.multiply(ring_a, st, out=ring[:, :, 1])
    ring[:, :, 2] = ring_z
    verts[-2:] = (0.0, 0.0, curve.z[0]), (0.0, 0.0, curve.z[-1])
    south, north = n_theta * rings, n_theta * rings + 1

    # each strip is a frustum of planar trapezoids, so the enclosed volume
    # is n_theta sin(2 pi/n_theta)/6 sum (a_i^2 + a_i a_i+1 + a_i+1^2) dz_i,
    # pole radii 0; the faces below point outward exactly when it is
    # positive, and a downward curve gets columns 0 and 2 swapped
    a = np.concatenate(([0.0], curve.a[1:-1], [0.0]))
    lo_a, hi_a = a[:-1], a[1:]
    flip = np.sum((lo_a * lo_a + lo_a * hi_a + hi_a * hi_a) * np.diff(curve.z)) < 0.0
    c0, c2 = (2, 0) if flip else (0, 2)

    j = np.arange(n_theta, dtype=np.int64)
    jn = (j + 1) % n_theta
    lo = n_theta * np.arange(rings - 1, dtype=np.int64)[:, None]
    top = (rings - 1) * n_theta
    f = np.empty((2 * n_theta * rings, 3), dtype=np.int64)
    fan = f[:n_theta]
    fan[:, c0], fan[:, 1], fan[:, c2] = south, jn, j
    # per ring, per j: the split quad (lo+j, lo+jn, hi+j), (lo+jn, hi+jn, hi+j)
    quad = f[n_theta:-n_theta].reshape(rings - 1, n_theta, 2, 3)
    np.add(lo, j, out=quad[:, :, 0, c0])
    np.add(lo, jn, out=quad[:, :, 0, 1])
    np.add(quad[:, :, 0, c0], n_theta, out=quad[:, :, 0, c2])
    quad[:, :, 1, c0] = quad[:, :, 0, 1]
    np.add(quad[:, :, 0, 1], n_theta, out=quad[:, :, 1, 1])
    quad[:, :, 1, c2] = quad[:, :, 0, c2]
    fan = f[-n_theta:]
    fan[:, c0], fan[:, 1], fan[:, c2] = north, top + j, top + jn
    return EmbeddingMesh(vertices=verts, faces=f, curve=curve, n_theta=n_theta)


def _check_faces(faces: np.ndarray, n_vertices: int) -> None:
    """Refuse a face that indexes outside the ``n_vertices`` vertices."""
    if faces.size and (faces.min() < 0 or faces.max() >= n_vertices):
        first = int(np.flatnonzero((faces < 0) | (faces >= n_vertices))[0])
        row, col = divmod(first, faces.shape[1])
        raise ValueError(f"face {row} indexes vertex {int(faces[row, col])}, "
                         f"but the mesh has {n_vertices} vertices")


def mesh_area(mesh: EmbeddingMesh) -> float:
    """Sum of the face areas, over blocks of ``_AREA_BLOCK_FACES`` faces.

    The cross product and its length are written out by component, in the
    operations and order of ``np.cross`` and ``np.linalg.norm(axis=1)``, so
    the sum is theirs bit for bit.
    """
    v, total = mesh.vertices, 0.0
    _check_faces(mesh.faces, v.shape[0])
    for start in range(0, mesh.faces.shape[0], _AREA_BLOCK_FACES):
        f = mesh.faces[start:start + _AREA_BLOCK_FACES]
        v0 = v[f[:, 0]]
        a0, a1, a2 = (v[f[:, 1]] - v0).T
        b0, b1, b2 = (v[f[:, 2]] - v0).T
        c0 = a1 * b2
        c0 -= a2 * b1
        c1 = a2 * b0
        c1 -= a0 * b2
        c2 = a0 * b1
        c2 -= a1 * b0
        c0 *= c0
        c1 *= c1
        c2 *= c2
        c0 += c1
        c0 += c2
        total += float(np.sum(np.sqrt(c0, out=c0)))
    return 0.5 * total


def euler_characteristic(mesh: EmbeddingMesh) -> int:
    """``V - E + F``, each undirected edge counted once.

    An edge's key is ``min * V + max`` of its two vertex indices, built by
    ``np.minimum`` and ``np.maximum`` of two face columns; the keys are
    sorted in place and counted where they change.  Transient memory is the
    keys, three int64 per face, and one column of ``np.maximum``.
    """
    f = mesh.faces
    n = mesh.vertices.shape[0]
    _check_faces(f, n)
    keys = np.empty((3, f.shape[0]), dtype=np.int64)
    for c in range(3):
        u, w = f[:, c], f[:, (c + 1) % 3]
        np.minimum(u, w, out=keys[c])
        keys[c] *= n
        keys[c] += np.maximum(u, w)
    keys = keys.ravel()
    keys.sort()
    n_edges = int(np.count_nonzero(keys[1:] != keys[:-1])) + min(keys.size, 1)
    return int(n - n_edges + f.shape[0])


# ---------------------------------------------------------------------------
# isometry verification
# ---------------------------------------------------------------------------

def induced_metric_residual(obj: ProfileCurve | EmbeddingMesh,
                            p: Profile) -> MetricResiduals:
    """Residual of the realized first fundamental form against the metric.

    Derivatives of the sampled ``a`` and ``z`` are taken by 4th-order
    central differences on the uniform s-grid (independent of the ``f'``
    the curve was built from, so construction errors cannot cancel), on
    interior samples two steps from the poles.  The meridian
    residual compares ``(a')^2 + (z')^2`` to 1; the angular residual
    compares ``a^2`` to ``f(x)`` relatively.
    """
    curve = obj.curve if isinstance(obj, EmbeddingMesh) else obj
    require_valid(p, context="induced_metric_residual")
    n = curve.s.size
    if n < 7:
        raise ValueError("curve too short for interior finite differences")
    h = curve.s[1] - curve.s[0]
    if not np.allclose(np.diff(curve.s), h, rtol=1e-9, atol=1e-12):
        raise ValueError("curve grid is not uniform")

    def d4(y):
        return (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)

    da, dz = d4(curve.a), d4(curve.z)
    res_ds = np.abs(da * da + dz * dz - 1.0)
    mid = slice(2, n - 2)
    fx = np.asarray(p.f(curve.x[mid]), dtype=float)
    res_th = np.abs(curve.a[mid] ** 2 - fx) / fx
    both = np.concatenate([res_ds, res_th])
    return MetricResiduals(
        sup_ds=float(np.max(res_ds)),
        rms_ds=float(np.sqrt(np.mean(res_ds ** 2))),
        sup_dtheta=float(np.max(res_th)),
        rms_dtheta=float(np.sqrt(np.mean(res_th ** 2))),
        sup=float(np.max(both)),
        rms=float(np.sqrt(np.mean(both ** 2))))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

# Rows per block of OBJ lines.  A block's transient arrays and texts stay
# within a few hundred kB at any mesh size.  `revspec mesh` writes the blocks
# to its file one by one, so at the 8192 x 1024 CLI maximum (8.4 M vertices,
# 16.8 M faces, a 956 MB file) it peaks at 1.1 GB RSS: the mesh arrays and
# the edge keys of euler_characteristic.
_OBJ_BLOCK_ROWS = 1024


def _vertex_lines(v: np.ndarray) -> bytes:
    """``v`` lines of a block of vertices.

    Each distinct magnitude, told apart by its bit pattern with the sign bit
    cleared, is formatted once by CPython's ``%.17g``.  A negative value's
    text is ``-`` and its magnitude's text (so ``-0.0`` prints as ``-0``),
    except a nan's, which ``%.17g`` prints without a sign whatever its sign
    bit.  The texts are gathered into the lines.
    """
    bits = np.ascontiguousarray(v, dtype=np.float64).view(np.int64).ravel()
    mag = bits & 0x7FFF_FFFF_FFFF_FFFF
    distinct, which = np.unique(mag, return_inverse=True)
    texts = (b"%.17g " * distinct.size
             % tuple(distinct.view(np.float64).tolist())).split(b" ")[:-1]
    texts += [b"-" + text for text in texts]
    # magnitudes above the infinity's bit pattern are nans
    which += distinct.size * ((bits < 0) & (mag <= 0x7FF0_0000_0000_0000))
    return b"v %s %s %s\n" * v.shape[0] % itemgetter(*which.tolist())(texts)


def _face_lines(f: np.ndarray, digits: int) -> bytes:
    """``f`` lines of a block of faces, 1-indexed, with indices of at most
    ``digits`` decimal digits written by numpy integer arithmetic."""
    n = f.shape[0]
    rest = np.empty((3, n), dtype=np.int64)
    np.add(f.T, 1, out=rest)
    quot = np.empty_like(rest)
    # the lines transposed, one row per byte column, so that each step below
    # writes whole rows; an index is a space and its digits right-aligned
    cols = np.empty((3 * digits + 5, n), dtype=np.uint8)
    keep = np.ones(cols.shape, dtype=bool)
    cols[0], cols[-1] = ord("f"), ord("\n")
    body = cols[1:-1].reshape(3, digits + 1, n)
    kept = keep[1:-1].reshape(3, digits + 1, n)
    body[:, 0] = ord(" ")
    for j in range(digits, 0, -1):
        np.floor_divide(rest, 10, out=quot)
        rest -= 10 * quot
        rest += ord("0")
        body[:, j] = rest
        if j > 1:
            # the next digit is a leading zero once the quotient is 0
            np.not_equal(quot, 0, out=kept[:, j - 1])
        rest, quot = quot, rest
    return cols.T[keep.T].tobytes()


def _obj_blocks(mesh: EmbeddingMesh) -> Iterator[bytes]:
    """The OBJ text of :func:`export_obj` in blocks of ``_OBJ_BLOCK_ROWS``
    lines.  The mesh is checked before the first block is made."""
    v, f = mesh.vertices, mesh.faces
    if v.size == 0 or f.size == 0:
        raise ValueError("refusing to export an empty mesh")
    _check_faces(f, v.shape[0])
    rows, digits = _OBJ_BLOCK_ROWS, len(str(v.shape[0]))
    return itertools.chain(
        (_vertex_lines(v[i:i + rows]) for i in range(0, v.shape[0], rows)),
        (_face_lines(f[i:i + rows], digits) for i in range(0, f.shape[0], rows)))


def export_obj(mesh: EmbeddingMesh) -> bytes:
    """Mesh as OBJ text: ``v`` lines then 1-indexed ``f`` lines, LF endings,
    17 significant digits.

    The text is the bytes of formatting line by line with ``"%.17g"`` and
    ``"%d"``, made in blocks of ``_OBJ_BLOCK_ROWS`` rows: within a vertex
    block each distinct magnitude is formatted once and a negative value
    prints as ``-`` and its magnitude's text, and face indices are written
    digit by digit with numpy.  A ring of :func:`make_mesh` holds at most
    ``n_theta/4 + 2`` magnitudes when 4 divides ``n_theta``.  A face
    indexing outside the vertices raises ``ValueError``.

    Byte-identical across runs on the same machine and installation.  Across
    CPUs, BLAS builds and numpy versions the vertex coordinates may
    differ in the last few ULPs; the layout, the ``f`` lines and the number
    format are exact everywhere.
    """
    return b"".join(_obj_blocks(mesh))
