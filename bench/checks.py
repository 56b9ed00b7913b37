"""Correctness checks of the program's outputs against :mod:`reference`.

Each ``*_problems`` function returns a list of messages, empty when the
outputs pass.  They run outside the timed operations.  Tolerances:

* eigenvalues: 1e-9 relative for inputs given in closed form, 1e-7 for
  sample inputs, whose program profile is a spline through the samples;
* meridian length (relative) and vertex positions (absolute): see
  ``MESH_TOL``; the program reaches about 1e-12 on expression inputs,
  1e-10 on arclength inputs (through its x <-> s map) and 1e-7 on sample
  inputs (the spline);
* the induced-metric residual, a 4th-order finite difference: at most
  ``100 h^4`` for the meridian step ``h`` (observed up to ``5 h^4``);
* the area of the inscribed mesh: within ``4 pi ((2 pi / n_theta)^2 / 6
  + h^2)`` of ``4 pi``, the first term being the angular deficit of an
  inscribed polygon.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from reference import integral_f, integral_trace0, lambda01, meridian
from workloads import MESH_SAMPLES, MESH_THETA, SPECTRUM_ARGV, squeeze_input

MESH_TOL = {"expression": (1e-10, 1e-9), "arclength": (1e-8, 1e-8),
            "samples": (1e-6, 1e-5)}
PAPER_TRACE0 = float(Fraction(23, 185))  # (1/2) int (1 - x^2) / f, closed form
FOUR_PI = 4.0 * math.pi


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def table_problems(entries, trace0: float, where: str) -> list[str]:
    """The laws of a merged table of ``(value, multiplicity, channels)``:
    ascending values, multiplicity from the attributions, odd multiplicity
    exactly when channel 0 contributes, every entry above the lower bound
    of each attribution (``j / trace0`` in channel 0, ``j k`` elsewhere)."""
    out = []
    prev = 0.0
    for m, (value, mult, channels) in enumerate(entries, start=1):
        if not value > prev:
            out.append(f"{where}: entry {m} ({value!r}) not above its predecessor")
        prev = value
        if mult != sum(1 if k == 0 else 2 for k, _ in channels):
            out.append(f"{where}: entry {m} multiplicity {mult} does not match "
                       f"attributions {channels}")
        if (mult % 2 == 1) != any(k == 0 for k, _ in channels):
            out.append(f"{where}: entry {m} multiplicity {mult} breaks the parity law")
        for k, j in channels:
            bound = j / trace0 if k == 0 else float(j * k)
            if not value > bound:
                out.append(f"{where}: entry {m} ({value!r}) not above the ({k},{j}) "
                           f"bound {bound!r}")
    return out


# ---------------------------------------------------------------------------
# spectrum-cli
# ---------------------------------------------------------------------------

def spectrum_reference() -> dict:
    shape = squeeze_input(9.0, 36).shape
    return {"lambda01": lambda01(shape), "upper": 1.5 * integral_f(shape)}


def spectrum_problems(output: bytes, ref: dict) -> list[str]:
    """``output`` is the stdout of the spectrum command."""
    out = []
    doc = json.loads(output)
    below = float(SPECTRUM_ARGV[-1])
    entries = [(e["lambda"], e["multiplicity"],
                tuple((c["k"], c["j"]) for c in e["channels"]))
               for e in doc["table"]["entries"]]
    out += table_problems(entries, PAPER_TRACE0, "spectrum")
    out += [f"spectrum: entry {v!r} outside (0, {below:g}]"
            for v, _, _ in entries if not 0.0 < v <= below]
    lam = [v for v, _, ch in entries if (0, 1) in ch]
    if len(lam) != 1:
        return out + ["spectrum: no single entry carries channel (0, 1)"]
    lam = lam[0]
    if not 1.0 / PAPER_TRACE0 < lam < ref["upper"]:
        out.append(f"spectrum: lambda_0^1 = {lam!r} outside "
                   f"(185/23, {ref['upper']!r})")
    if _rel(lam, ref["lambda01"]) > 1e-9:
        out.append(f"spectrum: lambda_0^1 = {lam!r} against collocation "
                   f"{ref['lambda01']!r}")
    return out


# ---------------------------------------------------------------------------
# family-report
# ---------------------------------------------------------------------------

def report_reference(inp) -> dict:
    t = integral_trace0(inp.shape)
    return {"embeddable": inp.embeddable, "lambda01": lambda01(inp.shape),
            "upper": 1.5 * integral_f(inp.shape), "lower": 2.0 / t,
            "trace0": 0.5 * t}


def report_problems(rec: dict, inp, ref: dict) -> list[str]:
    w = inp.name
    out = []
    verdict = "embeddable" if ref["embeddable"] else "not_embeddable"
    if rec["verdict"] != verdict:
        out.append(f"{w}: verdict {rec['verdict']} but max|f'| gives {verdict}")
    lam = rec["lambda01"]
    tol = 1e-7 if inp.kind == "samples" else 1e-9
    if _rel(lam, ref["lambda01"]) > tol:
        out.append(f"{w}: lambda_0^1 = {lam!r} against collocation {ref['lambda01']!r}")
    if inp.is_round:
        if abs(lam - 2.0) > 1e-9 or abs(ref["upper"] - 2.0) > 1e-12:
            out.append(f"{w}: round sphere lambda_0^1 = {lam!r}, bound {ref['upper']!r}")
        if rec["multiplicities"] != (3, 5, 7, 9):
            out.append(f"{w}: round sphere multiplicities {rec['multiplicities']}")
    elif not lam < ref["upper"]:
        out.append(f"{w}: lambda_0^1 = {lam!r} not below (3/2) int f = {ref['upper']!r}")
    if not lam > ref["lower"]:
        out.append(f"{w}: lambda_0^1 = {lam!r} not above 2/int((1-x^2)/f) = "
                   f"{ref['lower']!r}")
    if rec["spectral_triggered"] != (lam > 3.0):
        out.append(f"{w}: spectral test says {rec['spectral_triggered']} for {lam!r}")
    if rec["all_even"] != all(m % 2 == 0 for m in rec["multiplicities"]):
        out.append(f"{w}: all_even {rec['all_even']} for {rec['multiplicities']}")
    if (lam > 3.0 or rec["all_even"]) and rec["verdict"] != "not_embeddable":
        out.append(f"{w}: a spectral obstruction holds yet the verdict is embeddable")
    if rec["consistency_failures"]:
        out.append(f"{w}: consistency failures {rec['consistency_failures']}")
    out += table_problems(rec["table"], ref["trace0"], w)
    certified = tuple(m for v, m, _ in rec["table"] if v <= rec["cutoff"])[:4]
    if len(rec["multiplicities"]) != 4 or rec["multiplicities"] != certified:
        out.append(f"{w}: multiplicities {rec['multiplicities']} against the "
                   f"table's first certified {certified}")
    return out


# ---------------------------------------------------------------------------
# mesh-export
# ---------------------------------------------------------------------------

def mesh_reference(inp) -> dict:
    length, a, z = meridian(inp.shape, MESH_SAMPLES)
    return {"length": length, "a": a, "z": z}


def parse_obj(obj: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and 0-based faces of OBJ text of ``v`` then ``f`` lines."""
    verts, faces = [], []
    for line in obj.decode("ascii").split("\n")[:-1]:
        tag, *fields = line.split(" ")
        if tag == "v" and len(fields) == 3 and not faces:
            verts.append([float(v) for v in fields])
        elif tag == "f" and len(fields) == 3:
            faces.append([int(v) - 1 for v in fields])
        else:
            raise ValueError(f"unexpected OBJ line {line[:60]!r}")
    return np.asarray(verts, dtype=float), np.asarray(faces, dtype=np.int64)


def mesh_problems(rec: dict, inp, ref: dict) -> list[str]:
    w = inp.name
    n, nt = MESH_SAMPLES, MESH_THETA
    n_verts, n_faces = nt * (n - 2) + 2, 2 * nt * (n - 2)
    out = []
    if (rec["vertices"], rec["faces"], rec["euler"]) != (n_verts, n_faces, 2):
        out.append(f"{w}: V, F, chi = {rec['vertices']}, {rec['faces']}, "
                   f"{rec['euler']}; expected {n_verts}, {n_faces}, 2")
    try:
        v, f = parse_obj(rec["obj"])
    except ValueError as exc:
        return out + [f"{w}: {exc}"]
    if v.shape != (n_verts, 3) or f.shape != (n_faces, 3):
        return out + [f"{w}: OBJ holds {len(v)} vertices and {len(f)} faces"]
    if f.min() < 0 or f.max() >= n_verts:
        out.append(f"{w}: OBJ face index outside 1..{n_verts}")
    edges = np.unique(np.sort(f[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1), axis=0)
    if n_verts - len(edges) + n_faces != 2:
        out.append(f"{w}: OBJ Euler characteristic "
                   f"{n_verts - len(edges) + n_faces}")
    len_tol, vert_tol = MESH_TOL[inp.kind]
    if _rel(rec["length"], ref["length"]) > len_tol:
        out.append(f"{w}: meridian length {rec['length']!r} against "
                   f"{ref['length']!r}")
    theta = 2.0 * np.pi * np.arange(nt) / nt
    a, z = ref["a"][1:-1, None], ref["z"][1:-1, None]
    expect = np.concatenate([
        np.stack([a * np.cos(theta), a * np.sin(theta),
                  np.broadcast_to(z, (len(z), nt))], axis=-1).reshape(-1, 3),
        [[0.0, 0.0, ref["z"][0]], [0.0, 0.0, ref["z"][-1]]]])
    moved = float(np.max(np.abs(v - expect)))
    if moved > vert_tol:
        out.append(f"{w}: a vertex is {moved:.3g} from the reference surface")
    if inp.is_round:
        radius = np.linalg.norm(v - [0.0, 0.0, 1.0], axis=1)
        if np.max(np.abs(radius - 1.0)) > 1e-9:
            out.append(f"{w}: round-sphere vertex at distance "
                       f"{radius[np.argmax(np.abs(radius - 1.0))]!r} from the centre")
    h = ref["length"] / (n - 1)
    if rec["residual_sup"] > 100.0 * h ** 4:
        out.append(f"{w}: induced-metric residual {rec['residual_sup']:.3g} above "
                   f"{100.0 * h ** 4:.3g}")
    area_bound = FOUR_PI * ((2.0 * np.pi / nt) ** 2 / 6.0 + h ** 2)
    if abs(rec["area"] - FOUR_PI) > area_bound:
        out.append(f"{w}: mesh area {rec['area']!r} off 4 pi by more than "
                   f"{area_bound:.3g}")
    return out
