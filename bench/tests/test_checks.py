"""Each correctness check passes on the program's output and fails on a
corrupted copy of it."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import revspec

import checks
import workloads
from conftest import BENCH


def _shift(value: float) -> float:
    return value * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# spectrum-cli
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def spectrum_output():
    proc = subprocess.run([sys.executable, "-m", "revspec.cli", *workloads.SPECTRUM_ARGV],
                          cwd=BENCH.parent, capture_output=True, check=True,
                          env={**os.environ,
                               "PYTHONPATH": str(BENCH.parent / "src")})
    return proc.stdout


@pytest.fixture(scope="module")
def spectrum_ref():
    return checks.spectrum_reference()


def _edit_table(output: bytes, edit) -> bytes:
    doc = json.loads(output)
    edit(doc["table"]["entries"])
    return json.dumps(doc).encode()


def test_spectrum_output_passes(spectrum_output, spectrum_ref):
    assert checks.spectrum_problems(spectrum_output, spectrum_ref) == []


def test_spectrum_shifted_eigenvalue_fails(spectrum_output, spectrum_ref):
    def edit(entries):
        for e in entries:
            if {"k": 0, "j": 1} in e["channels"]:
                e["lambda"] = _shift(e["lambda"])
    bad = _edit_table(spectrum_output, edit)
    assert any("collocation" in p for p in checks.spectrum_problems(bad, spectrum_ref))


def test_spectrum_changed_multiplicity_fails(spectrum_output, spectrum_ref):
    def edit(entries):
        entries[3]["multiplicity"] += 1
    bad = _edit_table(spectrum_output, edit)
    assert checks.spectrum_problems(bad, spectrum_ref)


# ---------------------------------------------------------------------------
# family-report
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def reports():
    rng = np.random.default_rng([7, 1])
    inputs = [workloads.round_input(), workloads.squeeze_input(0.5, 8),
              workloads._draw(workloads.bump_input, rng, 0, embeddable=True),
              workloads._draw(workloads.sample_input, rng, 0),
              workloads._draw(workloads.arclength_input, rng, 0)]
    return [(inp, workloads.report_record(revspec, workloads.make_profile(revspec, inp)),
             checks.report_reference(inp)) for inp in inputs]


def test_reports_pass(reports):
    for inp, rec, ref in reports:
        assert checks.report_problems(rec, inp, ref) == [], inp.name


def test_report_shifted_eigenvalue_fails(reports):
    for inp, rec, ref in reports:
        bad = dict(rec, lambda01=_shift(rec["lambda01"]))
        assert checks.report_problems(bad, inp, ref), inp.name


def test_report_changed_multiplicity_fails(reports):
    for inp, rec, ref in reports:
        mults = (rec["multiplicities"][0] + 1,) + rec["multiplicities"][1:]
        bad = dict(rec, multiplicities=mults)
        assert checks.report_problems(bad, inp, ref), inp.name
        value, mult, channels = rec["table"][0]
        bad = dict(rec, table=((value, mult + 2, channels),) + rec["table"][1:])
        assert checks.report_problems(bad, inp, ref), inp.name


def test_report_flipped_verdict_fails(reports):
    flip = {"embeddable": "not_embeddable", "not_embeddable": "embeddable"}
    for inp, rec, ref in reports:
        bad = dict(rec, verdict=flip[rec["verdict"]])
        assert checks.report_problems(bad, inp, ref), inp.name


# ---------------------------------------------------------------------------
# mesh-export
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def meshes():
    inputs = workloads.mesh_inputs(7)
    inputs = [inputs[0], inputs[2], inputs[4]]  # round, samples, arclength
    return [(inp, workloads.mesh_record(revspec, workloads.make_profile(revspec, inp)),
             checks.mesh_reference(inp)) for inp in inputs]


def test_meshes_pass(meshes):
    for inp, rec, ref in meshes:
        assert checks.mesh_problems(rec, inp, ref) == [], inp.name


def test_mesh_dropped_face_fails(meshes):
    for inp, rec, ref in meshes:
        lines = rec["obj"].split(b"\n")
        del lines[-2]
        bad = dict(rec, obj=b"\n".join(lines))
        assert checks.mesh_problems(bad, inp, ref), inp.name


def test_mesh_moved_vertex_fails(meshes):
    for inp, rec, ref in meshes:
        lines = rec["obj"].split(b"\n")
        i = len(lines) // 5
        _, x, y, z = lines[i].split(b" ")
        lines[i] = b"v %r %s %s" % (float(x) + 1e-4, y, z)
        bad = dict(rec, obj=b"\n".join(lines))
        assert any("reference surface" in p
                   for p in checks.mesh_problems(bad, inp, ref)), inp.name
