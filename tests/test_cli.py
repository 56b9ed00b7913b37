import ast
import io
import json
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import revspec.cli as cli
import revspec.profile
from revspec.cli import (
    EXIT_FAILURE, EXIT_INVALID_PROFILE, EXIT_NOT_EMBEDDABLE, EXIT_OK,
    EXIT_USAGE, EXIT_VERIFY_FAILED, main,
)
from revspec.embed import embed_profile_curve, export_obj, make_mesh
from revspec.exprs import EvalDomainError
from revspec.families import builtin_profile
from revspec.profile import PROXY_MAX_DEGREE
from revspec.quadrature import QuadratureError
from revspec.solver import ConvergenceError, SolverError
from revspec.spectrum import BudgetError, SpectrumInvariantError

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
DOCUMENTED_CODES = {EXIT_OK, EXIT_FAILURE, EXIT_NOT_EMBEDDABLE,
                    EXIT_INVALID_PROFILE, EXIT_VERIFY_FAILED, EXIT_USAGE}


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def usage_error(*argv):
    with pytest.raises(SystemExit) as exc_info:
        main(list(argv))
    assert exc_info.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_recomputes_the_pinned_constants(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == EXIT_OK
    assert "4/4 checks passed" in out
    assert "FAIL" not in out
    assert "185/23" in out


def test_verify_failed_check_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(cli, "channel_lower_bound", lambda p, k, m: 8.0)
    code, out, err = run(capsys, "verify")
    assert code == EXIT_VERIFY_FAILED
    assert "3/4 checks passed" in out
    assert err.startswith("verify failed on: invariant-channel lower bound")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_round(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "round")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == 4
    assert "trace_flag" not in doc["obstructions"]
    assert doc["validation"]["passed"] is True
    assert doc["obstructions"]["verdict"] == "embeddable"
    assert doc["bounds"]["lambda01_upper"] == pytest.approx(2.0)
    assert doc["gauss_bonnet_residual"] < 1e-11


def test_analyze_pinched_exits_not_embeddable(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "paper-example")
    assert code == EXIT_NOT_EMBEDDABLE
    doc = json.loads(out)
    assert doc["obstructions"]["verdict"] == "not_embeddable"
    assert doc["obstructions"]["spectral_test"]["triggered"] is True


def test_analyze_where_the_multiplicities_turn_even_exits_by_its_verdict(capsys):
    # squeeze(3.023191452026367, 36): lambda_0^1 lies 5.4e-7 relative above
    # lambda_4^1, the fourth eigenvalue of channels k >= 1
    code, out, err = run(capsys, "analyze", "--expr",
                         "4.023191452026367*(1 - x^2) / "
                         "(1 + 3.023191452026367*x^36)")
    assert code == EXIT_NOT_EMBEDDABLE
    assert err == ""
    em = json.loads(out)["obstructions"]["even_multiplicity_test"]
    assert em["multiplicities"] == [2, 2, 2, 2]
    assert em["all_even"] is True and em["explanation"] == ""
    assert "reduction_holds" not in em


def test_analyze_where_parity_is_undecided_explains_it(capsys):
    # squeeze(3.0231899981553854, 36): lambda_0^1 lies 4.0e-10 relative
    # from lambda_4^1, below the solver's resolution
    code, out, err = run(capsys, "analyze", "--expr",
                         "4.023189998155385*(1 - x^2) / "
                         "(1 + 3.0231899981553854*x^36)")
    assert code == EXIT_NOT_EMBEDDABLE
    assert err == ""
    em = json.loads(out)["obstructions"]["even_multiplicity_test"]
    assert em["all_even"] is False
    assert "parity undecided" in em["explanation"]


def test_analyze_invalid_profile(capsys):
    code, out, err = run(capsys, "analyze", "--expr", "2*(1 - x^2)")
    assert code == EXIT_INVALID_PROFILE
    assert "validation failed" in err
    doc = json.loads(out)
    assert doc["verdict"] == "invalid_profile"
    assert doc["profile"]["passed"] is False


def test_analyze_writes_a_non_finite_check_value_as_null(capsys):
    # 0*inf is nan wherever x != 0, the poles included
    code, out, err = run(capsys, "analyze",
                         "--expr=(1 - x^2)*(1 + 0*(1e200*x)^2)")
    assert code == EXIT_INVALID_PROFILE
    assert err.startswith("validation failed: ")
    assert err.count("\n") == 1
    doc = json.loads(out)
    assert doc["verdict"] == "invalid_profile"
    checks = doc["profile"]["checks"]
    assert [c["name"] for c in checks if c["value"] is None] == \
        ["f(-1)", "f(+1)", "f'(-1)", "f'(+1)", "min interior f"]
    assert not any(c["passed"] for c in checks)


# f' is nan or inf within about 3e-5 of 0.2998046875, a point of the slope
# grid, where exp(A) overflows; no validation point falls there
_A = "1000000*exp(-((x-0.2998046875)/0.00001)^2)"
NAN_SLOPE = f"(1-x^2)*(1+0.001*(exp({_A})*exp(-{_A})-1))"


def test_a_slope_that_is_not_finite_is_null_and_not_embeddable(capsys,
                                                               tmp_path):
    code, out, err = run(capsys, "analyze", f"--expr={NAN_SLOPE}")
    assert (code, err) == (EXIT_NOT_EMBEDDABLE, "")
    obs = json.loads(out)["obstructions"]
    assert obs["sup_test"]["max_slope"] is None
    assert obs["sup_test"]["embeddable"] is False
    assert obs["negative_curvature_witness"] is None
    assert obs["verdict"] == "not_embeddable"
    code, out, err = run(capsys, "mesh", "--out", str(tmp_path / "m.obj"),
                         f"--expr={NAN_SLOPE}")
    assert (code, out) == (EXIT_NOT_EMBEDDABLE, "")
    assert err.count("\n") == 1
    assert "max|f'| is not finite near x = 0.2997" in err


def test_analyze_names_an_overflowing_constant(capsys):
    code, out, err = run(capsys, "analyze",
                         "--expr=(1 - x^2)*(1 + 0*(1e200)^2)")
    assert code == EXIT_INVALID_PROFILE
    assert out == ""
    assert err.startswith("profile error: ")
    assert err.endswith("overflow in subexpression '1e+200^2'\n")
    assert err.count("\n") == 1


def test_a_domain_error_in_the_derivative_names_its_subexpression(capsys):
    """f' of sqrt(1 - x^2)^2 divides by zero at the poles; the message
    quotes the derivative's quotient, with no dead terms in it."""
    code, out, err = run(capsys, "analyze",
                         "--expr=sqrt(1-x^2)^2*(1+0.1*sin(3*x))")
    assert (code, out) == (EXIT_INVALID_PROFILE, "")
    assert err == (
        "profile error: expression 'sqrt(1.0-x^2)^2*(1.0+0.1*sin(3.0*x))' is "
        "not evaluable on [-1, 1]: division by zero in subexpression "
        "'-(2.0*x)/(2.0*sqrt(1.0-x^2))'\n")


def test_analyze_unparseable_expression(capsys):
    code, _, err = run(capsys, "analyze", "--expr", "1 +")
    assert code == EXIT_INVALID_PROFILE
    assert "profile error" in err


@pytest.mark.parametrize("text", [
    "(" * 2000 + "1 - x^2" + ")" * 2000,
    "1 - x^2" + " + 0*x" * 1500,
    "-" * 1200 + "x",
], ids=["parentheses", "sum-terms", "unary-minus"])
def test_deeply_nested_expressions_exit_3(capsys, text):
    code, _, err = run(capsys, "analyze", f"--expr={text}")
    assert code == EXIT_INVALID_PROFILE
    assert err.startswith("profile error: ")
    assert "nested too deeply" in err


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_to_stdout_csv(capsys):
    code, out, err = run(capsys, "spectrum", "--builtin", "round",
                         "--below", "7", "--format", "csv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "m,lambda,multiplicity,channels"
    assert len(lines) == 3
    assert "certified complete below" in err


def test_spectrum_writes_json_and_csv(tmp_path, capsys):
    base = tmp_path / "spec.out"
    code, _, _ = run(capsys, "spectrum", "--builtin", "round",
                     "--below", "7", "--out", str(base))
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "spec.json").read_text())
    assert doc["requested_below"] == 7.0
    values = [e["lambda"] for e in doc["table"]["entries"]]
    assert values == pytest.approx([2.0, 6.0], rel=1e-9)
    csv = (tmp_path / "spec.csv").read_text()
    assert csv.startswith("m,lambda,multiplicity,channels\n")


def test_spectrum_output_is_deterministic(tmp_path, capsys):
    pair = []
    for tag in ("a", "b"):
        base = tmp_path / tag / "t.out"
        base.parent.mkdir()
        assert run(capsys, "spectrum", "--builtin", "round", "--below", "13",
                   "--out", str(base))[0] == EXIT_OK
        pair.append((base.with_suffix(".json").read_bytes(),
                     base.with_suffix(".csv").read_bytes()))
    assert pair[0] == pair[1]


def _fresh_interpreter(*args):
    """``python args`` on this checkout's ``src`` with the interpreter's
    default warning filters: what a shell user sees on stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_spectrum_of_a_builtin_leaves_scipy_interpolate_unloaded():
    # a fresh interpreter per run: this test process has loaded everything
    # already; round below 120 solves channels past k = 3N = 96, where a
    # fixed 4N-node rule would leave the mass matrix off the identity
    for builtin, below in (("paper-example", "21"), ("round", "120")):
        script = ("import sys\n"
                  "from revspec.cli import main\n"
                  f"code = main(['spectrum', '--builtin', {builtin!r}, "
                  f"'--below', {below!r}])\n"
                  "loaded = [m for m in ('scipy', 'scipy.interpolate', "
                  "'scipy.linalg', 'scipy.special') if m in sys.modules]\n"
                  "sys.stderr.write(repr((code, loaded)))\n")
        proc = _fresh_interpreter("-c", script)
        assert json.loads(proc.stdout)["table"]["entries"]
        assert proc.stderr.splitlines()[-1] == "(0, [])", (builtin, below)


def test_round_spectrum_through_channel_436(capsys):
    # channels up to k = 436 need more Gauss nodes than 4N; every mass
    # matrix must still be the identity and every table row the closed form
    code, out, err = run(capsys, "spectrum", "--builtin", "round",
                         "--below", "437", "--format", "csv")
    assert code == EXIT_OK
    assert len(err.splitlines()) == 1
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, 21))
    for l, (_, value, multiplicity, _) in enumerate(rows, start=1):
        assert float(value) == pytest.approx(l * (l + 1), rel=1e-10)
        assert int(multiplicity) == 2 * l + 1


def test_spectrum_where_the_multiplicities_turn_even_reads_as_analyze(capsys):
    # squeeze(3.023191452026367, 36): lambda_4^1 and lambda_0^1, 5.4e-7
    # relative apart, are two entries, as the report's table has them
    code, out, _ = run(capsys, "spectrum", "--expr",
                       "4.023191452026367*(1 - x^2) / "
                       "(1 + 3.023191452026367*x^36)",
                       "--below", "9", "--format", "csv")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(r[2]) for r in rows] == [2, 2, 2, 2, 1]
    assert [r[3] for r in rows[3:]] == ["4:1", "0:1"]


NECK = "(1-x^2)*(x^2+1e-3)/(1+1e-3)"


def test_a_near_degenerate_pair_of_one_channel_is_one_entry_and_one_line():
    # the neck's lambda_1^1 and lambda_1^2 lie closer than the tables'
    # resolution: one entry of multiplicity 4, and no warning on stderr.
    # Its first four distinct values all lie in channel 0, so the report's
    # table stops at lambda_0^4 and the report completes
    proc = _fresh_interpreter("-m", "revspec.cli", "spectrum", "--expr", NECK,
                              "--below", "10", "--format", "csv")
    assert proc.returncode == EXIT_OK
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("certified complete below")
    assert proc.stdout.splitlines()[8].split(",")[2:] == ["4", "1:1;1:2"]
    proc = _fresh_interpreter("-m", "revspec.cli", "analyze", "--expr", NECK)
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""
    report = json.loads(proc.stdout)["obstructions"]
    assert report["verdict"] == "embeddable"
    assert report["even_multiplicity_test"]["multiplicities"] == [1, 1, 1, 1]


def test_spectrum_usage_errors():
    usage_error("spectrum", "--builtin", "round")           # --below missing
    usage_error("spectrum", "--builtin", "round", "--below", "-3")
    usage_error("spectrum", "--builtin", "round", "--below", "7",
                "--tol", "1e-15")


def test_spectrum_budget_names_the_given_basis_cap(capsys):
    code, out, err = run(capsys, "spectrum", "--builtin", "round",
                         "--below", "200", "--basis-cap", "256")
    assert code == EXIT_FAILURE
    assert out == ""
    assert err == ("solver failure: cutoff 200 needs 200 eigenvalues in one "
                   "channel; the basis cap 256 supports at most 128\n")


def test_a_cutoff_whose_budget_overflows_exits_1_with_one_line(capsys):
    # trace0 > 1 on this profile, so cutoff times trace0 is inf
    code, out, err = run(capsys, "spectrum", "--expr", "(1-x^2)*(1-0.5*(1-x^2))",
                         "--below", "1.7e308")
    assert code == EXIT_FAILURE
    assert out == ""
    assert err == ("solver failure: cutoff 1.7e+308 needs inf eigenvalues in "
                   "one channel; the basis cap 1024 supports at most 512\n")


def test_a_huge_budget_is_printed_readably(capsys):
    code, out, err = run(capsys, "spectrum", "--builtin", "round", "--below", "1e300")
    assert code == EXIT_FAILURE
    assert out == ""
    assert err == ("solver failure: cutoff 1e+300 needs 1e+300 eigenvalues in "
                   "one channel; the basis cap 1024 supports at most 512\n")


def test_unwritable_output_exits_1_with_one_line(tmp_path, capsys):
    code, _, err = run(capsys, "spectrum", "--builtin", "round", "--below",
                       "3", "--out", str(tmp_path / "missing" / "t"))
    assert code == EXIT_FAILURE
    assert err.startswith("i/o failure: ")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------

def test_mesh_writes_obj_and_sidecar(tmp_path, capsys):
    out = tmp_path / "ball.obj"
    code, stdout, _ = run(capsys, "mesh", "--builtin", "round",
                          "--out", str(out),
                          "--n-theta", "16", "--n-samples", "64")
    assert code == EXIT_OK
    assert "induced-metric residual sup" in stdout
    assert out.read_bytes().startswith(b"v ")
    side = json.loads(out.with_suffix(".json").read_text())
    assert side["mesh"]["euler_characteristic"] == 2
    assert side["mesh"]["vertices"] == 16 * 62 + 2
    assert side["mesh"]["area"] == pytest.approx(4 * np.pi, rel=2e-2)
    assert side["meridian_length"] == pytest.approx(np.pi, abs=1e-9)
    assert side["induced_metric_residual"]["sup"] < 1e-5


def test_mesh_streams_the_obj_blocks_to_its_file(tmp_path, capsys, monkeypatch):
    written = []

    def write_blocks(path, blocks):
        for block in blocks:
            written.append(block)
        Path(path).write_bytes(b"".join(written))

    monkeypatch.setattr(cli, "write_blocks", write_blocks)
    out = tmp_path / "ball.obj"
    code, _, _ = run(capsys, "mesh", "--builtin", "round", "--out", str(out),
                     "--n-theta", "16", "--n-samples", "128")
    assert code == EXIT_OK
    # 16 * 126 + 2 vertices and 2 * 16 * 126 faces: 2 + 4 blocks of 1024 rows
    assert len(written) == 6
    mesh = make_mesh(embed_profile_curve(builtin_profile("round"), n_samples=128),
                     n_theta=16)
    assert out.read_bytes() == export_obj(mesh)


def test_mesh_refuses_the_pinched_profile(tmp_path, capsys):
    out = tmp_path / "pinch.obj"
    code, _, err = run(capsys, "mesh", "--builtin", "paper-example",
                       "--out", str(out))
    assert code == EXIT_NOT_EMBEDDABLE
    assert "cannot mesh" in err
    assert not out.exists()


def test_mesh_output_is_deterministic(tmp_path, capsys):
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag / "m.obj"
        out.parent.mkdir()
        assert run(capsys, "mesh", "--builtin", "round", "--out", str(out),
                   "--n-theta", "16", "--n-samples", "32")[0] == EXIT_OK
        blobs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("argv, code, prefix, names", [
    # f' is about 1e300 inside: the slope test refuses it before any curve
    # sample is squared
    (["mesh", "--expr=(1-x^2)*(1+1e300*x^2*(1-x^2)^2)"], EXIT_NOT_EMBEDDABLE,
     "cannot mesh: ", ("max|f'| = 2 + ",)),
    # f'' is +-inf on the Gauss-Bonnet quadrature nodes
    (["analyze", "--expr=(1-x^2)*(1+1e-300*sin(1e300*x)*(1-x^2)^2)"],
     EXIT_FAILURE, "numerical failure: ",
     ("Gauss-Bonnet integrand f''", "expression profile 'command-line'")),
], ids=["mesh", "analyze"])
def test_overflowing_derivatives_end_in_one_line(tmp_path, capsys, argv, code,
                                                 prefix, names):
    if argv[0] == "mesh":
        argv = argv + ["--out", str(tmp_path / "m.obj")]
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith(prefix) and err.count("\n") == 1
    assert all(name in err for name in names)


@pytest.mark.parametrize("source", [
    ["--builtin", "round"],
    ["--expr", "(1 - x^2) * (1 + 0.3*(1 - x^2))"],
    ["--builtin", "paper-example"],
    # |f'| exceeds 2 by 8.5e-9 and 5.3e-8, just inside each pole
    ["--expr", "(1 - x^2) * (1 + 0.25004*(1 - x^2))"],
    ["--expr", "(1 - x^2) * (1 + 0.2501*(1 - x^2))"],
], ids=["round", "bump", "paper-example", "c=0.25004", "c=0.2501"])
def test_analyze_and_mesh_decide_embeddability_alike(tmp_path, capsys, source):
    analyzed = run(capsys, "analyze", *source)[0]
    meshed = run(capsys, "mesh", *source, "--out", str(tmp_path / "m.obj"))[0]
    assert analyzed == meshed
    assert analyzed in (EXIT_OK, EXIT_NOT_EMBEDDABLE)
    assert (analyzed == EXIT_OK) == (source == ["--builtin", "round"])


def test_mesh_usage_errors():
    usage_error("mesh", "--builtin", "round")               # --out missing
    usage_error("mesh", "--builtin", "round", "--out", "x.obj",
                "--n-theta", "4")
    usage_error("mesh", "--builtin", "round", "--out", "x.obj",
                "--n-samples", "8")


@pytest.mark.parametrize("flag, smallest, largest", [("--n-theta", 8, 1024),
                                                     ("--n-samples", 16, 8192)])
def test_mesh_sizes_are_bounded(flag, smallest, largest, capsys):
    # parsed only: an out-of-range size is refused before any mesh is built
    argv = ["mesh", "--builtin", "round", "--out", "x.obj", flag]
    args = cli.build_parser().parse_args(argv + [str(largest)])
    assert getattr(args, flag[2:].replace("-", "_")) == largest
    for value in (str(largest + 1), "100000000000000"):
        usage_error(*argv, value)
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"revspec mesh: error: argument {flag}: {value} is outside "
            f"[{smallest}, {largest + 1})")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_round_and_pinch_rows(capsys):
    code, out, _ = run(capsys, "sweep", "--eps", "0,9", "--n", "18")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("eps,n,exponent,c,max_slope,lambda01,")
    assert len(lines) == 3
    r0 = lines[1].split(",")
    assert (r0[0], r0[1], r0[2], r0[3]) == ("0", "18", "36", "1")
    assert float(r0[4]) == pytest.approx(2.0, abs=1e-9)
    assert r0[6] == "3;5;7;9"
    assert (r0[7], r0[8]) == ("embeddable", "undetermined_by_spectral_tests")
    r9 = lines[2].split(",")
    assert r9[3] == "10"
    assert float(r9[4]) == pytest.approx(26.0917, rel=1e-4)
    assert float(r9[5]) == pytest.approx(19.5847, rel=1e-4)
    assert r9[6] == "2;2;2;2"
    assert (r9[7], r9[8]) == ("not_embeddable", "not_embeddable")
    assert r9[9] == ""


def test_sweep_reports_sharp_pinches(capsys):
    code, out, _ = run(capsys, "sweep", "--eps", "300,1000", "--n", "18")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["300", "1000"]
    for r in rows:
        assert r[6] == "2;2;2;2"
        assert (r[8], r[9]) == ("not_embeddable", "")


def test_sweep_where_the_multiplicities_turn_even_has_no_error(capsys):
    code, out, _ = run(capsys, "sweep", "--eps", "3.023191452026367",
                       "--n", "18")
    assert code == EXIT_OK
    row = out.splitlines()[1].split(",")
    assert row[6] == "2;2;2;2"
    assert row[9] == ""


def test_sweep_captures_per_row_failures(capsys, monkeypatch):
    def explode(p):
        raise SolverError("synthetic failure, for the error column")
    monkeypatch.setattr(cli, "full_report", explode)
    code, out, _ = run(capsys, "sweep", "--eps", "0", "--n", "4")
    assert code == EXIT_OK
    row = out.splitlines()[1]
    assert row.endswith("synthetic failure; for the error column")
    assert row.count(",") == 9  # column count preserved


def test_sweep_overflow_is_an_error_column_not_a_warning(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "sweep", "--eps", "1e300", "--n", "2")
    assert code == EXIT_OK
    assert out == (
        "eps,n,exponent,c,max_slope,lambda01,multiplicities,verdict,"
        "spectral_verdict,error\n"
        "1.0000000000000001e+300,2,4,1.0000000000000001e+300,,,,,,"
        "squeeze_profile: profile validation failed (f'(-1); f'(+1))\n")
    assert err == ""
    assert [str(w.message) for w in caught] == []


def test_sweep_usage_errors():
    usage_error("sweep", "--eps", "0,banana")
    usage_error("sweep", "--eps", "-1")
    usage_error("sweep", "--n", "0")
    usage_error("sweep", "--cluster-tol", "1e-6")


# ---------------------------------------------------------------------------
# profile files
# ---------------------------------------------------------------------------

def test_profile_file_expression_kind(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(
        {"kind": "expression", "expr": "1 - x^2", "name": "file-round"}))
    code, out, _ = run(capsys, "analyze", "--profile", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["profile"]["name"] == "file-round"


def test_profile_file_samples_kind(tmp_path, capsys):
    xs = np.linspace(-1.0, 1.0, 41)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(
        {"kind": "samples", "x": list(xs), "f": list(1 - xs ** 2)}))
    code, out, _ = run(capsys, "analyze", "--profile", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["obstructions"]["verdict"] == "embeddable"


def test_profile_file_arclength_kind(tmp_path, capsys):
    # half-scale round sphere: normalized by the homothety factor 2, after
    # which the spectrum is exactly the round one
    path = tmp_path / "a.json"
    path.write_text(json.dumps(
        {"kind": "arclength-expression", "a": "0.5*sin(2*s)",
         "length": np.pi / 2}))
    code, out, err = run(capsys, "analyze", "--profile", str(path))
    assert code == EXIT_OK
    assert "area normalized by homothety factor" in err
    factor = float(err.split("homothety factor ")[1].split(";")[0])
    assert factor == pytest.approx(2.0, rel=1e-12)
    doc = json.loads(out)
    assert doc["obstructions"]["spectral_test"]["lambda01"] == \
        pytest.approx(2.0, abs=1e-6)


_KINKED_ARCLENGTH = {"kind": "arclength-expression",
                     "a": "sin(s)*(1 + 0.1*sin(s)^2*sqrt((s - 1.3)^2))",
                     "length": np.pi}


def test_arclength_input_without_a_chebyshev_plateau_exits_3(tmp_path, capsys):
    # |s - 1.3| puts a kink in a: its transform has no Chebyshev plateau
    path = tmp_path / "kinked.json"
    path.write_text(json.dumps(_KINKED_ARCLENGTH))
    code, out, err = run(capsys, "analyze", "--profile", str(path))
    assert code == EXIT_INVALID_PROFILE
    assert out == ""
    lines = [line for line in err.splitlines() if not line.startswith("note: ")]
    assert lines == [f"profile error: {path}: transformed profile does not "
                     f"resolve: its Chebyshev series reaches no noise plateau "
                     f"by degree {PROXY_MAX_DEGREE}"]


@pytest.mark.parametrize("source", ["builtin", "arclength"])
def test_analyze_integrates_the_channel_0_trace_once(tmp_path, capsys,
                                                     monkeypatch, source):
    """``full_report`` and the bounds both read the channel-0 trace; the
    integral runs once per profile."""
    calls = []
    integral = revspec.profile._trace0_integral

    def spy(p):
        calls.append(p)
        return integral(p)
    monkeypatch.setattr(revspec.profile, "_trace0_integral", spy)
    if source == "builtin":
        argv = ["--builtin", "round"]
    else:
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"kind": "arclength-expression",
                                    "a": "sin(s) + 0.05*sin(s)^3",
                                    "length": np.pi}))
        argv = ["--profile", str(path)]
    code, out, _ = run(capsys, "analyze", *argv)
    assert code == EXIT_OK
    assert len(calls) == 1
    assert json.loads(out)["bounds"]["trace0_integral"] == \
        calls[0]._trace0


def _imports(node, in_function=False):
    """(module, in a function body) for every absolute import under
    ``node``; ``from m import n`` counts as ``m.n``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield from ((alias.name, in_function) for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and not child.level:
            yield from ((f"{child.module}.{alias.name}", in_function)
                        for alias in child.names)
        yield from _imports(child, in_function or isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def test_no_module_imports_scipy_and_none_loads_numpy_polynomial():
    # a static scan, beside the run-time checks of single commands: scipy
    # is a test dependency only, and numpy.polynomial (3-6 ms of every cold
    # command) is imported only inside the function that needs it
    modules = sorted((ROOT / "src" / "revspec").rglob("*.py"))
    assert modules
    for path in modules:
        for name, in_function in _imports(ast.parse(path.read_text(encoding="utf-8"))):
            assert name.split(".")[0] != "scipy", (path.name, name)
            assert in_function or not name.startswith("numpy.polynomial"), (path.name, name)


def test_only_serialize_writes_json():
    # one JSON writer, so every document passes its allow_nan=False backstop
    writers = ("json.dump", "json.dumps")
    for path in sorted((ROOT / "src" / "revspec").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)]
        imported = [name for name, _ in _imports(tree)]
        used = [name for name in calls + imported if name in writers]
        if path.name == "serialize.py":
            assert used == ["json.dumps"]
        else:
            assert not used, (path.name, used)


def test_only_profile_asks_a_profile_its_kind():
    # how a profile's extremes are found follows its kind, so the kind is
    # read behind one module, and the verdicts sample no grid of their own
    def asks_kind(node):
        if isinstance(node, ast.Compare):
            return any(isinstance(n, ast.Attribute) and n.attr == "source"
                       for n in (node.left, *node.comparators))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "type") and node.args):
            arg = node.args[0]
            return (isinstance(arg, ast.Attribute) and arg.attr == "form"
                    or isinstance(arg, ast.Name) and arg.id == "form")
        return False

    for path in sorted((ROOT / "src" / "revspec").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        asks = [node.lineno for node in ast.walk(tree) if asks_kind(node)]
        assert bool(asks) == (path.name == "profile.py"), (path.name, asks)
        if path.name == "obstruction.py":
            names = {node.attr if isinstance(node, ast.Attribute) else node.id
                     for node in ast.walk(tree)
                     if isinstance(node, (ast.Attribute, ast.Name))}
            sampling = {"linspace", "arange", "geomspace", "logspace", "meshgrid",
                        "validation_grid", "_GRID", "_refine_max"}
            assert not names & sampling, sorted(names & sampling)


def test_arclength_analysis_and_expression_meshes_load_no_scipy(tmp_path):
    # a fresh interpreter per run, as for the spectrum test above
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"kind": "arclength-expression",
                                "a": "0.5*sin(2*s)", "length": np.pi / 2}))
    xs = np.linspace(-1.0, 1.0, 41)
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps(
        {"kind": "samples", "x": list(xs), "f": list(1 - xs ** 2)}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for argv in (["analyze", "--profile", str(path)],
                 ["mesh", "--builtin", "round", "--out", str(tmp_path / "r.obj")],
                 ["analyze", "--profile", str(samples)],
                 ["mesh", "--profile", str(samples), "--out", str(tmp_path / "s.obj")]):
        script = ("import sys\n"
                  "from revspec.cli import main\n"
                  f"code = main({argv!r})\n"
                  "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
                  "sys.stderr.write(repr((code, loaded)))\n")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.stderr.splitlines()[-1] == "(0, [])", (argv, proc.stderr)


@pytest.mark.parametrize("payload,snippet", [
    ({"kind": "expression"}, "missing"),
    ({"kind": "samples", "x": [0.0], "f": [1.0, 2.0]}, "lengths differ"),
    ({"kind": "mystery"}, "unknown kind"),
    ([1, 2, 3], "object"),
    # an expression error while loading is a profile error, not a run failure
    ({"kind": "arclength-expression", "a": "sqrt(s - 0.5)", "length": 1},
     "sqrt of negative argument"),
    ({"kind": "samples", "x": [0.0, "a"], "f": [1.0, 2.0]}, "could not convert"),
])
def test_profile_file_rejections(tmp_path, capsys, payload, snippet):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "analyze", "--profile", str(path))
    assert code == EXIT_INVALID_PROFILE
    assert snippet in err


def _spike_file(tmp_path, value, at=20, axis="f"):
    """40 uniform samples of f = 0, with ``value`` as sample ``at`` of
    ``axis``; Python's JSON writes and reads NaN and Infinity."""
    xs, fs = list(np.linspace(-1.0, 1.0, 40)), [0.0] * 40
    (xs if axis == "x" else fs)[at] = value
    path = tmp_path / "spike.json"
    path.write_text(json.dumps({"kind": "samples", "x": xs, "f": fs}))
    return str(path)


@pytest.mark.parametrize("value,at,axis,message", [
    (float("nan"), 5, "x", "sample 5: x = nan is not finite"),
    (float("inf"), 20, "f", "sample 20: f = inf is not finite"),
    (float("nan"), 20, "f", "sample 20: f = nan is not finite"),
    (1e308, 20, "f", "samples too large: the spline's slope at sample 0 "
                     "(x = -1.0) is not finite"),
])
def test_non_finite_samples_are_one_profile_error(tmp_path, capsys, value, at,
                                                 axis, message):
    code, _, err = run(capsys, "analyze", "--profile",
                       _spike_file(tmp_path, value, at, axis))
    assert code == EXIT_INVALID_PROFILE
    assert err.splitlines() == [f"profile error: {message}"]


def test_a_large_finite_spike_fails_validation(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", "--profile", _spike_file(tmp_path, 1e200))
    assert code == EXIT_INVALID_PROFILE
    assert len(err.splitlines()) == 1
    assert err.startswith("validation failed: ")


def test_profile_file_nested_too_deeply_for_the_json_decoder(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run(capsys, "analyze", "--profile", str(path))
    assert code == EXIT_INVALID_PROFILE
    assert "is not valid JSON" in err


def test_profile_file_missing(capsys):
    code, _, err = run(capsys, "analyze", "--profile", "/nonexistent/x.json")
    assert code == EXIT_INVALID_PROFILE
    assert "cannot read" in err


# ---------------------------------------------------------------------------
# source selection
# ---------------------------------------------------------------------------

def test_profile_source_usage_errors():
    usage_error("analyze")                                   # no source
    usage_error("analyze", "--builtin", "banana")
    usage_error("analyze", "--builtin", "round", "--expr", "1 - x^2")
    usage_error("analyze", "--builtin", "round", "--cluster-tol", "1e-6")
    usage_error("nonsense")


# ---------------------------------------------------------------------------
# flags and exit codes
# ---------------------------------------------------------------------------

def test_each_command_lists_only_the_flags_it_reads(capsys):
    listed = {}
    for command in ("analyze", "spectrum", "mesh", "sweep", "verify"):
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--help"])
        assert exc_info.value.code == 0
        listed[command] = set(re.findall(r"--[a-z][a-z-]*",
                                         capsys.readouterr().out)) - {"--help"}
    source = {"--builtin", "--expr", "--profile"}
    assert listed == {
        "analyze": source | {"--out"},
        "spectrum": source | {"--tol", "--basis-cap", "--out", "--format",
                              "--below"},
        "mesh": source | {"--out", "--n-theta", "--n-samples"},
        "sweep": {"--out", "--eps", "--n"},
        "verify": {"--tol", "--basis-cap"},
    }
    assert sum(len(flags) for flags in listed.values()) == 23


@pytest.mark.parametrize("argv", [
    ("analyze", "--builtin", "round", "--tol", "1e-8"),
    ("analyze", "--builtin", "round", "--basis-cap", "1024"),
    ("analyze", "--builtin", "round", "--format", "json"),
    ("mesh", "--builtin", "round", "--out", "x.obj", "--tol", "1e-8"),
    ("mesh", "--builtin", "round", "--out", "x.obj", "--basis-cap", "1024"),
    ("mesh", "--builtin", "round", "--out", "x.obj", "--cluster-tol", "1e-6"),
    ("mesh", "--builtin", "round", "--out", "x.obj", "--format", "json"),
    ("spectrum", "--builtin", "round", "--below", "3", "--cluster-tol", "0.5"),
    ("sweep", "--tol", "1e-8"),
    ("sweep", "--basis-cap", "1024"),
    ("sweep", "--format", "csv"),
    ("verify", "--cluster-tol", "1e-6"),
    ("verify", "--format", "json"),
    ("verify", "--out", "x"),
    ("verify", "--quad-mult", "4"),
])
def test_flags_a_command_does_not_read_are_usage_errors(argv):
    usage_error(*argv)


@pytest.mark.parametrize("argv", [
    ("spectrum", "--builtin", "round", "--below", "3", "--tol", "1e-3"),
    ("spectrum", "--builtin", "round", "--below", "3", "--tol", "0.5"),
    ("spectrum", "--builtin", "round", "--below", "inf"),
    ("spectrum", "--builtin", "round", "--below", "3", "--basis-cap", "16"),
    ("sweep", "--eps", "inf"),
    ("verify", "--tol", "nan"),
    ("verify", "--tol", "0.5"),
])
def test_values_the_library_would_refuse_are_usage_errors(argv):
    usage_error(*argv)


def _exit_code_table(text):
    start = text.index("Exit codes\n")
    return text[start:text.index("\n\n", start)]


def test_docstring_and_readme_state_one_exit_code_table():
    table = _exit_code_table(cli.__doc__)
    assert table in README.read_text(encoding="utf-8")
    codes = {int(row.split()[0]) for row in table.splitlines()[1:]}
    assert codes == DOCUMENTED_CODES


@pytest.mark.parametrize("exc,prefix", [
    (SolverError("eigensolve broke"), "solver failure"),
    (ConvergenceError("estimates stalled", None), "solver failure"),
    (BudgetError("cutoff too high"), "solver failure"),
    (QuadratureError("integral stalled"), "numerical failure"),
    (EvalDomainError("division by zero", "1/x"), "numerical failure"),
    (SpectrumInvariantError("parity law broken\nand more"), "invariant failure"),
    (OSError("disk full"), "i/o failure"),
])
def test_run_failures_exit_1_with_one_line(capsys, monkeypatch, exc, prefix):
    def explode(p):
        raise exc
    monkeypatch.setattr(cli, "full_report", explode)
    code, out, err = run(capsys, "analyze", "--builtin", "round")
    assert code == EXIT_FAILURE
    assert out == ""
    assert err.startswith(prefix + ": ")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# fuzzing: any text or profile file ends in a documented exit code
# ---------------------------------------------------------------------------

_FRAGMENTS = ["x", "s", "1", "2", "0.5", "1e308", "1e200", "0*", "-", "+",
              "*", "/", "^", "(", ")", "sqrt(", "log(", "exp(", "sin(",
              "cos(", " ", ".", "e", "x^2", "1 - x^2", "(1 - x^2)", "sin(s)",
              ","]
_TEXT = st.lists(st.sampled_from(_FRAGMENTS), max_size=10).map("".join) \
    | st.text(max_size=10)
_NUMBER = st.floats() | st.integers()
_VALUE = _NUMBER | _TEXT | st.none() | st.booleans() \
    | st.lists(_NUMBER, max_size=3)
_NAME = st.fixed_dictionaries({}, optional={"name": _VALUE})


@st.composite
def _samples(draw):
    n = draw(st.integers(min_value=12, max_value=40))
    xs = np.linspace(-1.0, 1.0, n)
    c = draw(st.floats(min_value=-1.0, max_value=1.0))
    fs = list((1 - xs ** 2) * (1 + c * (1 - xs ** 2)))
    xs = list(xs)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        target = draw(st.sampled_from([xs, fs]))
        target[draw(st.integers(0, n - 1))] = draw(_VALUE)
    return {"kind": "samples", "x": xs, "f": fs}


_PROFILE_JSON = st.one_of(
    st.fixed_dictionaries({"kind": st.just("expression"), "expr": _TEXT}),
    _samples(),
    st.fixed_dictionaries({"kind": st.just("arclength-expression"),
                           "a": _TEXT.map(lambda t: t.replace("x", "s")),
                           "length": _NUMBER | st.just(np.pi)}),
    st.dictionaries(st.sampled_from(["kind", "expr", "x", "f", "a", "length"]),
                    _VALUE, max_size=3),
    _VALUE,
)


_PREFIXES = tuple(prefix + ": " for _, prefix, _ in cli._FAILURES)


def _documented_exit(argv):
    """Run ``argv``: it must end in a documented exit code, never a
    traceback or a ``RuntimeWarning``, and a failure in one line on stderr
    (after any note on the area normalization), a usage error in the
    parser's last line."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = err.getvalue()
    assert code in DOCUMENTED_CODES, (argv, code, text)
    assert "Traceback" not in text, (argv, text)
    runtime = [str(w.message) for w in caught
               if issubclass(w.category, RuntimeWarning)]
    assert not runtime, (argv, runtime)
    lines = [line for line in text.splitlines() if not line.startswith("note: ")]
    if code == EXIT_USAGE:
        assert re.match(r"revspec \w+: error: ", lines[-1]), (argv, text)
    elif code in (EXIT_FAILURE, EXIT_INVALID_PROFILE):
        assert len(lines) == 1 and lines[0].startswith(_PREFIXES), (argv, text)
    else:
        assert len(lines) <= 1, (argv, text)


def _profile_file(tmp_path_factory, payload, extra) -> str:
    if isinstance(payload, dict):
        payload = {**payload, **extra}
    path = tmp_path_factory.getbasetemp() / "fuzz-profile.json"
    path.write_text(json.dumps(payload))
    return str(path)


@settings(max_examples=60)
@given(text=_TEXT)
def test_fuzz_expression_text(text):
    _documented_exit(["spectrum", "--below", "3", f"--expr={text}"])


@settings(max_examples=60)
@given(payload=_PROFILE_JSON, extra=_NAME)
def test_fuzz_profile_files(tmp_path_factory, payload, extra):
    path = _profile_file(tmp_path_factory, payload, extra)
    _documented_exit(["spectrum", "--below", "3", "--profile", path])


def _command(tmp_path_factory, command: str) -> list[str]:
    if command == "mesh":
        return ["mesh", "--out", str(tmp_path_factory.getbasetemp() / "fuzz.obj")]
    return [command]


@pytest.mark.parametrize("command", ["analyze", "mesh"])
@settings(max_examples=60)
@given(text=_TEXT)
@example(text="1 - x^2")
@example(text="(1 - x^2)*(1 + 0.3*(1 - x^2))")
@example(text="(1 - x^2)*(1 + 0*(1e200*x)^2)")
@example(text="(1 - x^2)*(1 + 0*(1e200)^2)")
@example(text="(1-x^2)*(1+1e300*x^2*(1-x^2)^2)")
@example(text="(1-x^2)*(1+1e-300*sin(1e300*x)*(1-x^2)^2)")
@example(text=NAN_SLOPE)
def test_fuzz_expression_text_through_every_command(tmp_path_factory, command,
                                                    text):
    _documented_exit(_command(tmp_path_factory, command) + [f"--expr={text}"])


@pytest.mark.parametrize("command", ["analyze", "mesh"])
@settings(max_examples=60)
@given(payload=_PROFILE_JSON, extra=_NAME)
@example(payload={"kind": "samples", "x": list(np.linspace(-1.0, 1.0, 40)),
                  "f": [0.0] * 20 + [1e308] + [0.0] * 19}, extra={})
def test_fuzz_profile_files_through_every_command(tmp_path_factory, command,
                                                  payload, extra):
    path = _profile_file(tmp_path_factory, payload, extra)
    _documented_exit(_command(tmp_path_factory, command) + ["--profile", path])


@settings(max_examples=60)
@given(eps=_TEXT, n=_TEXT)
@example(eps="0,0.5,1e308", n="1,2")
@example(eps="1e200", n="2e1")
def test_fuzz_sweep_lists(eps, n):
    """Each list against a cheap partner: ``n = 1`` keeps every member's
    pinch wide, and ``eps = 0`` makes every member the round sphere."""
    _documented_exit(["sweep", f"--eps={eps}", "--n=1"])
    _documented_exit(["sweep", "--eps=0", f"--n={n}"])
