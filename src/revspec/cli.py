"""Command-line front end: profiles in, reports/tables/meshes out.

Commands
    analyze    validate a profile, run every embeddability test, emit JSON
    spectrum   enumerate all eigenvalues below a cutoff (CSV + JSON)
    mesh       export the embedded surface of revolution as OBJ + sidecar JSON
    sweep      scan the pinch family c(1-x^2)/(1 + eps*x^(2n)) into a CSV table
    verify     recompute the pinned reference constants and report pass/fail

Profile sources (exactly one): ``--builtin round|paper-example``,
``--expr "10*(1-x^2)/(1+9*x^36)"``, or ``--profile FILE`` where FILE is JSON
of one of three kinds:

    {"kind": "expression", "expr": "1 - x^2", "name": "..."}
    {"kind": "samples", "x": [...], "f": [...], "name": "..."}
    {"kind": "arclength-expression", "a": "sin(s)", "length": 3.14159...}

The arclength kind is rescaled to total area 4*pi and transformed into
momentum coordinates before use (its reported eigenvalues refer to the
normalized metric; the applied scale factor is printed).  An arclength
input whose transform reaches no Chebyshev noise plateau by degree 2048
(``profile.PROXY_MAX_DEGREE``) is a profile error, exit 3.

Exit codes
    0   success; for analyze, the profile is embeddable
    1   run failure: solver, budget, numerical, I/O or internal invariant
    2   not embeddable: the analyze verdict, or mesh refused by |f'| > 2
    3   invalid or unreadable profile
    4   verify: a check failed
    64  usage error

Every failure ends with one line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .exprs import ExprError, EvalDomainError, differentiate, evaluate, parse
from .families import BUILTIN_EXPRESSIONS, builtin_profile, squeeze_profile
from .profile import (ArclengthProfile, InvalidProfileError, Profile,
                      ProfileDefinitionError, ProxyResolutionError,
                      gauss_bonnet_residual,
                      make_profile, momentum_transform, normalize_area,
                      profile_from_text, require_valid, validate)
from .quadrature import QuadratureError
from .obstruction import full_report
from .embed import (NotEmbeddableError, _obj_blocks, embed_profile_curve,
                    euler_characteristic, induced_metric_residual, make_mesh,
                    mesh_area)
from .solver import (CLUSTER_TOL, REFINE_CAP, REFINE_START, TARGET_REL_ERR,
                     SolverError, rayleigh_quotient, refine)
from .spectrum import (BudgetError, SpectrumInvariantError, bounds_report,
                       channel_lower_bound, enumerate_below,
                       lambda01_upper_bound)
from .serialize import fmt17, json_text, write_blocks, write_text

__all__ = ["main", "build_parser", "load_profile"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_NOT_EMBEDDABLE = 2
EXIT_INVALID_PROFILE = 3
EXIT_VERIFY_FAILED = 4
EXIT_USAGE = 64

# Every failure a command can end in, first match wins: the exception
# types, the prefix of the one stderr line, the exit code.
_FAILURES = (
    ((InvalidProfileError,), "validation failed", EXIT_INVALID_PROFILE),
    ((ProfileDefinitionError,), "profile error", EXIT_INVALID_PROFILE),
    ((NotEmbeddableError,), "cannot mesh", EXIT_NOT_EMBEDDABLE),
    ((SolverError, BudgetError), "solver failure", EXIT_FAILURE),
    ((QuadratureError, EvalDomainError), "numerical failure", EXIT_FAILURE),
    ((SpectrumInvariantError,), "invariant failure", EXIT_FAILURE),
    ((OSError,), "i/o failure", EXIT_FAILURE),
)
_FAILURE_TYPES = sum((types for types, _, _ in _FAILURES), ())


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with the dedicated code.

    The default argparse exit status (2) is taken here by the
    "not embeddable" verdict, so usage problems get the sysexits-style 64.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _number(kind, low, high=math.inf, low_open=False):
    """argparse type: a ``kind`` in ``[low, high)``, or ``(low, high)``."""
    def convert(text: str):
        value = kind(text)
        if not (low < value if low_open else low <= value) or not value < high:
            raise argparse.ArgumentTypeError(
                f"{text} is outside {'(' if low_open else '['}{low:g}, {high:g})")
        return value
    convert.__name__ = kind.__name__  # argparse names it in its error
    return convert


def _numbers(kind, low):
    """argparse type: comma-separated ``kind`` values, each at least ``low``."""
    one = _number(kind, low)

    def numbers(text: str):
        return [one(item) for item in text.split(",")]
    numbers.__name__ = f"comma-separated {kind.__name__}"
    return numbers


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="revspec",
                     description="spectra, embeddability verdicts, and "
                                 "surfaces of revolution for rotation-"
                                 "invariant sphere metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(sp):
        grp = sp.add_mutually_exclusive_group(required=True)
        grp.add_argument("--builtin", choices=sorted(BUILTIN_EXPRESSIONS))
        grp.add_argument("--expr", metavar="TEXT",
                         help="profile as an expression in x")
        grp.add_argument("--profile", metavar="FILE", dest="profile_path",
                         help="profile description JSON file")

    def add_solver(sp):
        sp.add_argument("--tol", type=_number(float, 1e-12), default=TARGET_REL_ERR,
                        help="relative eigenvalue tolerance (default %(default)s)")
        sp.add_argument("--basis-cap", type=_number(int, REFINE_START),
                        default=REFINE_CAP,
                        help="largest Galerkin basis size (default %(default)s)")

    def add_cluster_tol(sp):
        sp.add_argument("--cluster-tol", type=_number(float, 0, 1e-2, True),
                        default=CLUSTER_TOL,
                        help="relative gap merging eigenvalues across channels "
                             "(default %(default)s)")

    sp = sub.add_parser("analyze", help="validation, bounds, embeddability report")
    sp.set_defaults(run=cmd_analyze)
    add_source(sp)
    add_cluster_tol(sp)
    sp.add_argument("--out", metavar="PATH", help="output path")

    sp = sub.add_parser("spectrum", help="all eigenvalues below a cutoff")
    sp.set_defaults(run=cmd_spectrum)
    add_source(sp)
    add_solver(sp)
    add_cluster_tol(sp)
    sp.add_argument("--below", type=_number(float, 0, low_open=True),
                    required=True, metavar="LAMBDA",
                    help="enumerate the spectrum in (0, LAMBDA]")
    sp.add_argument("--out", metavar="PATH",
                    help="output base path: PATH.json and PATH.csv")
    sp.add_argument("--format", choices=("json", "csv"), default="json",
                    dest="fmt", help="stdout format (default %(default)s)")

    sp = sub.add_parser("mesh", help="OBJ surface of revolution")
    sp.set_defaults(run=cmd_mesh)
    add_source(sp)
    sp.add_argument("--out", metavar="PATH", required=True,
                    help="OBJ path; the sidecar JSON goes next to it")
    # the upper bounds cap a mesh at 1024 * 8192 vertices, so an oversized
    # request is a usage error rather than a failed allocation
    sp.add_argument("--n-theta", type=_number(int, 8, 1024 + 1), default=64,
                    help="vertices per ring, 8 to 1024 (default %(default)s)")
    sp.add_argument("--n-samples", type=_number(int, 16, 8192 + 1), default=256,
                    help="meridian samples, 16 to 8192 (default %(default)s)")

    sp = sub.add_parser("sweep", help="scan the pinch family into a CSV")
    sp.set_defaults(run=cmd_sweep)
    add_cluster_tol(sp)
    sp.add_argument("--out", metavar="PATH", help="output path (.csv)")
    sp.add_argument("--eps", type=_numbers(float, 0), default="0,0.5,1,2,4,9",
                    metavar="LIST",
                    help="comma-separated pinch strengths (default %(default)s)")
    sp.add_argument("--n", type=_numbers(int, 1), default="18", metavar="LIST",
                    help="comma-separated half-exponents; the profile "
                         "exponent is 2n (default %(default)s)")

    sp = sub.add_parser("verify", help="recompute the pinned reference constants")
    sp.set_defaults(run=cmd_verify)
    add_solver(sp)
    return parser


# ---------------------------------------------------------------------------
# profile loading
# ---------------------------------------------------------------------------

def _profile_from_file(path: str) -> Profile:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ProfileDefinitionError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ProfileDefinitionError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProfileDefinitionError(f"{path}: top level must be an object")
    kind = payload.get("kind")
    name = str(payload.get("name", Path(path).stem))
    if kind == "expression":
        if "expr" not in payload:
            raise ProfileDefinitionError(f"{path}: missing \"expr\"")
        return profile_from_text(str(payload["expr"]), name=name)
    if kind == "samples":
        xs, fs = payload.get("x"), payload.get("f")
        if not (isinstance(xs, list) and isinstance(fs, list)):
            raise ProfileDefinitionError(f"{path}: need \"x\" and \"f\" arrays")
        if len(xs) != len(fs):
            raise ProfileDefinitionError(f"{path}: x and f lengths differ")
        return make_profile(list(zip(xs, fs)), name=name)
    if kind == "arclength-expression":
        return _profile_from_arclength(payload, path, name)
    raise ProfileDefinitionError(
        f"{path}: unknown kind {kind!r} (expected expression, samples, or "
        f"arclength-expression)")


def _profile_from_arclength(payload: dict, path: str, name: str) -> Profile:
    if "a" not in payload or "length" not in payload:
        raise ProfileDefinitionError(f"{path}: need \"a\" expression and \"length\"")
    length = float(payload["length"])
    if not (length > 0 and np.isfinite(length)):
        raise ProfileDefinitionError(f"{path}: length must be positive")
    a_expr = parse(str(payload["a"]), var="s")
    da_expr = differentiate(a_expr)
    ap = ArclengthProfile(
        a=lambda s: evaluate(a_expr, s),
        da=lambda s: evaluate(da_expr, s),
        length=length, source="expression")
    normalized = normalize_area(ap)
    if abs(normalized.scale_factor - 1.0) > 1e-12:
        print(f"note: area normalized by homothety factor "
              f"{fmt17(normalized.scale_factor)}; eigenvalues refer to the "
              f"normalized metric", file=sys.stderr)
    try:
        p = momentum_transform(normalized)
    except ProxyResolutionError as exc:
        raise ProxyResolutionError(f"{path}: {exc}") from exc
    return dataclasses.replace(p, name=name)


def load_profile(args: argparse.Namespace) -> Profile:
    """The validated profile named by ``--builtin``, ``--expr`` or ``--profile``.

    Raises :class:`ProfileDefinitionError` when the source defines no
    profile, whatever the cause (bad expression text, or file values that
    numpy and scipy cannot use as numbers), and :class:`InvalidProfileError`
    when the profile fails validation.
    """
    try:
        if args.builtin is not None:
            p = builtin_profile(args.builtin)
        elif args.expr is not None:
            p = profile_from_text(args.expr, name="command-line")
        else:
            p = _profile_from_file(args.profile_path)
    except InvalidProfileError:
        raise
    except (ExprError, TypeError, ValueError, OverflowError) as exc:
        raise ProfileDefinitionError(str(exc)) from exc
    require_valid(p, context=p.name or "profile")
    return p


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _emit(args: argparse.Namespace, text: str, suffix: str | None = None) -> None:
    if not args.out:
        sys.stdout.write(text)
    else:
        write_text(Path(args.out).with_suffix(suffix) if suffix else args.out, text)


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        p = load_profile(args)
    except InvalidProfileError as exc:
        _emit(args, json_text({"profile": exc.report.to_json_dict(),
                               "verdict": "invalid_profile"}))
        raise
    report = full_report(p, cluster_tol=args.cluster_tol)
    payload = {
        "profile": {"name": p.name, "source": p.source},
        "validation": validate(p).to_json_dict(),
        "gauss_bonnet_residual": gauss_bonnet_residual(p),
        "bounds": bounds_report(p).to_json_dict(),
        "obstructions": report.to_json_dict(),
    }
    _emit(args, json_text(payload))
    for line in report.consistency_failures:
        print(f"internal consistency failure: {line}", file=sys.stderr)
    return EXIT_OK if report.verdict == "embeddable" else EXIT_NOT_EMBEDDABLE


def cmd_spectrum(args: argparse.Namespace) -> int:
    p = load_profile(args)
    table = enumerate_below(p, args.below, cluster_tol=args.cluster_tol,
                            target_rel_err=args.tol, basis_cap=args.basis_cap)
    doc = json_text({"profile": {"name": p.name},
                     "requested_below": args.below,
                     "table": table.to_json_dict()})
    csv = table.to_csv_text()
    if args.out:
        base = Path(args.out)
        write_text(base.with_suffix(".json"), doc)
        write_text(base.with_suffix(".csv"), csv)
    else:
        sys.stdout.write(csv if args.fmt == "csv" else doc)
    print(f"certified complete below {fmt17(table.cutoff)} "
          f"({len(table.entries)} distinct eigenvalues)", file=sys.stderr)
    return EXIT_OK


def cmd_mesh(args: argparse.Namespace) -> int:
    p = load_profile(args)
    curve = embed_profile_curve(p, n_samples=args.n_samples)
    mesh = make_mesh(curve, n_theta=args.n_theta)
    res = induced_metric_residual(mesh, p)
    write_blocks(Path(args.out), _obj_blocks(mesh))
    sidecar = {
        "profile": {"name": p.name, "source": p.source},
        "n_theta": args.n_theta,
        "n_samples": args.n_samples,
        "mesh": {"vertices": int(mesh.vertices.shape[0]),
                 "faces": int(mesh.faces.shape[0]),
                 "euler_characteristic": euler_characteristic(mesh),
                 "area": mesh_area(mesh)},
        "meridian_length": curve.length,
        "induced_metric_residual": res.to_json_dict(),
    }
    write_text(Path(args.out).with_suffix(".json"), json_text(sidecar))
    print(f"induced-metric residual sup {fmt17(res.sup)}, rms {fmt17(res.rms)}")
    return EXIT_OK


_SWEEP_HEADER = ("eps,n,exponent,c,max_slope,lambda01,multiplicities,"
                 "verdict,spectral_verdict,error")


def _sweep_row(eps: float, n: int, cluster_tol: float) -> str:
    c = 1.0 + eps
    base = f"{fmt17(eps)},{n},{2 * n},{fmt17(c)}"
    try:
        p = squeeze_profile(eps, n=2 * n)
        report = full_report(p, cluster_tol=cluster_tol)
        mults = ";".join(str(m) for m in
                         report.even_multiplicity_test.multiplicities)
        return (f"{base},{fmt17(report.sup_test.max_slope)},"
                f"{fmt17(report.spectral_test.lambda01)},{mults},"
                f"{report.verdict},{report.spectral_verdict},")
    except _FAILURE_TYPES as exc:
        reason = " ".join(str(exc).splitlines()).replace(",", ";")
        return f"{base},,,,,,{reason}"


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = [_SWEEP_HEADER] + [_sweep_row(eps, n, args.cluster_tol)
                              for n in args.n for eps in args.eps]
    _emit(args, "\n".join(rows) + "\n", suffix=".csv")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """Recompute the pinned constants of the strongly pinched example and the
    round sphere; any mismatch exits with the dedicated failure code."""
    squeeze = builtin_profile("paper-example")
    rnd = builtin_profile("round")
    target = 185 / 23
    bound = channel_lower_bound(squeeze, 0, 1)
    rel = abs(bound - target) / target
    rq = rayleigh_quotient(squeeze, 4, parse("sqrt(1 - x^2)"))
    bracket = 1477 / 185
    lam01 = refine(rnd, 0, 1, target_rel_err=args.tol,
                   basis_cap=args.basis_cap).eigenvalues[0]
    upper = lambda01_upper_bound(rnd)
    checks = [
        ("invariant-channel lower bound 2/int((1-x^2)/f) = 185/23",
         rel <= 1e-9, f"computed {fmt17(bound)}, target {fmt17(target)}, "
                      f"rel err {rel:.3e}"),
        ("channel-4 quotient with sqrt(1-x^2) below 8",
         rq < 8.0, f"computed {fmt17(rq)}"),
        ("channel-4 quotient within the 1477/185 bracketing value",
         rq <= bracket + 1e-12, f"computed {fmt17(rq)} vs {fmt17(bracket)}"),
        ("round sphere saturates the (3/2) int f bound: bound 2, "
         "first invariant eigenvalue 2",
         abs(lam01 - 2.0) <= 1e-7 and abs(upper - 2.0) <= 1e-10,
         f"eigenvalue {fmt17(lam01)}, bound {fmt17(upper)}"),
    ]

    failed = [c for c in checks if not c[1]]
    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    if failed:
        print(f"verify failed on: {failed[0][0]} ({failed[0][2]})",
              file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except _FAILURE_TYPES as exc:
        prefix, code = next((prefix, code) for types, prefix, code in _FAILURES
                            if isinstance(exc, types))
        print(f"{prefix}: " + " ".join(str(exc).splitlines()), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
