#!/usr/bin/env python3
"""Walk through the pinched-profile analysis from first principles.

Prints the pinned rational constants, the closed-form bounds, the certified
merged spectrum below a chosen horizon, and the obstruction verdicts — in
the order a referee would want to check them.
"""

import argparse

from revspec import (
    builtin_profile, enumerate_below, full_report, lambda01_upper_bound,
    parse, rayleigh_quotient, refine, to_string, trace0_integral,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--below", type=float, default=21.0,
                    help="horizon for the merged-spectrum enumeration")
    args = ap.parse_args()

    p = builtin_profile("paper-example")
    print(f"profile: {p.name}   f = {to_string(p.form)}")

    t0 = trace0_integral(p)
    print("\n-- invariant-channel trace --")
    print(f"trace0 = {t0:.15g}   (exact: 23/185 = {23 / 185:.15g})")
    print(f"1/trace0 = {1 / t0:.15g}   (exact: 185/23 = {185 / 23:.15g})")
    print("every invariant eigenvalue lambda_0^m therefore exceeds"
          f" m * {1 / t0:.6g}")

    print("\n-- channel-4 trial quotient --")
    q = rayleigh_quotient(p, 4, parse("sqrt(1 - x^2)"))
    print(f"quotient = {q:.15g}  (< 8, and below the hand bracket"
          f" 1477/185 = {1477 / 185:.15g})")
    print("so channel 4 already has an eigenvalue under 8, while the first")
    print("invariant eigenvalue sits above 185/23 > 8: the low spectrum is")
    print("carried entirely by equivariant channels, in pairs.")

    print("\n-- first invariant eigenvalue --")
    lam01 = refine(p, 0, 1).eigenvalues[0]
    ub = lambda01_upper_bound(p)
    print(f"lambda_0^1 = {lam01:.12g}   closed-form upper bound"
          f" (3/2) int f = {ub:.12g}")

    print(f"\n-- merged spectrum below {args.below:g} --")
    table = enumerate_below(p, args.below)
    print(f"certified complete below {table.cutoff:.9g}")
    print("  m      lambda  mult  channels")
    for i, e in enumerate(table.entries, start=1):
        attrib = " ".join(f"{k}:{j}" for k, j in e.channels)
        print(f"{i:3d}  {e.value:10.6f}  {e.multiplicity:4d}  {attrib}")

    print("\n-- obstruction report --")
    rep = full_report(p)
    s = rep.sup_test
    print(f"max |f'| = {s.max_slope:.9g} at x = {s.argmax_x:+.6f}"
          f"  -> embeddable: {s.embeddable}")
    print(f"lambda_0^1 = {rep.spectral_test.lambda01:.9g} vs threshold 3"
          f"  -> triggered: {rep.spectral_test.triggered}")
    em = rep.even_multiplicity_test
    print(f"first multiplicities: {em.multiplicities}"
          f"  all even: {em.all_even}")
    print(f"negative-curvature witness: x = {rep.negative_curvature_witness}")
    print(f"verdict: {rep.verdict}   (spectral tests alone:"
          f" {rep.spectral_verdict})")


if __name__ == "__main__":
    main()
