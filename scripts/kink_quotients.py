#!/usr/bin/env python3
"""Trace the line-smoothness quotient (b - f(a,b))/a as a shrinks.

Two instructive fixtures side by side: the kinked composite, whose
quotient approaches 1/4 at the kink scale (differentiability fails on
the diagonal even though indifference sets stay smooth), and the
coordinate minimum, whose quotient vanishes (the diagonal restriction
is smooth even though indifference sets carry a kink).  The two
smoothness notions are independent; this prints the tables behind that
claim.
"""
import argparse
import sys

from altkit.fixtures import oracle_by_name
from altkit.smoothness import line_smoothness_limit


def trace(name: str, b: float) -> None:
    oracle = oracle_by_name(name)
    report = line_smoothness_limit(oracle, b)
    est = "n/a" if report.estimate is None else f"{report.estimate:.6g}"
    unc = "n/a" if report.uncertainty is None else f"{report.uncertainty:.2g}"
    print(f"\n{name} at b={b:g}  ->  {report.verdict}  (limit {est} +/- {unc})")
    if "truncation_reason" in report.extras:
        print(f"truncated at a={report.extras['truncated_at']:g}: "
              f"{report.extras['truncation_reason']}")
    print(f"{'a':>14} {'f(a,b)':>18} {'(b-f)/a':>12}")
    for a, f, q in report.rows:
        print(f"{a:>14.8g} {f:>18.12f} {q:>12.6f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--b-kinked", type=float, default=1.0,
                        help="diagonal scale for the kinked composite "
                             "(1.0 sits exactly on the kink)")
    parser.add_argument("--b-min", type=float, default=1.0,
                        help="diagonal scale for the coordinate minimum")
    args = parser.parse_args(argv)
    trace("kinked_composite", args.b_kinked)
    trace("min2", args.b_min)
    return 0


if __name__ == "__main__":
    sys.exit(main())
