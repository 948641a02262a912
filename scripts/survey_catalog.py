#!/usr/bin/env python3
"""Sweep every catalog fixture through the full diagnostic pipeline.

For each utility fixture: run the axiom suite, the midpoint gain law,
the line-smoothness limit at mid-range, the calibration smoothness
proxy, and a depth-K reconstruction with its representation spot-check.
Prints one row per fixture and nonzero-exits if any sound fixture
misbehaves.  Intended as a quick end-to-end health check; use --trials
10000 for the heavyweight version.
"""
import argparse
import sys
import time

from altkit.axioms import ALL_AXIOMS, run_axiom_suite
from altkit.concavity import check_gossen_law
from altkit.domain import Segment
from altkit.errors import AltkitError
from altkit.fixtures import catalog, oracle_by_name
from altkit.ladder import reconstruct_utility, representation_spot_check
from altkit.smoothness import debreu_smoothness_proxy, line_smoothness_limit

# Fixtures whose default diagonal is not strictly increasing need a
# hand-picked reconstruction segment (or none at all).
RECON_SEGMENTS = {
    "neg_quadratic": Segment([0.0], [1.0]),
    "step": None,
}


def survey(name: str, trials: int, depth: int, seed: int) -> dict:
    spec = next(s for s in catalog() if s.name == name)
    oracle = oracle_by_name(name)
    t0 = time.perf_counter()

    axioms = run_axiom_suite(oracle, list(ALL_AXIOMS), trials=trials, seed=seed)
    failed_axioms = [a for a, r in axioms.items() if not r.passed]

    gossen = check_gossen_law(oracle, trials=trials, seed=seed)

    # Non-monotone or discontinuous fixtures legitimately reject some
    # stages (no strictly-ranked diagonal, no calibration); report those
    # cells as n/a instead of aborting the sweep.
    lo, hi = oracle.domain.diagonal_scale_range()
    try:
        line_verdict = line_smoothness_limit(oracle, 0.5 * (lo + hi)).verdict
    except AltkitError:
        line_verdict = "n/a"
    try:
        debreu_verdict = debreu_smoothness_proxy(
            oracle, trials=max(10, trials // 100), seed=seed).verdict
    except AltkitError:
        debreu_verdict = "n/a"

    recon_verdict = "-"
    if name in RECON_SEGMENTS and RECON_SEGMENTS[name] is None:
        recon_verdict = "skipped"
    else:
        try:
            recon = reconstruct_utility(oracle, depth=depth,
                                        segment=RECON_SEGMENTS.get(name))
            spot = representation_spot_check(recon, trials=trials, seed=seed)
            recon_verdict = spot.verdict
        except AltkitError:
            recon_verdict = "n/a"

    return {
        "name": name,
        "axioms": "pass" if not failed_axioms else "FAIL:" + ",".join(failed_axioms),
        "gossen": gossen.verdict,
        "tag": spec.concavity,
        "line": line_verdict,
        "debreu": debreu_verdict,
        "representation": recon_verdict,
        "seconds": time.perf_counter() - t0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--depth", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fixtures", nargs="+",
                        help="subset of fixture names (default: whole catalog)")
    args = parser.parse_args(argv)

    names = args.fixtures or [s.name for s in catalog()]
    header = (f"{'fixture':<18} {'axioms':<14} {'gain law':<15} {'tag':<17} "
              f"{'line':<16} {'calibration':<12} {'reconstruction':<15} {'s':>5}")
    print(header)
    print("-" * len(header))
    trouble = []
    for name in names:
        row = survey(name, args.trials, args.depth, args.seed)
        print(f"{row['name']:<18} {row['axioms']:<14} {row['gossen']:<15} "
              f"{row['tag']:<17} {row['line']:<16} {row['debreu']:<12} "
              f"{row['representation']:<15} {row['seconds']:>5.1f}")
        # Sound fixtures (everything monotone+continuous) should be clean.
        spec = next(s for s in catalog() if s.name == name)
        if spec.monotone and spec.continuous:
            if row["axioms"] != "pass" or row["representation"] not in ("pass", "-"):
                trouble.append(name)
    if trouble:
        print(f"unexpected failures: {', '.join(trouble)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
