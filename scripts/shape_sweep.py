#!/usr/bin/env python3
"""Check every shape verdict against its fixture's tags across seeds.

Runs each catalog utility through the Gossen law (2000 trials), the
value-side midpoint concavity check and the Debreu smoothness proxy (20
and 80 trials) at every seed of a range, and through the line-smoothness
limit at b = 1, which draws nothing, once.  Each verdict is judged
against the fixture's ``tag_dict()``:

- strictly concave: "holds-strictly" on every seed; concave: "holds" or
  "holds-strictly"; non-concave: "fails" on every seed;
- Debreu-smooth: "pass" on every seed; not Debreu-smooth: flagged on at
  least one seed, because the check is a sampled proxy;
- line smoothness: the tagged verdict, or "inconclusive" only where the
  report is truncated.

Prints one line per mismatch with the seeds that give it, then the
number of mismatches and the time taken, and exits 1 if any remain.

    PYTHONPATH=src python scripts/shape_sweep.py --seeds 0 59
"""
import argparse
import sys
import time

from altkit.concavity import (FAILS, HOLDS, HOLDS_STRICTLY, check_gossen_law,
                              check_midpoint_concavity)
from altkit.fixtures import CONCAVE, NON_CONCAVE, STRICTLY_CONCAVE, catalog, oracle_by_name
from altkit.smoothness import (INCONCLUSIVE, LINE_SMOOTH, NOT_LINE_SMOOTH,
                               debreu_smoothness_proxy, line_smoothness_limit)

CONCAVITY_VERDICTS = {STRICTLY_CONCAVE: {HOLDS_STRICTLY}, CONCAVE: {HOLDS, HOLDS_STRICTLY},
                      NON_CONCAVE: {FAILS}}
# check -> (tag it is judged by, verdict of one fixture at one seed)
SEEDED = {
    "gossen": ("concavity", lambda spec, seed: check_gossen_law(
        oracle_by_name(spec.name), trials=2000, seed=seed).verdict),
    "midpoint": ("concavity", lambda spec, seed: check_midpoint_concavity(
        spec, spec.domain, seed=seed).verdict),
    "debreu@20": ("debreu_smooth", lambda spec, seed: debreu_smoothness_proxy(
        oracle_by_name(spec.name), trials=20, seed=seed).verdict),
    "debreu@80": ("debreu_smooth", lambda spec, seed: debreu_smoothness_proxy(
        oracle_by_name(spec.name), trials=80, seed=seed).verdict),
}


def seeded_mismatches(spec, check: str, seeds: range) -> list[str]:
    """The mismatches of one fixture under one seeded check, one line per
    wrong verdict with the seeds that give it."""
    tag_name, run = SEEDED[check]
    tag = spec.tag_dict()[tag_name]
    if tag is None:
        return []
    verdicts = {seed: run(spec, seed) for seed in seeds}
    if tag_name == "concavity":
        wanted = CONCAVITY_VERDICTS[tag]
    elif tag:
        wanted = {"pass"}
    elif "fail" in verdicts.values():
        return []
    else:
        return [f"{spec.name} {check}: never flagged, tagged not Debreu-smooth"]
    wrong = sorted({v for v in verdicts.values() if v not in wanted})
    return [f"{spec.name} {check}: reads {v!r} on seeds "
            f"{[s for s, got in verdicts.items() if got == v]}, tagged {tag_name}={tag!r}"
            for v in wrong]


def line_mismatches(spec) -> list[str]:
    """The mismatch of one fixture's line-smoothness limit at b = 1, if any."""
    tag = spec.tag_dict()["line_smooth"]
    if tag is None:
        return []
    report = line_smoothness_limit(oracle_by_name(spec.name), 1.0)
    if report.verdict == (LINE_SMOOTH if tag else NOT_LINE_SMOOTH):
        return []
    if report.verdict == INCONCLUSIVE and "truncated_at" in report.extras:
        return []
    return [f"{spec.name} line@b=1: reads {report.verdict!r}, tagged line_smooth={tag!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=[0, 59], metavar=("FIRST", "LAST"))
    args = parser.parse_args(argv)
    seeds = range(args.seeds[0], args.seeds[1] + 1)

    t0 = time.perf_counter()
    specs, mismatches = catalog(), []
    for spec in specs:
        for check in SEEDED:
            mismatches += seeded_mismatches(spec, check, seeds)
        mismatches += line_mismatches(spec)
    elapsed = time.perf_counter() - t0

    for line in mismatches:
        print(f"mismatch: {line}")
    print(f"{len(specs)} fixtures, seeds {seeds.start}-{seeds.stop - 1}: "
          f"{len(mismatches)} mismatches; {elapsed:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
