#!/usr/bin/env python3
"""Check the catalog's verdicts across seeds.

One loop runs every fixture through a mode's checks at each seed of a
range and records each check's verdict per seed.  The mode judges that
map and prints what it flags, then a summary with the time taken.
Exits 1 if anything is flagged, 2 on bad input.

    PYTHONPATH=src python scripts/sweep.py axioms --seeds 0 59 --trials 1000
    PYTHONPATH=src python scripts/sweep.py shapes --seeds 0 59
"""
import argparse
import sys
import time

from altkit.axioms import ALL_AXIOMS, replay_witness, run_axiom_suite
from altkit.concavity import (FAILS, HOLDS, HOLDS_STRICTLY, check_gossen_law,
                              check_midpoint_concavity)
from altkit.fixtures import (CONCAVE, NON_CONCAVE, STRICTLY_CONCAVE, catalog,
                             intensity_catalog, oracle_by_name)
from altkit.smoothness import (INCONCLUSIVE, LINE_SMOOTH, NOT_LINE_SMOOTH,
                               debreu_smoothness_proxy, line_smoothness_limit)

TRUNCATED = "truncated"     # an inconclusive line limit whose steps left the box


def line_verdict(spec) -> str:
    report = line_smoothness_limit(oracle_by_name(spec.name), 1.0)
    if report.verdict == INCONCLUSIVE and "truncated_at" in report.extras:
        return TRUNCATED
    return report.verdict


# check -> (tag it is judged by, verdict of one fixture at one seed)
SHAPES = {
    "gossen": ("concavity", lambda spec, seed: check_gossen_law(
        oracle_by_name(spec.name), trials=2000, seed=seed).verdict),
    "midpoint": ("concavity", lambda spec, seed: check_midpoint_concavity(
        spec, spec.domain, seed=seed).verdict),
    "debreu@20": ("debreu_smooth", lambda spec, seed: debreu_smoothness_proxy(
        oracle_by_name(spec.name), trials=20, seed=seed).verdict),
    "debreu@80": ("debreu_smooth", lambda spec, seed: debreu_smoothness_proxy(
        oracle_by_name(spec.name), trials=80, seed=seed).verdict),
    "line@b=1": ("line_smooth", lambda spec, seed: line_verdict(spec)),
}
ONCE = {"line@b=1"}         # checks that draw nothing: run at the first seed only
# tag -> tagged value -> the verdicts that agree with it on every seed.  A
# fixture tagged not Debreu-smooth must instead be flagged on at least one
# seed, because the check is a sampled proxy.
WANTED = {"concavity": {STRICTLY_CONCAVE: {HOLDS_STRICTLY}, CONCAVE: {HOLDS, HOLDS_STRICTLY},
                        NON_CONCAVE: {FAILS}},
          "debreu_smooth": {True: {"pass"}},
          "line_smooth": {True: {LINE_SMOOTH, TRUNCATED}, False: {NOT_LINE_SMOOTH, TRUNCATED}}}


def sweep(specs, seeds: range, checks) -> dict:
    """Per (fixture, check) the verdict at each seed; ``checks(spec, seed)``
    gives one fixture's verdicts at one seed, by check."""
    verdicts = {}
    for spec in specs:
        for seed in seeds:
            for check, verdict in checks(spec, seed).items():
                verdicts.setdefault((spec.name, check), {})[seed] = verdict
    return verdicts


def axioms(seeds: range, trials: int):
    """Each catalog utility, plus the intensity fixtures broken_crossover
    and constant, through the five axiom checkers, replaying every stored
    witness.  Prints a row per fixture with each axiom's verdict (``pass``,
    ``FAIL``, or ``MIXED p/f`` with the number of seeds giving each), and
    flags a fixture-axiom pair with two verdicts or a witness that no
    longer violates its axiom."""
    def checks(spec, seed):     # per axiom: the verdict, and whether each witness replays
        oracle = oracle_by_name(spec.name)
        reports = run_axiom_suite(oracle, ALL_AXIOMS, trials=trials, seed=seed)
        return {axiom: (report.verdict, [replay_witness(oracle, axiom, w)
                                         for w in report.violations])
                for axiom, report in reports.items()}

    def failed(by_seed):
        return [seed for seed, (verdict, _) in by_seed.items() if verdict == "fail"]

    def cell(by_seed):
        fails = len(failed(by_seed))
        passes = len(by_seed) - fails
        return f"MIXED {passes}/{fails}" if passes and fails else "pass" if passes else "FAIL"

    specs = catalog() + intensity_catalog()
    verdicts = sweep(specs, seeds, checks)
    names = [spec.name for spec in specs]
    width = max(len(n) for n in names)
    lines = [f"{'fixture':<{width}}  " + "  ".join(f"{a:<18}" for a in ALL_AXIOMS)]
    lines += [f"{n:<{width}}  " + "  ".join(f"{cell(verdicts[n, a]):<18}" for a in ALL_AXIOMS)
              for n in names]
    mixed = [f"mixed: {n} {a} fails on seeds {failed(by_seed)}"
             for (n, a), by_seed in verdicts.items() if 0 < len(failed(by_seed)) < len(by_seed)]
    replays = [(n, a, s, live) for n in names for s in seeds for a in ALL_AXIOMS
               for live in verdicts[n, a][s][1]]
    stale = [f"stale witness: {n} {a} seed {s}" for n, a, s, live in replays if not live]
    summary = (f"{len(verdicts)} pairs, seeds {seeds.start}-{seeds.stop - 1}, {trials} trials: "
               f"{len(mixed)} with two verdicts; {len(replays)} witnesses replayed, "
               f"{len(stale)} stale")
    return lines + mixed + stale, summary, bool(mixed or stale)


def shapes(seeds: range):
    """Each catalog utility through every check in ``SHAPES`` whose tag it
    states; flags each verdict outside ``WANTED``, with the seeds giving it."""
    def checks(spec, seed):
        tags = spec.tag_dict()
        return {check: run(spec, seed) for check, (tag, run) in SHAPES.items()
                if tags[tag] is not None and (seed == seeds.start or check not in ONCE)}

    specs = catalog()
    verdicts = sweep(specs, seeds, checks)
    tags = {spec.name: spec.tag_dict() for spec in specs}
    lines = []
    for (name, check), by_seed in verdicts.items():
        tag_name = SHAPES[check][0]
        tag = tags[name][tag_name]
        if tag_name == "debreu_smooth" and not tag:
            if "fail" not in by_seed.values():
                lines.append(f"mismatch: {name} {check}: never flagged, tagged not Debreu-smooth")
            continue
        for v in sorted(set(by_seed.values()) - WANTED[tag_name][tag]):
            where = "" if check in ONCE else \
                f" on seeds {[s for s, got in by_seed.items() if got == v]}"
            lines.append(f"mismatch: {name} {check}: reads {v!r}{where}, "
                         f"tagged {tag_name}={tag!r}")
    return lines, (f"{len(specs)} fixtures, seeds {seeds.start}-{seeds.stop - 1}: "
                   f"{len(lines)} mismatches"), bool(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    for mode in ("axioms", "shapes"):
        modes.add_parser(mode).add_argument("--seeds", type=int, nargs=2, default=[0, 59],
                                            metavar=("FIRST", "LAST"))
    modes.choices["axioms"].add_argument("--trials", type=int, default=1000)
    args = parser.parse_args(argv)
    first, last = args.seeds
    if not 0 <= first <= last < 2**64:
        modes.choices[args.mode].error(f"--seeds needs 0 <= FIRST <= LAST < 2**64, "
                                       f"got {first} {last}")
    if args.mode == "axioms" and args.trials < 1:
        modes.choices[args.mode].error(f"--trials must be >= 1, got {args.trials}")
    seeds = range(first, last + 1)

    t0 = time.perf_counter()
    lines, summary, flagged = axioms(seeds, args.trials) if args.mode == "axioms" \
        else shapes(seeds)
    elapsed = time.perf_counter() - t0
    for line in lines:
        print(line)
    print(f"{summary}; {elapsed:.1f} s")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
