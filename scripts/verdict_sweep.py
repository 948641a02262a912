#!/usr/bin/env python3
"""Check that every axiom verdict is stable across seeds.

Runs each catalog utility, plus the intensity fixtures broken_crossover
and constant, through all five axiom checkers at every seed of a range,
and replays every witness the reports store.  Prints one row per fixture
with the verdicts each axiom gave (``pass``/``FAIL``, or ``MIXED p/f``
with the number of seeds giving each), then the witnesses replayed and
the time taken.  Exits 1 if any fixture-axiom pair gave two verdicts or
any witness failed to replay.

    PYTHONPATH=src python scripts/verdict_sweep.py --seeds 0 59 --trials 1000
"""
import argparse
import sys
import time

from altkit.axioms import ALL_AXIOMS, replay_witness, run_axiom_suite
from altkit.fixtures import catalog, intensity_catalog, oracle_by_name


def sweep(names: list[str], seeds: range, trials: int) -> tuple[dict, int, list]:
    """Per (fixture, axiom) the seeds that passed and failed; the number
    of witnesses replayed; and the (fixture, axiom, seed) of each witness
    that no longer violates its axiom."""
    verdicts = {(n, a): {"pass": [], "fail": []} for n in names for a in ALL_AXIOMS}
    replayed, stale = 0, []
    for name in names:
        for seed in seeds:
            oracle = oracle_by_name(name)
            reports = run_axiom_suite(oracle, ALL_AXIOMS, trials=trials, seed=seed)
            for axiom, report in reports.items():
                verdicts[name, axiom][report.verdict].append(seed)
                for witness in report.violations:
                    replayed += 1
                    if not replay_witness(oracle, axiom, witness):
                        stale.append((name, axiom, seed))
    return verdicts, replayed, stale


def cell(seen: dict) -> str:
    passed, failed = len(seen["pass"]), len(seen["fail"])
    if passed and failed:
        return f"MIXED {passed}/{failed}"
    return "pass" if passed else "FAIL"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=[0, 59], metavar=("FIRST", "LAST"))
    parser.add_argument("--trials", type=int, default=1000)
    args = parser.parse_args(argv)
    names = [s.name for s in catalog()] + [s.name for s in intensity_catalog()]
    seeds = range(args.seeds[0], args.seeds[1] + 1)

    t0 = time.perf_counter()
    verdicts, replayed, stale = sweep(names, seeds, args.trials)
    elapsed = time.perf_counter() - t0

    width = max(len(n) for n in names)
    print(f"{'fixture':<{width}}  " + "  ".join(f"{a:<18}" for a in ALL_AXIOMS))
    for name in names:
        print(f"{name:<{width}}  "
              + "  ".join(f"{cell(verdicts[name, a]):<18}" for a in ALL_AXIOMS))
    mixed = [key for key, seen in verdicts.items() if seen["pass"] and seen["fail"]]
    for name, axiom in mixed:
        print(f"mixed: {name} {axiom} fails on seeds {verdicts[name, axiom]['fail']}")
    for name, axiom, seed in stale:
        print(f"stale witness: {name} {axiom} seed {seed}")
    print(f"{len(verdicts)} pairs, seeds {seeds.start}-{seeds.stop - 1}, {args.trials} trials: "
          f"{len(mixed)} with two verdicts; {replayed} witnesses replayed, "
          f"{len(stale)} stale; {elapsed:.1f} s")
    return 1 if mixed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
