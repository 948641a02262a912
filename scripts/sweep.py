#!/usr/bin/env python3
"""Check the paper's results over the fixture catalog.

One loop runs every fixture of a mode through the mode's checks at each
seed and records each check's verdict per seed.  The mode judges that
map and prints what it found, then a summary with the time taken.
Exits 1 if anything is flagged, 2 on bad input.

    PYTHONPATH=src python scripts/sweep.py axioms --seeds 0 59 --trials 1000
    PYTHONPATH=src python scripts/sweep.py shapes --seeds 0 59
    PYTHONPATH=src python scripts/sweep.py survey --seed 0 --trials 1000 --depth 8
    PYTHONPATH=src python scripts/sweep.py quotients --b-kinked 1 --b-min 1
"""
import argparse
import math
import sys
import time

from altkit.axioms import ALL_AXIOMS, replay_witness, run_axiom_suite
from altkit.concavity import (FAILS, HOLDS, HOLDS_STRICTLY, check_gossen_law,
                              check_midpoint_concavity)
from altkit.domain import Segment
from altkit.errors import AltkitError
from altkit.fixtures import (CONCAVE, NON_CONCAVE, STRICTLY_CONCAVE, catalog,
                             intensity_catalog, oracle_by_name, utility_by_name)
from altkit.ladder import reconstruct_utility, representation_spot_check
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


# A reconstruction segment where the diagonal does not rise (None: no reconstruction)
RECON_SEGMENTS = {"neg_quadratic": Segment([0.0], [1.0]), "step": None}
WIDTHS = {"axioms": 14, "gain law": 15, "tag": 17, "line": 16, "calibration": 12,
          "reconstruction": 15}     # the survey's columns after the fixture's name


def survey(names, seed: int, trials: int, depth: int):
    """Each named catalog utility through the axiom suite, the Gossen law,
    the line limit at mid-range, the calibration proxy and a reconstruction
    with its representation spot check: a row of verdicts and the seconds
    taken.  Flags a monotone, continuous fixture that fails an axiom or the
    spot check; other fixtures may reject a stage, which reads ``n/a``."""
    def verdict(stage) -> str:      # n/a where the fixture rejects the stage
        try:
            return stage().verdict
        except AltkitError:
            return "n/a"

    def checks(spec, seed):
        t0 = time.perf_counter()
        oracle = oracle_by_name(spec.name)
        reports = run_axiom_suite(oracle, ALL_AXIOMS, trials=trials, seed=seed)
        failed = [axiom for axiom, report in reports.items() if not report.passed]
        segment = RECON_SEGMENTS.get(spec.name, oracle.domain.diagonal())
        return {"axioms": "FAIL:" + ",".join(failed) if failed else "pass",
                "gain law": check_gossen_law(oracle, trials=trials, seed=seed).verdict,
                "tag": spec.concavity,
                "line": verdict(lambda: line_smoothness_limit(
                    oracle, 0.5 * sum(oracle.domain.diagonal_scale_range()))),
                "calibration": verdict(lambda: debreu_smoothness_proxy(
                    oracle, trials=max(10, trials // 100), seed=seed)),
                "reconstruction": "skipped" if segment is None else verdict(
                    lambda: representation_spot_check(reconstruct_utility(
                        oracle, depth=depth, segment=segment), trials=trials, seed=seed)),
                "seconds": time.perf_counter() - t0}

    specs = [utility_by_name(name) for name in names]
    verdicts = sweep(specs, range(seed, seed + 1), checks)
    header = " ".join([f"{'fixture':<18}"] + [f"{c:<{w}}" for c, w in WIDTHS.items()] + ["    s"])
    lines = [header, "-" * len(header)]
    lines += [" ".join([f"{spec.name:<18}"] + [f"{verdicts[spec.name, c][seed]:<{w}}"
                                               for c, w in WIDTHS.items()]
                       + [f"{verdicts[spec.name, 'seconds'][seed]:>5.1f}"]) for spec in specs]
    trouble = [spec.name for spec in specs if spec.monotone and spec.continuous
               and (verdicts[spec.name, "axioms"][seed],
                    verdicts[spec.name, "reconstruction"][seed]) != ("pass", "pass")]
    if trouble:
        lines.append(f"unexpected failures: {', '.join(trouble)}")
    return lines, (f"{len(specs)} fixtures, seed {seed}, {trials} trials, depth {depth}: "
                   f"{len(trouble)} unexpected failures"), bool(trouble)


def quotients(b_kinked: float, b_min: float):
    """The quotient (b - f(a,b))/a as a shrinks, which shows the two smoothness
    notions independent: it tends to 1/4 on kinked_composite at its kink b = 1
    (smooth indifference sets), and to 0 on min2 (kinked indifference sets).
    Draws nothing and flags nothing."""
    scales = {"kinked_composite": b_kinked, "min2": b_min}
    specs = [utility_by_name(name) for name in scales]
    reports = sweep(specs, range(1), lambda spec, seed: {
        "line": line_smoothness_limit(oracle_by_name(spec.name), scales[spec.name])})
    lines = []
    for name, b in scales.items():
        report = reports[name, "line"][0]
        est = "n/a" if report.estimate is None else f"{report.estimate:.6g}"
        unc = "n/a" if report.uncertainty is None else f"{report.uncertainty:.2g}"
        lines += ["", f"{name} at b={b:g}  ->  {report.verdict}  (limit {est} +/- {unc})"]
        if "truncation_reason" in report.extras:
            lines.append(f"truncated at a={report.extras['truncated_at']:g}: "
                         f"{report.extras['truncation_reason']}")
        lines.append(f"{'a':>14} {'f(a,b)':>18} {'(b-f)/a':>12}")
        lines += [f"{a:>14.8g} {f:>18.12f} {q:>12.6f}" for a, f, q in report.rows]
    return lines, f"{len(specs)} line limits", False


def checked(kind, holds, rule: str):
    """An argparse ``type`` that refuses a value unless it ``holds``: exit 2."""
    def parse(text: str):
        if not holds(value := kind(text)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = kind.__name__      # argparse's "invalid int value" names it
    return parse


SEED = checked(int, lambda v: 0 <= v < 2**64, "an integer in [0, 2**64)")
TRIALS = checked(int, lambda v: v >= 1, ">= 1")
DEPTH = checked(int, lambda v: v >= 0, ">= 0")
SCALE = checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    for mode in ("axioms", "shapes"):
        modes.add_parser(mode).add_argument("--seeds", type=SEED, nargs=2, default=[0, 59],
                                            metavar=("FIRST", "LAST"))
    modes.choices["axioms"].add_argument("--trials", type=TRIALS, default=1000)
    p = modes.add_parser("survey")
    p.add_argument("--seed", type=SEED, default=0)
    p.add_argument("--trials", type=TRIALS, default=1000)
    p.add_argument("--depth", type=DEPTH, default=8)
    names = [spec.name for spec in catalog()]
    p.add_argument("--fixtures", nargs="+", choices=names, default=names,
                   help="subset of utility fixture names (default: whole catalog)")
    p = modes.add_parser("quotients")
    p.add_argument("--b-kinked", type=SCALE, default=1.0, help="its diagonal scale (kink at 1)")
    p.add_argument("--b-min", type=SCALE, default=1.0, help="min2's diagonal scale")
    args = parser.parse_args(argv)

    if "seeds" in args:
        first, last = args.seeds
        if first > last:
            modes.choices[args.mode].error(f"--seeds needs FIRST <= LAST, got {first} {last}")
        args.seeds = range(first, last + 1)

    t0 = time.perf_counter()
    lines, summary, flagged = {
        "axioms": lambda: axioms(args.seeds, args.trials), "shapes": lambda: shapes(args.seeds),
        "survey": lambda: survey(args.fixtures, args.seed, args.trials, args.depth),
        "quotients": lambda: quotients(args.b_kinked, args.b_min)}[args.mode]()
    elapsed = time.perf_counter() - t0
    for line in lines:
        print(line)
    print(f"{summary}; {elapsed:.1f} s")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
