#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark: a base commit against this checkout.

    python scripts/ab_pairs.py --base HEAD~1 --workload reconstruct-ladder --pairs 10 --seconds 10
    python scripts/ab_pairs.py --base HEAD~1 --workload verify-catalog reconstruct-ladder \
        shape-diagnostics --pairs 10 --seconds 10

Extracts ``--base`` with ``git archive`` and copies this checkout's working
tree (tracked files as they are on disk, uncommitted changes included, and
untracked files that are not ignored) into sibling directories of one
temporary directory, ``base`` and ``work``, once.  Both sides then run from
paths of equal length, so the path does not move ``peak_rss_mb``.  For each
workload in turn, it runs ``perfbench/run.py --trace 0`` on the base and on
the change, one after the other, ``--pairs`` times.  The order inside a pair
alternates, so a host that speeds up or slows down during the session
does not favour one side.  Prints each pair's change/base ratio of every
end-to-end metric, then one summary per workload: per metric the median
ratio, the number of pairs the change won (lower is better), and the
median and quartiles of each side.  Exits 1 if any run of any workload
failed a command or a report check, and 2, before any copy, on an unknown
workload or a seed outside [0, 2**64).
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def extract(ref: str, dest: Path) -> None:
    """The tree of ``ref`` under ``dest``, through ``git archive``."""
    archive = dest.with_suffix(".tar")
    with archive.open("wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, stdout=fh,
                       check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest)
    archive.unlink()


def copy_worktree(dest: Path) -> None:
    """This checkout's tracked files as they are on disk, and its untracked
    files that are not ignored, under ``dest``."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, capture_output=True,
                            check=True).stdout.decode()
    for name in listed.split("\0"):
        if name and (ROOT / name).is_file():       # a deleted tracked file has no copy
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON summary (the last line of output) of one benchmark run."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(workload: str, runs: dict[str, list[dict]], args) -> bool:
    """Print one workload's summary; False if any of its runs failed."""
    print(f"{workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s "
          f"runs, base {args.base} (ratios are change/base; lower is better):")
    for name in runs["base"][0]["metrics"]:
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        ratios = [c / b for b, c in zip(base, change)]
        won = sum(c < b for b, c in zip(base, change))
        (b1, b2, b3), (c1, c2, c3) = quartiles(base), quartiles(change)
        print(f"  {name:<14} median ratio {statistics.median(ratios):.3f}, "
              f"change lower in {won}/{args.pairs}; "
              f"base {b2:.4g} [{b1:.4g}, {b3:.4g}], change {c2:.4g} [{c1:.4g}, {c3:.4g}]")
    ok = True
    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"  {side}: {failed}/{attempted} commands failed, reports correct: {correct}")
        ok &= correct and failed == 0
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref of the base commit")
    parser.add_argument("--workload", required=True, nargs="+", choices=workloads.WORKLOADS)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="benchmark seed (default 1)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be >= 1 and --seconds positive")
    if not 0 <= args.seed < 2**64:
        parser.error(f"--seed must be an integer in [0, 2**64), got {args.seed}")

    ok = True
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        sides = {"base": Path(tmp) / "base", "change": Path(tmp) / "work"}
        extract(args.base, sides["base"])
        copy_worktree(sides["change"])
        for workload in args.workload:
            runs: dict[str, list[dict]] = {"base": [], "change": []}
            for k in range(args.pairs):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                for side in order:
                    runs[side].append(bench(sides[side], workload, args.seed, args.seconds))
                base, change = runs["base"][-1]["metrics"], runs["change"][-1]["metrics"]
                ratios = "  ".join(f"{name} {change[name]['value'] / base[name]['value']:.3f}"
                                   for name in base)
                print(f"{workload} pair {k + 1:>2} ({order[0]} first): {ratios}", flush=True)
            ok &= summarize(workload, runs, args)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
