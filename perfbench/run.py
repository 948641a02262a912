#!/usr/bin/env python3
"""Benchmark of altkit's CLI: one workload per invocation.

    python3 perfbench/run.py --workload verify-catalog --seed 1 --seconds 10 --trace 0

Runs whole rounds of the workload's commands (see workloads.py) through
``altkit.cli.main`` in this process, closed loop, until ``--seconds`` have
passed.  After every command its reports are read back and checked
against closed forms (checks.py); checking is never timed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, checks that both write the same report bytes
(timestamps aside), and prints the per-layer metrics of the traced rounds.
The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7      # fresh interpreters per run; setup_s is their median
MIN_ROUNDS = 3        # so that the median round is never the cold first one
MAX_WORKERS = 2       # altkit's CLI default on a 2-CPU machine

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "command_s.p50": "s",
                    "peak_rss_mb": "MB"}

_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_per_compare"):
        return "calls/compare"
    for suffix, unit in (("_per_trial", "calls/trial"), ("_per_solve", "calls/solve"),
                         ("_per_eval", "calls/eval"), ("_per_call", "calls/call"),
                         ("_per_point", "calls/point")):
        if name.endswith(suffix):
            return unit
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def load_altkit_cli():
    """altkit.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "altkit" / "cli.py").is_file():
        sys.exit(f"perfbench: altkit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import altkit.cli
    if Path(altkit.cli.__file__).resolve().parent != SRC / "altkit":
        sys.exit(f"perfbench: imported altkit from {altkit.cli.__file__}, not {SRC}")
    return altkit.cli


@dataclass
class Outcome:
    seconds: float
    rc: object
    problems: list[str]
    reports: dict[str, bytes] | None    # timestamp blanked; dropped once compared
    report_bytes: int


def run_command(cli, cmd, tracer=None) -> Outcome:
    shutil.rmtree(cmd.outdir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main, local=False)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(cmd.argv))
        except SystemExit as stop:
            rc = stop.code
        except Exception:  # an escaping exception is a result to check, not a crash
            rc = "raised " + traceback.format_exc(limit=0).strip().splitlines()[-1]
    seconds = time.perf_counter() - t0
    files = {}
    outdir = Path(cmd.outdir)
    if outdir.is_dir():
        files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    problems = checks.check(cmd, rc, err.getvalue(), files)
    return Outcome(seconds, rc, problems,
                   {name: _TIMESTAMP.sub(b'"timestamp": ""', data)
                    for name, data in files.items()},
                   sum(len(data) for data in files.values()))


def run_round(cli, cmds, tracer=None, keep_reports=False) -> list[Outcome]:
    """One round.  Report bytes are kept only on request, so that what the
    benchmark holds does not grow with the number of rounds."""
    outcomes = [run_command(cli, cmd, tracer) for cmd in cmds]
    if not keep_reports:
        for o in outcomes:
            o.reports = None
    return outcomes


def setup_probe(cmds) -> float:
    """Spawn-to-ready time of a fresh interpreter that sets the workload up."""
    targets = [f"{c.kind}:{c.argv[c.argv.index('--oracle') + 1]}"
               for c in cmds if c.kind != "fault"]
    argv = [sys.executable, str(HERE / "setup_probe.py"), *targets]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe failed (exit {rc}, said {line.strip()!r})")
    return elapsed


def tally(rounds: list[list[Outcome]], cmds) -> tuple[int, int, bool, list[str]]:
    """attempted, failed, correct, and one line per distinct problem."""
    attempted = failed = 0
    correct = True
    lines: dict[str, None] = {}
    for outcomes in rounds:
        for cmd, o in zip(cmds, outcomes):
            attempted += 1
            if o.problems:
                failed += 1
                correct &= cmd.kind == "fault"
                for p in o.problems:
                    lines[f"FAILED {cmd.label}: {p}"] = None
    return attempted, failed, correct, list(lines)


def end_to_end(cli, cmds, seconds: float):
    # Probes alternate with rounds, so that they sample the whole run.
    setup: list[float] = []
    rounds: list[list[Outcome]] = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        if len(setup) < SETUP_PROBES:
            setup.append(setup_probe(cmds))
        rounds.append(run_round(cli, cmds))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(cmds))
    walls = [sum(o.seconds for o in r) for r in rounds]
    commands = [o.seconds for r in rounds for o in r]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "command_s.p50": statistics.median(commands),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    units = END_TO_END_UNITS
    note = (f"{len(rounds)} rounds of {len(cmds)} commands; wall_s per round "
            f"{min(walls):.3f}..{max(walls):.3f} s; setup probes "
            f"{min(setup):.3f}..{max(setup):.3f} s")
    return rounds, metrics, units, [], note


def per_layer(cli, cmds, seconds: float, trace_path: Path):
    rounds: list[list[Outcome]] = []
    plain_walls, traced_walls, layers = [], [], []
    problems: list[str] = []
    start = time.perf_counter()
    tracer = None
    while not layers or time.perf_counter() - start < seconds:
        plain = run_round(cli, cmds, keep_reports=True)
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            traced = run_round(cli, cmds, tracer, keep_reports=True)
        rounds += [plain, traced]
        plain_walls.append(sum(o.seconds for o in plain))
        traced_walls.append(sum(o.seconds for o in traced))
        layers.append(tracing.layer_metrics(tracer, sum(o.report_bytes for o in traced)))
        for cmd, a, b in zip(cmds, plain, traced):
            if a.reports != b.reports:
                problems.append(f"{cmd.label}: traced reports differ from untraced ones")
            a.reports = b.reports = None
    tracer.write(trace_path)
    counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in layers]
    if any(c != counts[0] for c in counts):
        problems.append("traced call counts differ between rounds")
    metrics = {name: (counts[0][name] if name in counts[0]
                      else statistics.median(m[name] for m in layers))
               for name in layers[0]}
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(plain_walls))
    units = {name: per_layer_unit(name) for name in metrics}
    note = f"{len(layers)} untraced + {len(layers)} traced rounds of {len(cmds)} commands"
    return rounds, metrics, units, problems, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    cli = load_altkit_cli()
    out_root = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    workers = min(MAX_WORKERS, len(os.sched_getaffinity(0)))
    cmds = workloads.commands(args.workload, args.seed, workers, out_root)

    if args.trace:
        rounds, metrics, units, problems, note = per_layer(
            cli, cmds, args.seconds, out_root / "trace.jsonl")
    else:
        rounds, metrics, units, problems, note = end_to_end(cli, cmds, args.seconds)
    attempted, failed, correct, lines = tally(rounds, cmds)
    correct &= not problems

    print(f"{args.workload} seed {args.seed} workers {workers}: {note}")
    for line in lines + problems:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    print(f"  attempted {attempted}, failed {failed}, correct {correct}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
