"""The benchmark's three workloads, as lists of altkit CLI commands.

Every command gets an explicit ``--seed`` (the benchmark seed) and
``--workers``, and its own report directory.  The settings below fix how
much work one round of each workload does; README.md says why each was
chosen.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from reference import CATALOG_UTILITIES, SECOND_ANCHORS

AXIOMS = ("consistency", "crossover", "second-consistency", "continuity-proxy",
          "monotonicity")
VERIFY_TRIALS = 1000

RECONSTRUCT_FIXTURES = ("linear", "cobb_douglas", "ces", "log_sum", "exp1d",
                        "kinked_composite", "min2")
RECONSTRUCT_DEPTH = 10
RECONSTRUCT_TRIALS = 200
RECONSTRUCT_GRID = 11

CONCAVITY_FIXTURES = ("linear", "cobb_douglas", "log_sum", "neg_quadratic", "exp1d")
CONCAVITY_TRIALS = 2000
SMOOTHNESS_FIXTURES = ("kinked_composite", "min2", "cobb_douglas")
SMOOTHNESS_B = 1.0
DEBREU_TRIALS = 80
ALEP_UTILITIES = ("cobb_douglas", "linear", "log_sum", "bilinear")
ALEP_GRID = 21
ALEP_H = 1e-3
ALEP_THRESHOLD = 1e-3

WORKLOADS = ("verify-catalog", "reconstruct-ladder", "shape-diagnostics")

INPUTS = Path(__file__).resolve().parent / "inputs"
JSON_UTILITIES = {"sqrt_log", "bilinear"}


@dataclass(frozen=True)
class Command:
    """One ``altkit`` invocation and what its checks need to know."""

    kind: str            # altkit subcommand, or "fault" for the known-fault run
    ref: str             # key into the reference tables
    argv: tuple[str, ...]
    outdir: str
    seed: int
    settings: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.ref}"


def command(kind: str, ref: str, seed: int, workers: int, outdir: Path,
            extra: list[str], settings: dict, subcommand: str | None = None) -> Command:
    """One command with the arguments every benchmark command shares."""
    oracle = str(INPUTS / f"{ref}.json") if ref in JSON_UTILITIES else ref
    argv = [subcommand or kind, "--oracle", oracle, "--seed", str(seed),
            "--workers", str(workers), "--outdir", str(outdir), *extra]
    return Command(kind, ref, tuple(argv), str(outdir), seed, settings)


def commands(workload: str, seed: int, workers: int, out_root: Path) -> list[Command]:
    """The commands of one round of ``workload``, in the order they run."""
    out: list[Command] = []

    def add(kind: str, ref: str, extra: list[str], settings: dict,
            subcommand: str | None = None) -> None:
        outdir = out_root / f"{len(out):02d}-{kind}-{ref}"
        out.append(command(kind, ref, seed, workers, outdir, extra, settings, subcommand))

    if workload == "verify-catalog":
        for ref in (*CATALOG_UTILITIES, "broken_crossover", "sqrt_log"):
            add("verify", ref, ["--trials", str(VERIFY_TRIALS), "--axioms", *AXIOMS],
                {"trials": VERIFY_TRIALS})
        # Known fault: log(0) on this box escapes altkit.cli.main as a raw
        # ValueError instead of exit 2.  Counted as failed until mended.
        add("fault", "log_sum", ["--trials", str(VERIFY_TRIALS),
                                 "--domain-lower", "0", "0", "--domain-upper", "1", "1"],
            {}, subcommand="verify")
    elif workload == "reconstruct-ladder":
        for ref in RECONSTRUCT_FIXTURES:
            add("reconstruct", ref,
                ["--depth", str(RECONSTRUCT_DEPTH), "--trials", str(RECONSTRUCT_TRIALS),
                 "--grid", str(RECONSTRUCT_GRID),
                 "--second-anchors", *(str(v) for v in SECOND_ANCHORS)],
                {"depth": RECONSTRUCT_DEPTH, "trials": RECONSTRUCT_TRIALS,
                 "grid": RECONSTRUCT_GRID})
    elif workload == "shape-diagnostics":
        for ref in CONCAVITY_FIXTURES:
            add("concavity", ref, ["--trials", str(CONCAVITY_TRIALS)],
                {"trials": CONCAVITY_TRIALS})
        for ref in SMOOTHNESS_FIXTURES:
            add("smoothness", ref, ["--b", str(SMOOTHNESS_B),
                                    "--debreu-trials", str(DEBREU_TRIALS)],
                {"b": SMOOTHNESS_B, "debreu_trials": DEBREU_TRIALS})
        for ref in ALEP_UTILITIES:
            add("alep", ref, ["--grid", str(ALEP_GRID), "--h", str(ALEP_H),
                              "--threshold", str(ALEP_THRESHOLD)],
                {"grid": ALEP_GRID, "h": ALEP_H, "threshold": ALEP_THRESHOLD})
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return out
