"""Command-line surface: verify | reconstruct | concavity | smoothness | alep | catalog.

Every command reads an optional JSON config (flags override fields),
echoes the resolved config into each JSON report so any artifact can
reproduce its run, and
exits 0 on pass, 1 when a property fails or a witness is found, 2 on
usage/config errors.  Re-running with the same config and seed yields
byte-identical reports apart from the timestamp field.
"""
from __future__ import annotations

import argparse
import csv
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .axioms import ALL_AXIOMS, Record, run_axiom_suite
from .concavity import check_gossen_law
from .config import RunConfig
from .errors import AltkitError, ConfigError
from .fixtures import UtilitySpec, catalog, intensity_catalog, oracle_by_name, spec_by_name
from .diffcalc import alep_classify
from . import ladder
from .ladder import ReconstructedUtility, representation_spot_check, verify_affine_uniqueness
from .sampling import draw
from .smoothness import LINE_SMOOTH, debreu_smoothness_proxy, line_smoothness_limit


# ----------------------------------------------------------------------------
# Report plumbing
# ----------------------------------------------------------------------------

def _out_path(cfg: RunConfig, name: str) -> Path:
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir / name


def _write_report(cfg: RunConfig, name: str, payload: dict) -> Path:
    doc = {"config": cfg.to_dict(),
           "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
           **payload}
    path = _out_path(cfg, name)
    with path.open("w") as fh:
        Record.dump(doc, fh)
        fh.write("\n")
    return path


def _write_csv(cfg: RunConfig, name: str, rows: list[list]) -> None:
    with _out_path(cfg, name).open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _resolve_oracle(cfg: RunConfig):
    return oracle_by_name(cfg.oracle, cfg.box_override(), cfg.eps_eq)


# ----------------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------------

def cmd_verify(cfg: RunConfig) -> int:
    oracle = _resolve_oracle(cfg)
    axioms = cfg.axioms or list(ALL_AXIOMS)
    reports = run_axiom_suite(oracle, axioms, trials=cfg.trials, seed=cfg.seed,
                              delta=cfg.delta, probes=cfg.probes)
    all_pass = True
    for name, report in reports.items():
        _write_report(cfg, f"verify-{name}.json", {"report": report.to_dict()})
        status = "pass" if report.passed else "FAIL"
        flag = " (proxy)" if report.proxy else ""
        print(f"{name}: {status}{flag} "
              f"[violations {report.violation_count}/{report.trials}, "
              f"skipped {report.skipped}]")
        all_pass &= report.passed
    return 0 if all_pass else 1


def cmd_reconstruct(cfg: RunConfig) -> int:
    oracle = _resolve_oracle(cfg)
    seg = oracle.domain.diagonal()
    pairs = [cfg.anchors] + ([] if cfg.second_anchors is None else [cfg.second_anchors])
    # Both ladders are built, in one solve, before any report is written.
    ladders = ladder.build_ladder(oracle, [(seg.at(lo), seg.at(hi)) for lo, hi in pairs],
                                  cfg.depth, cfg.tol_t, seg)
    recons = [ReconstructedUtility(oracle, lad) for lad in ladders]
    recon, *second = recons
    # The spot check's quadruples and the fit's points are drawn first, and
    # valued with the grid for every reconstruction in one solve, before
    # any report is written, so an impossible grid leaves no report.  Fit
    # point i is quadruple i's first point, so only the fit's points past
    # the quadruples are added, after them.
    grid = oracle.domain.lattice(cfg.grid)
    quads = draw(oracle.domain, None, cfg.seed, cfg.trials, 4)[0]
    extra = ladder.affine_draw(oracle.domain, cfg.seed, quads)[cfg.trials:] if second else grid[:0]
    g, q = len(grid), 4 * cfg.trials
    at = np.r_[g:g + q:4, g + q:g + q + len(extra)][:ladder.AFFINE_SAMPLES]    # the fit's rows
    values = ladder.evaluate_together(recons, np.concatenate((grid, quads.reshape(q, -1), extra)))
    rows: list[list] = [[f"x{i}" for i in range(oracle.dim)] + ["value"]]
    for point, value in zip(grid.tolist(), values[0][:g].tolist()):
        rows.append(point + [value])
    _write_report(cfg, "reconstruction.json", {"reconstruction": recon.to_dict()})
    _write_csv(cfg, "grid.csv", rows)

    spot = representation_spot_check(recon, trials=cfg.trials, seed=cfg.seed,
                                     valued=(quads, values[0][g:g + q].reshape(cfg.trials, 4)))
    _write_report(cfg, "representation.json", {"report": spot.to_dict()})
    print(f"representation spot-check: {'pass' if spot.passed else 'FAIL'} "
          f"[violations {spot.violation_count}/{spot.trials}, "
          f"in-band {spot.extras.get('in_band', 0)}]")
    ok = spot.passed

    for recon_b, u_b in zip(second, values[1:]):
        fit = verify_affine_uniqueness(recon, recon_b, seed=cfg.seed,
                                       valued=(values[0][at], u_b[at]))
        _write_report(cfg, "affine.json", {"fit": fit.to_dict()})
        print(f"affine uniqueness: {fit.verdict} "
              f"[alpha {fit.alpha:.6g}, beta {fit.beta:.6g}, "
              f"max residual {fit.max_residual:.3g}]")
        ok &= fit.verdict == "pass"
    return 0 if ok else 1


def cmd_concavity(cfg: RunConfig) -> int:
    oracle = _resolve_oracle(cfg)
    verdict = check_gossen_law(oracle, trials=cfg.trials, seed=cfg.seed)
    _write_report(cfg, "concavity.json", {"gossen": verdict.to_dict()})
    print(f"midpoint gain law: {verdict.verdict} "
          f"[violations {verdict.violation_count}/{verdict.trials}, "
          f"strict {verdict.strict_count}, equal {verdict.equal_count}]")
    if not verdict.holds:
        return 1
    if cfg.strict and not verdict.strict:
        return 1
    return 0


def cmd_smoothness(cfg: RunConfig) -> int:
    oracle = _resolve_oracle(cfg)
    lo, hi = oracle.domain.diagonal_scale_range()
    b = cfg.b if cfg.b is not None else 0.5 * (lo + hi)
    line = line_smoothness_limit(oracle, b)
    debreu = debreu_smoothness_proxy(oracle, trials=cfg.debreu_trials, seed=cfg.seed,
                                     tol_t=cfg.tol_t)
    _write_report(cfg, "smoothness.json",
                  {"line": line.to_dict(), "debreu": debreu.to_dict()})
    _write_csv(cfg, "quotients.csv", line.csv_rows())
    est = "n/a" if line.estimate is None else f"{line.estimate:.6g}"
    unc = "n/a" if line.uncertainty is None else f"{line.uncertainty:.2g}"
    print(f"line smoothness at b={b:g}: {line.verdict} [limit {est} +/- {unc}]")
    print(f"calibration smoothness proxy: {'pass' if debreu.passed else 'FAIL'} "
          f"[violations {debreu.violation_count}/{debreu.trials}, skipped {debreu.skipped}]")
    return 0 if line.verdict == LINE_SMOOTH and debreu.passed else 1


def cmd_alep(cfg: RunConfig) -> int:
    spec = spec_by_name(cfg.oracle)
    if not isinstance(spec, UtilitySpec):
        raise ConfigError(
            f"{cfg.oracle!r} is not a utility fixture or JSON utility file "
            "(intensity-only fixtures have no value function to differentiate)")
    box = cfg.box_override() or spec.domain
    if box.dim != spec.dim:
        raise ConfigError(f"domain dimension {box.dim} != utility dimension {spec.dim}")
    try:
        inner = box.shrunk(2.0 * cfg.h)
    except ValueError:                   # the margins meet
        raise ConfigError(f"h={cfg.h} leaves no box inside the 2h margin") from None
    points = inner.lattice(cfg.grid)
    labels = alep_classify(spec, points, pair=(cfg.pair[0], cfg.pair[1]),
                           h=cfg.h, threshold=cfg.threshold, box=box)
    _write_report(cfg, "alep.json",
                  {"classifications": [c.to_dict() for c in labels]})
    rows: list[list] = [[f"x{i}" for i in range(spec.dim)] + ["estimate", "label"]]
    for c in labels:
        rows.append(list(c.point) + [c.estimate, c.label])
    _write_csv(cfg, "alep.csv", rows)
    tally: dict[str, int] = {}
    for c in labels:
        tally[c.label] = tally.get(c.label, 0) + 1
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(tally.items()))
    print(f"classified {len(labels)} points ({summary})")
    return 0


def _catalog_row(spec, kind: str) -> dict:
    return {"name": spec.name, "dimension": spec.dim, "kind": kind,
            "domain": {"lower": spec.domain.lower.tolist(), "upper": spec.domain.upper.tolist()}}


def cmd_catalog(as_json: bool) -> int:
    utilities = [{**_catalog_row(s, "utility"), **s.tag_dict()} for s in catalog()]
    intensities = [_catalog_row(s, "intensity") for s in intensity_catalog()]
    if as_json:
        print(Record.dumps({"utilities": utilities, "intensities": intensities}))
        return 0
    print(f"{'name':<18} {'kind':<10} {'dim':<4} {'concavity':<17} "
          f"{'monotone':<9} {'smooth (debreu/line)'}")
    for row in utilities:
        smooth = f"{row['debreu_smooth']}/{row['line_smooth']}"
        print(f"{row['name']:<18} {row['kind']:<10} {row['dimension']:<4} "
              f"{str(row['concavity']):<17} {str(row['monotone']):<9} {smooth}")
    for row in intensities:
        print(f"{row['name']:<18} {row['kind']:<10} {row['dimension']:<4} "
              f"{'-':<17} {'-':<9} -")
    return 0


# ----------------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its fields")
    common.add_argument("--oracle", help="catalog fixture name or JSON utility file")
    # Every command takes, validates and echoes --seed, --trials, --eps-eq and
    # --tol-t, but not every command reads them: each help names those that do not.
    common.add_argument("--seed", type=int, help="master seed (default 0); ignored by alep")
    common.add_argument("--trials", type=int,
                        help="sample count for randomized checks; smoothness reads "
                             "--debreu-trials instead, and alep reads neither")
    common.add_argument("--workers", type=int,
                        help="ignored: trials run in index order on one thread "
                             "(accepted, validated and echoed for compatibility)")
    common.add_argument("--outdir", help="report directory (default altkit-reports)")
    common.add_argument("--eps-eq", type=float, dest="eps_eq",
                        help="oracle equality dead band (default: scaled to value range); "
                             "ignored by alep, which calls the utility, not the oracle")
    common.add_argument("--tol-t", type=float, dest="tol_t",
                        help="bisection tolerance in segment parameter, read by reconstruct "
                             "and smoothness's calibration proxy only: verify's crossover "
                             "solves to solvers.DEFAULT_TOL_T, and concavity and alep "
                             "bisect nothing")
    common.add_argument("--domain-lower", type=float, nargs="+", dest="domain_lower",
                        help="override box lower corner")
    common.add_argument("--domain-upper", type=float, nargs="+", dest="domain_upper",
                        help="override box upper corner")

    parser = argparse.ArgumentParser(
        prog="altkit",
        description="Verify intensity-comparison axioms, reconstruct cardinal "
                    "utility, and diagnose concavity and smoothness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="run the randomized axiom checkers")
    p.add_argument("--axioms", nargs="+", choices=ALL_AXIOMS,
                   help="subset of axioms (default: all)")
    p.add_argument("--delta", type=float, help="continuity-proxy perturbation fraction")
    p.add_argument("--probes", type=int, help="continuity-proxy probes per quadruple")

    p = sub.add_parser("reconstruct", parents=[common],
                       help="build the dyadic ladder and emit the utility")
    p.add_argument("--depth", type=int, help="ladder depth K (default 10)")
    p.add_argument("--anchors", type=float, nargs=2,
                   help="diagonal parameters of the two anchors (default 0.25 0.75)")
    p.add_argument("--second-anchors", type=float, nargs=2, dest="second_anchors",
                   help="second anchor pair: also fit the affine-uniqueness model")
    p.add_argument("--grid", type=int, help="CSV tabulation points per axis")

    p = sub.add_parser("concavity", parents=[common],
                       help="check the midpoint gain law (diminishing marginal utility)")
    p.add_argument("--strict", action="store_const", const=True,
                   help="require strict concavity for exit 0")

    p = sub.add_parser("smoothness", parents=[common],
                       help="line-smoothness limit and calibration smoothness proxy")
    p.add_argument("--b", type=float, help="diagonal scale (default: middle of the range)")
    p.add_argument("--debreu-trials", type=int, dest="debreu_trials",
                   help="sample count for the calibration proxy")

    p = sub.add_parser("alep", parents=[common],
                       help="substitute/complement classification on a value grid")
    p.add_argument("--pair", type=int, nargs=2, help="goods pair (default 0 1)")
    p.add_argument("--h", type=float, help="finite-difference step")
    p.add_argument("--threshold", type=float, help="neutral dead band on the cross-partial")
    p.add_argument("--grid", type=int, help="grid points per axis")

    p = sub.add_parser("catalog", help="list built-in fixtures and their tags")
    p.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {name: getattr(args, name) for name in RunConfig.field_names()
                 if hasattr(args, name)}
    lower, upper = getattr(args, "domain_lower", None), getattr(args, "domain_upper", None)
    if (lower is None) != (upper is None):
        raise ConfigError("--domain-lower and --domain-upper must be given together")
    if lower is not None:
        overrides["domain"] = {"lower": lower, "upper": upper}
    cfg = cfg.merge_overrides(overrides)
    cfg.validate()
    return cfg


_COMMANDS = {
    "verify": cmd_verify,
    "reconstruct": cmd_reconstruct,
    "concavity": cmd_concavity,
    "smoothness": cmd_smoothness,
    "alep": cmd_alep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog":
        return cmd_catalog(args.as_json)
    try:
        cfg = _resolve_config(args)
        rc = _COMMANDS[args.command](cfg)
        print(f"reports written to {cfg.outdir}")
        return rc
    except ConfigError as bad:      # messages may quote multi-line array reprs
        print("config error: " + str(bad).replace("\n", " "), file=sys.stderr)
        return 2
    except AltkitError as bad:
        print("error: " + str(bad).replace("\n", " "), file=sys.stderr)
        return 1
    except MemoryError as bad:      # numpy refuses an array the sizes asked for
        print(f"config error: the sizes asked for do not fit in memory: {bad}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
