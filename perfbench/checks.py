"""Output checks: each altkit report is compared with the closed forms in
``reference``.  A check returns a list of problems; an empty list means
the command's exit code and every report it wrote are as expected.

The checks read only the bytes a command wrote, so the tests can feed
them deliberately wrong reports.
"""
from __future__ import annotations

import csv
import io
import json
import math

import reference as ref
from workloads import AXIOMS, Command

# Verdicts of the method, derived from the closed forms (see reference.py).
# broken_crossover: [x,y] vs [y,y] compares x0 - 2y0 with -y0, i.e. x0 with
# y0, so it is monotone and consistent; only crossover breaks.
BROKEN = "broken_crossover"
NEAR_TIE_LIMIT = 5  # neg_quadratic: equal pairs allowed, see check_concavity


def _json(files: dict[str, bytes], name: str) -> dict:
    if name not in files:
        raise KeyError(f"report {name} was not written")
    return json.loads(files[name])


def _csv(files: dict[str, bytes], name: str) -> list[list[str]]:
    if name not in files:
        raise KeyError(f"table {name} was not written")
    return list(csv.reader(io.StringIO(files[name].decode())))


def _box(cmd: Command) -> tuple[tuple[float, ...], tuple[float, ...]]:
    if cmd.ref == BROKEN:
        return ref.BROKEN_CROSSOVER_BOX
    util = ref.UTILITIES[cmd.ref]
    return util.lower, util.upper


def _in_box(point, box) -> bool:
    lower, upper = box
    return len(point) == len(lower) and all(
        lo <= v <= hi for v, lo, hi in zip(point, lower, upper))


def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


def check(cmd: Command, rc, err: str, files: dict[str, bytes]) -> list[str]:
    """Problems with one command's exit code and outputs (empty when right)."""
    try:
        return _CHECKS[cmd.kind](cmd, rc, err, files)
    except (KeyError, ValueError, TypeError, IndexError) as bad:
        return [f"unreadable output: {type(bad).__name__}: {bad}"]


def check_fault(cmd: Command, rc, err: str, files: dict[str, bytes]) -> list[str]:
    """The exit-code contract: an evaluator failure is a usage error (2)."""
    if rc != 2:
        return [f"exit {rc!r}, expected 2"]
    if not err.strip():
        return ["exit 2 without an error line"]
    return []


def _report_basics(report: dict, trials: int, seed: int) -> list[str]:
    problems = []
    if report["trials"] != trials or report["seed"] != seed:
        problems.append(f"trials/seed {report['trials']}/{report['seed']}, "
                        f"expected {trials}/{seed}")
    count = report["violation_count"]
    if report["verdict"] != ("fail" if count else "pass"):
        problems.append(f"verdict {report['verdict']!r} with {count} violations")
    if len(report["violations"]) > count or (count and not report["violations"]):
        problems.append(f"{len(report['violations'])} witnesses for {count} violations")
    return problems


def _broken_crossover_witness(w: dict, eps: float) -> str | None:
    g, p = ref.broken_crossover_g, w["points"]
    if w["note"] == "null-brackets":
        if abs(g(p["x"], p["x"]) - g(p["y"], p["y"])) <= eps:
            return "null-bracket witness has g(x,x) = g(y,y)"
        return None
    if w["note"] != "rebracket":
        return f"unknown crossover witness note {w['note']!r}"
    premise = g(p["z"], p["w"]) - g(p["x"], p["y"])
    swapped = g(p["x"], p["z"]) - g(p["y"], p["w"])
    if abs(premise) > eps:
        return f"rebracket premise off the dead band by {abs(premise):.3g}"
    if abs(swapped) <= eps:
        return "rebracket swapped comparison is inside the dead band"
    return None


def check_verify(cmd: Command, rc, err: str, files: dict[str, bytes]) -> list[str]:
    problems = []
    box = _box(cmd)
    broken = cmd.ref == BROKEN
    expected_fail = {"crossover"} if broken else (
        set() if ref.strictly_increasing(cmd.ref) else {"monotonicity"})
    continuous = broken or ref.UTILITIES[cmd.ref].continuous
    eps = ref.broken_crossover_dead_band() if broken else ref.dead_band(cmd.ref)
    for axiom in AXIOMS:
        report = _json(files, f"verify-{axiom}.json")["report"]
        where = f"{axiom}: "
        problems += [where + p for p in _report_basics(report, cmd.settings["trials"],
                                                       cmd.seed)]
        if axiom != "continuity-proxy" or continuous:
            want = "fail" if axiom in expected_fail else "pass"
            if report["verdict"] != want:
                problems.append(f"{where}verdict {report['verdict']!r}, expected {want!r}")
        for w in report["violations"]:
            if not all(_in_box(p, box) for p in w["points"].values()):
                problems.append(f"{where}witness point outside the box")
            if axiom == "crossover" and broken:
                bad = _broken_crossover_witness(w, eps)
                if bad:
                    problems.append(where + bad)
            if axiom == "monotonicity" and not broken:
                x, y = w["points"]["x"], w["points"]["y"]
                u = ref.UTILITIES[cmd.ref].u
                if not all(a > b for a, b in zip(x, y)) or u(x) - u(y) > eps:
                    problems.append(f"{where}witness is a strict improvement")
    want_rc = 1 if expected_fail else 0
    if rc != want_rc:
        problems.append(f"exit {rc!r}, expected {want_rc}")
    return problems


def check_reconstruct(cmd: Command, rc, err: str, files: dict[str, bytes]) -> list[str]:
    problems = []
    depth, grid = cmd.settings["depth"], cmd.settings["grid"]
    util = ref.UTILITIES[cmd.ref]
    if rc != 0:
        problems.append(f"exit {rc!r}, expected 0")
    recon = _json(files, "reconstruction.json")["reconstruction"]
    if recon["ladder"]["depth"] != depth:
        problems.append(f"ladder depth {recon['ladder']['depth']}, expected {depth}")

    rows = _csv(files, "grid.csv")
    header = [f"x{i}" for i in range(util.dim)] + ["value"]
    if rows[0] != header:
        problems.append(f"grid.csv header {rows[0]}")
    points = ref.lattice(util.lower, util.upper, grid)
    if len(rows) - 1 != len(points):
        problems.append(f"grid.csv has {len(rows) - 1} rows, expected {len(points)}")
    budget = 2.0 ** -depth
    lo, hi = ref.reconstruction_range(cmd.ref)
    for row, p in zip(rows[1:], points):
        coords, value = [float(v) for v in row[:-1]], float(row[-1])
        if not all(_close(c, q, 1e-12 * (1.0 + abs(q))) for c, q in zip(coords, p)):
            problems.append(f"grid.csv point {coords} is not on the {grid}-point lattice")
            break
        expected = min(max(ref.normalised(cmd.ref, coords), lo), hi)
        if not _close(value, expected, budget):
            problems.append(f"grid value {value:.6g} at {coords} is "
                            f"{abs(value - expected):.3g} from {expected:.6g} "
                            f"(budget {budget:.3g})")
            break

    spot = _json(files, "representation.json")["report"]
    problems += ["representation: " + p
                 for p in _report_basics(spot, cmd.settings["trials"], cmd.seed)]
    if spot["violation_count"] != 0:
        problems.append(f"representation spot check: {spot['violation_count']} violations")

    # The fit inherits the interpolation budget: samples in an edge strip
    # are clamped to the outermost rung, up to one rung step off.  alpha and
    # beta are mostly within 1e-7 of the closed form, but exp1d reaches 5e-6
    # on some seeds (20, 22, 26, 31, 32, 42), so the bound is one rung step.
    fit = _json(files, "affine.json")["fit"]
    alpha, beta = ref.affine_constants(cmd.ref)
    if not (_close(fit["alpha"], alpha, budget) and _close(fit["beta"], beta, budget)):
        problems.append(f"affine fit ({fit['alpha']:.9g}, {fit['beta']:.9g}), "
                        f"closed form ({alpha:.9g}, {beta:.9g})")
    if not fit["max_residual"] <= budget:
        problems.append(f"affine residual {fit['max_residual']:.3g} over one rung step")
    if fit["verdict"] != "pass":
        problems.append(f"affine verdict {fit['verdict']!r}")
    return problems


def check_concavity(cmd: Command, rc, err: str, files: dict[str, bytes]) -> list[str]:
    problems = []
    g = _json(files, "concavity.json")["gossen"]
    trials = cmd.settings["trials"]
    if g["trials"] != trials or g["seed"] != cmd.seed:
        problems.append(f"trials/seed {g['trials']}/{g['seed']}")
    if g["violation_count"] + g["strict_count"] + g["equal_count"] + g["below_floor"] != trials:
        problems.append("trial outcomes do not add up to the trial count")
    eps = ref.dead_band(cmd.ref)
    concave = ref.midpoint_concave(cmd.ref)
    if concave:
        if g["verdict"] not in ("holds", "holds-strictly") or g["violation_count"]:
            problems.append(f"verdict {g['verdict']!r} on a concave closed form")
    elif g["verdict"] != "fails":
        problems.append(f"verdict {g['verdict']!r} on a non-concave closed form")
    for w in g["violations"]:
        x, y, z = w["points"]["x"], w["points"]["y"], w["points"]["z"]
        if not all(_close(c, 0.5 * (a + b), 1e-12 * (1 + abs(c))) for a, b, c in zip(x, y, z)):
            problems.append("witness z is not the midpoint of x and y")
        if not ref.gain_law_margin(cmd.ref, x, y) < -eps:
            problems.append("witness satisfies the midpoint gain law")
    if ref.affine(cmd.ref) and (g["verdict"] != "holds" or g["strict_count"]):
        problems.append(f"affine utility reads {g['verdict']!r} with "
                        f"{g['strict_count']} strict pairs")
    if cmd.ref == "neg_quadratic":
        # Strictly concave: every pair outside the dead band is strict.  Pairs
        # closer than the near-tie radius (4.5e-5 here) read EQUAL, and the
        # strictness floor (2e-6) does not exclude them; about 0.09 such pairs
        # are expected per 2000 trials, so more than NEAR_TIE_LIMIT means
        # strict pairs were misread.
        if g["equal_count"] > NEAR_TIE_LIMIT:
            problems.append(f"{g['equal_count']} equal pairs on a strictly concave form")
        if (g["verdict"] == "holds-strictly") != (g["equal_count"] == 0):
            problems.append(f"verdict {g['verdict']!r} with {g['equal_count']} equal pairs")
    want_rc = 0 if concave else 1
    if rc != want_rc:
        problems.append(f"exit {rc!r}, expected {want_rc}")
    return problems


def _calibration_witness(w: dict, util: ref.Utility, extras: dict) -> str | None:
    """Recompute the proxy's difference quotients from the closed-form a(x)."""
    x = w["points"]["x"]
    axis = int(w["outputs"]["axis"])
    h = extras["h_fraction"] * (util.upper[axis] - util.lower[axis])
    a = util.calibration

    def at(step):
        p = list(x)
        p[axis] += step
        return a(p)

    want = {"central_h": (at(h) - at(-h)) / (2 * h),
            "central_h2": (at(h / 2) - at(-h / 2)) / h,
            "left": (a(x) - at(-h / 2)) / (h / 2),
            "right": (at(h / 2) - a(x)) / (h / 2)}
    for key, value in want.items():
        if not _close(float(w["outputs"][key]), value, 1e-4 * max(1.0, abs(value))):
            return f"{key} {w['outputs'][key]} differs from closed form {value:.6g}"
    d1, d2 = want["central_h"], want["central_h2"]
    drift = abs(d2 - d1) > extras["rel_tol"] * max(1.0, abs(d2))
    kink = abs(want["left"] - want["right"]) > extras["one_sided_tol"] * max(1.0, abs(d2))
    if not (drift if w["note"] == "step-halving drift" else kink):
        return f"closed form shows no {w['note']!r} at {x}"
    return None


def check_smoothness(cmd: Command, rc, err: str, files: dict[str, bytes]) -> list[str]:
    problems = []
    doc = _json(files, "smoothness.json")
    line, debreu = doc["line"], doc["debreu"]
    b = cmd.settings["b"]
    util = ref.UTILITIES[cmd.ref]
    if line["b"] != b or not line["rows"]:
        problems.append(f"line table at b={line['b']} with {len(line['rows'])} rows")
    for row in line["rows"]:
        a, f = row["a"], row["f"]
        want = (ref.kinked_midpoint(a) if cmd.ref == "kinked_composite"
                else ref.diagonal_midpoint(cmd.ref, a, b))
        if not _close(f, want, 1e-6):
            problems.append(f"f({a:.6g}, {b:g}) = {f:.12g}, closed form {want:.12g}")
        if not _close(row["quotient"], (b - f) / a, 1e-9 * max(1.0, abs(row["quotient"]))):
            problems.append(f"quotient at a={a:.6g} is not (b - f)/a")
    limit = ref.LINE_LIMITS[cmd.ref]
    if line["estimate"] is None or not _close(line["estimate"], limit, 1e-3):
        problems.append(f"limit {line['estimate']}, closed form {limit}")
    want_line = "line-smooth" if limit == 0.0 else "not-line-smooth"
    if line["verdict"] != want_line:
        problems.append(f"line verdict {line['verdict']!r}, expected {want_line!r}")
    table = _csv(files, "quotients.csv")
    if table[0] != ["a", "f", "quotient"] or [
            [float(v) for v in r] for r in table[1:]] != [
            [r["a"], r["f"], r["quotient"]] for r in line["rows"]]:
        problems.append("quotients.csv differs from the JSON rows")

    problems += ["debreu: " + p for p in _report_basics(
        debreu, cmd.settings["debreu_trials"], cmd.seed)]
    for w in debreu["violations"]:
        bad = _calibration_witness(w, util, debreu["extras"])
        if bad:
            problems.append("debreu: " + bad)
    want_rc = 0 if (line["verdict"] == "line-smooth" and debreu["verdict"] == "pass") else 1
    if rc != want_rc:
        problems.append(f"exit {rc!r}, expected {want_rc}")
    return problems


def check_alep(cmd: Command, rc, err: str, files: dict[str, bytes]) -> list[str]:
    problems = []
    util = ref.UTILITIES[cmd.ref]
    h, threshold, grid = (cmd.settings[k] for k in ("h", "threshold", "grid"))
    if rc != 0:
        problems.append(f"exit {rc!r}, expected 0")
    labels = _json(files, "alep.json")["classifications"]
    inner = ([v + 2 * h for v in util.lower], [v - 2 * h for v in util.upper])
    points = ref.lattice(*inner, grid)
    if len(labels) != len(points):
        problems.append(f"{len(labels)} classifications, expected {len(points)}")
    for c, p in zip(labels, points):
        x = c["point"]
        if not all(_close(a, b, 1e-12 * (1 + abs(b))) for a, b in zip(x, p)):
            problems.append(f"point {x} is not on the {grid}-point lattice")
            break
        exact = util.cross_partial(x)
        # Mean of the h and h/2 stencils: error (h^2/6)(u_xxxy + u_xyyy) at
        # most, doubled for the fourth derivatives' variation over the
        # stencil, plus rounding.
        tol = 2.0 * h * h / 6.0 * util.cross_fourth(x) + 1e-6
        if not _close(c["estimate"], exact, tol):
            problems.append(f"estimate {c['estimate']:.6g} at {x}, analytic {exact:.6g} "
                            f"(tolerance {tol:.2g})")
            break
        label = ("complement" if exact > threshold else
                 "substitute" if exact < -threshold else "neutral")
        if c["label"] != label:
            problems.append(f"label {c['label']!r} at {x}, analytic sign says {label!r}")
            break
    table = _csv(files, "alep.csv")
    if [r[-1] for r in table[1:]] != [c["label"] for c in labels]:
        problems.append("alep.csv labels differ from the JSON")
    return problems


_CHECKS = {
    "fault": check_fault,
    "verify": check_verify,
    "reconstruct": check_reconstruct,
    "concavity": check_concavity,
    "smoothness": check_smoothness,
    "alep": check_alep,
}
