"""End-to-end acceptance checks, one test per criterion.

Each test prints a single CRITERION n: PASS/FAIL line (visible with -s,
and echoed into the failure report otherwise) and asserts every stated
numeric tolerance and runtime budget.
"""
import math
import time

import numpy as np

from altkit.axioms import check_crossover, run_axiom_suite, replay_witness
from altkit.concavity import check_gossen_law
from altkit.diffcalc import alep_classify, numeric_gradient, numeric_hessian
from altkit.domain import BoxDomain
from altkit.fixtures import catalog, oracle_by_name
from altkit.ladder import (ReconstructedUtility, archimedean_count, build_ladder,
                           check_density, representation_spot_check, verify_affine_uniqueness)
from altkit.oracle import AltOracle, IntensityOrder, classify
from altkit.smoothness import (debreu_smoothness_proxy, line_smoothness_limit,
                               solve_f)
from closed_forms import GRADIENT, HESSIAN

E = IntensityOrder.EQUAL

CONTINUOUS_MONOTONE = [s.name for s in catalog() if s.monotone and s.continuous]


def _finish(n: int, failures: list[str], detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"CRITERION {n}: {status} — {detail}")
    assert not failures, f"criterion {n}: " + "; ".join(failures)


def test_criterion_1_kinked_quotient_limit():
    t0 = time.perf_counter()
    failures = []
    oracle = oracle_by_name("kinked_composite")
    worst = 0.0
    for a in (1e-2, 1e-3, 1e-4):
        err = abs(solve_f(oracle, a, 1.0) - (1.0 - a / 4))
        worst = max(worst, err)
        if err >= 1e-6:
            failures.append(f"solve_f error {err:.3g} at a={a} (need < 1e-6)")
    limit = line_smoothness_limit(oracle, 1.0)
    if limit.estimate is None or abs(limit.estimate - 0.25) > 1e-3:
        failures.append(f"limit {limit.estimate} not within 1e-3 of 0.25")
    if limit.verdict != "not-line-smooth":
        failures.append(f"verdict {limit.verdict!r}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s (budget 5s)")
    _finish(1, failures, f"max solve_f error {worst:.2e}, "
            f"limit {limit.estimate:.6f}, {elapsed:.2f}s")


def test_criterion_2_min2_line_smooth_but_not_debreu():
    t0 = time.perf_counter()
    failures = []
    oracle = oracle_by_name("min2")
    limit = line_smoothness_limit(oracle, 1.0)
    if limit.estimate is None or abs(limit.estimate) >= 1e-3:
        failures.append(f"line limit {limit.estimate} (need |.| < 1e-3)")
    diag = [[2.0, 2.0], [3.0, 3.0], [5.0, 5.0], [7.0, 7.0]]
    debreu = debreu_smoothness_proxy(oracle, points=diag, trials=4, seed=0)
    if debreu.passed:
        failures.append("calibration proxy did not fail at diagonal points")
    if not all(w.note == "one-sided kink" for w in debreu.violations):
        failures.append("diagonal witnesses are not one-sided kinks")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s (budget 10s)")
    _finish(2, failures, f"line limit {limit.estimate:.2e}, proxy "
            f"violations {debreu.violation_count}/4 on the diagonal, {elapsed:.2f}s")


def test_criterion_3_reconstruction_representation_and_uniqueness():
    failures = []
    details = []
    worst_time = 0.0
    for name in CONTINUOUS_MONOTONE:
        t0 = time.perf_counter()
        oracle = oracle_by_name(name)
        seg = oracle.domain.diagonal()
        ladders = build_ladder(oracle, [(seg.at(0.25), seg.at(0.75)), (seg.at(0.1), seg.at(0.9))],
                               depth=10)
        recon, other = (ReconstructedUtility(oracle, lad) for lad in ladders)
        spot = representation_spot_check(recon, trials=1000, seed=0)
        if spot.violation_count != 0:
            failures.append(f"{name}: {spot.violation_count} representation "
                            "mismatches outside the dead band")
        fit = verify_affine_uniqueness(recon, other, seed=0)
        if not (fit.alpha > 0 and fit.max_residual < 5e-3):
            failures.append(f"{name}: affine fit alpha={fit.alpha:.4g} "
                            f"residual={fit.max_residual:.3g}")
        elapsed = time.perf_counter() - t0
        worst_time = max(worst_time, elapsed)
        if elapsed >= 60.0:
            failures.append(f"{name}: runtime {elapsed:.1f}s (budget 60s/fixture)")
        details.append(f"{name} resid {fit.max_residual:.1e}")
    _finish(3, failures, f"{len(CONTINUOUS_MONOTONE)} fixtures at depth 10, "
            f"0 mismatches/10^3, worst fixture {worst_time:.1f}s; "
            + ", ".join(details))


def test_criterion_4_concavity_roundtrip_and_strictness():
    t0 = time.perf_counter()
    failures = []
    verdicts = {}
    for name in ("linear", "cobb_douglas", "log_sum", "neg_quadratic"):
        v = check_gossen_law(oracle_by_name(name), trials=10_000, seed=0)
        verdicts[name] = v
        if v.violation_count != 0:
            failures.append(f"{name}: {v.violation_count} violations in 10^4")
    convex = check_gossen_law(oracle_by_name("exp1d"), trials=10_000, seed=0)
    if convex.holds or len(convex.violations) < 1:
        failures.append("exp1d did not fail with a witness")
    if verdicts["linear"].strict:
        failures.append("linear misclassified as strictly concave")
    if not verdicts["neg_quadratic"].strict:
        failures.append("neg_quadratic not recognised as strictly concave")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s (budget 30s)")
    _finish(4, failures, "4 concave fixtures clean at 10^4, exp1d "
            f"{convex.violation_count} violations, linear={verdicts['linear'].verdict}, "
            f"neg_quadratic={verdicts['neg_quadratic'].verdict}, {elapsed:.1f}s")


def test_criterion_5_axiom_suite_and_crossover_counterexample():
    t0 = time.perf_counter()
    failures = []
    axioms = ["consistency", "crossover", "second-consistency", "continuity-proxy"]
    for spec in catalog():
        oracle = oracle_by_name(spec.name)
        reports = run_axiom_suite(oracle, axioms, trials=10_000, seed=0)
        for axiom, report in reports.items():
            if not report.passed:
                failures.append(f"{spec.name}/{axiom}: "
                                f"{report.violation_count} violations")

    broken = oracle_by_name("broken_crossover")
    report = check_crossover(broken, trials=10_000, seed=0)
    if report.passed:
        failures.append("broken_crossover passed crossover")
    rebracket = [w for w in report.violations if w.note == "rebracket"]
    if not rebracket:
        failures.append("no rebracket-class crossover witnesses")
    for w in rebracket:
        if w.outputs.get("premise") != "equal" or w.outputs.get("swapped") == "equal":
            failures.append("witness does not show [x,y]=[z,w] with [x,z]!=[y,w]")
            break

    # The canonical instance of that class: x=4, y=1, z=2 forces w=0, where
    # u(4)-u(1) = u(2)-u(0) = 2 but u(4)-u(2) = 0 != 1 = u(1)-u(0).
    pattern = check_crossover(broken, points=[[4.0], [1.0], [2.0]],
                              trials=1, seed=0)
    witness = pattern.violations[0] if pattern.violations else None
    if witness is None or witness.points != {"x": [4.0], "y": [1.0],
                                             "z": [2.0], "w": [0.0]}:
        failures.append("4/1/2/0 pattern not reproduced")
    elif (witness.outputs["premise"], witness.outputs["swapped"]) != ("equal", "less"):
        failures.append(f"4/1/2/0 outputs {witness.outputs}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s (budget 30s)")
    _finish(5, failures, f"9 oracles x 4 axioms x 10^4 trials clean; "
            f"broken_crossover {report.violation_count} violations incl. "
            f"{len(rebracket)} rebracket witnesses and the 4/1/2/0 instance, "
            f"{elapsed:.1f}s")


def test_criterion_6_numeric_calculus_and_alep():
    t0 = time.perf_counter()
    failures = []
    specs = {s.name: s for s in catalog()}
    cobb = specs["cobb_douglas"]
    x = np.array([2.0, 3.0])
    grad_errs = [float(np.abs(numeric_gradient(cobb, x, h=h)
                              - GRADIENT["cobb_douglas"](x)).max()) for h in (0.4, 0.2, 0.1)]
    hess_errs = [float(np.abs(numeric_hessian(cobb, x, h=h)
                              - HESSIAN["cobb_douglas"](x)).max()) for h in (0.4, 0.2, 0.1)]
    for label, errs in (("gradient", grad_errs), ("hessian", hess_errs)):
        for coarse, fine in zip(errs, errs[1:]):
            if coarse / fine < 3.0:
                failures.append(f"{label} ratio {coarse / fine:.2f} < 3 "
                                "on h halving")
    ratios = [g / f for g, f in zip(grad_errs, grad_errs[1:])]

    pts = [[1.0, 1.0], [2.0, 3.0], [5.0, 2.0]]
    labels = {name: {c.label for c in alep_classify(specs[name], pts)}
              for name in ("cobb_douglas", "linear", "log_sum")}
    if labels["cobb_douglas"] != {"complement"}:
        failures.append(f"cobb labels {labels['cobb_douglas']}")
    if labels["linear"] != {"neutral"}:
        failures.append(f"linear labels {labels['linear']}")
    if labels["log_sum"] != {"neutral"}:
        failures.append(f"log_sum labels {labels['log_sum']}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s (budget 10s)")
    _finish(6, failures, f"gradient error ratios {[f'{r:.2f}' for r in ratios]}, "
            f"ALEP cobb=complement linear/log_sum=neutral, {elapsed:.2f}s")


def test_criterion_7_ladder_properties_and_replay():
    t0 = time.perf_counter()
    failures = []

    # Equal-step invariant: consecutive deepest-level rungs re-compare
    # EQUAL through the oracle on two curved fixtures.
    for name in ("cobb_douglas", "log_sum"):
        oracle = oracle_by_name(name)
        seg = oracle.domain.diagonal()
        ladder, = build_ladder(oracle, [(seg.at(0.25), seg.at(0.75))], depth=6)
        lo_i, hi_i = ladder.index_range(6)
        rng = np.random.default_rng(1)
        bad = 0
        for _ in range(50):
            i = int(rng.integers(lo_i, hi_i - 1))
            a, b, c = (ladder.point(i, 6), ladder.point(i + 1, 6),
                       ladder.point(i + 2, 6))
            if oracle.compare(b, a, c, b) is not E:
                bad += 1
        if bad:
            failures.append(f"{name}: {bad}/50 unequal ladder steps")

    # Density: between any sampled pair more than two rung steps apart
    # there is a rung strictly between.
    oracle = oracle_by_name("cobb_douglas")
    seg = oracle.domain.diagonal()
    ladder, = build_ladder(oracle, [(seg.at(0.25), seg.at(0.75))], depth=6)
    density = check_density(oracle, ladder, trials=200, seed=0)
    if not density.passed:
        failures.append(f"density: {density.violation_count} gaps without a rung")

    # Archimedean counts against k = floor(gap/step) + 1.
    box = BoxDomain([0.0], [4.0])
    additive = AltOracle(1, box, lambda x, y, z, w:
                         classify((x[0] - y[0]) - (z[0] - w[0]), 1e-9), 1e-9)
    for z, expected in ((1.0, 1), (1.5, 1), (3.5, 3)):
        k, _ = archimedean_count(additive, [1.0], [0.0], [z])
        if k != expected or k != math.floor(z - 1.0) + 1:
            failures.append(f"additive walk to z={z}: k={k}, expected {expected}")
    k, _ = archimedean_count(oracle_by_name("exp1d"), [0.2], [0.1], [0.9])
    k_formula = math.floor((math.exp(0.9) - math.exp(0.2))
                           / (math.exp(0.2) - math.exp(0.1))) + 1
    if k != k_formula:
        failures.append(f"exp1d walk k={k} vs formula {k_formula}")

    # Replay determinism: identical reports on re-run, and stored broken
    # crossover witnesses re-confirm through the oracle.
    sound = oracle_by_name("linear")
    first = run_axiom_suite(sound, ["consistency", "crossover"], trials=300, seed=11)
    second = run_axiom_suite(sound, ["consistency", "crossover"], trials=300, seed=11)
    if any(first[a].to_json() != second[a].to_json() for a in first):
        failures.append("re-run with the same seed changed a report")
    broken = oracle_by_name("broken_crossover")
    report = check_crossover(broken, trials=300, seed=0)
    for w in report.violations:
        if not replay_witness(broken, "crossover", w):
            failures.append("stored crossover witness failed to replay")
            break

    elapsed = time.perf_counter() - t0
    _finish(7, failures, "equal-step 0/100 bad, density pass, archimedean "
            f"floor identity (incl. exp1d k={k}), replay identical, {elapsed:.1f}s")
