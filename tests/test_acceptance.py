"""End-to-end acceptance checks for the capacity solver, the certificates,
the closed-form binary-channel approximation, and the benchmark harness.

Each check prints one `[acceptance] ...` line (run pytest with -s to see
them); tolerances are pinned here and are not calibration knobs.

Known red check: criterion 06 asserts the approximation-error bound
3e-4 bits on the closed square lambda1, lambda2 in [0.5, 0.95]. The true
error at the (0.84..0.85, 0.95) boundary cells with theta = pi is
~4.26e-4 bits (confirmed independently by the iterative solver, by the
maximizer exact_p1 proves in interval arithmetic, and by bisection on the
analytic gradient), so the closed-square bound cannot pass. Nor does it hold
strictly below 0.95: at theta = pi the maximum over lambda2 on the edge
lambda1 = R is 4.25e-4 bits at R = 0.9499 and 3.389e-4 at 0.945, and scans
put the largest R for which 3e-4 holds at about 0.9423. Criterion 06b
asserts the bound on the square capped at 0.94 (max ~2.71e-4 on the 0.01
grid) and passes.
"""

import math
import time

import numpy as np
import pytest

from cqcap.bench import (BenchSpec, check_iteration_budget, iteration_budget,
                         random_channel, run_bench, trial_rng)
from cqcap.bloch import (BinaryBlochChannel, SweepGrid, approx_p1, error_sweep,
                         exact_p1, holevo_bloch, holevo_bloch_gradient,
                         max_error_by_range, realize_channel)
from cqcap.qinfo import CqChannel, check_linear_independence, holevo_information
from cqcap.solver import SolverConfig, optimality_kkt_check, solve, solve_batch

LN2 = math.log(2.0)
KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)

C2_GAP = 1e-5
# Stationarity (test 10) is checked at tol = 10 * gap with letters above
# 100 * gap included; a supported letter's certificate can lag capacity by
# up to gap / weight, so the constants are only mutually consistent for
# gap >= 1e-3. Tighter gaps make the KKT check fail on honest optima.
C3_GAP = 1e-3
BENCH_SEED = 20240801
SWEEP_SEED = 3141


def _report(cid: str, ok: bool, detail: str = "") -> bool:
    print(f"[acceptance] {cid}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


@pytest.fixture(scope="module")
def noiseless_report():
    ch = CqChannel(np.stack([KET0, KET1]))
    return ch, solve(ch, SolverConfig(gap_tol=1e-6))


@pytest.fixture(scope="module")
def z_report():
    ch = realize_channel(BinaryBlochChannel(1.0, 0.5, 0.0))
    return ch, solve(ch, SolverConfig(gap_tol=C2_GAP))


@pytest.fixture(scope="module")
def certified_runs():
    """100 random channels spanning (n, m) in {2,5,8}^2, solved with
    per-iterate certificate history."""
    runs = []
    combos = [(n, m) for n in (2, 5, 8) for m in (2, 5, 8)]
    for n, m in combos:
        for trial in range(11):
            ch = random_channel(n, m, trial_rng(SWEEP_SEED, n, m, 0, trial))
            runs.append((n, m, ch,
                         solve(ch, SolverConfig(gap_tol=C3_GAP,
                                                record_history=True))))
    ch = random_channel(2, 2, trial_rng(SWEEP_SEED, 2, 2, 0, 11))
    runs.append((2, 2, ch,
                 solve(ch, SolverConfig(gap_tol=C3_GAP, record_history=True))))
    assert len(runs) == 100
    return runs


@pytest.fixture(scope="module")
def coarse_sweep_cells():
    grid = SweepGrid(lambda_step=0.05, theta_step=math.pi / 10,
                     reference_gap_tol=1e-6)
    return error_sweep(grid)


def test_01_noiseless_bit_exactness(noiseless_report):
    ch, report = noiseless_report
    best = math.inf
    for _ in range(10):
        t0 = time.perf_counter()
        solve(ch, SolverConfig(gap_tol=1e-6))
        best = min(best, time.perf_counter() - t0)
    ok = (report.converged
          and abs(report.capacity_bits - 1.0) <= 1e-6
          and np.abs(report.p_star - 0.5).max() <= 1e-6
          and report.iterations <= 50
          and best < 1e-3)
    assert _report("01 noiseless-bit", ok,
                   f"capacity={report.capacity_bits:.8f} bits, "
                   f"iters={report.iterations}, best_time={best * 1e3:.3f} ms")


def test_02_z_channel_oracle(z_report):
    ch, report = z_report
    c_bits = math.log2(1.25)
    p_hat = approx_p1(1.0, 0.5)
    ok = (report.converged
          and abs(report.capacity_bits - c_bits) <= 1e-5
          and abs(report.p_star[0] - 0.6) <= 1e-4
          and abs(report.p_star[1] - 0.4) <= 1e-4
          and abs(p_hat - 0.6) <= 1e-12)
    assert _report("02 z-channel", ok,
                   f"capacity={report.capacity_bits:.7f} bits "
                   f"(target {c_bits:.7f}), p*={report.p_star.round(6)}, "
                   f"p_hat={p_hat!r}")


def test_03_certificate_sandwich(certified_runs):
    worst_gap = 0.0
    for n, m, ch, report in certified_runs:
        assert report.converged, f"(n={n}, m={m}) run did not converge"
        assert report.upper - report.lower <= C3_GAP
        lows = [rec.lower for rec in report.history]
        for rec in report.history:
            assert math.isfinite(rec.upper) and rec.lower <= rec.upper + 1e-9
        assert all(b >= a - 1e-10 for a, b in zip(lows, lows[1:]))
        worst_gap = max(worst_gap, report.upper - report.lower)
    assert _report("03 certificate-sandwich", True,
                   f"100 channels, final gaps <= {worst_gap:.2e} nats")


def test_04_iteration_budget(certified_runs):
    worst_frac = 0.0
    for n, _, _, report in certified_runs:
        budget = iteration_budget(n, C3_GAP)
        assert report.iterations <= budget, \
            f"n={n}: {report.iterations} iterations exceeds ln(n)/eps = {budget:.0f}"
        worst_frac = max(worst_frac, report.iterations / budget)
    assert _report("04 iteration-budget", True,
                   f"max usage {100 * worst_frac:.2f}% of ln(n)/eps")


def test_05_benchmark_bands():
    spec_a = BenchSpec((2,), (2,), (1e-3,), trials=200, seed=BENCH_SEED)
    spec_b = BenchSpec((8,), (8,), (1e-5,), trials=200, seed=BENCH_SEED)
    res_a = run_bench(spec_a)
    res_b = run_bench(spec_b)
    cell_a, cell_b = res_a[0], res_b[0]
    ok = (2.0 <= cell_a.avg_iterations <= 21.0
          and 194.0 <= cell_b.avg_iterations <= 1746.0
          and cell_a.trials_failed == 0 and cell_b.trials_failed == 0
          and check_iteration_budget(res_a)
          and check_iteration_budget(res_b))
    assert _report("05 benchmark-bands", ok,
                   f"(2,2,1e-3) avg={cell_a.avg_iterations:.2f} in [2, 21]; "
                   f"(8,8,1e-5) avg={cell_b.avg_iterations:.2f} in [194, 1746]")


def test_06_approximation_error_bound(coarse_sweep_cells):
    # Closed-square form of the bound; genuinely exceeded at the 0.95
    # boundary (see module docstring). Kept as stated rather than loosened.
    assert all(c.ba_converged for c in coarse_sweep_cells)
    (_, max_err), = max_error_by_range(coarse_sweep_cells, [0.95])
    ok = max_err <= 3e-4
    assert _report("06 approx-error-bound [0.5, 0.95]", ok,
                   f"max error {max_err:.6e} bits vs bound 3e-4"), \
        (f"max sweep error over lambda in [0.5, 0.95] is {max_err:.6e} bits "
         "> 3e-4; the excess comes from cells with one lambda exactly 0.95 "
         "at theta = pi and is a property of the approximation itself, "
         "reproduced by independent oracles. The bound holds only below "
         "about R = 0.9423, and at R = 0.94 (see test_06b).")


def test_06_excess_is_certified():
    # test_06's excess is the closed form's, not the solver's: `lower` is the
    # Holevo information of the input p_star, so C >= lower, and at the cell
    # (0.95, 0.85, theta = pi) lower alone exceeds chi(p_hat) by over 3e-4 bits
    ch = BinaryBlochChannel(0.95, 0.85, math.pi)
    channel = realize_channel(ch)
    report = solve(channel, SolverConfig(gap_tol=1e-12))
    assert report.converged
    assert holevo_information(report.p_star, channel) == report.lower
    shortfall = report.lower / LN2 - holevo_bloch(ch, approx_p1(0.95, 0.85))
    ok = shortfall > 3e-4
    assert _report("06 excess certified at (0.95, 0.85, pi)", ok,
                   f"C - chi(p_hat) >= {shortfall:.6e} bits after {report.iterations} "
                   "iterations"), shortfall


def test_06b_approximation_error_bound_interior(coarse_sweep_cells):
    # Strict-interior form: cells capped at 0.94 (0.90 on this coarse grid),
    # plus a fine 0.01-step window around the binding corner at full theta
    # resolution, which is where the interior maximum lives.
    # The window's 5355 channels are solved in one batch, which gives each
    # channel the same bits as its own solve.
    (_, coarse_interior), = max_error_by_range(coarse_sweep_cells, [0.94])
    worst = coarse_interior
    window = [BinaryBlochChannel(0.80 + 0.01 * i, 0.88 + 0.01 * j, k * math.pi / 50)
              for i in range(15) for j in range(7) for k in range(51)]
    reports = solve_batch(np.stack([realize_channel(ch).states for ch in window]),
                          SolverConfig(gap_tol=1e-6))
    for ch, report in zip(window, reports):
        assert report.converged
        err = abs(holevo_bloch(ch, approx_p1(ch.lambda1, ch.lambda2)) - report.lower / LN2)
        worst = max(worst, err)
    ok = worst <= 3e-4
    assert _report("06b approx-error-bound, lambda <= 0.94", ok,
                   f"max error {worst:.6e} bits vs bound 3e-4")


def test_07_theta_zero_exactness():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(50):
        lam1, lam2 = rng.uniform(0.5, 0.99, 2)
        gap = abs(approx_p1(lam1, lam2)
                  - exact_p1(BinaryBlochChannel(lam1, lam2, 0.0)))
        worst = max(worst, gap)
    ok = worst <= 1e-7
    assert _report("07 theta-zero-exactness", ok,
                   f"max |p_hat - p*| = {worst:.2e} over 50 draws")


def test_08_formula_vs_ensemble_consistency():
    rng = np.random.default_rng(888)
    worst = 0.0
    for _ in range(1000):
        lam1, lam2 = rng.uniform(0.5, 1.0, 2)
        theta = rng.uniform(0.0, math.pi)
        p1 = float(rng.uniform())
        ch = BinaryBlochChannel(lam1, lam2, theta)
        gap = abs(holevo_bloch(ch, p1) * LN2
                  - holevo_information(np.array([p1, 1.0 - p1]),
                                       realize_channel(ch)))
        worst = max(worst, gap)
    ok = worst <= 1e-10
    assert _report("08 formula-consistency", ok,
                   f"max |closed form - ensemble| = {worst:.2e} nats, 1000 draws")


def test_09_gradient_check():
    rng = np.random.default_rng(999)
    h = 1e-6
    worst = 0.0
    for _ in range(200):
        ch = BinaryBlochChannel(*rng.uniform(0.51, 0.99, 2),
                                rng.uniform(0.0, math.pi))
        p1 = float(rng.uniform(0.02, 0.98))
        fd = (holevo_bloch(ch, p1 + h) - holevo_bloch(ch, p1 - h)) / (2 * h)
        an = holevo_bloch_gradient(ch, p1)
        # unit floor keeps the ratio meaningful at near-stationary draws
        rel = abs(an - fd) / max(abs(an), abs(fd), 1e-2)
        worst = max(worst, rel)
    ok = worst <= 1e-6
    assert _report("09 gradient-check", ok,
                   f"max relative deviation {worst:.2e} over 200 points")


def test_10_kkt_certificates(noiseless_report, z_report, certified_runs):
    checks = 0
    for ch, report, gap in ((noiseless_report[0], noiseless_report[1], 1e-6),
                            (z_report[0], z_report[1], C2_GAP)):
        assert optimality_kkt_check(report, ch, tol=10 * gap)
        checks += 1
    for _, _, ch, report in certified_runs:
        assert optimality_kkt_check(report, ch, tol=10 * C3_GAP)
        checks += 1
    assert _report("10 kkt-certificates", True, f"{checks} converged solves")


def test_11_geometric_tail_observation():
    ch = random_channel(2, 2, trial_rng(SWEEP_SEED, 2, 2, 9, 0))
    independent, rank = check_linear_independence(ch)
    assert independent and rank == 2
    report = solve(ch, SolverConfig(gap_tol=1e-9, record_history=True))
    assert report.converged
    ps = [rec.p for rec in report.history]
    diffs = [float(np.abs(b - a).sum()) for a, b in zip(ps, ps[1:])]
    tail = [d for d in diffs[-21:] if d > 0.0]
    ratios = [b / a for a, b in zip(tail, tail[1:])]
    # reported, not hard-asserted: the geometric rate constant is not certified
    max_ratio = max(ratios) if ratios else float("nan")
    assert _report("11 geometric-tail (reported)", len(tail) >= 2,
                   f"last-{len(ratios)} contraction ratios <= {max_ratio:.4f} "
                   f"({report.iterations} iterations)")
