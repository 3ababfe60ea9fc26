import logging
import math

import mpmath
import numpy as np
import pytest

import cqcap.bench
import cqcap.bloch
import cqcap.solver
from cqcap.bench import (BenchSpec, _ginibre_states, iteration_budget, random_channel,
                         run_bench, trial_rng)
from cqcap.bloch import (BinaryBlochChannel, SweepGrid, approx_p1, error_sweep,
                         holevo_bloch, realize_channel)
from cqcap.qinfo import (SUPPORT_TOL, CqChannel, _entropy_from_eigs, _log_eigs,
                         holevo_information)
from cqcap.solver import (GAP_TOL_FLOOR, STOP_REASONS, SolveReport, SolverConfig,
                          _solve_rows, batch_size, optimality_kkt_check, solve,
                          solve_batch, upper_bound)

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
LN2 = math.log(2.0)


def noiseless_bit():
    return CqChannel(np.stack([KET0, KET1]))


def z_channel():
    return realize_channel(BinaryBlochChannel(1.0, 0.5, 0.0))


def z_channel_scan_oracle():
    """Brute-force maximum of the classical mutual information of the
    channel with rows (1, 0) and (1/2, 1/2), in bits."""
    def xlog2x(v):
        return np.where(v > 0.0, v * np.log2(np.maximum(v, 1e-300)), 0.0)

    p = np.linspace(0.0, 1.0, 200_001)
    q = (1.0 + p) / 2.0
    mi = -(xlog2x(q) + xlog2x(1.0 - q)) - (1.0 - p)
    k = int(np.argmax(mi))
    return float(mi[k]), float(p[k])


def step_from(ch, p, max_iters):
    """solve_batch on `ch` from the positive distribution p at the floor gap:
    history[t].p is the loop's t-th iterate from p, up to max_iters or until
    the row's gap closes."""
    report, = solve_batch(ch.states[None], SolverConfig(gap_tol=GAP_TOL_FLOOR,
                                                        max_iters=max_iters,
                                                        record_history=True),
                          start=np.asarray(p, dtype=float)[None])
    return report


class TestBaStep:
    # the Blahut-Arimoto step the solver loop takes, read from its history
    def test_identical_states_fixed_point(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        ch = CqChannel(np.stack([rho, rho]))
        out = step_from(ch, [0.5, 0.5], 1).history[1].p
        assert np.allclose(out, [0.5, 0.5], atol=1e-15)

    def test_symmetric_fixed_point(self):
        out = step_from(noiseless_bit(), [0.5, 0.5], 1).history[1].p
        assert np.allclose(out, [0.5, 0.5], atol=1e-15)

    def test_iterating_reaches_z_channel_optimum(self):
        _, p_opt = z_channel_scan_oracle()
        # the row stops once its gap closes at the floor, before the 2000th step
        p = step_from(z_channel(), [0.5, 0.5], 2000).p_star
        assert abs(p[0] - p_opt) <= 1e-5
        assert abs(p[0] - 0.6) <= 1e-5

    def test_monotone_ascent(self):
        rng_idx = 0
        for seed in range(5):
            ch = random_channel(3, 3, trial_rng(seed, 3, 3, 0, rng_idx))
            report = step_from(ch, np.full(3, 1.0 / 3.0), 30)
            assert report.iterations == 30
            prev = holevo_information(report.history[0].p, ch)
            for rec in report.history[1:]:
                cur = holevo_information(rec.p, ch)
                assert cur >= prev - 1e-10
                prev = cur


class TestUpperBound:
    def test_identical_states(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        ch = CqChannel(np.stack([rho, rho]))
        assert upper_bound(np.array([0.3, 0.7]), ch) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        assert upper_bound(np.array([0.5, 0.5]), noiseless_bit()) \
            == pytest.approx(LN2, abs=1e-12)

    def test_z_channel_at_optimum(self):
        got = upper_bound(np.array([0.6, 0.4]), z_channel())
        assert got == pytest.approx(math.log(1.25), abs=1e-6)

    def test_infinite_for_unsupported_letter(self):
        assert upper_bound(np.array([1.0, 0.0]), noiseless_bit()) == math.inf


class TestSolve:
    def test_noiseless_bit(self):
        report = solve(noiseless_bit(), SolverConfig(gap_tol=1e-6))
        assert report.converged
        assert report.capacity_bits == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(report.p_star, [0.5, 0.5], atol=1e-6)

    def test_identical_states_single_iteration(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        report = solve(CqChannel(np.stack([rho, rho])), SolverConfig(gap_tol=1e-6))
        assert report.converged
        assert report.iterations == 1
        assert report.capacity_nats == pytest.approx(0.0, abs=1e-12)
        # a gap that closes at max_iters is a closed gap
        capped = solve(CqChannel(np.stack([rho, rho])), SolverConfig(gap_tol=1e-6, max_iters=1))
        assert (capped.iterations, capped.converged, capped.stop_reason) == (1, True, "gap")

    def test_z_channel_matches_classical_scan(self):
        c_bits, p_opt = z_channel_scan_oracle()
        assert c_bits == pytest.approx(math.log2(1.25), abs=1e-9)
        report = solve(z_channel(), SolverConfig(gap_tol=1e-6))
        assert report.converged
        assert report.capacity_bits == pytest.approx(c_bits, abs=1e-6)
        assert abs(report.p_star[0] - p_opt) <= 1e-5

    def test_certificates_sandwich_and_monotone_lower(self):
        for seed in range(10):
            ch = random_channel(2, 2, trial_rng(seed, 2, 2, 1, 0))
            report = solve(ch, SolverConfig(gap_tol=1e-5, record_history=True))
            assert report.converged
            assert report.upper - report.lower <= 1e-5
            lows = [rec.lower for rec in report.history]
            for rec in report.history:
                if math.isfinite(rec.upper):
                    assert rec.lower <= rec.upper + 1e-9
            assert all(b >= a - 1e-10 for a, b in zip(lows, lows[1:]))

    def test_iteration_count_within_budget(self):
        for n, m in ((2, 2), (3, 2), (2, 4)):
            ch = random_channel(n, m, trial_rng(7, n, m, 0, 0))
            gap = 1e-4
            report = solve(ch, SolverConfig(gap_tol=gap))
            assert report.converged
            assert report.iterations <= math.ceil(math.log(n) / gap) + 1

    def test_fixed_point_ratio_at_convergence(self):
        ch = random_channel(2, 2, trial_rng(11, 2, 2, 0, 0))
        report = solve(ch, SolverConfig(gap_tol=1e-8))
        assert report.converged
        assert report.p_star.min() > 0.0   # a start must be positive
        nxt = step_from(ch, report.p_star, 1).history[1].p
        mask = report.p_star > 1e-8
        ratios = nxt[mask] / report.p_star[mask]
        assert np.all(ratios >= 1 - 1e-6)
        assert np.all(ratios <= 1 + 1e-6)

    def test_update_is_base_invariant(self):
        # the same step phrased with base-2 exponentials and base-2 relative
        # entropies must produce the same distribution
        from cqcap.solver import _certificates
        ch = random_channel(3, 3, trial_rng(13, 3, 3, 0, 0))
        p = np.array([0.2, 0.5, 0.3])
        d = _certificates(p[None], ch.states[None], ch.entropies[None])[0][0]
        ell2 = np.log2(p) + d / LN2
        r2 = np.power(2.0, ell2 - ell2.max())
        expected = r2 / r2.sum()
        got = step_from(ch, p, 1).history[1].p
        assert np.abs(got - expected).max() <= 1e-12

    def test_non_convergence_is_reported(self):
        report = solve(z_channel(), SolverConfig(gap_tol=1e-12, max_iters=3))
        assert not report.converged
        assert report.iterations == 3
        assert report.lower <= report.upper

    def test_history_off_by_default(self):
        assert solve(noiseless_bit()).history is None

    def test_enclosure_with_eigenvalues_below_support_tol(self):
        eps = 5e-11
        assert eps <= SUPPORT_TOL
        rho0 = np.diag([1.0 - eps, eps]).astype(complex)
        ch = CqChannel(np.stack([rho0, rho0[::-1, ::-1]]))
        report = solve(ch, SolverConfig(gap_tol=1e-12))
        assert report.converged
        # the two states mirror each other, so C = ln 2 - H(rho0) at p = (1/2, 1/2)
        with mpmath.workdps(40):
            w = [mpmath.mpf(float(x)) for x in np.diag(rho0).real]
            capacity = float(mpmath.log(2) + sum(x * mpmath.log(x) for x in w))
        assert report.lower <= capacity + 1e-13
        assert report.upper >= capacity - 1e-13

    def test_enclosure_with_a_shared_eigenvalue_below_support_tol(self):
        # both states carry eps on a shared third direction, so at the
        # optimum p = (1/2, 1/2) the average state has eigenvalue eps there,
        # and both bounds must keep it: C = (1 - eps) ln 2
        eps = 5e-11
        assert eps <= SUPPORT_TOL
        rho0 = np.diag([1.0 - eps, 0.0, eps]).astype(complex)
        rho1 = np.diag([0.0, 1.0 - eps, eps]).astype(complex)
        report = solve(CqChannel(np.stack([rho0, rho1])), SolverConfig(gap_tol=1e-12))
        assert (report.converged, report.stop_reason) == (True, "gap")
        with mpmath.workdps(40):
            capacity = float((1 - mpmath.mpf(eps)) * mpmath.log(2))
        assert report.lower <= capacity + 1e-13
        assert report.upper >= capacity - 1e-13

    def test_weights_fall_below_the_float64_range_without_warnings(self, caplog):
        # the loop carries ln p, so a decaying weight is not pinned at the
        # subnormal floor (3e-323 with a p loop); its ln p ends near -773, an
        # exact 0 in p_star, and the gap still closes at the float64 limit
        ch = random_channel(8, 4, trial_rng(3, 8, 4, 0, 0))
        with caplog.at_level(logging.WARNING, logger="cqcap.solver"):
            report = solve(ch, SolverConfig(gap_tol=1e-12))
        assert (report.converged, report.stop_reason) == (True, "gap")
        assert report.upper - report.lower <= 1e-12
        assert report.p_star.min() == 0.0
        assert caplog.records == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(gap_tol=0.0)
        with pytest.raises(ValueError, match=r"^gap_tol must be at least GAP_TOL_FLOOR"):
            SolverConfig(gap_tol=math.nextafter(GAP_TOL_FLOOR, 0.0))
        assert SolverConfig(gap_tol=GAP_TOL_FLOOR).gap_tol == 1e-13
        for max_iters in (0, 2.5, math.nan):
            with pytest.raises(ValueError, match=r"^max_iters must be"):
                SolverConfig(max_iters=max_iters)
        assert SolverConfig(max_iters=np.int64(10)).max_iters == 10

    def test_config_refuses_booleans(self):
        # True would otherwise pass as a one-iteration budget or a gap of 1;
        # a string, None or a complex gap is refused by name as well
        for field, value in (("max_iters", True), ("max_iters", False),
                             ("gap_tol", True), ("gap_tol", np.True_), ("gap_tol", "1e-3"),
                             ("gap_tol", None), ("gap_tol", 1j)):
            with pytest.raises(ValueError, match=rf"^{field} must be"):
                SolverConfig(**{field: value})


def _bits(report):
    """Everything a report says, as comparable bytes."""
    hist = None if report.history is None else [
        (rec.t, np.float64([rec.lower, rec.upper]).tobytes(), rec.p.tobytes())
        for rec in report.history]
    return (report.iterations, report.converged, report.stop_reason,
            np.float64([report.lower, report.upper, report.capacity_nats]).tobytes(),
            report.p_star.tobytes(), hist)


def support_violating_channel():
    """From the uniform start, the average state's weight 0.75e-10 along |1>
    falls below SUPPORT_TOL while letter 0 keeps 1.5e-10 there, so letter 0
    has +inf relative entropy at positive weight before the first update."""
    rho0 = np.diag([1.0 - 1.5e-10, 1.5e-10]).astype(complex)
    return CqChannel(np.stack([rho0, KET0]))


def stack(channels):
    """The (B, n, m, m) states of channels of one shape."""
    return np.stack([ch.states for ch in channels])


class TestSolveBatch:
    @staticmethod
    def mixed_2x2():
        blochs = [realize_channel(BinaryBlochChannel(l1, l2, th))
                  for l1 in (0.5, 0.8, 1.0) for l2 in (0.6, 0.95, 1.0)
                  for th in (0.0, 1.1, math.pi)]
        seeded = [random_channel(2, 2, trial_rng(5, 2, 2, 0, k)) for k in range(10)]
        return blochs + seeded + [noiseless_bit(), z_channel()]

    @pytest.mark.parametrize("shape, gap", [((2, 2), 1e-6), ((3, 5), 1e-4),
                                            ((8, 8), 1e-3)])
    def test_rows_match_solo_solves_bit_for_bit(self, shape, gap):
        if shape == (2, 2):
            channels = self.mixed_2x2()
        else:
            channels = [random_channel(*shape, trial_rng(6, *shape, 0, k))
                        for k in range(9)]
        cfg = SolverConfig(gap_tol=gap, record_history=True)
        solo = [_bits(solve(ch, cfg)) for ch in channels]
        for size in (1, 7, len(channels)):
            batched = []
            for start in range(0, len(channels), size):
                batched += solve_batch(stack(channels[start:start + size]), cfg)
            assert [_bits(r) for r in batched] == solo

    @pytest.mark.parametrize("shape, gap", [((2, 2), 1e-6), ((3, 5), 1e-4),
                                            ((8, 8), 1e-3)])
    def test_rows_with_start_match_their_solo_calls(self, shape, gap):
        if shape == (2, 2):
            states = stack(self.mixed_2x2())
        else:
            states = stack([random_channel(*shape, trial_rng(6, *shape, 0, k))
                            for k in range(9)])
        w = np.random.default_rng(13).uniform(0.05, 1.0, states.shape[:2])
        start = w / w.sum(axis=1, keepdims=True)
        cfg = SolverConfig(gap_tol=gap, record_history=True)
        solo = [solve_batch(states[k:k + 1], cfg, start=start[k:k + 1])[0]
                for k in range(len(states))]
        for k, report in enumerate(solo):
            assert np.allclose(report.history[0].p, start[k], rtol=1e-15, atol=0)
        solo = [_bits(r) for r in solo]
        for size in (1, 7, len(states)):
            batched = []
            for first in range(0, len(states), size):
                batched += solve_batch(states[first:first + size], cfg,
                                       start=start[first:first + size])
            assert [_bits(r) for r in batched] == solo

    def test_rejects_bad_starts_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(cqcap.solver, "_solve_stacked", lambda *args: "solved")
        monkeypatch.setattr(cqcap.solver, "_reports", lambda rows: rows)
        states = stack(self.mixed_2x2()[:3])
        good = np.full((3, 2), 0.5)
        assert solve_batch(states, start=good) == "solved"
        assert solve_batch(states, start=good + [[0.0, 5e-13]] * 3) == "solved"
        for rows, message in (
                (good[:2], r"start has the wrong length or shape: expected \(3, 2\), "
                           r"got \(2, 2\)"),
                (np.full((3, 3), 1 / 3), r"start has .* expected \(3, 2\), got \(3, 3\)"),
                (good[0], r"start has .* expected \(3, 2\), got \(2,\)"),
                ({1: [1.0, 0.0]}, r"start\[1\] has a weight that is not above 0"),
                ({2: [1.5, -0.5]}, r"start\[2\] has a weight that is not above 0"),
                ({0: [math.nan, 0.5]}, r"start\[0\] has a non-finite weight"),
                ({1: [math.inf, 0.5], 2: [math.nan, 0.5]},
                 r"start\[1\] has a non-finite weight"),
                ({2: [0.5, 0.4]}, r"start\[2\] does not sum to 1: \|sum - 1\| = 1.000e-01"),
                (good + [[0.4j, 0.0], [0.0, 0.0], [0.0, 0.0]], r"start has complex weights"),
                ([["0.5", "0.5"]] * 3, r"start has <U3 weights$"),
                ([[True, True]] * 3, r"start has bool weights$"),
                (good.astype(object), r"start has object weights$")):
            if isinstance(rows, dict):
                bad = good.copy()
                for k, row in rows.items():
                    bad[k] = row
                rows = bad
            with pytest.raises(ValueError, match="^" + message):
                solve_batch(states, start=rows)

    def test_max_iters_stops_only_the_slow_rows(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        channels = self.mixed_2x2() + [CqChannel(np.stack([rho, rho]))]
        cfg = SolverConfig(gap_tol=1e-9, max_iters=25)
        reports = solve_batch(stack(channels), cfg)
        assert [_bits(r) for r in reports] == [_bits(solve(ch, cfg)) for ch in channels]
        capped = [r for r in reports if r.iterations == 25]
        assert capped and not any(r.converged for r in capped)
        assert {r.stop_reason for r in capped} == {"max_iters"}
        assert any(r.converged and r.iterations < 25 for r in reports)
        assert all(r.stop_reason == "gap" for r in reports if r.iterations < 25)

    def test_support_violation_stops_only_its_row(self):
        bad = support_violating_channel()
        alone = solve(bad)
        assert (alone.iterations, alone.converged, alone.upper, alone.stop_reason) == \
            (0, False, math.inf, "support_violation")
        channels = self.mixed_2x2()[:5]
        channels.insert(2, bad)
        reports = solve_batch(stack(channels))
        assert _bits(reports[2]) == _bits(alone)
        assert [_bits(r) for i, r in enumerate(reports) if i != 2] == \
            [_bits(solve(ch)) for i, ch in enumerate(channels) if i != 2]
        assert all(r.converged and r.stop_reason == "gap"
                   for i, r in enumerate(reports) if i != 2)

    def test_support_violation_logs_its_row_once(self, caplog):
        channels = self.mixed_2x2()[:5]
        channels.insert(3, support_violating_channel())
        with caplog.at_level(logging.WARNING, logger="cqcap.solver"):
            solve_batch(stack(channels))
        assert [r.getMessage() for r in caplog.records] == [
            "channel 3: stopping after 0 iterations: +inf relative entropy at "
            "letters [0] (weights [0.5])"]

    def test_reports_equal_the_array_entry_point(self, caplog):
        # test_qinfo's "support violation and zero weight" states, with the
        # violating channel once more at the end: rows 0 and 3 stop on a
        # support violation, row 1 at max_iters and row 2 on its gap
        violating = np.array([[[1.0 - 1.5e-10, 0], [0, 1.5e-10]], [[1, 0], [0, 0]]])
        states = np.stack([violating, _ginibre_states(2, 2, trial_rng(4, 2, 2, 0, 0)),
                           _ginibre_states(2, 2, trial_rng(4, 2, 2, 0, 1)),
                           violating]).astype(complex)
        cfg = SolverConfig(gap_tol=1e-6, max_iters=100)
        rows = _solve_rows(states, cfg)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="cqcap.solver"):
            reports = solve_batch(states, cfg)
        assert [r.stop_reason for r in reports] == \
            ["support_violation", "max_iters", "gap", "support_violation"]
        assert [r.iterations for r in reports] == [0, 100, 18, 0]
        for k, report in enumerate(reports):
            assert np.float64([report.lower, report.upper]).tobytes() == \
                np.float64([rows.lower[k], rows.upper[k]]).tobytes()
            assert (report.iterations, report.stop_reason) == \
                (rows.iterations[k], STOP_REASONS[rows.stop[k]])
            assert report.p_star.tobytes() == rows.p_star[k].tobytes()
            assert report.p_star.base is None   # its own array
        assert [r.getMessage() for r in caplog.records] == [
            f"channel {k}: stopping after 0 iterations: +inf relative entropy at "
            "letters [0] (weights [0.5])" for k in (0, 3)]

    def test_names_the_bad_slice(self):
        states = stack(self.mixed_2x2()[:5])
        states[3, 1] = np.diag([1.2, -0.2])
        with pytest.raises(ValueError, match=r"^states\[3\]\[1\] is not positive semidefinite"):
            solve_batch(states)
        states = stack(self.mixed_2x2()[:5])
        states[0, 0, 0, 1] = 0.1
        with pytest.raises(ValueError, match=r"^states\[0\]\[0\] is not Hermitian"):
            solve_batch(states)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match=r"shape \(B, n, m, m\), got shape \(2, 2, 2\)"):
            solve_batch(z_channel().states)
        with pytest.raises(ValueError, match=r"got shape \(1, 2, 2, 3\)"):
            solve_batch(np.zeros((1, 2, 2, 3), dtype=complex))
        with pytest.raises(ValueError, match="at least one channel"):
            solve_batch(np.zeros((0, 2, 2, 2), dtype=complex))
        with pytest.raises(ValueError, match="at least 2 input letters, got 1"):
            solve_batch(stack([z_channel()])[:, :1])

    def test_leaves_the_callers_array_alone(self):
        states = stack(self.mixed_2x2())
        start = np.random.default_rng(4).dirichlet([1.0, 1.0], len(states))
        before = states.copy(), start.copy()
        solve_batch(states)
        solve_batch(states, start=start)
        assert states.flags.writeable and start.flags.writeable
        assert np.array_equal(states, before[0]) and np.array_equal(start, before[1])

    def test_batch_size_follows_the_byte_budget(self):
        assert batch_size(2, 2) == 4096
        assert batch_size(8, 8) == 64
        assert batch_size(2, 10**6) == 1

    def test_harnesses_split_at_the_byte_budget(self, monkeypatch):
        grid = SweepGrid(lambda_step=0.25, theta_step=1.5, reference_gap_tol=1e-6)
        whole = error_sweep(grid)   # one call of the loop
        # 640 bytes hold 5 channels with n = m = 2 or 3 with n = 3, m = 2
        monkeypatch.setattr(cqcap.solver, "BATCH_BYTES", 640)
        calls = []
        # the sweep calls the loop on the states it builds, the bench validates first
        for module, name in ((cqcap.bloch, "_solve_stacked"), (cqcap.bench, "_solve_rows")):
            monkeypatch.setattr(module, name,
                                lambda states, *args, real=getattr(cqcap.solver, name), **kw:
                                calls.append(len(states)) or real(states, *args, **kw))
        # the sweep solves the 6 cells with lambda1 <= lambda2 at 3 thetas each
        cells = error_sweep(grid)
        assert calls == [5, 5, 5, 3]
        assert cells == whole   # the split moves no bit
        cfg = SolverConfig(gap_tol=1e-6)
        for cell in cells:
            errors, counts = [], []
            p_hat = approx_p1(cell.lambda1, cell.lambda2)
            mirror = (min(cell.lambda1, cell.lambda2), max(cell.lambda1, cell.lambda2))
            p_mirror = approx_p1(*mirror)
            # the sweep's entropies, from the spectra {lambda_i, 1 - lambda_i}
            spectra = np.array([[lam, 1.0 - lam] for lam in mirror])
            entropies = _entropy_from_eigs(*_log_eigs(spectra))
            for theta in grid.theta_values():
                ch = BinaryBlochChannel(cell.lambda1, cell.lambda2, theta)
                solved = realize_channel(BinaryBlochChannel(*mirror, theta))
                w = float(cqcap.bloch._refined_p1(*mirror, theta, np.float64(p_mirror)))
                rows = cqcap.solver._solve_stacked(solved.states[None], entropies[None], cfg,
                                                   np.array([[w, 1.0 - w]]))
                assert rows.converged[0]
                errors.append(abs(holevo_bloch(ch, p_hat) - rows.lower[0] / LN2))
                counts.append(int(rows.iterations[0]))
            assert (cell.error_bits, cell.ba_converged, cell.iterations,
                    cell.max_iterations) == (max(errors), True, sum(counts), max(counts))
        calls.clear()
        spec = BenchSpec((2, 3), (2,), (1e-2,), trials=7, seed=3)
        results = run_bench(spec)
        assert calls == [5, 2, 3, 3, 1]
        for r in results:
            cfg = SolverConfig(gap_tol=r.accuracy,
                               max_iters=math.ceil(iteration_budget(r.n, r.accuracy)) + 1)
            counts = [solve(random_channel(r.n, r.m, trial_rng(3, r.n, r.m, 0, t)),
                            cfg).iterations for t in range(7)]
            assert (r.max_iterations, r.avg_iterations, r.trials_failed) == \
                (max(counts), sum(counts) / 7, 0)


class TestCountPins:
    """Iteration totals of the plain update; a change to its arithmetic moves them."""

    def test_plain_counts_are_unchanged(self, monkeypatch):
        spec = BenchSpec((8,), (8,), (1e-5,), trials=40, seed=0)
        cell, = run_bench(spec)
        assert (cell.avg_iterations * 40, cell.max_iterations) == (10319, 1028)
        # the sweep's references from the closed-form input itself
        monkeypatch.setattr(cqcap.bloch, "_refined_p1", lambda l1, l2, theta, p1: p1)
        cells = error_sweep(SweepGrid(lambda_step=0.05, theta_step=math.pi / 10,
                                      reference_gap_tol=1e-6))
        assert (sum(c.iterations for c in cells), max(c.max_iterations for c in cells)) \
            == (27977, 177)


class TestKktCheck:
    def test_symmetric_channel(self):
        report = solve(noiseless_bit(), SolverConfig(gap_tol=1e-6))
        assert optimality_kkt_check(report, noiseless_bit(), tol=1e-5)

    def test_z_channel(self):
        ch = z_channel()
        report = solve(ch, SolverConfig(gap_tol=1e-6))
        assert optimality_kkt_check(report, ch, tol=1e-5)

    def test_perturbed_distribution_fails(self):
        ch = noiseless_bit()
        p_bad = np.array([0.8, 0.2])
        chi = holevo_information(p_bad, ch)
        fake = SolveReport(capacity_nats=chi, capacity_bits=chi / LN2,
                           lower=chi, upper=chi, iterations=0,
                           p_star=p_bad, stop_reason="gap")
        assert not optimality_kkt_check(fake, ch, tol=1e-5)

    def test_rejects_a_tol_that_is_not_finite_and_positive(self):
        # every comparison with NaN is False, so a NaN tol would pass this
        # report, stopped at max_iters 0.026 nats from closing
        ch = z_channel()
        report = solve(ch, SolverConfig(gap_tol=1e-6, max_iters=2))
        assert not report.converged and report.upper - report.lower > 1e-2
        for tol in (math.nan, 0.0, -1e-5, True, "1e-3", None, 1j):
            with pytest.raises(ValueError, match="^tol must be"):
                optimality_kkt_check(report, ch, tol)

    def test_rejects_a_report_of_another_input_size(self):
        report = solve(random_channel(3, 2, trial_rng(0, 3, 2, 0, 0)))
        with pytest.raises(ValueError, match="wrong length"):
            optimality_kkt_check(report, noiseless_bit(), tol=1e-5)
