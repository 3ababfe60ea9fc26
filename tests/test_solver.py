import math

import numpy as np
import pytest

import cqcap.bench
import cqcap.bloch
import cqcap.solver
from cqcap.bench import BenchSpec, iteration_budget, random_channel, run_bench, trial_rng
from cqcap.bloch import (BinaryBlochChannel, SweepGrid, approx_p1, error_sweep,
                         holevo_bloch, realize_channel)
from cqcap.qinfo import CqChannel, holevo_information
from cqcap.solver import (IterateRecord, SolveReport, SolverConfig,
                          SupportViolationError, _update, ba_step, batch_size,
                          optimality_kkt_check, solve, solve_batch, upper_bound)

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


class TestBaStep:
    def test_identical_states_fixed_point(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        ch = CqChannel(np.stack([rho, rho]))
        out = ba_step(np.array([0.5, 0.5]), ch)
        assert np.allclose(out, [0.5, 0.5], atol=1e-15)

    def test_symmetric_fixed_point(self):
        out = ba_step(np.array([0.5, 0.5]), noiseless_bit())
        assert np.allclose(out, [0.5, 0.5], atol=1e-15)

    def test_zero_weight_letter_stays_zero(self):
        out = ba_step(np.array([1.0, 0.0]), noiseless_bit())
        assert out[1] == 0.0
        assert out[0] == pytest.approx(1.0)

    def test_iterating_reaches_z_channel_optimum(self):
        _, p_opt = z_channel_scan_oracle()
        ch = z_channel()
        p = np.full(2, 0.5)
        for _ in range(2000):
            p = ba_step(p, ch)
        assert abs(p[0] - p_opt) <= 1e-5
        assert abs(p[0] - 0.6) <= 1e-5

    def test_monotone_ascent(self):
        rng_idx = 0
        for seed in range(5):
            ch = random_channel(3, 3, trial_rng(seed, 3, 3, 0, rng_idx))
            p = np.full(3, 1.0 / 3.0)
            prev = holevo_information(p, ch)
            for _ in range(30):
                p = ba_step(p, ch)
                cur = holevo_information(p, ch)
                assert cur >= prev - 1e-10
                prev = cur

    def test_inf_at_positive_weight_raises(self):
        with pytest.raises(SupportViolationError):
            _update(np.array([0.5, 0.5]), np.array([math.inf, 0.0]))
        # on a stack, +inf at a zero weight is allowed; at a positive one it raises
        p = np.array([[0.5, 0.5], [1.0, 0.0]])
        assert np.array_equal(_update(p, np.array([[0.1, 0.0], [0.0, math.inf]]))[1],
                              [1.0, 0.0])
        with pytest.raises(SupportViolationError):
            _update(p, np.array([[0.1, 0.0], [math.inf, 0.0]]))


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
        nxt = ba_step(report.p_star, ch)
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
        got = ba_step(p, ch)
        assert np.abs(got - expected).max() <= 1e-12

    def test_non_convergence_is_reported(self):
        report = solve(z_channel(), SolverConfig(gap_tol=1e-12, max_iters=3))
        assert not report.converged
        assert report.iterations == 3
        assert report.lower <= report.upper

    def test_history_off_by_default(self):
        assert solve(noiseless_bit()).history is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(gap_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)


def _bits(report):
    """Everything a report says, as comparable bytes."""
    hist = None if report.history is None else [
        (rec.t, np.float64([rec.lower, rec.upper]).tobytes(), rec.p.tobytes())
        for rec in report.history]
    return (report.iterations, report.converged,
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

    def test_max_iters_stops_only_the_slow_rows(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        channels = self.mixed_2x2() + [CqChannel(np.stack([rho, rho]))]
        cfg = SolverConfig(gap_tol=1e-9, max_iters=25)
        reports = solve_batch(stack(channels), cfg)
        assert [_bits(r) for r in reports] == [_bits(solve(ch, cfg)) for ch in channels]
        capped = [r for r in reports if r.iterations == 25]
        assert capped and not any(r.converged for r in capped)
        assert any(r.converged and r.iterations < 25 for r in reports)

    def test_support_violation_stops_only_its_row(self):
        bad = support_violating_channel()
        alone = solve(bad)
        assert (alone.iterations, alone.converged, alone.upper) == (0, False, math.inf)
        channels = self.mixed_2x2()[:5]
        channels.insert(2, bad)
        reports = solve_batch(stack(channels))
        assert _bits(reports[2]) == _bits(alone)
        assert [_bits(r) for i, r in enumerate(reports) if i != 2] == \
            [_bits(solve(ch)) for i, ch in enumerate(channels) if i != 2]
        assert all(r.converged for i, r in enumerate(reports) if i != 2)

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
        before = states.copy()
        solve_batch(states)
        assert states.flags.writeable
        assert np.array_equal(states, before)

    def test_batch_size_follows_the_byte_budget(self):
        assert batch_size(2, 2) == 4096
        assert batch_size(8, 8) == 64
        assert batch_size(2, 10**6) == 1

    def test_harnesses_split_at_the_byte_budget(self, monkeypatch):
        # 640 bytes hold 5 channels with n = m = 2 or 3 with n = 3, m = 2
        monkeypatch.setattr(cqcap.solver, "BATCH_BYTES", 640)
        calls = []
        real = cqcap.solver.solve_batch
        for module in (cqcap.bloch, cqcap.bench):
            monkeypatch.setattr(module, "solve_batch",
                                lambda states, cfg: calls.append(len(states)) or real(states, cfg))
        grid = SweepGrid(lambda_step=0.25, theta_step=1.5, reference_gap_tol=1e-6)
        cells = error_sweep(grid)
        assert calls == [5] * 5 + [2]
        cfg = SolverConfig(gap_tol=1e-6)
        for cell in cells:
            errors = []
            for theta in grid.theta_values():
                ch = BinaryBlochChannel(cell.lambda1, cell.lambda2, theta)
                report = solve(realize_channel(ch), cfg)
                assert report.converged
                p_hat = approx_p1(ch.lambda1, ch.lambda2)
                errors.append(abs(holevo_bloch(ch, p_hat) - report.lower / LN2))
            assert (cell.error_bits, cell.ba_converged) == (max(errors), True)
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
                           p_star=p_bad, converged=True)
        assert not optimality_kkt_check(fake, ch, tol=1e-5)
