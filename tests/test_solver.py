import math

import numpy as np
import pytest

from cqcap.bench import random_channel, trial_rng
from cqcap.bloch import BinaryBlochChannel, realize_channel
from cqcap.qinfo import CqChannel, holevo_information
from cqcap.solver import (IterateRecord, SolveReport, SolverConfig,
                          SupportViolationError, _update, ba_step,
                          optimality_kkt_check, solve, upper_bound)

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
        d, _, _ = _certificates(p, ch)
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
