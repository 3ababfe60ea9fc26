import math
from fractions import Fraction

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
from cqcap.qinfo import (SUPPORT_TOL, CqChannel, _certificates, _channel_states,
                         _entropy_from_eigs, _log_eigs, holevo_information)
from cqcap.solver import (GAP_TOL_FLOOR, STOP_REASONS, SolveReport, SolverConfig,
                          _reports, _solve_stacked, batch_size,
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


def step_from(ch, p, max_iters):
    """The solver loop on `ch` from the positive distribution p at the floor
    gap: history[t].p is the loop's t-th iterate from p, up to max_iters or
    until the row's gap closes, at p itself if it closes there."""
    cfg = SolverConfig(gap_tol=GAP_TOL_FLOOR, max_iters=max_iters, record_history=True)
    report, = _reports(_solve_stacked(ch.states[None], ch.entropies[None], cfg,
                                      np.asarray(p, dtype=float)[None]))
    return report


def one_update(ch):
    """The loop's first update of `ch` from the uniform start, [0.5, 0.5] at
    n = 2, which takes it whatever its gap."""
    cfg = SolverConfig(gap_tol=GAP_TOL_FLOOR, max_iters=1, record_history=True)
    history = solve(ch, cfg).history
    assert len(history) == 2
    return history[1].p


class TestBaStep:
    # the Blahut-Arimoto step the solver loop takes, read from its history
    def test_identical_states_fixed_point(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        out = one_update(CqChannel(np.stack([rho, rho])))
        assert np.allclose(out, [0.5, 0.5], atol=1e-15)

    def test_symmetric_fixed_point(self):
        out = one_update(noiseless_bit())
        assert np.allclose(out, [0.5, 0.5], atol=1e-15)

    def test_a_start_that_certifies_is_the_answer(self):
        # the certificates hold at any p, so a row whose given start already
        # closes its gap stops there: no update, p_star the start itself and
        # the bounds of one certificate pass at it
        ch = z_channel()
        start = np.array([[0.6, 0.4]])
        _, lower, upper = _certificates(start, np.log(start), ch.states[None],
                                        -ch.entropies[None, :, None])
        assert upper[0] - lower[0] <= 1e-6
        report, = _reports(_solve_stacked(ch.states[None], ch.entropies[None],
                                          SolverConfig(gap_tol=1e-6), start))
        assert (report.iterations, report.converged, report.stop_reason) == (0, True, "gap")
        assert report.p_star.tobytes() == start[0].tobytes()
        assert np.float64([report.lower, report.upper]).tobytes() == \
            np.float64([lower[0], upper[0]]).tobytes()

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
                assert math.isfinite(rec.upper) and rec.lower <= rec.upper + 1e-9
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
        ch = random_channel(3, 3, trial_rng(13, 3, 3, 0, 0))
        p = np.array([0.2, 0.5, 0.3])
        d = _certificates(p[None], np.log(p)[None], ch.states[None],
                          -ch.entropies[None, :, None])[0][0]
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

    def test_plateau_near_support_tol_is_reported_not_raised(self):
        # each update moves p by about 1e-10, so the gap holds near 2.3e-11
        # nats: a smaller gap_tol runs to max_iters, and the enclosure of
        # C = 5.51819e-11 nats still holds (README "Numerical rules")
        report = solve(support_boundary_channel(), SolverConfig(gap_tol=1e-11, max_iters=200))
        assert (report.stop_reason, report.converged, report.iterations) == \
            ("max_iters", False, 200)
        assert report.upper - report.lower == pytest.approx(2.3014e-11, rel=1e-4)
        assert report.lower <= 5.51819e-11 <= report.upper

    def test_weights_fall_below_the_float64_range_without_warnings(self):
        # the loop carries ln p, so a decaying weight is not pinned at the
        # subnormal floor (3e-323 with a p loop); its ln p ends near -773, an
        # exact 0 in p_star, and the gap still closes at the float64 limit
        ch = random_channel(8, 4, trial_rng(3, 8, 4, 0, 0))
        report = solve(ch, SolverConfig(gap_tol=1e-12))
        assert (report.converged, report.stop_reason) == (True, "gap")
        assert report.upper - report.lower <= 1e-12
        assert report.p_star.min() == 0.0

    def test_unshifted_update_stays_in_range(self):
        # sigma_p >= p_x rho_x gives D_x <= -ln p_x, so the loop's exp(ln p + d)
        # needs no max shift: every recorded iterate keeps ln p_x + D_x <= 0
        # (equal on the orthogonal channels) and p sums to 1 within n ulp
        three = CqChannel(np.stack([np.diag(np.eye(3)[k]).astype(complex) for k in range(3)]))
        channels = [(random_channel(n, m, trial_rng(35, n, m, 0, 0)), 1e-9)
                    for n, m in ((5, 2), (5, 3), (8, 8))]
        channels += [(ch, 1e-6) for ch in (support_boundary_channel(), noiseless_bit(), three)]
        channels += [(near_singular_channel(m, k, trial), 1e-6) for m in (2, 3) for k in (0, 5)
                     for trial in (0, 1)]
        for i, (ch, gap_tol) in enumerate(channels):
            n = ch.input_size
            report = solve(ch, SolverConfig(gap_tol=gap_tol, record_history=True))
            assert report.converged, i
            for rec in report.history:
                d = _certificates(rec.p[None], np.log(rec.p)[None], ch.states[None],
                                  -ch.entropies[None, :, None])[0][0]
                assert (np.log(rec.p) + d).max() <= 1e-12, (i, rec.t)
                assert abs(rec.p.sum() - 1.0) <= n * np.finfo(float).eps, (i, rec.t)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(gap_tol=0.0)
        # checked as floats: beyond the float range, or rounding to 0.0
        for gap in (10**400, Fraction(1, 10**400), -10**400):
            with pytest.raises(ValueError, match=r"^gap_tol must be finite and positive"):
                SolverConfig(gap_tol=gap)
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

    def test_config_refuses_a_record_history_that_is_not_a_boolean(self):
        # "no" or 1 would otherwise record a history; a NumPy bool counts
        for value in ("no", 1, 0, None, 1.0):
            with pytest.raises(ValueError,
                               match=rf"^record_history must be True or False, got {value!r}$"):
                SolverConfig(record_history=value)
        for value in (True, False, np.True_, np.False_):
            assert SolverConfig(record_history=value).record_history is value


def _bits(report):
    """Everything a report says, as comparable bytes."""
    hist = None if report.history is None else [
        (rec.t, np.float64([rec.lower, rec.upper]).tobytes(), rec.p.tobytes())
        for rec in report.history]
    return (report.iterations, report.converged, report.stop_reason,
            np.float64([report.lower, report.upper, report.capacity_nats]).tobytes(),
            report.p_star.tobytes(), hist)


def support_boundary_channel():
    """From the uniform start, the average state's weight 0.75e-10 along |1>
    falls below SUPPORT_TOL while letter 0 keeps 1.5e-10 there. Its capacity
    is 5.51819e-11 nats (a 50-digit maximum of the Holevo information)."""
    rho0 = np.diag([1.0 - 1.5e-10, 1.5e-10]).astype(complex)
    return CqChannel(np.stack([rho0, KET0]))


WINDOW_EPS = (1.1e-10, 1.5e-10, 2e-10, 2.9e-10, 5e-10, 9e-10)


def near_singular_channel(m, k, trial):
    """Letter 0 alone has mass eps = WINDOW_EPS[k] along |1>, with a seeded
    coherence to |0>; letter 1 is |0><0| and, for m = 3, letter 2 a seeded
    state on span{|0>, |2>}. Odd trials are rotated by a seeded Haar unitary."""
    rng, eps = np.random.default_rng([m, k, trial]), WINDOW_EPS[k]
    c = rng.uniform() * math.sqrt(eps * (1.0 - eps)) * np.exp(2j * math.pi * rng.uniform())
    states = np.zeros((m, m, m), dtype=complex)
    states[0, :2, :2] = [[1.0 - eps, c], [np.conj(c), eps]]
    states[1, 0, 0] = 1.0
    if m == 3:
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        states[2][np.ix_([0, 2], [0, 2])] = g @ g.conj().T / np.trace(g @ g.conj().T).real
    if trial % 2:
        q, r = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        states = u @ states @ u.conj().T
    return CqChannel(states)


def mp_max_divergence(p, states):
    """max_x D(rho_x || sum_x p_x rho_x) at 50 digits, from the float64 p and
    states as given."""
    with mpmath.workdps(50):
        rhos = [mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in s])
                for s in states]
        sigma = mpmath.matrix(*states.shape[1:])
        for px, rho in zip(p, rhos):
            sigma += mpmath.mpf(float(px)) * rho
        w, v = mpmath.eigh(sigma)
        log_sigma = v * mpmath.diag([mpmath.log(x) for x in w]) * v.H
        return float(max(
            mpmath.fsum(x * mpmath.log(x) for x in mpmath.eigh(rho, eigvals_only=True) if x > 0)
            - mpmath.re(sum((rho * log_sigma)[i, i] for i in range(len(w)))) for rho in rhos))


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
        # the sweep starts its rows at given inputs, in chunks of 4096; every
        # other row here starts at its converged input, where its gap closes
        if shape == (2, 2):
            states = stack(self.mixed_2x2())
        else:
            states = stack([random_channel(*shape, trial_rng(6, *shape, 0, k))
                            for k in range(9)])
        states, entropies = _channel_states(states, batch=True)
        w = np.random.default_rng(13).uniform(0.05, 1.0, states.shape[:2])
        start = w / w.sum(axis=1, keepdims=True)
        cfg = SolverConfig(gap_tol=gap, record_history=True)
        start[::2] = _solve_stacked(states, entropies, cfg).p_star[::2]
        _, lower, upper = _certificates(start, np.log(start), states, -entropies[:, :, None])
        certified = (upper - lower <= gap).tolist()
        assert all(certified[::2]) and not any(certified[1::2])

        def run(rows):
            return _reports(_solve_stacked(states[rows], entropies[rows], cfg, start[rows]))
        solo = [run(slice(k, k + 1))[0] for k in range(len(states))]
        # a row stops at its start exactly when the start certifies
        assert [r.iterations == 0 for r in solo] == certified
        for k, report in enumerate(solo):
            assert report.history[0].p.tobytes() == start[k].tobytes()
        solo = [_bits(r) for r in solo]
        for size in (1, 7, len(states)):
            batched = []
            for first in range(0, len(states), size):
                batched += run(slice(first, first + size))
            assert [_bits(r) for r in batched] == solo

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

    def test_support_boundary_row_matches_its_solo_call(self):
        # letter 0's divergence is finite at every positive weight, so the
        # row certifies C in one update, inside a batch as alone
        bad = support_boundary_channel()
        alone = solve(bad)
        assert (alone.iterations, alone.stop_reason) == (1, "gap")
        assert alone.lower <= 5.51819e-11 <= alone.upper
        channels = self.mixed_2x2()[:5]
        channels.insert(2, bad)
        reports = solve_batch(stack(channels))
        assert [_bits(r) for r in reports] == [_bits(solve(ch)) for ch in channels]
        assert all(r.converged and r.stop_reason == "gap" for r in reports)

    def test_near_singular_window_certifies(self):
        # 72 channels whose average state has an eigenvalue near or below
        # SUPPORT_TOL along letter 0's private mass eps (34 of them stopped
        # on +inf while the cutoff ignored the weights); each upper bound
        # must hold against a 50-digit max_x D at its p_star (measured:
        # 7.6e-15 nats below at worst, as on the 38 the cutoff let through),
        # and so must a three-letter channel of capacity just above ln 2
        three = np.zeros((3, 3, 3), dtype=complex)
        three[0], three[1, 0, 0], three[2, 2, 2] = np.diag([1.0 - 1.5e-10, 1.5e-10, 0.0]), 1, 1
        channels = [CqChannel(three)] + [near_singular_channel(m, k, trial) for m in (2, 3)
                                         for k in range(len(WINDOW_EPS)) for trial in range(6)]
        for i, ch in enumerate(channels):
            report = solve(ch, SolverConfig(gap_tol=1e-6))
            assert report.stop_reason == "gap", i
            assert report.upper >= mp_max_divergence(report.p_star, ch.states) - 2e-14, i
        assert solve(channels[0]).lower > LN2

    def test_reports_equal_the_array_entry_point(self):
        # test_qinfo's "support boundary and zero weight" states, with the
        # boundary channel once more at the end: rows 0 and 3 certify in one
        # update, row 1 stops at max_iters and row 2 on its gap
        boundary = np.array([[[1.0 - 1.5e-10, 0], [0, 1.5e-10]], [[1, 0], [0, 0]]])
        states = np.stack([boundary, _ginibre_states(2, 2, trial_rng(4, 2, 2, 0, 0)),
                           _ginibre_states(2, 2, trial_rng(4, 2, 2, 0, 1)),
                           boundary]).astype(complex)
        cfg = SolverConfig(gap_tol=1e-6, max_iters=100)
        rows = _solve_stacked(*_channel_states(states, batch=True), cfg)
        reports = solve_batch(states, cfg)
        assert [r.stop_reason for r in reports] == ["gap", "max_iters", "gap", "gap"]
        assert [r.iterations for r in reports] == [1, 100, 18, 1]
        for k, report in enumerate(reports):
            assert np.float64([report.lower, report.upper]).tobytes() == \
                np.float64([rows.lower[k], rows.upper[k]]).tobytes()
            assert (report.iterations, report.stop_reason) == \
                (rows.iterations[k], STOP_REASONS[rows.stop[k]])
            assert report.p_star.tobytes() == rows.p_star[k].tobytes()
            assert report.p_star.base is None   # its own array

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
        assert states.flags.writeable and np.array_equal(states, before)

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
        for module, name in ((cqcap.bloch, "_solve_stacked"), (cqcap.bench, "_solve_stacked")):
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
        # the sweep's references from the closed-form input itself; a start
        # that already certifies, as on the theta = 0 rows, counts 0
        monkeypatch.setattr(cqcap.bloch, "_refined_p1", lambda l1, l2, theta, p1: p1)
        cells = error_sweep(SweepGrid(lambda_step=0.05, theta_step=math.pi / 10,
                                      reference_gap_tol=1e-6))
        assert (sum(c.iterations for c in cells), max(c.max_iterations for c in cells)) \
            == (27502, 177)


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
