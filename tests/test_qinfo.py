import math

import mpmath
import numpy as np
import pytest

from cqcap.bench import _ginibre_states, random_density_matrix, trial_rng
from cqcap.bloch import _bloch_states
from cqcap.qinfo import (CqChannel, check_linear_independence,
                         holevo_information, relative_entropy,
                         validate_distribution, von_neumann_entropy)
from cqcap.solver import solve_batch

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def scalar_entropy_nats(*probs):
    # independent high-precision oracle for -sum p ln p
    with mpmath.workdps(40):
        return float(-mpmath.fsum(mpmath.mpf(p) * mpmath.log(mpmath.mpf(p))
                                  for p in probs if p > 0))


class TestVonNeumannEntropy:
    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(2, dtype=complex) / 2) \
            == pytest.approx(math.log(2), abs=1e-12)

    def test_pure_state(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert von_neumann_entropy(plus) == pytest.approx(0.0, abs=1e-12)

    def test_binary_spectrum(self):
        expected = scalar_entropy_nats(0.9, 0.1)
        got = von_neumann_entropy(np.diag([0.9, 0.1]).astype(complex))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.325083, abs=1e-6)

    def test_rejects_non_density(self):
        with pytest.raises(ValueError, match="unit trace"):
            von_neumann_entropy(np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="positive semidefinite"):
            von_neumann_entropy(np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(ValueError, match="square matrix"):
            von_neumann_entropy(np.stack([np.eye(2, dtype=complex) / 2] * 2))


@pytest.mark.parametrize("h", [-1.0, 5.0])
def test_range_checks_raise_named_errors(h, monkeypatch):
    import cqcap.qinfo as qinfo
    ch = CqChannel(np.stack([KET0, KET1]))
    monkeypatch.setattr(qinfo, "_entropy_from_eigs", lambda u, ln_u: h)
    with pytest.raises(ValueError, match=r"^von Neumann entropy .* nats outside "
                                         r"\[0, ln m\] = \[0, 0.693.*\] for m = 2$"):
        von_neumann_entropy(np.eye(2, dtype=complex) / 2)
    with pytest.raises(ValueError, match=r"^Holevo information .* nats outside "
                                         r"\[0, ln min\(n, m\)\] = \[0, 0.693.*\]$"):
        holevo_information(np.array([0.5, 0.5]), ch)


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = random_density_matrix(int(rng.integers(2, 6)), rng)
            assert abs(relative_entropy(rho, rho)) <= 1e-10

    def test_disjoint_supports(self):
        assert relative_entropy(KET0, KET1) == math.inf

    def test_commuting_diagonals_match_kl(self):
        with mpmath.workdps(40):
            expected = float(mpmath.mpf("0.5") * mpmath.log(mpmath.mpf("0.5") / mpmath.mpf("0.9"))
                             + mpmath.mpf("0.5") * mpmath.log(mpmath.mpf("0.5") / mpmath.mpf("0.1")))
        got = relative_entropy(np.diag([0.5, 0.5]).astype(complex),
                               np.diag([0.9, 0.1]).astype(complex))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.510826, abs=1e-6)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            rho = random_density_matrix(m, rng)
            sigma = random_density_matrix(m, rng)
            d = relative_entropy(rho, sigma)
            assert d >= -1e-10
            if np.abs(rho - sigma).max() > 1e-8:
                assert d > 1e-8

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="mismatch"):
            relative_entropy(random_density_matrix(2, rng),
                             random_density_matrix(3, rng))

    def test_diagonalizes_each_argument_once(self, monkeypatch):
        import cqcap.qinfo as qinfo
        calls, real_eigh = [], qinfo._eigh
        monkeypatch.setattr(qinfo, "_eigh",
                            lambda a: calls.append(a) or real_eigh(a))
        rng = np.random.default_rng(8)
        relative_entropy(random_density_matrix(3, rng),
                         random_density_matrix(3, rng))
        assert len(calls) == 2


class TestHolevoInformation:
    def test_length_mismatch(self):
        ch = CqChannel(np.stack([KET0, KET1]))
        with pytest.raises(ValueError, match="length"):
            holevo_information(np.array([0.5, 0.25, 0.25]), ch)

    def test_identical_states(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        ch = CqChannel(np.stack([rho, rho, rho]))
        p = np.array([0.2, 0.5, 0.3])
        assert holevo_information(p, ch) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        ch = CqChannel(np.stack([KET0, KET1]))
        assert holevo_information(np.array([0.5, 0.5]), ch) \
            == pytest.approx(math.log(2), abs=1e-12)

    def test_binary_symmetric_mixture(self):
        # chi = H(I/2) - h(0.9), the classical closed form for crossover 0.1
        ch = CqChannel(np.stack([np.diag([0.9, 0.1]).astype(complex),
                                 np.diag([0.1, 0.9]).astype(complex)]))
        expected = math.log(2) - scalar_entropy_nats(0.9, 0.1)
        got = holevo_information(np.array([0.5, 0.5]), ch)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.368064, abs=1e-6)

    def test_mixing_identity_on_random_ensembles(self):
        # sum_x p_x D(rho_x||sigma') = sum_x p_x D(rho_x||avg) + D(avg||sigma')
        rng = np.random.default_rng(23)
        for _ in range(20):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            ch = CqChannel(np.stack([random_density_matrix(m, rng)
                                     for _ in range(n)]))
            p = rng.dirichlet(np.ones(n))
            sigma_prime = random_density_matrix(m, rng)
            sigma = np.einsum("x,xij->ij", p, ch.states)
            lhs = sum(p[x] * relative_entropy(ch.states[x], sigma_prime)
                      for x in range(n))
            rhs = sum(p[x] * relative_entropy(ch.states[x], sigma)
                      for x in range(n)) + relative_entropy(sigma, sigma_prime)
            assert abs(lhs - rhs) <= 1e-9

    def test_concavity_in_the_distribution(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            ch = CqChannel(np.stack([random_density_matrix(m, rng)
                                     for _ in range(n)]))
            p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            alpha = float(rng.uniform())
            mix = alpha * p + (1 - alpha) * q
            assert holevo_information(mix, ch) >= \
                alpha * holevo_information(p, ch) \
                + (1 - alpha) * holevo_information(q, ch) - 1e-9

    def test_entropy_base_discipline(self):
        for m in (2, 3, 5, 8):
            assert von_neumann_entropy(np.eye(m, dtype=complex) / m) \
                == pytest.approx(math.log(m), abs=1e-12)


class TestLinearIndependence:
    def test_two_distinct_pure_states(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        ch = CqChannel(np.stack([KET0, plus]))
        assert check_linear_independence(ch) == (True, 2)

    def test_duplicate_states(self):
        ch = CqChannel(np.stack([KET0, KET0]))
        assert check_linear_independence(ch) == (False, 1)

    def test_overcomplete_qubit_family(self):
        rng = np.random.default_rng(31)
        ch = CqChannel(np.stack([random_density_matrix(2, rng) for _ in range(5)]))
        independent, rank = check_linear_independence(ch)
        assert not independent
        assert rank <= 4


class TestValidation:
    def test_channel_rejects_bad_state_with_index(self):
        # letter 2 repeats the defect: the lowest failing letter is named
        for defect, bad in (
                ("non-finite", np.array([[np.nan, 0.0], [0.0, 1.0]])),
                ("Hermitian", np.array([[0.5, 0.3], [0.1, 0.5]])),
                ("diagonal", np.array([[0.5 + 1e-6j, 0.0], [0.0, 0.5]])),
                ("positive semidefinite", np.diag([1.2, -0.2])),
                ("unit trace", np.diag([0.9, 0.3])),
                # eigenvalues +-1e308: the exactly Hermitian entries keep their values
                ("positive semidefinite", np.array([[0.5, 1e308], [1e308, 0.5]]))):
            states = np.stack([KET0, bad, bad]).astype(complex)
            with pytest.raises(ValueError, match=rf"states\[1\] .*{defect}"):
                CqChannel(states)

    def test_overflow_is_rejected_without_warnings(self):
        # A - A^H and the trace overflow to inf; the pytest settings turn a
        # numpy RuntimeWarning into a failure
        ket0 = np.diag([1.0, 0.0, 0.0])
        for defect, bad in (
                ("Hermitian", np.array([[0.5, 1e308, 0], [-1e308, 0.5, 0], [0, 0, 0]])),
                ("unit trace", np.diag([8e307, 8e307, 8e307]))):
            with pytest.raises(ValueError, match=rf"states\[1\] .*{defect}.* = inf"):
                CqChannel(np.stack([ket0, bad]).astype(complex))

    @pytest.mark.parametrize("n", [2, 8])
    def test_channel_validates_with_one_eigendecomposition(self, n, monkeypatch):
        import cqcap.qinfo as qinfo
        calls, real_eigh = [], qinfo._eigh
        monkeypatch.setattr(qinfo, "_eigh",
                            lambda a: calls.append(a) or real_eigh(a))
        rng = np.random.default_rng(n)
        ch = CqChannel(np.stack([random_density_matrix(3, rng) for _ in range(n)]))
        assert len(calls) == 1
        assert calls[0].shape == (n, 3, 3)
        for x in range(n):
            assert ch.entropies[x] == von_neumann_entropy(ch.states[x])

    def test_channel_requires_two_letters(self):
        with pytest.raises(ValueError, match="letters"):
            CqChannel(KET0[None, :, :])

    def test_channel_and_stack_require_output_dimension_two(self):
        one = np.ones((2, 1, 1), dtype=complex)
        for build in (CqChannel, lambda states: solve_batch(states[None])):
            with pytest.raises(ValueError, match="need output dimension >= 2, got 1"):
                build(one)

    def test_channel_states_are_frozen(self):
        ch = CqChannel(np.stack([KET0, KET1]))
        with pytest.raises(ValueError):
            ch.states[0, 0, 0] = 0.0

    def test_channel_keeps_its_own_copy(self):
        a = np.stack([KET0, KET1]).astype(np.complex128)
        ch = CqChannel(a)
        states, entropies = ch.states.copy(), ch.entropies.copy()
        a[1] = np.eye(2) / 2   # the caller's array stays writable
        assert np.array_equal(ch.states, states)
        assert np.array_equal(ch.entropies, entropies)

    def test_distribution_checks(self):
        with pytest.raises(ValueError, match="negative"):
            validate_distribution(np.array([1.1, -0.1]))
        with pytest.raises(ValueError, match="sum"):
            validate_distribution(np.array([0.5, 0.4]))
        for bad in ([math.nan, math.nan], [math.inf, 0.5], [0.5, 0.5, math.nan]):
            with pytest.raises(ValueError, match="non-finite"):
                validate_distribution(np.array(bad))
        with pytest.raises(ValueError, match="^distribution has complex weights"):
            validate_distribution(np.array([0.5 + 0.4j, 0.5]))
        validate_distribution(np.array([0.5, 0.5]))


def _reference_entropies(w):
    # -sum w ln w as it was written with a log of its own
    pos = w > 0.0
    return -(np.where(pos, w, 0.0)[..., None, :]
             @ np.log(np.where(pos, w, 1.0))[..., :, None])[..., 0, 0]


def _reference_certificates(p, states, entropies):
    # _certificates, _divergences and _entropy_from_eigs as they were written
    # when the entropy and ln sigma each took their own log of the spectrum
    import cqcap.qinfo as qinfo
    b, n, m = states.shape[:3]
    w, v = qinfo._eigh((p[:, None, :] @ states.reshape(b, n, m * m)).reshape(b, m, m))
    keep = w > qinfo.SUPPORT_TOL
    fw = np.log(np.where(w > 0.0, w, 1.0))
    log_sigma_t = (v.conj() * fw[:, None, :]) @ v.swapaxes(-1, -2)
    trace = (states.reshape(b, n, m * m) @ log_sigma_t.reshape(b, m * m, 1))[..., 0]
    d = -entropies - trace.real
    if not keep.all():
        cut = np.flatnonzero(~keep.all(axis=1))
        vc = v[cut]
        overlaps = np.einsum("bik,bxij,bjk->bxk", vc.conj(), states[cut], vc).real
        outside = np.any((overlaps > qinfo.SUPPORT_TOL) & ~keep[cut, None, :], axis=2)
        d[cut] = np.where(outside, math.inf, d[cut])
    lower = _reference_entropies(w) + (p[:, None, :] @ -entropies[:, :, None])[:, 0, 0]
    return d, lower, d.max(axis=1)


def _certificate_stacks():
    rng = np.random.default_rng(1905)
    yield "B=1, (8, 8)", _ginibre_states(8, 8, trial_rng(3, 8, 8, 0, 0))[None], \
        rng.dirichlet(np.ones(8), size=1)
    yield "B=40, (5, 5)", np.stack([_ginibre_states(5, 5, trial_rng(3, 5, 5, 0, k))
                                    for k in range(40)]), rng.dirichlet(np.ones(5), size=40)
    lam = np.linspace(0.5, 1.0, 11)
    grid = np.meshgrid(lam, lam, np.linspace(0.0, math.pi, 11), indexing="ij")
    p1 = rng.uniform(0.05, 0.95, size=1331)
    yield "1331 Bloch rows, (2, 2)", _bloch_states(*grid).reshape(1331, 2, 2, 2), \
        np.stack([p1, 1.0 - p1], axis=1)
    # row 0: letter 0 keeps 1.5e-10 along |1>, where the uniform average has
    # 0.75e-10 <= SUPPORT_TOL (+inf); row 1: a zero-weight letter
    violating = np.array([[[1.0 - 1.5e-10, 0], [0, 1.5e-10]], [[1, 0], [0, 0]]])
    yield "support violation and zero weight", \
        np.stack([violating, _ginibre_states(2, 2, trial_rng(4, 2, 2, 0, 0)),
                  _ginibre_states(2, 2, trial_rng(4, 2, 2, 0, 1))]).astype(complex), \
        np.array([[0.5, 0.5], [1.0, 0.0], [0.3, 0.7]])


@pytest.mark.parametrize("label, states, p", [pytest.param(*case, id=case[0])
                                              for case in _certificate_stacks()])
def test_certificates_keep_the_bits_of_separate_logs(label, states, p):
    import cqcap.qinfo as qinfo
    states, entropies = qinfo._channel_states(states, batch=True)
    _, w, _ = qinfo._density_spectra(states, "states")
    assert entropies.tobytes() == _reference_entropies(w).tobytes()
    got = qinfo._certificates(p, states, entropies)
    want = _reference_certificates(p, states, entropies)
    for name, a, b in zip(("d", "lower", "upper"), got, want):
        assert a.tobytes() == b.tobytes(), name
    if label.startswith("support"):
        assert np.isinf(got[2][0]) and np.isfinite(got[2][1:]).all()
