import math

import mpmath
import numpy as np
import pytest

from cqcap.bench import _ginibre_states, random_density_matrix, trial_rng
from cqcap.bloch import _bloch_states
from cqcap.qinfo import (CqChannel, check_linear_independence,
                         holevo_information, relative_entropy,
                         validate_distribution, von_neumann_entropy)
from cqcap.solver import solve, solve_batch

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
        # +0.0 like binary_entropy at its ends, not the -0.0 of -sum u ln u
        for rho in (plus, KET0, np.diag([1.0, 0.0, 0.0]).astype(complex)):
            assert math.copysign(1.0, von_neumann_entropy(rho)) == 1.0

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


def test_entropies_at_the_tolerance_edges_return_values():
    # validation accepts a trace error and a negative eigenvalue up to
    # TRACE_TOL and PSD_TOL, so the entropies may leave [0, ln m] by as much
    edge = np.diag([1.0 + 1.9e-10, -0.95e-10]).astype(complex)
    assert von_neumann_entropy(edge) == pytest.approx(-1.9e-10, rel=1e-6)
    wide = np.eye(16, dtype=complex) * (1.0 + 0.9e-10) / 16
    assert von_neumann_entropy(wide) - math.log(16) == \
        pytest.approx(0.9e-10 * (math.log(16) - 1.0), rel=1e-4)
    ch = CqChannel(np.stack([edge, edge[::-1, ::-1]]))
    report = solve(ch)
    assert report.converged and np.array_equal(report.p_star, [0.5, 0.5])
    assert report.lower == report.upper == pytest.approx(math.log(2) + 1.608e-10, abs=1e-13)
    assert holevo_information(report.p_star, ch) == report.lower


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = random_density_matrix(int(rng.integers(2, 6)), rng)
            assert abs(relative_entropy(rho, rho)) <= 1e-10

    def test_disjoint_supports(self):
        assert relative_entropy(KET0, KET1) == math.inf
        # the same pair in the |+>, |-> basis, where sigma has a coherence
        plus, minus = np.full((2, 2), 0.5, dtype=complex), np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert relative_entropy(plus, minus.astype(complex)) == math.inf
        assert relative_entropy(plus, np.eye(2, dtype=complex) / 2) \
            == pytest.approx(math.log(2), abs=1e-15)

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

    def test_qubit_divergence_to_a_near_pure_sigma_matches_a_50_digit_oracle(self):
        # sigma = (1 - t) |v><v| + t I/2: ln w- comes from w- = det/w+, so the
        # divergence keeps its digits where w- is far below an ulp of w+;
        # measured at most 1.3e-15 relative, where LAPACK's spectrum read 1.3e-8
        rng = np.random.default_rng(5)
        kets = rng.standard_normal((60, 2)) + 1j * rng.standard_normal((60, 2))
        kets /= np.sqrt((np.abs(kets) ** 2).sum(axis=1, keepdims=True))
        for rho, ket, t in zip(_ginibre_states(60, 2, rng), kets, [1e-3, 1e-6, 1e-9] * 20):
            sigma = (1 - t) * np.outer(ket, ket.conj()) + t * np.eye(2) / 2
            sigma = 0.5 * (sigma + sigma.conj().T)
            got = relative_entropy(rho, sigma)
            with mpmath.workdps(50):
                r, s = (mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in a])
                        for a in (rho, sigma))
                w_rho, w, v = mpmath.eigh(r, eigvals_only=True), *mpmath.eigh(s)
                want = float(mpmath.fsum(x * mpmath.log(x) for x in w_rho if x > 0) - mpmath.fsum(
                    mpmath.re((v[:, k].H * r * v[:, k])[0]) * mpmath.log(w[k]) for k in range(2)))
            assert abs(got - want) <= 2e-15 * max(1.0, abs(want))

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

    @pytest.mark.parametrize("bad, message", [
        (np.diag([1.2, -0.2]), "is not positive semidefinite: min eigenvalue -2.000e-01"),
        (-np.eye(2) / 2, "is not positive semidefinite: min eigenvalue -5.000e-01"),
        # w+ <= 0 with a coherence: -1/2 +- 1/2 and -1 +- 1/2
        (np.array([[-0.5, 0.5], [0.5, -0.5]]),
         "is not positive semidefinite: min eigenvalue -1.000e+00"),
        (np.array([[-1.0, 0.5], [0.5, -1.0]]),
         "is not positive semidefinite: min eigenvalue -1.500e+00"),
        (np.array([[0.5, 0.5 + 1e-9], [0.5 + 1e-9, 0.5]]),
         "is not positive semidefinite: min eigenvalue -1.000e-09"),
        # eigenvalues of 1.7e308 and beyond: |a - e| overflows, a e - |b|^2 too
        (np.diag([1.7e308, -1.7e308]),
         "is not positive semidefinite: min eigenvalue -1.700e+308"),
        (np.array([[0.5, 1e308], [1e308, 0.5]]),
         "is not positive semidefinite: min eigenvalue -1.000e+308"),
        (np.array([[1e200, 1e199], [1e199, 1e200]]), "does not have unit trace: |Tr - 1| = 2.000e+200"),
        # rank one: the products of the exact determinant overflow
        (np.full((2, 2), 1e200), "does not have unit trace: |Tr - 1| = 2.000e+200"),
        (np.zeros((2, 2)), "does not have unit trace: |Tr - 1| = 1.000e+00"),
        (np.array([[0.5, 0.3], [0.1, 0.5]]), "is not Hermitian: max |A - A^H| = 2.000e-01"),
        (np.array([[0.5 + 1e-6j, 0.0], [0.0, 0.5]]),
         "has a diagonal that is not real: max |Im A_kk| = 1.000e-06")])
    def test_qubit_non_states_are_rejected_by_name_and_value(self, bad, message):
        # the m = 2 closed-form spectrum rejects what LAPACK rejected, with
        # the same value; the pytest settings turn a numpy warning into a failure
        bad = bad.astype(complex)
        stack = np.stack([KET0, bad])
        for name, call in (("states[1]", lambda: CqChannel(stack)),
                           ("states[1][1]", lambda: solve_batch(np.stack([stack[[0, 0]], stack]))),
                           ("rho", lambda: von_neumann_entropy(bad)),
                           ("rho", lambda: relative_entropy(bad, KET0)),
                           ("sigma", lambda: relative_entropy(KET0, bad))):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"{name} {message}"

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
        with pytest.raises(ValueError, match=r"wrong length or shape: .*got \(0,\)$"):
            validate_distribution([])
        # strings, booleans and objects are refused, not cast
        for bad, dtype in ((["0.5", "0.5"], "<U3"), ([True, False], "bool"),
                           (np.array([0.5, 0.5], dtype=object), "object")):
            with pytest.raises(ValueError, match=f"^distribution has {dtype} weights$"):
                validate_distribution(bad)
        with pytest.raises(ValueError, match="^distribution has <U3 weights$"):
            holevo_information(["0.5", "0.5"], CqChannel(np.stack([KET0, KET1])))
        validate_distribution(np.array([0.5, 0.5]))
        validate_distribution([1, 0])


def _qubit_state_families():
    # (n, 2, 2) stacks of states by name: the coarse sweep's Bloch states,
    # Ginibre states and pure states |v><v| of Gaussian kets
    rng = np.random.default_rng(2027)
    lam = np.linspace(0.5, 1.0, 11)
    grid = np.meshgrid(lam, lam, np.linspace(0.0, math.pi, 11), indexing="ij")
    kets = rng.standard_normal((400, 2)) + 1j * rng.standard_normal((400, 2))
    kets /= np.sqrt((np.abs(kets) ** 2).sum(axis=1, keepdims=True))
    return {
        "2662 Bloch states": _bloch_states(*grid).reshape(2662, 2, 2),
        "400 Ginibre states": _ginibre_states(400, 2, rng),
        "400 pure states": kets[:, :, None] * kets[:, None, :].conj(),
    }


@pytest.mark.parametrize("label", list(_qubit_state_families()))
def test_qubit_entropies_match_a_50_digit_spectrum(label):
    # measured on these states: within 1.1e-16, 2.2e-16 and 2.4e-16 nats of
    # the oracle; LAPACK's spectrum reads 3.0e-16, 9.1e-16 and 1.1e-14
    import cqcap.qinfo as qinfo
    states, entropies = qinfo._channel_states(_qubit_state_families()[label], batch=False)
    known = {}
    with mpmath.workdps(50):
        for s in states:
            if s.tobytes() not in known:
                rho = mpmath.matrix([[mpmath.mpc(complex(v)) for v in r] for r in s])
                known[s.tobytes()] = float(-mpmath.fsum(
                    x * mpmath.log(x) for x in mpmath.eigh(rho, eigvals_only=True) if x > 0))
    want = np.array([known[s.tobytes()] for s in states])
    assert np.abs(entropies - want).max() <= 2e-15


def _ln(p):
    # ln p as the certificates take it, -inf at a zero weight
    return np.log(p, out=np.full_like(p, -math.inf), where=p > 0.0)


def _reference_entropies(w):
    # -sum w ln w as it was written with a log of its own
    pos = w > 0.0
    return -(np.where(pos, w, 0.0)[..., None, :]
             @ np.log(np.where(pos, w, 1.0))[..., :, None])[..., 0, 0]


def _reference_certificates(p, states, entropies):
    # _certificates, _divergences and _entropy_from_eigs as they were written
    # when the entropy and ln sigma each took their own log of the spectrum;
    # for m = 2 the spectrum is reversed into the closed form's (w+, w-)
    # order, in which LAPACK's bits are compared with it
    import cqcap.qinfo as qinfo
    b, n, m = states.shape[:3]
    w, v = qinfo._eigh((p[:, None, :] @ states.reshape(b, n, m * m)).reshape(b, m, m))
    if m == 2:
        w, v = w[..., ::-1], v[..., ::-1]
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
    # m > 2 only: an m = 2 stack takes the closed form, which
    # test_qubit_certificates_match_a_50_digit_oracle checks
    rng = np.random.default_rng(1905)
    yield "B=1, (8, 8)", _ginibre_states(8, 8, trial_rng(3, 8, 8, 0, 0))[None], \
        rng.dirichlet(np.ones(8), size=1)
    yield "B=40, (5, 5)", np.stack([_ginibre_states(5, 5, trial_rng(3, 5, 5, 0, k))
                                    for k in range(40)]), rng.dirichlet(np.ones(5), size=40)


@pytest.mark.parametrize("label, states, p", [pytest.param(*case, id=case[0])
                                              for case in _certificate_stacks()])
def test_certificates_keep_the_bits_of_separate_logs(label, states, p):
    import cqcap.qinfo as qinfo
    states, entropies = qinfo._channel_states(states, batch=True)
    _, w, _ = qinfo._density_spectra(states, "states")
    assert entropies.tobytes() == _reference_entropies(w).tobytes()
    got = qinfo._certificates(p, _ln(p), states, -entropies[..., None])
    want = _reference_certificates(p, states, entropies)
    for name, a, b in zip(("d", "lower", "upper"), got, want):
        assert a.tobytes() == b.tobytes(), name


def test_diagonal_qubit_certificates_keep_the_lapack_bits():
    # a diagonal (classical) 2x2 channel has a diagonal sigma, whose closed
    # spectrum and projectors are exact, so the closed form keeps the bits of
    # the LAPACK reference: identical letters, a reversed diagonal, sigma =
    # I/2 (no split) and zero weights included
    import cqcap.qinfo as qinfo
    rng = np.random.default_rng(23)
    diag = rng.dirichlet(np.ones(2), size=(200, 2))
    diag[::4, 1] = diag[::4, 0]
    diag[1::4, 1] = diag[1::4, 0, ::-1]
    diag[2] = [[0.7, 0.3], [0.7, 0.3]]
    diag[3] = [[0.75, 0.25], [0.25, 0.75]]
    p = rng.dirichlet(np.ones(2), size=200)
    p[2:4] = 0.5
    p[5::10] = [1.0, 0.0]
    states = np.zeros((200, 2, 2, 2), dtype=complex)
    states[..., 0, 0], states[..., 1, 1] = diag[..., 0], diag[..., 1]
    states, entropies = qinfo._channel_states(states, batch=True)
    got = qinfo._certificates(p, _ln(p), states, -entropies[..., None])
    want = _reference_certificates(p, states, entropies)
    for name, a, b in zip(("d", "lower", "upper"), got, want):
        assert a.tobytes() == b.tobytes(), name
    assert got[2][2] == 0.0 and math.copysign(1.0, got[2][2]) == 1.0


def _qubit_stacks():
    # (states, p) of 2x2 channels by name, each a (B, 2, 2, 2) stack
    rng = np.random.default_rng(1905)
    lam = np.linspace(0.5, 1.0, 11)
    grid = np.meshgrid(lam, lam, np.linspace(0.0, math.pi, 11), indexing="ij")
    p1 = rng.uniform(0.05, 0.95, size=1331)
    ginibre = np.stack([_ginibre_states(2, 2, trial_rng(4, 2, 2, 0, k)) for k in range(40)])
    uniform = np.full((3, 2), 0.5)
    # sigma = I/2 exactly: a diagonal pair, a real and an imaginary coherence
    half = np.array([[[0.75, 0], [0, 0.25]], [[0.25, 0], [0, 0.75]],
                     [[0.5, 0.25], [0.25, 0.5]], [[0.5, -0.25], [-0.25, 0.5]],
                     [[0.5, 0.25j], [-0.25j, 0.5]], [[0.5, -0.25j], [0.25j, 0.5]]])
    # splits of 2s around 1/2, from 1e-12 down to below an ulp of 1/2, by a
    # coherence, a diagonal and both
    split = [np.array([[[0.5, 0.3], [0.3, 0.5]], [[0.5, 2 * s - 0.3], [2 * s - 0.3, 0.5]]])
             for s in (5e-13, 5e-15, 5e-17, 1e-20)]
    split += [np.array([[[0.5 + s, 0], [0, 0.5 - s]], [[0.5, 0.2j], [-0.2j, 0.5]]])
              for s in (5e-13, 5e-16, 1e-17)]
    split += [np.array([[[0.5 + 2 * s, 0.1], [0.1, 0.5 - 2 * s]], [[0.5, -0.1], [-0.1, 0.5]]])
              for s in (5e-13, 5e-16)]
    # row 0: letter 0 keeps 1.5e-10 along |1>, where the uniform average has
    # 0.75e-10 <= SUPPORT_TOL, at weight 1/2 (finite); row 1: the same in the
    # |+>, |-> basis; rows 2 and 3: a zero-weight letter inside the support;
    # row 4: letter 0 of row 0 at zero weight, outside the support (+inf)
    violating = np.array([[[1.0 - 1.5e-10, 0], [0, 1.5e-10]], [[1, 0], [0, 0]]])
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return {
        "1331 Bloch rows": (_bloch_states(*grid).reshape(1331, 2, 2, 2),
                            np.stack([p1, 1.0 - p1], axis=1)),
        "Ginibre rows": (ginibre, rng.dirichlet(np.ones(2), size=40)),
        "sigma = I/2": (half.reshape(3, 2, 2, 2), uniform),
        "splits of 1e-12 and below": (np.stack(split), np.full((len(split), 2), 0.5)),
        "support boundary and zero weight": (
            np.stack([violating, hadamard @ violating @ hadamard, ginibre[0], ginibre[1],
                      violating]),
            np.array([[0.5, 0.5], [0.5, 0.5], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])),
    }


def _mp_qubit_certificates(p, states):
    # (d, lower) of _certificates at 50 digits from the float64 rows as
    # given: mpmath's eigh of each sigma, entropies from mpmath's eigenvalues
    # of each state, 0 ln 0 = 0 and the support test at SUPPORT_TOL for a
    # zero-weight letter only
    import cqcap.qinfo as qinfo

    def entropy(evals):
        return -mpmath.fsum(x * mpmath.log(x) for x in evals if x > 0)

    known = {}

    def state(s):
        # (matrix, entropy) of a float64 state, once per distinct state
        if s.tobytes() not in known:
            rho = mpmath.matrix([[mpmath.mpc(complex(v)) for v in r] for r in s])
            known[s.tobytes()] = rho, entropy(mpmath.eigh(rho, eigvals_only=True))
        return known[s.tobytes()]

    d, lower = [], []
    with mpmath.workdps(50):
        for weights, row in zip(p, states):
            rhos, hs = zip(*map(state, row))
            weights = [mpmath.mpf(float(px)) for px in weights]
            sigma = mpmath.matrix(2, 2)
            for i in range(2):
                for j in range(2):
                    sigma[i, j] = mpmath.fsum(px * rho[i, j] for px, rho in zip(weights, rhos))
            evals, vecs = mpmath.eigh(sigma)
            d.append([])
            for px, rho, h in zip(weights, rhos, hs):
                trace, outside = mpmath.mpf(0), False
                for k in range(2):
                    mass = mpmath.re(mpmath.fsum(mpmath.conj(vecs[i, k]) * rho[i, j] * vecs[j, k]
                                                 for i in range(2) for j in range(2)))
                    if evals[k] > 0:
                        trace += mass * mpmath.log(evals[k])
                    outside |= (px == 0 and evals[k] <= qinfo.SUPPORT_TOL
                                and mass > qinfo.SUPPORT_TOL)
                d[-1].append(math.inf if outside else float(-h - trace))
            lower.append(float(entropy(evals) - mpmath.fsum(px * h for px, h in zip(weights, hs))))
    return np.array(d), np.array(lower)


@pytest.mark.parametrize("label", list(_qubit_stacks()))
def test_qubit_certificates_match_a_50_digit_oracle(label):
    # measured on these rows: d within 1.2e-15 nats of the oracle (1.1e-15
    # on the support-boundary rows, whose small eigenvalue the support rule
    # lifts; the LAPACK path reads 1.0e-15 on the Bloch rows) and lower
    # within 3.9e-16 nats
    import cqcap.qinfo as qinfo
    states, p = _qubit_stacks()[label]
    states, entropies = qinfo._channel_states(states, batch=True)
    d, lower, upper = qinfo._certificates(p, _ln(p), states, -entropies[..., None])
    want_d, want_lower = _mp_qubit_certificates(p, states)
    assert np.array_equal(np.isinf(d), np.isinf(want_d))
    finite = np.isfinite(want_d)
    assert np.abs(d[finite] - want_d[finite]).max() <= 2e-15
    assert np.abs(lower - want_lower).max() <= 1e-15
    assert upper.tobytes() == d.max(axis=1).tobytes()
    if label.startswith("support"):
        assert np.isinf(d).tolist() == [[False, False]] * 4 + [[True, False]]


def test_qubit_lower_bound_near_a_singular_sigma():
    # 30 channels of two near-pure letters G G^H / Tr, G 2x2 Ginibre with its
    # second row scaled by sqrt(eps), five per eps in 1e-10 ... 1e-5: sigma's
    # small eigenvalue runs down to the support rule, which cuts 2 rows.
    # Measured: lower within 6.0e-16 nats of the oracle; d reads 2.16e-15,
    # which is why these rows are not in _qubit_stacks
    import cqcap.qinfo as qinfo
    rng = np.random.default_rng(2038)
    states = []
    for eps in np.repeat(10.0 ** np.arange(-10, -4), 5):
        row = []
        for _ in range(2):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            g[1] *= math.sqrt(eps)
            rho = g @ g.conj().T
            row.append(rho / np.trace(rho).real)
        states.append(row)
    p = rng.dirichlet(np.ones(2), size=30)
    states, entropies = qinfo._channel_states(np.array(states), batch=True)
    sigma = (p[:, None, :] @ states.reshape(30, 2, 4)).reshape(30, 2, 2)
    assert (qinfo._qubit_spectra(sigma)[0][:, 1] <= qinfo.SUPPORT_TOL).sum() == 2
    lower = qinfo._certificates(p, _ln(p), states, -entropies[..., None])[1]
    assert np.abs(lower - _mp_qubit_certificates(p, states)[1]).max() <= 1e-15


def test_qubit_certificates_do_not_depend_on_the_batch():
    # every row of one stack equals its own B = 1 call byte for byte, the
    # property that makes a batched solve equal a solo one
    import cqcap.qinfo as qinfo
    stacks = _qubit_stacks()
    states = np.concatenate([stacks[k][0] for k in stacks])
    p = np.concatenate([stacks[k][1] for k in stacks])
    states, entropies = qinfo._channel_states(states, batch=True)
    batched = qinfo._certificates(p, _ln(p), states, -entropies[..., None])
    for k in range(len(p)):
        solo = qinfo._certificates(p[k:k + 1], _ln(p[k:k + 1]), states[k:k + 1],
                                   -entropies[k:k + 1, :, None])
        for name, many, one in zip(("d", "lower", "upper"), batched, solo):
            assert many[k:k + 1].tobytes() == one.tobytes(), (k, name)


def test_only_a_zero_weight_letter_is_outside_the_support():
    # letter 0 keeps 1.5e-10 along |1>, which letter 1 leaves empty: at
    # ln p = (-800, 0) its weight reads 0 in p, but the loop would carry that
    # finite ln p, so its divergence is finite; at ln p = -inf it has zero
    # weight and lies outside sigma = |0><0|
    import cqcap.qinfo as qinfo
    violating = np.array([[[1.0 - 1.5e-10, 0], [0, 1.5e-10]], [[1, 0], [0, 0]]])
    states, entropies = qinfo._channel_states(violating[None], batch=True)
    p = np.array([[0.0, 1.0]])
    assert np.exp([[-800.0, 0.0]]).tolist() == p.tolist()
    d = qinfo._certificates(p, np.array([[-800.0, 0.0]]), states, -entropies[..., None])[0]
    assert np.isfinite(d).all()
    # the lifted eigenvalue e^-800 1.5e-10 prices letter 0's mass along |1>
    assert d[0, 0] == pytest.approx(-entropies[0, 0] + 1.5e-10 * (800 - math.log(1.5e-10)),
                                    rel=1e-12)
    d = qinfo._certificates(p, _ln(p), states, -entropies[..., None])[0]
    assert d.tolist() == [[math.inf, 0.0]]
