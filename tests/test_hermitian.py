import math

import mpmath
import numpy as np
import pytest

from cqcap.hermitian import (hermitian_eigen, matrix_log, trace_product,
                             validate_hermitian)


def rand_hermitian(rng, m):
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return 0.5 * (g + g.conj().T)


class TestHermitianEigen:
    def test_identity(self):
        w, v = hermitian_eigen(np.eye(2, dtype=complex))
        assert np.allclose(w, [1.0, 1.0])
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        w, v = hermitian_eigen(np.diag([0.7, 0.3]).astype(complex))
        assert np.allclose(w, [0.7, 0.3], atol=1e-14)
        # standard basis vectors up to phase
        assert np.allclose(np.abs(v), np.eye(2), atol=1e-12)

    def test_rank_one_projector(self):
        a = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        w, v = hermitian_eigen(a)
        assert np.allclose(w, [1.0, 0.0], atol=1e-14)
        assert np.allclose(np.abs(v[:, 0]), [1 / math.sqrt(2)] * 2, atol=1e-12)
        assert np.allclose(np.abs(v[:, 1]), [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_random_reconstruction_orthonormality_and_values(self):
        # eigenvalues of a seeded subset are checked against mpmath at 30
        # digits, an oracle independent of LAPACK
        rng = np.random.default_rng(1234)
        inputs = [rand_hermitian(rng, int(rng.integers(2, 17)))
                  for _ in range(1000)]
        oracle = set(rng.choice(len(inputs), size=30, replace=False).tolist())
        # degenerate spectra: a repeated eigenvalue and a rank-3 8x8 state
        u, _ = np.linalg.qr(rand_hermitian(rng, 6) + 1j * np.eye(6))
        inputs.append((u * [2.0, 2.0, 2.0, 0.5, -1.0, -1.0]) @ u.conj().T)
        g = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        inputs.append(g @ g.conj().T / np.trace(g @ g.conj().T).real)
        for k, a in enumerate(inputs):
            m = a.shape[0]
            w, v = hermitian_eigen(a)
            rec = np.linalg.norm(v @ np.diag(w) @ v.conj().T - a)
            assert rec <= 1e-11 * (1.0 + np.linalg.norm(a))
            assert np.abs(v.conj().T @ v - np.eye(m)).max() <= 1e-12
            assert np.all(np.diff(w) <= 0)
            if k in oracle:
                with mpmath.workdps(30):
                    e = mpmath.eighe(mpmath.matrix(a.tolist()),
                                     eigvals_only=True)
                ref = np.sort(np.array([float(x) for x in e]))[::-1]
                assert np.abs(w - ref).max() <= 1e-11 * (1.0 + np.abs(ref).max())

    def test_descending_order(self):
        rng = np.random.default_rng(5)
        w, _ = hermitian_eigen(rand_hermitian(rng, 6))
        assert np.all(np.diff(w) <= 0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eigen(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_complex_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            hermitian_eigen(np.array([[1e-6j, 0.0], [0.0, 1.0]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            hermitian_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestMatrixLog:
    def test_identity_maps_to_zero(self):
        assert np.abs(matrix_log(np.eye(3, dtype=complex))).max() <= 1e-14

    def test_scalar_case_on_diagonal(self):
        out = matrix_log(np.diag([math.e, 1.0]).astype(complex))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-13)

    def test_projector_null_space_convention(self):
        a = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        assert np.abs(matrix_log(a)).max() <= 1e-13

    def test_matches_scalar_log_on_spectrum(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            m = int(rng.integers(2, 8))
            a = rand_hermitian(rng, m)
            a = a @ a.conj().T + 0.1 * np.eye(m)  # positive definite
            w_log, _ = hermitian_eigen(matrix_log(a))
            expected = np.sort(np.log(np.linalg.eigvalsh(a)))[::-1]
            assert np.abs(w_log - expected).max() <= 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            matrix_log(np.diag([1.0, -0.5]).astype(complex))


class TestTraceProduct:
    def test_identity_pair(self):
        assert trace_product(np.eye(2, dtype=complex), np.eye(2, dtype=complex)) \
            == pytest.approx(2.0)

    def test_diagonal_pair(self):
        a = np.diag([0.7, 0.3]).astype(complex)
        b = np.diag([1.0, 0.0]).astype(complex)
        assert trace_product(a, b) == pytest.approx(0.7)

    def test_projector_squared(self):
        a = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        assert trace_product(a, a) == pytest.approx(1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            m = int(rng.integers(2, 8))
            a, b = rand_hermitian(rng, m), rand_hermitian(rng, m)
            assert abs(trace_product(a, b) - trace_product(b, a)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_product(np.eye(2), np.eye(3))


def test_validate_hermitian_accepts_tolerated_asymmetry():
    a = np.array([[1.0, 0.1 + 5e-13j], [0.1, 1.0]])
    validate_hermitian(a)
