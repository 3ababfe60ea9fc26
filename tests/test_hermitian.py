import math

import mpmath
import numpy as np
import pytest

from cqcap.qinfo import _eigh, validate_hermitian


def rand_hermitian(rng, m):
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return 0.5 * (g + g.conj().T)


class TestHermitianEigen:
    def test_identity(self):
        w, v = _eigh(validate_hermitian(np.eye(2, dtype=complex)))
        assert np.allclose(w, [1.0, 1.0])
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        w, v = _eigh(validate_hermitian(np.diag([0.7, 0.3]).astype(complex)))
        assert np.allclose(w, [0.3, 0.7], atol=1e-14)
        # standard basis vectors up to phase, |1> first for 0.3
        assert np.allclose(np.abs(v), np.eye(2)[:, ::-1], atol=1e-12)

    def test_rank_one_projector(self):
        a = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        w, v = _eigh(validate_hermitian(a))
        assert np.allclose(w, [0.0, 1.0], atol=1e-14)
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
            w, v = _eigh(validate_hermitian(a))
            rec = np.linalg.norm(v @ np.diag(w) @ v.conj().T - a)
            assert rec <= 1e-11 * (1.0 + np.linalg.norm(a))
            assert np.abs(v.conj().T @ v - np.eye(m)).max() <= 1e-12
            assert np.all(np.diff(w) >= 0)
            if k in oracle:
                with mpmath.workdps(30):
                    e = mpmath.eighe(mpmath.matrix(a.tolist()),
                                     eigvals_only=True)
                ref = np.sort(np.array([float(x) for x in e]))
                assert np.abs(w - ref).max() <= 1e-11 * (1.0 + np.abs(ref).max())
        # a stack gives every slice the bits of its own single-matrix call
        for m in {a.shape[0] for a in inputs}:
            group = [a for a in inputs if a.shape[0] == m]
            ws, vs = _eigh(validate_hermitian(np.stack(group)))
            for a, w_k, v_k in zip(group, ws, vs):
                w, v = _eigh(a)
                assert np.array_equal(w_k, w)
                assert np.array_equal(v_k, v)

    def test_ascending_order(self):
        # LAPACK's order and layout, kept: ascending and C-contiguous, for
        # one matrix and for a stack
        rng = np.random.default_rng(5)
        w, v = _eigh(validate_hermitian(rand_hermitian(rng, 6)))
        assert np.all(np.diff(w) >= 0)
        assert w.flags.c_contiguous and v.flags.c_contiguous
        stack = np.stack([rand_hermitian(rng, 6) for _ in range(3)])
        w, v = _eigh(validate_hermitian(stack))
        assert np.all(np.diff(w, axis=-1) >= 0)
        assert w.flags.c_contiguous and v.flags.c_contiguous

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            validate_hermitian(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            validate_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_complex_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            validate_hermitian(np.array([[1e-6j, 0.0], [0.0, 1.0]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            validate_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_validate_hermitian_accepts_tolerated_asymmetry():
    a = np.array([[1.0, 0.1 + 5e-13j], [0.1, 1.0]])
    validate_hermitian(a)
