"""Dense complex Hermitian linear algebra: eigendecomposition and
functional calculus (matrix logarithm, trace pairing).

Eigendecompositions call LAPACK `eigh` on the symmetrized input and return
the spectrum in descending order.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

HERMITIAN_TOL = 1e-12
DEFAULT_ZERO_TOL = 1e-12


class EigenDecomposition(NamedTuple):
    eigenvalues: np.ndarray   # real, sorted descending
    eigenvectors: np.ndarray  # unitary; column k pairs with eigenvalues[k]


def validate_hermitian(a, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Check square shape, finite entries and conjugate symmetry.

    Returns the input as a complex128 array. Raises ValueError with the
    measured defect otherwise.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    gap = np.abs(a - a.conj().T)
    np.fill_diagonal(gap, 0.0)
    defect = float(gap.max()) if a.size else 0.0
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian: max |A - A^H| = {defect:.3e}")
    diag_imag = float(np.abs(a.diagonal().imag).max()) if a.size else 0.0
    if diag_imag > tol:
        raise ValueError(f"diagonal not real: max |Im A_kk| = {diag_imag:.3e}")
    return a


def _eigh(a: np.ndarray):
    """Eigendecomposition of a Hermitian array without input validation.

    Internal fast path; returns (eigenvalues desc, eigenvector columns).
    """
    w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    return w[::-1], v[:, ::-1]


def hermitian_eigen(a) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    The input is validated, then symmetrized before LAPACK `eigh`.
    Eigenvalues are real and sorted descending, with matching columns in
    the returned eigenvector matrix. LAPACK failures raise LinAlgError.
    """
    a = validate_hermitian(a)
    w, v = _eigh(a)
    return EigenDecomposition(w, v)


def matrix_log(a) -> np.ndarray:
    """Matrix logarithm of a positive semidefinite Hermitian matrix.

    Eigenvalues at or below DEFAULT_ZERO_TOL are mapped to 0 instead of -inf;
    this null-space convention is only sound when downstream traces
    annihilate the null space, which callers must guarantee via support
    checks.
    """
    a = validate_hermitian(a)
    w, v = _eigh(a)
    if float(w.min()) < -DEFAULT_ZERO_TOL:
        raise ValueError(
            f"matrix is not positive semidefinite: min eigenvalue {w.min():.3e} "
            f"< -{DEFAULT_ZERO_TOL:.1e}")
    fw = np.where(w > DEFAULT_ZERO_TOL,
                  np.log(np.maximum(w, DEFAULT_ZERO_TOL)), 0.0)
    out = (v * fw) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def trace_product(a, b) -> float:
    """Re Tr(A B) for equally sized square matrices.

    For Hermitian inputs the trace is real; an imaginary residue above
    1e-10 flags misuse and raises.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    t = complex(np.einsum("ij,ji->", a, b))
    if abs(t.imag) > 1e-10:
        raise ValueError(f"trace has imaginary residue {t.imag:.3e}; "
                         "inputs are not Hermitian")
    return t.real
