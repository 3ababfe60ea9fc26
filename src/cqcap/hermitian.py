"""Dense complex Hermitian linear algebra: input validation and the one
eigendecomposition every entropy and certificate goes through.

Eigendecompositions call LAPACK `eigh` on the symmetrized input and return
the spectrum in descending order.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-12


def validate_hermitian(a) -> np.ndarray:
    """Check square shape, finite entries and conjugate symmetry to within
    HERMITIAN_TOL.

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
    if defect > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian: max |A - A^H| = {defect:.3e}")
    diag_imag = float(np.abs(a.diagonal().imag).max()) if a.size else 0.0
    if diag_imag > HERMITIAN_TOL:
        raise ValueError(f"diagonal not real: max |Im A_kk| = {diag_imag:.3e}")
    return a


def _eigh(a: np.ndarray):
    """Eigendecomposition of a Hermitian array without input validation.

    Callers validate first; returns (eigenvalues desc, eigenvector columns).
    LAPACK failures raise LinAlgError.
    """
    w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    return w[::-1], v[:, ::-1]
