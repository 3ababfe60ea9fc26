"""Quantum-information primitives on density matrices: validation, the one
eigendecomposition (LAPACK `eigh`, spectrum descending), von Neumann and
relative entropy, Holevo information and channel containers. Validation and
`_eigh` take a matrix or a stack (..., m, m). Entropies are in nats.

SUPPORT_TOL is the one zero-eigenvalue cutoff: eigenvalues at or below it
count as zero in entropies, in the log of an average state and in the
support test of a relative entropy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
DIST_SUM_TOL = 1e-12
SUPPORT_TOL = 1e-10
RANK_RTOL = 1e-10
LN2 = math.log(2.0)


def _eigh(a: np.ndarray):
    """(eigenvalues desc, eigenvector columns) of a Hermitian matrix or
    stack. Callers validate first; LAPACK failures raise LinAlgError."""
    w, v = np.linalg.eigh(0.5 * (a + a.conj().swapaxes(-1, -2)))
    return w[..., ::-1], v[..., ::-1]


def _reject(name: str, defect, tol: float, message: str) -> None:
    """Raise ValueError for the lowest-index slice whose defect (one value
    per slice) exceeds tol or is NaN, naming it `name[i]`, or `name` for one
    matrix."""
    hits = np.argwhere(~(defect <= tol))
    if len(hits):
        idx = tuple(hits[0])
        label = name + "".join(f"[{k}]" for k in idx)
        raise ValueError(f"{label} {message.format(defect[idx])}")


# entries near the float64 limit overflow in these checks (A - A^H, the trace,
# _eigh's symmetrization); the inf or NaN that follows is rejected by name, so
# numpy's warnings would only be noise ahead of the error
@np.errstate(over="ignore", invalid="ignore")
def _hermitian(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    _reject(name, ~np.isfinite(a).all(axis=(-2, -1)), 0, "has non-finite entries")
    gap = np.triu(np.abs(a - a.conj().swapaxes(-1, -2)), 1)  # diagonal checked next
    _reject(name, gap.max(axis=(-2, -1), initial=0.0), HERMITIAN_TOL,
            "is not Hermitian: max |A - A^H| = {:.3e}")
    _reject(name, np.abs(a.diagonal(axis1=-2, axis2=-1).imag).max(axis=-1, initial=0.0),
            HERMITIAN_TOL, "has a diagonal that is not real: max |Im A_kk| = {:.3e}")
    return a


def validate_hermitian(a) -> np.ndarray:
    """Check a square matrix or stack (..., m, m) for finite entries, conjugate
    symmetry and a real diagonal to HERMITIAN_TOL; return it as complex128."""
    return _hermitian(a, "matrix")


@np.errstate(over="ignore", invalid="ignore")
def _density_spectra(a, name: str):
    """Check a matrix or stack with one eigendecomposition, in the order
    finite, Hermitian, real diagonal, PSD, unit trace, each over every slice;
    return (array, eigenvalues desc, eigenvector columns)."""
    a = _hermitian(a, name)
    w, v = _eigh(a)
    _reject(name, -w.min(axis=-1), PSD_TOL,
            "is not positive semidefinite: min eigenvalue -{:.3e}")
    _reject(name, np.abs(np.trace(a, axis1=-2, axis2=-1).real - 1.0), TRACE_TOL,
            "does not have unit trace: |Tr - 1| = {:.3e}")
    return a, w, v


def validate_distribution(p, n: int | None = None) -> np.ndarray:
    """Check finiteness, nonnegativity and normalization of an input
    distribution."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"distribution must be a vector, got shape {p.shape}")
    if n is not None and p.shape[0] != n:
        raise ValueError(f"length mismatch: expected {n} weights, got {p.shape[0]}")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"non-finite weight in {p.tolist()!r}")
    if float(p.min()) < 0.0:
        raise ValueError(f"negative weight {p.min()!r}")
    s = float(p.sum())
    if abs(s - 1.0) > DIST_SUM_TOL:
        raise ValueError(f"weights sum to {s!r}, not 1")
    return p


def _channel_states(states, batch: bool):
    """Check the states of one channel (n, m, m), or with `batch` a stack of
    channels (B, n, m, m), for B >= 1, n >= 2, m >= 2 and the density-matrix
    invariants of every slice, named `states[x]` or `states[k][x]`. Return
    the states as a contiguous complex128 array, the caller's own when it
    already is one, and their von Neumann entropies (n,) or (B, n) in nats."""
    states = np.ascontiguousarray(states, dtype=np.complex128)
    form = "(B, n, m, m)" if batch else "(n, m, m)"
    if states.ndim != 3 + batch or states.shape[-1] != states.shape[-2]:
        raise ValueError(f"expected a stack of shape {form}, got shape {states.shape}")
    if batch and states.shape[0] < 1:
        raise ValueError("need at least one channel, got an empty stack")
    n, m = states.shape[-3:-1]
    if n < 2:
        raise ValueError(f"need at least 2 input letters, got {n}")
    if m < 2:
        raise ValueError(f"need output dimension >= 2, got {m}")
    _, w, _ = _density_spectra(states, "states")
    return states, _entropy_from_eigs(w)


@dataclass(frozen=True, eq=False)
class CqChannel:
    """A classical-quantum channel: one density matrix per input letter.

    `states` is an (n, m, m) complex stack; every slice must satisfy the
    density-matrix invariants. Validation diagonalizes the whole stack in one
    call, so the von Neumann entropies (n,) in nats are computed once here
    and kept in `entropies`.
    """

    states: np.ndarray

    def __post_init__(self):
        states, entropies = _channel_states(self.states, batch=False)
        states.flags.writeable = False
        entropies.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "entropies", entropies)

    @property
    def input_size(self) -> int:
        return self.states.shape[0]

    @property
    def output_dim(self) -> int:
        return self.states.shape[1]


def _entropy_from_eigs(w):
    """-sum w ln w over the last axis, skipping eigenvalues at or below
    SUPPORT_TOL; a float for one spectrum, an array for a stack."""
    pos = w > SUPPORT_TOL
    # a matmul of the masked rows sums like the former dot over the kept
    # eigenvalues alone; sum(-1) does not, and would move the last bit
    h = -(np.where(pos, w, 0.0)[..., None, :]
          @ np.log(np.where(pos, w, 1.0))[..., :, None])[..., 0, 0]
    return float(h) if h.ndim == 0 else h


def _divergences(states, entropies, w, v) -> np.ndarray:
    """D(rho_x || sigma_b) in nats for every slice rho_x = states[b, x], as a
    (B, n) array.

    `states` is a (B, n, m, m) stack, `entropies` (B, n) holds H(rho_x) and
    (w, v) are the (B, m) and (B, m, m) eigendecompositions of the sigma_b.
    Eigenvalues at or below SUPPORT_TOL are dropped from ln sigma; a letter
    whose mass along such an eigenvector exceeds SUPPORT_TOL lies outside
    sigma's support and gets +inf.
    """
    b, n, m = states.shape[:3]
    keep = w > SUPPORT_TOL
    fw = np.log(np.where(keep, w, 1.0))
    # (ln sigma)^T = conj(V) diag(ln w) V^T, so that Tr(rho_x ln sigma) is the
    # flat product of rho_x with it: one matmul per channel, which sums each
    # row in the same order whatever B is, so a channel's bits do not depend
    # on its batch (einsum("bxij,bji->bx") does not keep that)
    log_sigma_t = (v.conj() * fw[:, None, :]) @ v.swapaxes(-1, -2)
    trace = (states.reshape(b, n, m * m) @ log_sigma_t.reshape(b, m * m, 1))[..., 0]
    d = -entropies - trace.real
    if not keep.all():
        cut = np.flatnonzero(~keep.all(axis=1))
        vc = v[cut]
        overlaps = np.einsum("bik,bxij,bjk->bxk", vc.conj(), states[cut], vc).real
        outside = np.any((overlaps > SUPPORT_TOL) & ~keep[cut, None, :], axis=2)
        d[cut] = np.where(outside, math.inf, d[cut])
    return d


def von_neumann_entropy(rho) -> float:
    """-Tr(rho ln rho) in nats, with the 0 ln 0 = 0 convention."""
    a, w, _ = _density_spectra(rho, "rho")
    if a.ndim != 2:
        raise ValueError(f"rho must be a square matrix, got shape {a.shape}")
    h = _entropy_from_eigs(w)
    if not (-1e-10 <= h <= math.log(a.shape[0]) + 1e-10):
        raise AssertionError(f"entropy {h!r} outside [0, ln m] for m={a.shape[0]}")
    return h


def relative_entropy(rho, sigma) -> float:
    """Tr[rho (ln rho - ln sigma)] in nats, or +inf on support violation.

    A violation means sigma has an eigenvector with eigenvalue <= SUPPORT_TOL
    that carries more than SUPPORT_TOL of rho's mass.
    """
    rho_a, w_rho, _ = _density_spectra(rho, "rho")
    sig_a, w, v = _density_spectra(sigma, "sigma")
    if rho_a.shape != sig_a.shape or rho_a.ndim != 2:
        raise ValueError(f"shape mismatch or not m x m: {rho_a.shape} vs {sig_a.shape}")
    return float(_divergences(rho_a[None, None], _entropy_from_eigs(w_rho[None, None]),
                              w[None], v[None])[0, 0])


def holevo_information(p, ch: CqChannel) -> float:
    """H(sum_x p_x rho_x) - sum_x p_x H(rho_x) in nats."""
    p = validate_distribution(p, n=ch.input_size)
    w, _ = _eigh(np.einsum("x,xij->ij", p, ch.states))
    # summed with -H(rho_x) rather than subtracted: a pure spectrum has
    # entropy -0.0, and this form keeps a zero Holevo value at +0.0
    chi = _entropy_from_eigs(w) + float(p @ -ch.entropies)
    cap = math.log(min(ch.input_size, ch.output_dim))
    if not (-1e-10 <= chi <= cap + 1e-10):
        raise AssertionError(f"Holevo information {chi!r} outside [0, {cap!r}]")
    return chi


def check_linear_independence(ch: CqChannel) -> tuple[bool, int]:
    """Numerical rank of the states viewed as vectors in C^(m*m).

    Returns (rank == n, rank); rank counts singular values above
    RANK_RTOL times the largest one.
    """
    n, m = ch.input_size, ch.output_dim
    flat = ch.states.reshape(n, m * m)
    svals = np.linalg.svd(flat, compute_uv=False)
    rank = int(np.count_nonzero(svals > RANK_RTOL * svals[0]))
    return rank == n, rank
