"""Quantum-information primitives on density matrices: validation, the one
eigendecomposition (LAPACK `eigh`, spectrum descending), von Neumann and
relative entropy, Holevo information, the solver's one certificate routine
and channel containers. Validation and `_eigh` take a matrix or a stack
(..., m, m). Entropies are in nats.

Entropies and the log of an average state keep every positive eigenvalue
(0 ln 0 = 0). SUPPORT_TOL is the cutoff of the support test of a relative
entropy only: mass above it along an eigenvector whose eigenvalue is at or
below it makes the divergence +inf."""

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
    stack, read from its lower triangle and real diagonal as LAPACK does.
    Callers validate first; LAPACK failures raise LinAlgError."""
    w, v = np.linalg.eigh(a)
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
# the Hermitian part); the inf or NaN that follows is rejected by name, so
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
    return (Hermitian part (A + A^H)/2 as a new array, its eigenvalues desc,
    eigenvector columns). Every entry that already equals its mirror's
    conjugate keeps its bits, so an exactly Hermitian A comes back unchanged."""
    a = _hermitian(a, name)
    a_h = a.conj().swapaxes(-1, -2)
    a = np.where(a == a_h, a, 0.5 * (a + a_h))
    w, v = _eigh(a)
    _reject(name, -w.min(axis=-1), PSD_TOL,
            "is not positive semidefinite: min eigenvalue -{:.3e}")
    _reject(name, np.abs(np.trace(a, axis1=-2, axis2=-1).real - 1.0), TRACE_TOL,
            "does not have unit trace: |Tr - 1| = {:.3e}")
    return a, w, v


def validate_distribution(p, n: int | None = None, *, rows: int | None = None,
                          positive: bool = False, name: str = "distribution") -> np.ndarray:
    """Check an input distribution of n weights: finite, nonnegative (above 0
    with `positive`) and summing to 1 within DIST_SUM_TOL. With `rows` = B
    and n given, check a stack (B, n) of them instead, a defect named for its
    lowest row as `name[k]`; complex weights are rejected, not cast. Return
    the weights as float64; the caller's array is not changed."""
    p = np.asarray(p)
    if np.iscomplexobj(p):
        raise ValueError(f"{name} has complex weights")
    p = p.astype(np.float64, copy=False)
    want = (n,) if rows is None else (rows, n)
    if p.ndim != len(want) or (n is not None and p.shape != want):
        raise ValueError(f"{name} has the wrong length or shape: expected "
                         f"{'(n,)' if n is None else want}, got {p.shape}")
    _reject(name, ~np.isfinite(p).all(axis=-1), 0, "has a non-finite weight")
    if positive:
        _reject(name, p.min(axis=-1) <= 0.0, 0, "has a weight that is not above 0")
    else:
        _reject(name, -p.min(axis=-1), 0.0, "has a negative weight -{:.3e}")
    _reject(name, np.abs(p.sum(axis=-1) - 1.0), DIST_SUM_TOL,
            "does not sum to 1: |sum - 1| = {:.3e}")
    return p


def _channel_states(states, batch: bool):
    """Check the states of one channel (n, m, m), or with `batch` a stack of
    channels (B, n, m, m), for B >= 1, n >= 2, m >= 2 and the density-matrix
    invariants of every slice, named `states[x]` or `states[k][x]`. Return
    the Hermitian part of the states as a new contiguous complex128 array,
    never the caller's, and their von Neumann entropies (n,) or (B, n) in
    nats."""
    states = np.asarray(states, dtype=np.complex128)
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
    states, w, _ = _density_spectra(states, "states")
    return np.ascontiguousarray(states), _entropy_from_eigs(*_log_eigs(w))


@dataclass(frozen=True, eq=False)
class CqChannel:
    """A classical-quantum channel: one density matrix per input letter.

    `states` is an (n, m, m) complex stack; every slice must satisfy the
    density-matrix invariants; the channel keeps a read-only copy of its
    Hermitian part.
    Validation diagonalizes the whole stack in one call, so the von Neumann
    entropies (n,) in nats are computed once here and kept in `entropies`.
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


def _log_eigs(w):
    """(u, ln u) for a spectrum or stack w, where u is w with 1 in place of
    every eigenvalue at or below 0: the one log that the entropies and ln
    sigma share. 1 ln 1 = +0.0 is the 0 ln 0 = 0 term, bit for bit."""
    u = np.where(w > 0.0, w, 1.0)
    return u, np.log(u)


def _entropy_from_eigs(u, ln_u):
    """-sum u ln u over the last axis for (u, ln u) = _log_eigs(w), the von
    Neumann entropy of the spectrum w: numpy values of w's leading shape, a
    numpy scalar for one spectrum."""
    # a matmul of the rows sums like a dot over the positive eigenvalues
    # alone; sum(-1) does not, and would move the last bit
    return -(u[..., None, :] @ ln_u[..., :, None])[..., 0, 0]


def _divergences(states, neg_h, w, v, ln_w) -> np.ndarray:
    """D(rho_x || sigma_b) in nats for every slice rho_x = states[b, x], as a
    (B, n) array.

    `states` is a (B, n, m, m) stack, `neg_h` holds -H(rho_x) as (B, n, 1)
    or anything that broadcasts to it, (w, v) are the (B, m) and (B, m, m)
    eigendecompositions of the sigma_b and ln_w is the log of w from
    _log_eigs.
    ln sigma keeps every positive eigenvalue, the cutoff of the entropies; a
    letter whose mass along an eigenvector with eigenvalue at or below
    SUPPORT_TOL exceeds SUPPORT_TOL lies outside sigma's support and gets +inf.
    """
    b, n, m = states.shape[:3]
    # (ln sigma)^T = conj(V) diag(ln w) V^T, so that Tr(rho_x ln sigma) is the
    # flat product of rho_x with it: one matmul per channel, which sums each
    # row in the same order whatever B is, so a channel's bits do not depend
    # on its batch (einsum("bxij,bji->bx") does not keep that)
    log_sigma_t = (v.conj() * ln_w[:, None, :]) @ v.swapaxes(-1, -2)
    trace = states.reshape(b, n, m * m) @ log_sigma_t.reshape(b, m * m, 1)
    d = (neg_h - trace.real)[..., 0]
    if not w.min() > SUPPORT_TOL:
        keep = w > SUPPORT_TOL
        cut = np.flatnonzero(~keep.all(axis=1))
        vc = v[cut]
        overlaps = np.einsum("bik,bxij,bjk->bxk", vc.conj(), states[cut], vc).real
        outside = np.any((overlaps > SUPPORT_TOL) & ~keep[cut, None, :], axis=2)
        d[cut] = np.where(outside, math.inf, d[cut])
    return d


def _certificates(p: np.ndarray, states: np.ndarray, entropies: np.ndarray):
    """Per-letter relative entropies to the average states plus both bounds,
    for B channels of one shape at once.

    `p` is (B, n), `states` (B, n, m, m) and `entropies` (B, n). Returns
    (d, lower, upper) where d[b, x] = D(rho_x || rho_p) with +inf on support
    violations, lower[b] is the Holevo information of p[b] and upper[b] is
    max(d[b]) over every letter including zero-weight ones.
    """
    b, n, m = states.shape[:3]
    # the average states by one matmul over the flattened states, a dot per
    # channel as in _divergences; eigh reads only their lower triangle
    w, v = _eigh((p[:, None, :] @ states.reshape(b, n, m * m)).reshape(b, m, m))
    u, ln_u = _log_eigs(w)
    neg_h = -entropies[:, :, None]
    d = _divergences(states, neg_h, w, v, ln_u)
    # -H(rho_x) summed, not subtracted, keeps a zero Holevo value at +0.0 (a
    # pure spectrum has entropy -0.0); a matmul per row, as in _divergences
    lower = _entropy_from_eigs(u, ln_u) + (p[:, None, :] @ neg_h)[:, 0, 0]
    return d, lower, d.max(axis=1)


def _certificates_of(p: np.ndarray, ch: CqChannel):
    """_certificates for one channel, through a leading axis of 1."""
    d, lower, upper = _certificates(p[None], ch.states[None], ch.entropies[None])
    return d[0], float(lower[0]), float(upper[0])


def von_neumann_entropy(rho) -> float:
    """-Tr(rho ln rho) in nats, with the 0 ln 0 = 0 convention."""
    a, w, _ = _density_spectra(rho, "rho")
    if a.ndim != 2:
        raise ValueError(f"rho must be a square matrix, got shape {a.shape}")
    h = float(_entropy_from_eigs(*_log_eigs(w)))
    if not (-1e-10 <= h <= math.log(a.shape[0]) + 1e-10):
        raise ValueError(f"von Neumann entropy {h!r} nats outside [0, ln m] = "
                         f"[0, {math.log(a.shape[0])!r}] for m = {a.shape[0]}")
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
    return float(_divergences(rho_a[None, None], -_entropy_from_eigs(*_log_eigs(w_rho)),
                              w[None], v[None], _log_eigs(w[None])[1])[0, 0])


def holevo_information(p, ch: CqChannel) -> float:
    """H(sum_x p_x rho_x) - sum_x p_x H(rho_x) in nats."""
    p = validate_distribution(p, n=ch.input_size)
    chi = _certificates_of(p, ch)[1]
    cap = math.log(min(ch.input_size, ch.output_dim))
    if not (-1e-10 <= chi <= cap + 1e-10):
        raise ValueError(f"Holevo information {chi!r} nats outside [0, ln min(n, m)] "
                         f"= [0, {cap!r}]")
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
