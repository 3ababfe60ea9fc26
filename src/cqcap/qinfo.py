"""Quantum-information primitives on density matrices: von Neumann entropy,
relative entropy with support checking, Holevo information, and channel
containers. All entropic quantities are in nats unless stated otherwise.

SUPPORT_TOL is the one zero-eigenvalue cutoff: eigenvalues at or below it
count as zero in entropies, in the log of an average state and in the
support test of a relative entropy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermitian import _eigh, validate_hermitian

PSD_TOL = 1e-10
TRACE_TOL = 1e-10
DIST_SUM_TOL = 1e-12
SUPPORT_TOL = 1e-10
RANK_RTOL = 1e-10
LN2 = math.log(2.0)


def _density_spectrum(rho, name: str = "rho"):
    """Validate density-matrix invariants; return (matrix, eigenvalues desc,
    eigenvector columns)."""
    a = validate_hermitian(rho)
    w, v = _eigh(a)
    if float(w.min()) < -PSD_TOL:
        raise ValueError(
            f"{name} is not positive semidefinite: min eigenvalue {w.min():.3e}")
    tr = float(a.trace().real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} does not have unit trace: Tr = {tr!r}")
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


@dataclass(frozen=True, eq=False)
class CqChannel:
    """A classical-quantum channel: one density matrix per input letter.

    `states` is an (n, m, m) complex stack; every slice must satisfy the
    density-matrix invariants. Validation diagonalizes every state, so the
    von Neumann entropies (n,) in nats are computed once here and kept in
    `entropies`.
    """

    states: np.ndarray

    def __post_init__(self):
        states = np.ascontiguousarray(np.asarray(self.states, dtype=np.complex128))
        if states.ndim != 3 or states.shape[1] != states.shape[2]:
            raise ValueError(f"expected an (n, m, m) stack, got shape {states.shape}")
        n, m = states.shape[0], states.shape[1]
        if n < 2:
            raise ValueError(f"need at least 2 input letters, got {n}")
        if m < 2:
            raise ValueError(f"need output dimension >= 2, got {m}")
        entropies = np.empty(n)
        for x in range(n):
            _, w, _ = _density_spectrum(states[x], name=f"states[{x}]")
            entropies[x] = _entropy_from_eigs(w)
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


def _entropy_from_eigs(w) -> float:
    pos = w > SUPPORT_TOL
    if not np.any(pos):
        return 0.0
    wp = w[pos]
    return float(-np.dot(wp, np.log(wp)))


def _divergences(states, entropies, w, v) -> np.ndarray:
    """D(rho_x || sigma) in nats for every slice rho_x of `states`.

    `entropies` holds H(rho_x) and (w, v) is sigma's eigendecomposition.
    Eigenvalues at or below SUPPORT_TOL are dropped from ln sigma; a letter
    whose mass along such an eigenvector exceeds SUPPORT_TOL lies outside
    sigma's support and gets +inf.
    """
    keep = w > SUPPORT_TOL
    fw = np.where(keep, np.log(np.maximum(w, SUPPORT_TOL)), 0.0)
    log_sigma = (v * fw) @ v.conj().T
    d = -entropies - np.einsum("xij,ji->x", states, log_sigma).real
    if not np.all(keep):
        vs = v[:, ~keep]
        overlaps = np.einsum("ik,xij,jk->xk", vs.conj(), states, vs).real
        d[np.any(overlaps > SUPPORT_TOL, axis=1)] = math.inf
    return d


def von_neumann_entropy(rho) -> float:
    """-Tr(rho ln rho) in nats, with the 0 ln 0 = 0 convention."""
    a, w, _ = _density_spectrum(rho)
    h = _entropy_from_eigs(w)
    hmax = math.log(a.shape[0])
    if not (-1e-10 <= h <= hmax + 1e-10):
        raise AssertionError(f"entropy {h!r} outside [0, ln m] for m={a.shape[0]}")
    return h


def relative_entropy(rho, sigma) -> float:
    """Tr[rho (ln rho - ln sigma)] in nats, or +inf on support violation.

    A violation means sigma has an eigenvector with eigenvalue <= SUPPORT_TOL
    that carries more than SUPPORT_TOL of rho's mass.
    """
    rho_a, w_rho, _ = _density_spectrum(rho, name="rho")
    sig_a, w, v = _density_spectrum(sigma, name="sigma")
    if rho_a.shape != sig_a.shape:
        raise ValueError(f"dimension mismatch: {rho_a.shape} vs {sig_a.shape}")
    return float(_divergences(rho_a[None], np.array([_entropy_from_eigs(w_rho)]),
                              w, v)[0])


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
