"""Quantum-information primitives on density matrices: validation, the one
eigensolver (LAPACK `eigh`, spectrum ascending), von Neumann and relative
entropy, Holevo information, the solver's one certificate routine and
channel containers. Validation and `_eigh` take a matrix or a stack
(..., m, m). Entropies are in nats.

A spectrum is (w, basis): `_eigh`'s eigenvalues and eigenvector columns
for m > 2, `_qubit_spectra`'s eigenvalues and split w+ - w- for m = 2, with
no LAPACK call. Validation alone then takes w- = det/w+ where w- is small.
Both `relative_entropy` and the certificates hand (sigma, w, basis) to
`_divergences`, the one divergence entry. The branch depends on m alone.

Entropies and the log of an average state keep every positive eigenvalue
(0 ln 0 = 0). `_support_rule` lifts an eigenvalue at or below SUPPORT_TOL to
the largest share p_x mass_k(x) along it; only a zero-weight letter (rho in
`relative_entropy`) with mass above SUPPORT_TOL there gets +inf."""

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
_TINY = np.finfo(np.float64).tiny
# the 2x2 identity as the 8 doubles of its complex128 view
_EYE2 = np.eye(2, dtype=np.complex128).view(np.float64).ravel()
_SPLITTER = 2.0 ** 27 + 1.0   # Veltkamp's: a double as two 26-bit halves
# the factors (a, Re b, Im b) and (e, Re b, Im b) of det = a e - |b|^2, as
# indices into the 8 doubles of a 2x2 complex128 matrix
_DET_FACTORS = np.array([0, 4, 5, 6, 4, 5])


def _eigh(a: np.ndarray):
    """(ascending eigenvalues, eigenvector columns) of a Hermitian matrix or
    stack, C-contiguous as LAPACK gives them from the lower triangle and
    real diagonal; no caller reads the order. Callers validate first; LAPACK
    failures raise LinAlgError."""
    return np.linalg.eigh(a)


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
def _hermitian(a, name: str) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    _reject(name, ~np.isfinite(a).all(axis=(-2, -1)), 0, "has non-finite entries")
    a_h = a.conj().swapaxes(-1, -2)
    gap = np.triu(np.abs(a - a_h), 1)  # diagonal checked next
    _reject(name, gap.max(axis=(-2, -1), initial=0.0), HERMITIAN_TOL,
            "is not Hermitian: max |A - A^H| = {:.3e}")
    _reject(name, np.abs(a.diagonal(axis1=-2, axis2=-1).imag).max(axis=-1, initial=0.0),
            HERMITIAN_TOL, "has a diagonal that is not real: max |Im A_kk| = {:.3e}")
    return a, a_h


def validate_hermitian(a) -> np.ndarray:
    """Check a square matrix or stack (..., m, m) for finite entries, conjugate
    symmetry and a real diagonal to HERMITIAN_TOL; return it as complex128."""
    return _hermitian(a, "matrix")[0]


# the closed-form spectrum also overflows on entries near the float64 limit
@np.errstate(over="ignore", invalid="ignore")
def _density_spectra(a, name: str):
    """Check a matrix or stack in the order finite, Hermitian, real diagonal,
    PSD, unit trace, each over every slice; return (Hermitian part
    (A + A^H)/2 as a new array, its eigenvalues, basis) in the form
    `_divergences` takes: one `_eigh` call over the stack, its ascending
    eigenvalues and eigenvector columns for m > 2, `_qubit_spectra`'s
    (w+, w-) and split (..., 1) for m = 2, with no LAPACK call. Every
    entry that already equals its mirror's conjugate keeps its bits, so an
    exactly Hermitian A comes back unchanged.

    For m = 2, w- is det/w+ for det = a e - |b|^2 from `_qubit_det` on the
    rows with b != 0 and |w-| < w+/16, where the difference form cancels,
    and wherever that quotient is finite. Against a 50-digit spectrum the
    entropies then stay within 2.4e-16 nats on random pure states, where
    LAPACK reaches 1.1e-14, and within 2.2e-16 on Ginibre states. A
    diagonal matrix keeps its diagonal, and a row with w+ <= 0 keeps the
    difference form, so that a non-state is rejected with the value that
    LAPACK gave. The certificates keep the difference form: the step would
    cost an m = 2 iteration at B = 1 about 12 % (26.6 -> 29.7 us)."""
    a, a_h = _hermitian(a, name)
    a = np.where(a == a_h, a, 0.5 * (a + a_h))
    if a.shape[-1] == 2:
        flat = a.reshape(-1, 2, 2)
        w, split = _qubit_spectra(flat)
        near = np.flatnonzero((flat[:, 1, 0] != 0.0) & (16.0 * np.abs(w[:, 1]) < w[:, 0]))
        if len(near):
            lo = _qubit_det(flat[near]) / w[near, 0]
            w[near, 1] = np.where(np.isfinite(lo), lo, w[near, 1])
        w, basis = w.reshape(a.shape[:-1]), split.reshape(a.shape[:-2] + (1,))
    else:
        w, basis = _eigh(a)
    _reject(name, -w.min(axis=-1), PSD_TOL,
            "is not positive semidefinite: min eigenvalue -{:.3e}")
    _reject(name, np.abs(np.trace(a, axis1=-2, axis2=-1).real - 1.0), TRACE_TOL,
            "does not have unit trace: |Tr - 1| = {:.3e}")
    return a, w, basis


def validate_distribution(p, n: int | None = None) -> np.ndarray:
    """Check an input distribution of n weights: finite, nonnegative and
    summing to 1 within DIST_SUM_TOL; weights of any dtype but integer or
    float (complex, string, boolean, object) are rejected, not cast. Return
    the weights as float64; the caller's array is not changed."""
    p = np.asarray(p)
    if p.dtype.kind not in "iuf":
        kind = "complex" if p.dtype.kind == "c" else p.dtype
        raise ValueError(f"distribution has {kind} weights")
    p = p.astype(np.float64, copy=False)
    if p.ndim != 1 or not p.size or (n is not None and p.shape != (n,)):
        raise ValueError(f"distribution has the wrong length or shape: expected "
                         f"{'(n,)' if n is None else (n,)}, got {p.shape}")
    _reject("distribution", ~np.isfinite(p).all(), 0, "has a non-finite weight")
    _reject("distribution", -p.min(), 0.0, "has a negative weight -{:.3e}")
    _reject("distribution", abs(p.sum() - 1.0), DIST_SUM_TOL,
            "does not sum to 1: |sum - 1| = {:.3e}")
    return p


def _channel_states(states, batch: bool):
    """Check the states of one channel (n, m, m), or with `batch` a stack of
    channels (B, n, m, m), for B >= 1, n >= 2, m >= 2 and the density-matrix
    invariants of every slice, named `states[x]` or `states[k][x]`, with the
    spectra of `_density_spectra`: one `_eigh` call for m > 2, none for
    m = 2. Return the Hermitian part of the states as a new contiguous
    complex128 array, never the caller's, and their von Neumann entropies
    (n,) or (B, n) in nats."""
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
    Validation takes the spectra of the whole stack at once (one `_eigh`
    call for m > 2, the closed form for m = 2), so the von Neumann entropies
    (n,) in nats are computed once here and kept in `entropies`.
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


def _support_rule(ln_p, w, ln_w, mass_of):
    """(ln_w, outside) for log-weights ln p (B, n), a spectrum w (B, k) with
    ln_w from _log_eigs and mass_of(rows), each letter's mass along each
    eigenvector of those rows (rows, n, k); outside is None if w > SUPPORT_TOL.
    sigma >= p_x rho_x, so a w_k <= SUPPORT_TOL is at least max_x p_x
    mass_k(x): ln w_k is lifted to that share, as ln p_x + ln mass_k(x) (a
    weight below the float64 range counts). Only a zero-weight letter with
    mass above SUPPORT_TOL along such an eigenvector is outside (+inf)."""
    if w.min() > SUPPORT_TOL:
        return ln_w, None
    cut = np.flatnonzero(w.min(axis=1) <= SUPPORT_TOL)
    mass, small, ln_w = mass_of(cut), w[cut] <= SUPPORT_TOL, ln_w.copy()
    with np.errstate(divide="ignore"):
        share = (ln_p[cut, :, None] + np.log(np.maximum(mass, 0.0))).max(axis=1)
    lift = small & (share > np.where(w[cut] > 0.0, ln_w[cut], -math.inf))
    ln_w[cut] = np.where(lift, share, ln_w[cut])
    outside = np.zeros(ln_p.shape, dtype=bool)
    outside[cut] = np.isneginf(ln_p[cut]) & (small[:, None] & (mass > SUPPORT_TOL)).any(axis=2)
    return ln_w, outside


def _divergences(states, neg_h, sigma, w, basis, ln_w, ln_p) -> np.ndarray:
    """D(rho_x || sigma_b) in nats for every slice rho_x = states[b, x], as a
    (B, n) array: the one divergence entry, for every m.

    `states` is a (B, n, m, m) stack, `neg_h` holds -H(rho_x) as (B, n, 1)
    or anything that broadcasts to it, sigma the (B, m, m) sigma_b, (w, basis)
    their spectra as `_density_spectra` gives them, ln_w the log of w from
    _log_eigs and ln_p (B, n) the letters' log-weights in sigma_b. m = 2 goes
    to `_qubit_divergences`; m > 2 reads the (B, m, m) eigenvector columns,
    not sigma. ln sigma keeps every positive eigenvalue, the cutoff of the
    entropies, lifted by `_support_rule`, which puts the only +inf.
    """
    b, n, m = states.shape[:3]
    if m == 2:
        return _qubit_divergences(states, neg_h, sigma, w, basis, ln_w, ln_p)
    ln_w, outside = _support_rule(ln_p, w, ln_w, lambda cut: np.einsum(
        "bik,bxij,bjk->bxk", basis[cut].conj(), states[cut], basis[cut]).real)
    # (ln sigma)^T = conj(V) diag(ln w) V^T, so that Tr(rho_x ln sigma) is the
    # flat product of rho_x with it: one matmul per channel, which sums each
    # row in the same order whatever B is, so a channel's bits do not depend
    # on its batch (einsum("bxij,bji->bx") does not keep that)
    log_sigma_t = (basis.conj() * ln_w[:, None, :]) @ basis.swapaxes(-1, -2)
    trace = states.reshape(b, n, m * m) @ log_sigma_t.reshape(b, m * m, 1)
    d = (neg_h - trace.real)[..., 0]
    if outside is not None:
        d[outside] = math.inf
    return d


def _two_product(x, y):
    """(p, err) with p = x y rounded and p + err = x y exactly, for arrays
    far from overflow and underflow (Dekker's product, Veltkamp's split)."""
    p = x * y
    cx, cy = _SPLITTER * x, _SPLITTER * y
    xh, yh = cx - (cx - x), cy - (cy - y)
    xl, yl = x - xh, y - yh
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _qubit_det(sigma):
    """a e - |b|^2 for a (k, 2, 2) Hermitian stack with real diagonal (a, e)
    and lower entry b, near exact where the terms cancel: the products are
    error-free and |b|^2 = u + du exactly (Knuth's sum), so a e - u is exact
    wherever it is under a e / 2 (Sterbenz) and only the last roundings are
    lost."""
    f = sigma.view(np.float64).reshape(-1, 8).T[_DET_FACTORS]
    p, dp = _two_product(f[:3], f[3:])   # rows a e, (Re b)^2, (Im b)^2
    u = p[1] + p[2]
    z = u - p[1]
    du = (p[1] - (u - z)) + (p[2] - z)
    return (p[0] - u) + (dp[0] - (dp[1] + dp[2] + du))


def _qubit_spectra(sigma):
    """(w, split) for a (B, 2, 2) Hermitian stack: its eigenvalues (w+, w-)
    as (B, 2), read from the real diagonal (a, e) and the lower entry b as
    LAPACK reads them, and their distance w+ - w- = 2 hypot(h, |b|) for
    h = |a - e|/2, floored at the smallest normal double, as (B, 1).
    w+- = max(a, e) +- (hypot(h, |b|) - h), so that a diagonal matrix has
    its diagonal as its spectrum, bit for bit, as LAPACK gives it; only
    validation then replaces a small w- (`_density_spectra`)."""
    a, e = sigma[:, 0, 0].real, sigma[:, 1, 1].real
    big, small = np.maximum(a, e), np.minimum(a, e)
    # 0.5 (big - small) bit for bit but on a subnormal diagonal, and finite
    # where big - small overflows
    h = 0.5 * big - 0.5 * small
    b = np.abs(sigma[:, 1, 0])
    r = np.hypot(h, b)
    delta = r - h
    w = np.empty((len(a), 2))
    np.add(big, delta, out=w[:, 0])
    np.subtract(small, delta, out=w[:, 1])
    return w, np.maximum(r + r, _TINY)[:, None]


def _qubit_divergences(states, neg_h, sigma, w, split, ln_w, ln_p) -> np.ndarray:
    """_divergences for m = 2 in closed form, from sigma itself and its
    spectrum (w, split) from _qubit_spectra instead of eigenvectors.

    sigma's eigenprojectors are P+ = (sigma - w- I)/(w+ - w-) and
    P- = I - P+ (P+ = 0 where w+ = w-), and ln sigma = ln w+ P+ + ln w- P-.
    They are formed entry by entry, so a diagonal sigma gets exact 0s and 1s
    and the bits of the LAPACK path. Tr(rho_x P-) is the mass of rho_x along
    the small eigenvector that `_support_rule` reads. Every step is
    row-wise, so a channel's bits do not depend on its batch.
    """
    b, n = states.shape[:2]
    lo = w[:, 1:]
    # each matrix as the 8 doubles of its complex128 view, Re and Im of the
    # entries 00, 01, 10, 11; for Hermitian rho and H the dot of two such
    # rows is Re Tr(rho H^H) = Tr(rho H), one matmul per channel
    views = states.view(np.float64).reshape(b, n, 8)
    # split is floored only where sigma = w- I, which leaves P+ = 0
    p_plus = sigma.view(np.float64).reshape(b, 8) - lo * _EYE2
    p_plus /= split
    p_minus = _EYE2 - p_plus
    ln_lo, outside = _support_rule(ln_p, lo, ln_w[:, 1:],
                                   lambda cut: views[cut] @ p_minus[cut, :, None])
    log_sigma = ln_w[:, :1] * p_plus + ln_lo * p_minus
    d = (neg_h - views @ log_sigma[:, :, None])[..., 0]
    if outside is not None:
        d[outside] = math.inf
    return d


def _certificates(p: np.ndarray, ln_p: np.ndarray, states: np.ndarray, neg_h: np.ndarray):
    """Per-letter relative entropies to the average states plus both bounds,
    for B channels of one shape at once.

    `p` is (B, n), `ln_p` its log as the loop carries it (finite where p
    underflows to 0, -inf at a zero weight), `states` (B, n, m, m), `neg_h`
    the letters' -H(rho_x) as (B, n, 1). Returns (d, lower, upper): d[b, x] =
    D(rho_x || rho_p), +inf only for a zero-weight letter outside rho_p's
    support, lower[b] the Holevo information of p[b], upper[b] max(d[b]).

    The average states take their spectrum from `_eigh` for m > 2 and from
    `_qubit_spectra` for m = 2, its difference form with no determinant step
    and no LAPACK call, and the divergences from `_divergences`. The branch
    depends on m alone, never on B, and both paths are row-wise, so a
    channel's bits do not depend on its batch.
    """
    b, n, m = states.shape[:3]
    # the average states by one matmul over the flattened states, a dot per
    # channel as in _divergences
    sigma = (p[:, None, :] @ states.reshape(b, n, m * m)).reshape(b, m, m)
    w, basis = _qubit_spectra(sigma) if m == 2 else _eigh(sigma)
    u, ln_u = _log_eigs(w)
    d = _divergences(states, neg_h, sigma, w, basis, ln_u, ln_p)
    # -H(rho_x) summed, not subtracted, keeps a zero Holevo value at +0.0 (a
    # pure spectrum has entropy -0.0); a matmul per row, as in _divergences
    lower = _entropy_from_eigs(u, ln_u) + (p[:, None, :] @ neg_h)[:, 0, 0]
    return d, lower, d.max(axis=1)


def _certificates_of(p: np.ndarray, ch: CqChannel):
    """_certificates for one channel, through a leading axis of 1 (ln 0 = -inf)."""
    ln_p = np.log(p, out=np.full_like(p, -math.inf), where=p > 0.0)[None]
    d, lower, upper = _certificates(p[None], ln_p, ch.states[None], -ch.entropies[None, :, None])
    return d[0], float(lower[0]), float(upper[0])


def von_neumann_entropy(rho) -> float:
    """-Tr(rho ln rho) in nats, with the 0 ln 0 = 0 convention."""
    a, w, _ = _density_spectra(rho, "rho")
    if a.ndim != 2:
        raise ValueError(f"rho must be a square matrix, got shape {a.shape}")
    return float(_entropy_from_eigs(*_log_eigs(w))) + 0.0   # +0.0 for a pure state, not -0.0


def relative_entropy(rho, sigma) -> float:
    """Tr[rho (ln rho - ln sigma)] in nats, or +inf on support violation.

    A violation means sigma has an eigenvector with eigenvalue <= SUPPORT_TOL
    that carries more than SUPPORT_TOL of rho's mass, rho a zero-weight
    letter. sigma's (w, basis) from validation go to `_divergences` as they
    are: for m = 2 the closed form, whose w- = det/w+ keeps ln w- of a
    near-pure sigma accurate, with no LAPACK call; for m > 2 each argument
    takes one `_eigh` call.
    """
    rho_a, w_rho, _ = _density_spectra(rho, "rho")
    sig_a, w, basis = _density_spectra(sigma, "sigma")
    if rho_a.shape != sig_a.shape or rho_a.ndim != 2:
        raise ValueError(f"shape mismatch or not m x m: {rho_a.shape} vs {sig_a.shape}")
    neg_h, w = -_entropy_from_eigs(*_log_eigs(w_rho)), w[None]
    d = _divergences(rho_a[None, None], neg_h, sig_a[None], w, basis[None],
                     _log_eigs(w)[1], np.full((1, 1), -math.inf))
    return float(d[0, 0])


def holevo_information(p, ch: CqChannel) -> float:
    """H(sum_x p_x rho_x) - sum_x p_x H(rho_x) in nats."""
    return _certificates_of(validate_distribution(p, n=ch.input_size), ch)[1]


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
