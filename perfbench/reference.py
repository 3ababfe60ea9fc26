"""Reference evaluator for cqcap outputs, written against NumPy alone.

Nothing here imports cqcap. The benchmark checks every program output
against these functions:

- `holevo` and `relative_entropies` recompute the two certificates of a
  reported input distribution p: chi(p) and max_x D(rho_x || rho_p), with
  `np.linalg.eigh` (LAPACK), in nats.
- `bloch_vectors`, `holevo_bits` and `max_holevo_bits` handle two-letter
  qubit channels in Bloch form, where the capacity is a concave
  maximisation over one weight.
- `approx_p1` is the closed-form input of the source paper, derived again
  here from the theta = 0 stationarity condition.
- `ginibre_channel` regenerates the random channels of `cqcap bench` from
  their documented stream (Philox keyed by seed, n, m, accuracy index and
  trial index; states G G^H / Tr).
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)
ZERO_TOL = 1e-12
SUPPORT_TOL = 1e-10
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _entropy(w: np.ndarray) -> float:
    w = w[w > ZERO_TOL]
    return float(-np.dot(w, np.log(w)))


def holevo(p, states: np.ndarray) -> float:
    """H(sum_x p_x rho_x) - sum_x p_x H(rho_x), in nats."""
    p = np.asarray(p, dtype=np.float64)
    rho = np.einsum("x,xij->ij", p, states)
    mix = _entropy(np.linalg.eigvalsh(rho))
    cond = sum(px * _entropy(np.linalg.eigvalsh(s)) for px, s in zip(p, states))
    return mix - cond


def relative_entropies(p, states: np.ndarray) -> np.ndarray:
    """D(rho_x || rho_p) for every letter x, in nats; +inf where rho_x has
    weight outside the support of rho_p."""
    p = np.asarray(p, dtype=np.float64)
    w, v = np.linalg.eigh(np.einsum("x,xij->ij", p, states))
    out = np.empty(len(states))
    for x, s in enumerate(states):
        mass = np.einsum("ik,ij,jk->k", v.conj(), s, v).real
        small = w <= SUPPORT_TOL
        if np.any(mass[small] > SUPPORT_TOL):
            out[x] = math.inf
            continue
        cross = float(np.dot(mass[~small], np.log(w[~small])))
        out[x] = -_entropy(np.linalg.eigvalsh(s)) - cross
    return out


def upper_certificate(p, states: np.ndarray) -> float:
    return float(relative_entropies(p, states).max())


def binary_entropy_bits(x):
    """h(x) in bits, elementwise, with h(0) = h(1) = 0."""
    x = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(x * np.log2(x) + (1.0 - x) * np.log2(1.0 - x))
    return np.where((x <= 0.0) | (x >= 1.0), 0.0, h)


def bloch_vectors(states: np.ndarray) -> np.ndarray:
    """Bloch vectors v with rho = (I + v . sigma) / 2 for a stack of qubit
    states; shape (n, 3)."""
    states = np.asarray(states)
    return np.stack([2.0 * states[:, 0, 1].real,
                     -2.0 * states[:, 0, 1].imag,
                     (states[:, 0, 0] - states[:, 1, 1]).real], axis=1)


def holevo_bits(p1, v1: np.ndarray, v2: np.ndarray):
    """Holevo quantity of {p1: v1, 1 - p1: v2} in bits; broadcasts over a
    leading batch axis of the vectors (shape (..., 3))."""
    p1 = np.asarray(p1, dtype=np.float64)
    mix = p1[..., None] * v1 + (1.0 - p1[..., None]) * v2
    norm = np.linalg.norm(mix, axis=-1)
    r1 = np.linalg.norm(v1, axis=-1)
    r2 = np.linalg.norm(v2, axis=-1)
    return (binary_entropy_bits(0.5 * (1.0 + norm))
            - p1 * binary_entropy_bits(0.5 * (1.0 + r1))
            - (1.0 - p1) * binary_entropy_bits(0.5 * (1.0 + r2)))


def max_holevo_bits(v1: np.ndarray, v2: np.ndarray, iters: int = 80):
    """max over p1 in [0, 1] of `holevo_bits`, by golden-section search
    (the objective is concave in p1). Returns (value, argmax), batched."""
    shape = np.broadcast_shapes(v1.shape, v2.shape)[:-1]
    a, b = np.zeros(shape), np.ones(shape)
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = holevo_bits(c, v1, v2), holevo_bits(d, v1, v2)
    for _ in range(iters):
        left = fc > fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        new_c = b - _INV_PHI * (b - a)
        new_d = a + _INV_PHI * (b - a)
        c, d = np.where(left, new_c, d), np.where(left, c, new_d)
        fc, fd = (np.where(left, holevo_bits(new_c, v1, v2), fd),
                  np.where(left, fc, holevo_bits(new_d, v1, v2)))
    p = 0.5 * (a + b)
    ends = [np.zeros(shape), np.ones(shape), p]
    vals = np.stack([holevo_bits(x, v1, v2) for x in ends])
    best = vals.argmax(axis=0)
    return vals.max(axis=0), np.choose(best, ends)


def sweep_vectors(lambda1, lambda2, theta):
    """Bloch vectors of the sweep's channel (lambda1, lambda2, theta): state
    1 on the Z axis, state 2 tilted by theta in the X-Z plane."""
    lambda1, lambda2, theta = np.broadcast_arrays(
        np.asarray(lambda1, float), np.asarray(lambda2, float),
        np.asarray(theta, float))
    zero = np.zeros_like(theta)
    v1 = np.stack([zero, zero, 2.0 * lambda1 - 1.0], axis=-1)
    r2 = 2.0 * lambda2 - 1.0
    v2 = np.stack([r2 * np.sin(theta), zero, r2 * np.cos(theta)], axis=-1)
    return v1, v2


def bloch_states(v: np.ndarray) -> np.ndarray:
    """Density matrices (I + v . sigma) / 2 for Bloch vectors of shape (n, 3)."""
    x, y, z = v[:, 0], v[:, 1], v[:, 2]
    out = np.empty((len(v), 2, 2), dtype=np.complex128)
    out[:, 0, 0] = 0.5 * (1.0 + z)
    out[:, 1, 1] = 0.5 * (1.0 - z)
    out[:, 0, 1] = 0.5 * (x - 1j * y)
    out[:, 1, 0] = 0.5 * (x + 1j * y)
    return out


def approx_p1(lambda1: float, lambda2: float) -> float:
    """Closed-form input weight of the source paper.

    At theta = 0 the mixture's larger eigenvalue is
    mu = 1/2 + p r1 + (1 - p) r2 with r_i = lambda_i - 1/2, and the
    stationarity condition h'(mu) (r1 - r2) = h(lambda1) - h(lambda2) with
    h'(mu) = log2((1 - mu) / mu) gives mu = 1 / (1 + 2^y),
    y = (h(lambda1) - h(lambda2)) / (r1 - r2). Equal radii give 1/2.
    """
    r1, r2 = lambda1 - 0.5, lambda2 - 0.5
    if abs(r1 - r2) <= 1e-12:
        return 0.5
    y = float(binary_entropy_bits(lambda1) - binary_entropy_bits(lambda2)) / (r1 - r2)
    mu = 1.0 / (1.0 + 2.0 ** y)
    return min(max((mu - 0.5 - r2) / (r1 - r2), 0.0), 1.0)


def ginibre_channel(seed: int, n: int, m: int, acc_index: int,
                    trial: int) -> np.ndarray:
    """The (n, m, m) states of one `cqcap bench` trial, regenerated from the
    trial's Philox stream."""
    ss = np.random.SeedSequence(seed, spawn_key=(n, m, acc_index, trial))
    rng = np.random.Generator(np.random.Philox(ss))
    states = []
    for _ in range(n):
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        a = g @ g.conj().T
        states.append(a / a.trace().real)
    return np.stack(states)




def check_certificates(report: dict, states: np.ndarray, eps: float,
                       tol: float = 1e-9) -> str | None:
    """Check one `cqcap capacity --format json` report against a
    recomputation; returns None when it holds, else what failed."""
    lower, upper = report.get("lower_nats"), report.get("upper_nats")
    if lower is None or upper is None:
        return f"non-finite certificate: lower={lower!r} upper={upper!r}"
    if not report.get("converged"):
        return "not converged"
    if not lower <= upper:
        return f"lower {lower!r} > upper {upper!r}"
    if not upper - lower <= eps:
        return f"gap {upper - lower!r} above eps {eps!r}"
    p = np.asarray(report["p_star"], dtype=np.float64)
    if p.shape != (len(states),) or p.min() < 0.0 or abs(p.sum() - 1.0) > 1e-9:
        return f"p_star is not a distribution over {len(states)} letters"
    chi = holevo(p, states)
    if abs(chi - lower) > tol:
        return f"lower {lower!r} differs from chi(p*) = {chi!r}"
    dmax = upper_certificate(p, states)
    if abs(dmax - upper) > tol:
        return f"upper {upper!r} differs from max_x D = {dmax!r}"
    return None


def self_check(channels: dict[str, np.ndarray]) -> list[str]:
    """Check the evaluator on the committed channels, whose capacities are
    known in closed form: ln 2 (orthogonal pure states), 0 (identical
    states) and ln(5/4) (noiseless letter beside a fully mixed one).
    Returns the failures."""
    expected = {"orthogonal_pure": LN2, "identical_states": 0.0,
                "z_channel": math.log(1.25)}
    failures = []
    for name, cap in expected.items():
        states = channels[name]
        v = bloch_vectors(states)
        best_bits, p1 = max_holevo_bits(v[0], v[1])
        p = np.array([float(p1), 1.0 - float(p1)])
        lower, upper = holevo(p, states), upper_certificate(p, states)
        if not (abs(float(best_bits) * LN2 - cap) <= 1e-12
                and abs(lower - cap) <= 1e-12
                and -1e-12 <= upper - lower <= 1e-7):
            failures.append(f"{name}: 1-D max {float(best_bits) * LN2!r}, "
                            f"chi {lower!r}, max D {upper!r}, expected {cap!r}")
    return failures
