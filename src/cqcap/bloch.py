"""Binary-input qubit-output channels in the Bloch parametrization.

A channel is described by the larger eigenvalues (lambda1, lambda2) of its
two states and the angle theta between their Bloch vectors; the radii are
r_i = lambda_i - 1/2. The Holevo quantity has a closed form in these
coordinates, its maximizer over p1 has a closed-form approximation derived
from the theta = 0 stationarity condition, and `error_sweep` measures how
far that approximation falls short of the iterative solver across the
parameter square.

The closed form broadcasts: `binary_entropy`, `approx_p1`, the states of
`realize_channel` and the Holevo quantity take numbers or arrays, so the
sweep builds and scores its whole grid as arrays. Holevo values in this
module are in bits, matching the binary entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qinfo import LN2, CqChannel, _entropy_from_eigs, _log_eigs
from .solver import (SolverConfig, _is_real, _require_gap_tol, _require_positive_finite,
                     _solve_stacked, batch_size)
from .solver import solve  # noqa: F401  (rebound by perfbench/tracing.py)

# mpmath digits of exact_p1 and of approx_p1's near-equal branch; with lambdas
# 1 ulp to 1e-4 apart exact_p1's proof fails on 448 of 2784 channels at 50, 0 at 60
_EXACT_P1_DPS = 60
# |lambda1 - lambda2| below which approx_p1 leaves float64: against the same
# expression at 50 digits its error is 2.2e-11 at 1e-3 and 0.26 at 1e-8
_APPROX_P1_CUTOFF = 1e-3
_EXACT_P1_TOL = 1e-12   # half-width of exact_p1's bracket, proven in mpmath.iv
# Largest sweep accepted, in grid rows (lambda values^2 * theta values), all
# scored by the closed form and the lambda1 <= lambda2 half solved: 15x the
# paper-scale default grid of 132,651 rows (67,626 solves), so a mistyped
# step is refused at once instead of filling memory or running for days.
MAX_SWEEP_SOLVES = 2_000_000


class GradientBoundaryError(ValueError):
    """Gradient requested exactly on a boundary where the binary entropy
    slope diverges (a pure mixture at p1 in {0, 1})."""


@dataclass(frozen=True)
class BinaryBlochChannel:
    lambda1: float   # larger eigenvalue of state 1, in [0.5, 1]
    lambda2: float   # larger eigenvalue of state 2, in [0.5, 1]
    theta: float     # angle between the Bloch vectors, in [0, pi]

    def __post_init__(self):
        if not (_is_real(self.lambda1) and 0.5 <= self.lambda1 <= 1.0):
            raise ValueError(f"lambda1 must be in [0.5, 1], got {self.lambda1!r}")
        if not (_is_real(self.lambda2) and 0.5 <= self.lambda2 <= 1.0):
            raise ValueError(f"lambda2 must be in [0.5, 1], got {self.lambda2!r}")
        if not (_is_real(self.theta) and 0.0 <= self.theta <= math.pi):
            raise ValueError(f"theta must be in [0, pi], got {self.theta!r}")


@dataclass(frozen=True)
class SweepGrid:
    lambda_step: float = 0.01
    theta_step: float = math.pi / 50
    reference_gap_tol: float = 1e-6   # solver stopping gap for the reference value

    def __post_init__(self):
        for field, span in (("lambda_step", 0.5), ("theta_step", math.pi)):
            step = getattr(self, field)
            _require_positive_finite(field, step)
            if not math.isfinite(span / step):
                raise ValueError(f"{field} {step!r} makes the axis length infinite")
        _require_gap_tol("reference_gap_tol", self.reference_gap_tol)
        lams = _axis_count(0.5, 1.0, self.lambda_step)
        thetas = _axis_count(0.0, math.pi, self.theta_step)
        if lams ** 2 * thetas > MAX_SWEEP_SOLVES:
            raise ValueError(f"lambda_step {self.lambda_step!r} and theta_step "
                             f"{self.theta_step!r} make {lams:.4g}^2 x {thetas:.4g} "
                             f"grid rows, more than the {MAX_SWEEP_SOLVES} a sweep may score")

    def lambda_values(self) -> list[float]:
        return _axis(0.5, 1.0, self.lambda_step)

    def theta_values(self) -> list[float]:
        return _axis(0.0, math.pi, self.theta_step)


@dataclass(frozen=True)
class SweepCell:
    lambda1: float
    lambda2: float
    error_bits: float     # max |chi(p1_hat) - reference| over converged thetas, 0.0 if none
    ba_converged: bool    # False flags a cell where some reference run failed
    # a lambda1 > lambda2 cell reports the counts of its mirror (lambda2, lambda1)
    iterations: int       # total over the cell's reference solves
    max_iterations: int   # largest count among the cell's reference solves


def _axis_count(start: float, stop: float, step: float) -> int:
    return int(math.floor((stop - start) / step + 1e-9)) + 1


def _axis(start: float, stop: float, step: float) -> list[float]:
    # clamp the last point: start + count*step can overshoot stop by one ulp
    return [min(start + i * step, stop) for i in range(_axis_count(start, stop, step))]


def binary_entropy(x):
    """-x log2 x - (1-x) log2(1-x), clamped against roundoff at the ends: 0.0
    at and beyond 0 and 1, NaN for NaN. A float for a number, else an array."""
    x = np.asarray(x, dtype=float)
    end = (x <= 0.0) | (x >= 1.0)
    y = np.where(end, 0.5, x)   # keeps log2 off 0 and negatives
    h = np.where(end, 0.0, -(y * np.log2(y) + (1.0 - y) * np.log2(1.0 - y)))
    return float(h) if h.ndim == 0 else h


def _bloch_states(lambda1, lambda2, theta) -> np.ndarray:
    """The states of realize_channel, not validated: (2, 2, 2) for numbers,
    (*S, 2, 2, 2) for arguments that broadcast to the shape S."""
    lam1, lam2, theta = np.broadcast_arrays(lambda1, lambda2, theta)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    off, zero = (2.0 * lam2 - 1.0) * c * s, np.zeros(lam1.shape)
    states = np.array([[[lam1, zero], [zero, 1.0 - lam1]],
                       [[lam2 * c * c + (1.0 - lam2) * s * s, off],
                        [off, lam2 * s * s + (1.0 - lam2) * c * c]]], dtype=np.complex128)
    return np.moveaxis(states, (0, 1, 2), (-3, -2, -1)).copy()


def realize_channel(ch: BinaryBlochChannel) -> CqChannel:
    """Concrete 2x2 states: state 1 on the Z axis, state 2 tilted by theta
    in the X-Z plane. Eigenvalues come out as {lambda_i, 1 - lambda_i}."""
    return CqChannel(_bloch_states(ch.lambda1, ch.lambda2, ch.theta))


def _mixture_norm_sq(lambda1, lambda2, cos_theta, p1):
    # |p1 r1 + (1-p1) r2|^2 by the law of cosines, broadcast or in mpmath;
    # the p1 check of every Holevo function: a real number or an integer or float array
    if not ((_is_real(p1) or (isinstance(p1, np.ndarray) and p1.dtype.kind in "iuf"))
            and np.all((0.0 <= p1) & (p1 <= 1.0))):
        raise ValueError(f"p1 must be in [0, 1], got {p1!r}")
    a, b = p1 * (lambda1 - 0.5), (1.0 - p1) * (lambda2 - 0.5)
    return a * a + b * b + 2.0 * a * b * cos_theta


def _holevo_bits(lambda1, lambda2, theta, p1):
    # the closed form of holevo_bloch, broadcast over its arguments
    norm = np.sqrt(np.maximum(_mixture_norm_sq(lambda1, lambda2, np.cos(theta), p1), 0.0))
    return (binary_entropy(0.5 + norm) - p1 * binary_entropy(lambda1)
            - (1.0 - p1) * binary_entropy(lambda2))


def holevo_bloch(ch: BinaryBlochChannel, p1: float) -> float:
    """Closed-form Holevo quantity of the ensemble {p1: state1, 1-p1: state2},
    in bits. The mixture's larger eigenvalue is 1/2 + |p1 r1 + (1-p1) r2|,
    with the vector norm evaluated by the law of cosines."""
    return float(_holevo_bits(ch.lambda1, ch.lambda2, ch.theta, p1))


def _gradient_in_p1(lambda1, lambda2, theta):
    # the d/dp1 of holevo_bloch_gradient as a function of p1, broadcast over
    # the arguments, with the lambda and theta terms computed once; NaN where
    # it raises GradientBoundaryError
    r1, r2, cos_t = lambda1 - 0.5, lambda2 - 0.5, np.cos(theta)
    h1, h2 = binary_entropy(lambda1), binary_entropy(lambda2)

    def gradient(p1):
        norm = np.sqrt(np.maximum(_mixture_norm_sq(lambda1, lambda2, cos_t, p1), 0.0))
        dnsq = 2.0 * p1 * r1 * r1 - 2.0 * (1.0 - p1) * r2 * r2 \
            + (2.0 - 4.0 * p1) * r1 * r2 * cos_t
        tail = 0.5 - norm  # = 1 - mu without cancellation, mu the top eigenvalue
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (np.log(tail) - np.log(0.5 + norm)) / LN2  # S'(1/2 + N)
            mix_term = np.where(norm > 1e-9, slope / (2.0 * norm) * dnsq, (-2.0 / LN2) * dnsq)
        mix_term = np.where(tail > 1e-15, mix_term,
                            np.where(np.abs(dnsq) <= 1e-15, 0.0, np.nan))
        return mix_term - h1 + h2
    return gradient


def holevo_bloch_gradient(ch: BinaryBlochChannel, p1: float) -> float:
    """Analytic d/dp1 of holevo_bloch (bits per unit p1).

    The norm term is differentiated through the law of cosines; the factor
    S'(1/2 + N)/(2N) has the finite limit -2/ln2 as N -> 0, used below the
    norm cutoff. Exactly at a pure mixture (N = 1/2) the slope of the
    binary entropy diverges and GradientBoundaryError is raised, unless the
    norm is stationary there (identical pure states, gradient 0).
    """
    grad = float(_gradient_in_p1(ch.lambda1, ch.lambda2, ch.theta)(p1))
    if math.isnan(grad):
        raise GradientBoundaryError(f"pure mixture at p1={p1!r}: entropy slope diverges")
    return grad


def _lambda_or_nan(value) -> float:
    # a lambda BinaryBlochChannel accepts as a float, NaN for any other value
    return float(value) if _is_real(value) and 0.5 <= value <= 1.0 else math.nan


def approx_p1(lambda1, lambda2):
    """Closed-form approximate maximizer of the Holevo quantity over p1.

    Solves the theta = 0 stationarity condition exactly; for equal lambdas
    every p1 is stationary and 1/2 is returned. The secant slope and the
    division by r1 - r2 cancel as the lambdas meet, so below
    _APPROX_P1_CUTOFF the same expression is evaluated at _EXACT_P1_DPS
    digits. The value stays inside [1/e, 1 - 1/e], where the optimum of
    every binary-input channel lies, so it needs no clamp to [0, 1]. Used
    as an approximation for every theta. A float for numbers, else an array
    of the broadcast shape whose entries equal the calls on each pair; a
    lambda outside [0.5, 1] raises what the call on the first such pair
    raises. An argument of any dtype but integer or float is read entry by
    entry under BinaryBlochChannel's rule: a real number (Fraction,
    mpmath.mpf) is cast to float, a boolean or string raises.
    """
    lam1, lam2 = np.broadcast_arrays(lambda1, lambda2)
    lam = np.array([a if a.dtype.kind in "iuf" else
                    np.reshape([_lambda_or_nan(v) for v in a.flat], a.shape)
                    for a in (lam1, lam2)], dtype=float)
    bad = np.flatnonzero(~((0.5 <= lam) & (lam <= 1.0)).all(axis=0))
    if len(bad):   # BinaryBlochChannel refuses every entry outside [0.5, 1] or NaN
        BinaryBlochChannel(lam1.item(bad[0]), lam2.item(bad[0]), 0.0)
    (r1, r2), (h1, h2) = lam - 0.5, binary_entropy(lam)
    far = np.abs(r1 - r2) >= _APPROX_P1_CUTOFF
    span = np.where(far, r1 - r2, 1.0)
    # exponent of c = 2^y; 0.5 (1-c)/(1+c) = -0.5 tanh(y ln2 / 2), overflow-free;
    # math.tanh per entry keeps the bits of the one-pair call
    z = 0.5 * ((h1 - h2) / span) * LN2
    tanh = np.array([math.tanh(v) for v in z.ravel().tolist()]).reshape(z.shape)
    p1 = np.where(far, (-0.5 * tanh - r2) / span, 0.5)
    for k in np.flatnonzero(~far & (r1 != r2)):
        p1.flat[k] = _approx_p1_mp(lam[0].flat[k].item(), lam[1].flat[k].item())
    return float(p1) if p1.ndim == 0 else p1


def _approx_p1_mp(lambda1: float, lambda2: float) -> float:
    # approx_p1's expression at _EXACT_P1_DPS digits, for distinct lambdas
    # closer than _APPROX_P1_CUTOFF
    from mpmath import mp
    with mp.workdps(_EXACT_P1_DPS):
        r1, r2 = mp.mpf(lambda1 - 0.5), mp.mpf(lambda2 - 0.5)
        y = (_binary_entropy_mp(lambda1, mp) - _binary_entropy_mp(lambda2, mp)) / (r1 - r2)
        return float((-mp.tanh(y * mp.ln2 / 2) / 2 - r2) / (r1 - r2))


def _binary_entropy_mp(x, ctx):
    # binary_entropy in the mpmath context ctx: mpmath.mp, or mpmath.iv for an enclosure
    x = ctx.mpf(x)
    if x <= 0 or x >= 1:
        return ctx.mpf(0)
    return -(x * ctx.log(x, 2) + (1 - x) * ctx.log(1 - x, 2))


def _holevo_mp(lambda1, lambda2, theta, p1, ctx):
    # holevo_bloch's closed form in the mpmath context ctx, for exact_p1
    lam1, lam2, p = ctx.mpf(lambda1), ctx.mpf(lambda2), ctx.mpf(p1)
    nsq = _mixture_norm_sq(lam1, lam2, ctx.cos(ctx.mpf(theta)), p)
    # abs turns an interval that reaches below 0 into [0, hi], which encloses the norm
    return (_binary_entropy_mp(ctx.sqrt(abs(nsq)) + 0.5, ctx) - p * _binary_entropy_mp(lam1, ctx)
            - (1 - p) * _binary_entropy_mp(lam2, ctx))


def exact_p1(ch: BinaryBlochChannel) -> float:
    """Maximizer of holevo_bloch over p1, proven to within _EXACT_P1_TOL.

    1/2 for equal lambdas, where chi is symmetric about it. Else Newton steps
    on chi at _EXACT_P1_DPS digits polish `_refined_p1`'s float64 value to a
    float p, and concavity proves it: chi(p - tol) < chi(p) > chi(p + tol) in
    mpmath.iv interval arithmetic puts the maximizer within tol of p. Where
    the intervals do not separate ArithmeticError is raised, not a value.
    """
    if ch.lambda1 == ch.lambda2:
        return 0.5
    from mpmath import iv, mp
    args = (float(ch.lambda1), float(ch.lambda2), float(ch.theta))
    with mp.workdps(_EXACT_P1_DPS):
        def chi(x):
            return _holevo_mp(*args, x, mp)
        p = mp.mpf(float(_refined_p1(*args, approx_p1(*args[:2]))))
        for _ in range(8):   # Newton steps; 2 from the float64 start on the channels tried
            step = mp.diff(chi, p) / mp.diff(chi, p, 2)
            if abs(step) < 1e-30 or not 0 < p - step < 1:
                break   # done, or out of the domain: the proof below refuses
            p -= step
        p = float(p)
    dps, iv.dps = iv.dps, _EXACT_P1_DPS   # iv has no workdps
    try:
        low, mid, high = (_holevo_mp(*args, iv.mpf(p) + k * _EXACT_P1_TOL, iv) for k in (-1, 0, 1))
        if low < mid > high:
            return p
    finally:
        iv.dps = dps
    raise ArithmeticError(f"the maximizer of chi for {ch} is not proven within "
                          f"{_EXACT_P1_TOL} of {p!r} at {_EXACT_P1_DPS} digits")


def _refined_p1(lambda1, lambda2, theta, p1):
    """p1 moved by 4 secant steps on the closed form's gradient, from p1 and
    p1 -/+ 1e-3 (towards 1/2), towards the maximizer of holevo_bloch: arrays
    that broadcast to p1's shape in, that shape out. A step is kept only
    where it is finite and inside [1/e, 1 - 1/e], the window of every
    optimum (approx_p1); elsewhere the previous value stays, so an input
    inside the window stays in it. Where cos theta rounds to 1, p1
    (approx_p1's exact maximizer) stays: the float64 gradient cancels there
    as the lambdas meet."""
    low, high = math.exp(-1.0), 1.0 - math.exp(-1.0)
    gradient = _gradient_in_p1(lambda1, lambda2, theta)
    x0, x1 = p1 - np.copysign(1e-3, p1 - 0.5), p1
    g0 = gradient(x0)
    for _ in range(4):
        g1 = gradient(x1)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = x1 - g1 * (x1 - x0) / (g1 - g0)
        x0, g0 = x1, g1
        x1 = np.where(np.isfinite(x) & (low <= x) & (x <= high), x, x1)
    return np.where(np.cos(theta) == 1.0, p1, x1)


def error_sweep(grid: SweepGrid) -> list[SweepCell]:
    """Approximation error over the (lambda1, lambda2) grid.

    Each cell's error is the max, over the thetas whose reference converged,
    of the absolute gap in bits between the Holevo value at the closed-form
    p1 and the iterative solver's converged value. Cells come back sorted
    lexicographically by (lambda1, lambda2); a failed reference run flags
    the cell instead of aborting the sweep. The grid is held as its axes
    lambda1, lambda2 and theta, which broadcast: p1_hat is taken per cell,
    the scores' h(lambda) and the state entropies per lambda value. Only
    the cells lambda1 <= lambda2 are solved, `batch_size(2, 2)` rows at a
    time with the solver loop's plain update, each from [p1, 1 - p1]: p1_hat
    moved by `_refined_p1` to the maximizer of the closed form chi at its
    theta, where the certificate gap closes in one update. Swapping the
    lambdas relabels the letters and rotates both states, which leaves the
    capacity unchanged, so a solved row's `lower`, `iterations` and
    `converged` are written at its cell and at the mirror (lambda2, lambda1).
    The certificates hold at every iterate, so a reference stays within
    reference_gap_tol of the capacity whatever its start, but it equals a
    solo solve only from the same start, not from `solve`'s uniform one.
    `iterations` and `max_iterations` count the updates of a cell's
    reference solves. The states of a checked grid go unvalidated to the
    solver loop `_solve_stacked`, with the entropies of their spectra
    {lambda_i, 1 - lambda_i}, and no report is built per row.
    """
    lams, thetas = np.array(grid.lambda_values()), np.array(grid.theta_values())
    cfg = SolverConfig(gap_tol=grid.reference_gap_tol)
    l1, l2 = lams[:, None, None], lams[None, :, None]
    p_hat = approx_p1(l1, l2)
    i, j = np.triu_indices(len(lams))   # the solved cells lambda1 <= lambda2, row-major
    start = _refined_p1(lams[i, None], lams[j, None], thetas,
                        np.repeat(p_hat[i, j], len(thetas), axis=1))
    # H(rho) of the spectrum {lambda, 1 - lambda}, in validation's form
    h = _entropy_from_eigs(*_log_eigs(np.stack([lams, 1.0 - lams], axis=1)))
    refs = [np.empty(start.size, dtype=kind) for kind in (float, int, bool)]
    size = batch_size(2, 2)
    for first in range(0, start.size, size):
        part = slice(first, first + size)
        k, t = np.divmod(np.arange(first, min(first + size, start.size)), len(thetas))
        a, b, w = i[k], j[k], start.ravel()[part]
        rows = _solve_stacked(_bloch_states(lams[a], lams[b], thetas[t]),
                              np.stack([h[a], h[b]], axis=1), cfg, np.stack([w, 1.0 - w], axis=1))
        for v, r in zip(refs, (rows.lower, rows.iterations, rows.converged)):
            v[part] = r
    lower, iters, ok = (np.empty(p_hat.shape[:2] + thetas.shape, dtype=v.dtype) for v in refs)
    for v, r in zip((lower, iters, ok), refs):   # each solved cell and its mirror
        v[i, j] = v[j, i] = r.reshape(start.shape)
    err = np.abs(_holevo_bits(l1, l2, thetas, p_hat) - lower / LN2)
    return [SweepCell(*cell) for cell in zip(*(v.ravel().tolist() for v in (
        *np.broadcast_arrays(l1, l2), err.max(2, initial=0.0, where=ok),
        ok.all(2), iters.sum(2), iters.max(2))))]


def max_error_by_range(cells: list[SweepCell], r_values) -> list[tuple[float, float]]:
    """Running maxima of the sweep error over nested squares
    lambda1, lambda2 in [0.5, R], for cells in any order: one mask per R
    over the arrays of (lambda1, lambda2, error_bits)."""
    if not cells:
        raise ValueError("cells is empty: need at least one sweep cell")
    lam1, lam2, err = np.array([[c.lambda1 for c in cells], [c.lambda2 for c in cells],
                                [c.error_bits for c in cells]])
    edge = np.maximum(lam1, lam2)   # a cell lies in every square from R = edge on
    covered = float(edge.max())
    rows = []
    for r in r_values:
        _require_positive_finite("R", r)
        if r > covered + 1e-9:
            raise ValueError(f"R={r!r} outside the swept range (max {covered!r})")
        inside = edge <= r + 1e-9
        if not inside.any():
            raise ValueError(f"R={r!r} below the smallest grid point")
        rows.append((r, float(err.max(where=inside, initial=-math.inf))))
    return rows

