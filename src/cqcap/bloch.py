"""Binary-input qubit-output channels in the Bloch parametrization.

A channel is described by the larger eigenvalues (lambda1, lambda2) of its
two states and the angle theta between their Bloch vectors; the radii are
r_i = lambda_i - 1/2. The Holevo quantity has a closed form in these
coordinates, its maximizer over p1 has a closed-form approximation derived
from the theta = 0 stationarity condition, and `error_sweep` measures how
far that approximation falls short of the iterative solver across the
parameter square.

Holevo values in this module are in bits, matching the binary entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .qinfo import LN2, CqChannel
from .solver import SolverConfig, _require_positive_finite, batch_size, solve_batch
from .solver import solve  # noqa: F401  (rebound by perfbench/tracing.py)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_EXACT_P1_DPS = 40
_EXACT_P1_TOL = 1e-10   # width of the final golden-section bracket
# Largest sweep accepted, in solves (lambda values^2 * theta values): 15x the
# paper-scale default grid of 132,651 solves, which takes about a minute on
# one core, so a mistyped step is refused at once instead of filling memory
# or running for days.
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
        if not 0.5 <= self.lambda1 <= 1.0:
            raise ValueError(f"lambda1 must be in [0.5, 1], got {self.lambda1!r}")
        if not 0.5 <= self.lambda2 <= 1.0:
            raise ValueError(f"lambda2 must be in [0.5, 1], got {self.lambda2!r}")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must be in [0, pi], got {self.theta!r}")

    @property
    def r1(self) -> float:
        return self.lambda1 - 0.5

    @property
    def r2(self) -> float:
        return self.lambda2 - 0.5


@dataclass(frozen=True)
class SweepGrid:
    lambda_step: float = 0.01
    theta_step: float = math.pi / 50
    lambda_max: float = 1.0
    reference_gap_tol: float = 1e-6   # solver stopping gap for the reference value

    def __post_init__(self):
        _require_positive_finite("lambda_step", self.lambda_step)
        _require_positive_finite("theta_step", self.theta_step)
        _require_positive_finite("reference_gap_tol", self.reference_gap_tol)
        if not 0.5 < self.lambda_max <= 1.0:
            raise ValueError(f"lambda_max must be in (0.5, 1], got {self.lambda_max!r}")
        for field, step, span in (
                ("lambda_step", self.lambda_step, self.lambda_max - 0.5),
                ("theta_step", self.theta_step, math.pi)):
            if not math.isfinite(span / step):
                raise ValueError(f"{field} {step!r} makes the axis length infinite")
        lams = _axis_count(0.5, self.lambda_max, self.lambda_step)
        thetas = _axis_count(0.0, math.pi, self.theta_step)
        if lams ** 2 * thetas > MAX_SWEEP_SOLVES:
            raise ValueError(f"lambda_step {self.lambda_step!r} and theta_step "
                             f"{self.theta_step!r} make {lams:.4g}^2 x {thetas:.4g} "
                             f"solves, more than the {MAX_SWEEP_SOLVES} a sweep may run")

    def lambda_values(self) -> list[float]:
        return _axis(0.5, self.lambda_max, self.lambda_step)

    def theta_values(self) -> list[float]:
        return _axis(0.0, math.pi, self.theta_step)


@dataclass(frozen=True)
class SweepCell:
    lambda1: float
    lambda2: float
    error_bits: float     # max over theta of |chi(p1_hat) - solver reference|
    ba_converged: bool    # False flags a cell where some reference run failed


def _axis_count(start: float, stop: float, step: float) -> int:
    return int(math.floor((stop - start) / step + 1e-9)) + 1


def _axis(start: float, stop: float, step: float) -> list[float]:
    # clamp the last point: start + count*step can overshoot stop by one ulp
    return [min(start + i * step, stop) for i in range(_axis_count(start, stop, step))]


def binary_entropy(x: float) -> float:
    """-x log2 x - (1-x) log2(1-x), clamped against roundoff at the ends."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def _bloch_states(ch: BinaryBlochChannel) -> np.ndarray:
    """The (2, 2, 2) states of realize_channel, not validated."""
    lam1, lam2 = ch.lambda1, ch.lambda2
    c, s = math.cos(ch.theta / 2.0), math.sin(ch.theta / 2.0)
    off = (2.0 * lam2 - 1.0) * c * s
    return np.array([[[lam1, 0.0], [0.0, 1.0 - lam1]],
                     [[lam2 * c * c + (1.0 - lam2) * s * s, off],
                      [off, lam2 * s * s + (1.0 - lam2) * c * c]]], dtype=np.complex128)


def realize_channel(ch: BinaryBlochChannel) -> CqChannel:
    """Concrete 2x2 states: state 1 on the Z axis, state 2 tilted by theta
    in the X-Z plane. Eigenvalues come out as {lambda_i, 1 - lambda_i}."""
    return CqChannel(_bloch_states(ch))


def _mixture_norm_sq(ch: BinaryBlochChannel, p1: float) -> float:
    a = p1 * ch.r1
    b = (1.0 - p1) * ch.r2
    return a * a + b * b + 2.0 * a * b * math.cos(ch.theta)


def holevo_bloch(ch: BinaryBlochChannel, p1: float) -> float:
    """Closed-form Holevo quantity of the ensemble {p1: state1, 1-p1: state2},
    in bits. The mixture's larger eigenvalue is 1/2 + |p1 r1 + (1-p1) r2|,
    with the vector norm evaluated by the law of cosines."""
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must be in [0, 1], got {p1!r}")
    norm = math.sqrt(max(_mixture_norm_sq(ch, p1), 0.0))
    return (binary_entropy(0.5 + norm)
            - p1 * binary_entropy(ch.lambda1)
            - (1.0 - p1) * binary_entropy(ch.lambda2))


def holevo_bloch_gradient(ch: BinaryBlochChannel, p1: float) -> float:
    """Analytic d/dp1 of holevo_bloch (bits per unit p1).

    The norm term is differentiated through the law of cosines; the factor
    S'(1/2 + N)/(2N) has the finite limit -2/ln2 as N -> 0, used below the
    norm cutoff. Exactly at a pure mixture (N = 1/2) the slope of the
    binary entropy diverges and GradientBoundaryError is raised, unless the
    norm is stationary there (identical pure states, gradient 0).
    """
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must be in [0, 1], got {p1!r}")
    r1, r2, cos_t = ch.r1, ch.r2, math.cos(ch.theta)
    nsq = max(_mixture_norm_sq(ch, p1), 0.0)
    norm = math.sqrt(nsq)
    dnsq = 2.0 * p1 * r1 * r1 - 2.0 * (1.0 - p1) * r2 * r2 \
        + (2.0 - 4.0 * p1) * r1 * r2 * cos_t
    tail = 0.5 - norm  # = 1 - mu without cancellation, mu the top eigenvalue
    if tail <= 1e-15:
        if abs(dnsq) <= 1e-15:
            mix_term = 0.0
        else:
            raise GradientBoundaryError(
                f"pure mixture at p1={p1!r}: entropy slope diverges")
    elif norm > 1e-9:
        slope = (math.log(tail) - math.log(0.5 + norm)) / LN2  # S'(1/2 + N)
        mix_term = slope / (2.0 * norm) * dnsq
    else:
        mix_term = (-2.0 / LN2) * dnsq
    return mix_term - binary_entropy(ch.lambda1) + binary_entropy(ch.lambda2)


def approx_p1(lambda1: float, lambda2: float) -> float:
    """Closed-form approximate maximizer of the Holevo quantity over p1.

    Solves the theta = 0 stationarity condition exactly and clamps the
    result to [0, 1]; for equal radii the optimum is 1/2 by symmetry. Used
    as an approximation for every theta.
    """
    if not 0.5 <= lambda1 <= 1.0:
        raise ValueError(f"lambda1 must be in [0.5, 1], got {lambda1!r}")
    if not 0.5 <= lambda2 <= 1.0:
        raise ValueError(f"lambda2 must be in [0.5, 1], got {lambda2!r}")
    r1, r2 = lambda1 - 0.5, lambda2 - 0.5
    if abs(r1 - r2) <= 1e-12:
        return 0.5
    # exponent of c = 2^y; 0.5 (1-c)/(1+c) = -0.5 tanh(y ln2 / 2), overflow-free
    y = (binary_entropy(lambda1) - binary_entropy(lambda2)) / (r1 - r2)
    p_hat = (-0.5 * math.tanh(0.5 * y * LN2) - r2) / (r1 - r2)
    return min(max(p_hat, 0.0), 1.0)


def _holevo_mp(lambda1, lambda2, theta, p1):
    # high-precision copy of holevo_bloch, for the 1-D search oracle
    one = mpmath.mpf(1)
    half = one / 2
    lam1, lam2 = mpmath.mpf(lambda1), mpmath.mpf(lambda2)
    p = mpmath.mpf(p1)
    r1, r2 = lam1 - half, lam2 - half
    a, b = p * r1, (1 - p) * r2
    nsq = a * a + b * b + 2 * a * b * mpmath.cos(mpmath.mpf(theta))
    norm = mpmath.sqrt(nsq) if nsq > 0 else mpmath.mpf(0)

    def s2(x):
        if x <= 0 or x >= 1:
            return mpmath.mpf(0)
        return -(x * mpmath.log(x, 2) + (1 - x) * mpmath.log(1 - x, 2))

    return s2(half + norm) - p * s2(lam1) - (1 - p) * s2(lam2)


def exact_p1(ch: BinaryBlochChannel) -> float:
    """Maximizer of holevo_bloch over p1 to within _EXACT_P1_TOL, by
    golden-section search on [0, 1].

    The objective is concave in p1, so the search bracket is valid. It is
    evaluated in extended precision: near the maximum the float64 surface
    is flat to within roundoff once the curvature is small (for example
    when the radii nearly agree), and comparisons at machine precision
    would stall the bracket around sqrt(eps / |chi''|), well short of
    _EXACT_P1_TOL.
    """
    with mpmath.workdps(_EXACT_P1_DPS):
        a, b = 0.0, 1.0
        inner = _INV_PHI * (b - a)
        c, d = b - inner, a + inner
        fc = _holevo_mp(ch.lambda1, ch.lambda2, ch.theta, c)
        fd = _holevo_mp(ch.lambda1, ch.lambda2, ch.theta, d)
        while b - a > _EXACT_P1_TOL:
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - _INV_PHI * (b - a)
                fc = _holevo_mp(ch.lambda1, ch.lambda2, ch.theta, c)
            else:
                a, c, fc = c, d, fd
                d = a + _INV_PHI * (b - a)
                fd = _holevo_mp(ch.lambda1, ch.lambda2, ch.theta, d)
    return 0.5 * (a + b)


def error_sweep(grid: SweepGrid) -> list[SweepCell]:
    """Approximation error over the (lambda1, lambda2) grid.

    Each cell's error is the max over the theta grid of the absolute gap,
    in bits, between the Holevo value at the closed-form p1 and the
    iterative solver's converged value. Cells come back sorted
    lexicographically by (lambda1, lambda2); a failed reference run flags
    the cell instead of aborting the sweep. The channels' states are stacked
    and solved with `solve_batch`, `batch_size(2, 2)` channels per call, and
    each gets the same result as from `solve`.
    """
    lams = grid.lambda_values()
    thetas = grid.theta_values()
    cfg = SolverConfig(gap_tol=grid.reference_gap_tol)
    cells = [(l1, l2) for l1 in lams for l2 in lams]
    p_hat = [approx_p1(l1, l2) for l1, l2 in cells]
    worst = [0.0] * len(cells)
    ok = [True] * len(cells)
    total, size = len(cells) * len(thetas), batch_size(2, 2)
    for start in range(0, total, size):
        tasks = [divmod(k, len(thetas)) for k in range(start, min(start + size, total))]
        chans = [BinaryBlochChannel(*cells[c], thetas[j]) for c, j in tasks]
        reports = solve_batch(np.stack([_bloch_states(ch) for ch in chans]), cfg)
        for (c, _), ch, report in zip(tasks, chans, reports):
            if not report.converged:
                ok[c] = False
                continue
            err = abs(holevo_bloch(ch, p_hat[c]) - report.lower / LN2)
            worst[c] = max(worst[c], err)
    return [SweepCell(l1, l2, err, flag) for (l1, l2), err, flag in zip(cells, worst, ok)]


def max_error_by_range(cells: list[SweepCell], r_values) -> list[tuple[float, float]]:
    """Running maxima of the sweep error over nested squares
    lambda1, lambda2 in [0.5, R]."""
    covered = max(max(c.lambda1 for c in cells), max(c.lambda2 for c in cells))
    rows = []
    for r in r_values:
        if r > covered + 1e-9:
            raise ValueError(f"R={r!r} outside the swept range (max {covered!r})")
        vals = [c.error_bits for c in cells
                if c.lambda1 <= r + 1e-9 and c.lambda2 <= r + 1e-9]
        if not vals:
            raise ValueError(f"R={r!r} below the smallest grid point")
        rows.append((r, max(vals)))
    return rows

