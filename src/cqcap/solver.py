"""Blahut-Arimoto fixed-point iteration for classical-quantum channel
capacity, with a two-sided certificate at every iterate.

The iteration keeps a distribution p over input letters and multiplies
each weight by exp(D(rho_x || rho_p)) before renormalizing; rho_p is the
p-average output state. The loop carries ln p and p, and a step takes one
normalizer: e = exp(ln p + d), Z its sum, ln p <- ln p + d - ln Z and
p <- e / Z. A weight may fall below the float64 range. The Holevo
information of the current iterate bounds the capacity from below,
max_x D(rho_x || rho_p) bounds it from above, and the solver stops once the
two certificates pinch to gap_tol.
`solve_batch` runs the iteration for a (B, n, m, m) stack of channels in
lockstep from the uniform distribution; `solve` is its one-channel case.
Both build their reports from the arrays of the loop `_solve_stacked`,
`solve_batch` after the checks of `_channel_states`; the benchmark makes
the same two calls, the sweep calls the loop from its refined inputs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qinfo import (LN2, CqChannel, _certificates, _certificates_of, _channel_states,
                    validate_distribution)
from .qinfo import _eigh  # noqa: F401  (rebound by perfbench/tracing.py)

# Bytes of stacked states the sweep and the benchmark pass to one solver
# call: 4096 binary qubit channels (the coarse sweep's 726 solved rows in one
# call) or 64 with n = m = 8. A stack is validated as a whole, so its
# temporaries grow with its bytes: `cqcap bench --n 8 --m 8 --acc 1e-2
# --trials 4096` peaked at 171 MB in calls of 4096 channels and at 46 MB in
# calls of 64, which were also faster (3.1 s against 3.7 s; 2-core x86-64,
# numpy 2.4).
BATCH_BYTES = 512 << 10


def batch_size(n: int, m: int) -> int:
    """Channels of n states of dimension m that fit in BATCH_BYTES, at least 1."""
    return max(1, BATCH_BYTES // (16 * n * m * m))


def _is_real(value) -> bool:
    """The one rule for a scalar parameter: a real number (numbers.Real), never
    a boolean; np.bool_, strings, None and complex numbers are not numbers.Real."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_float(value) -> float:
    """A real number as a float, +/-inf where it lies beyond the float range
    (an int or Fraction that float() refuses with OverflowError)."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _require_positive_finite(name: str, value: float) -> None:
    """Reject a step or tolerance that is not real or whose float is NaN,
    infinite (beyond the float range too) or not above 0."""
    if not (_is_real(value) and 0.0 < _as_float(value) < math.inf):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _require_integer(name: str, value: int, least: int) -> None:
    """Reject a count that is a boolean, not an integer or below `least`."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


# The smallest certificate gap a solve may ask for, in nats. Below about
# 1e-15 the float64 bounds stop closing: on seeded channels run with a gap of
# 1e-300 the upper bound ended up to 2.2e-15 nats below the lower one, so a
# smaller gap could keep a solve running to its max_iters. The floor is 45x that.
GAP_TOL_FLOOR = 1e-13


def _require_gap_tol(name: str, value: float) -> None:
    """Reject a certificate gap that is not finite and positive or lies below
    GAP_TOL_FLOOR."""
    _require_positive_finite(name, value)
    if value < GAP_TOL_FLOOR:
        raise ValueError(f"{name} must be at least GAP_TOL_FLOOR = {GAP_TOL_FLOOR!r} nats, "
                         f"below which float64 bounds stop closing, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    """How a solve runs and when it stops. Each iteration is the paper's
    update ln p <- ln p + d - ln Z and one certificate evaluation."""
    gap_tol: float = 1e-6          # stop when upper - lower <= gap_tol (nats)
    max_iters: int = 100_000
    record_history: bool = False

    def __post_init__(self):
        _require_gap_tol("gap_tol", self.gap_tol)
        _require_integer("max_iters", self.max_iters, 1)


@dataclass(frozen=True, eq=False)
class IterateRecord:
    """The iterate after t updates (t = 0: the start)."""
    t: int
    lower: float   # Holevo information of p_t (nats)
    upper: float   # max_x D(rho_x || rho_t) (nats, finite: ln p_t is)
    p: np.ndarray


@dataclass(frozen=True, eq=False)
class SolveReport:
    """One channel's enclosure lower <= C <= upper at p_star, the iterate at
    the stop; capacity_nats is its midpoint."""
    capacity_nats: float
    capacity_bits: float
    lower: float
    upper: float
    iterations: int
    p_star: np.ndarray
    stop_reason: str   # "gap" or "max_iters"
    history: list[IterateRecord] | None = None

    @property
    def converged(self) -> bool:
        """The certificate gap closed to gap_tol."""
        return self.stop_reason == "gap"


STOP_REASONS = ("gap", "max_iters")


class _Rows(NamedTuple):
    """What the loop hands back for B channels, entry k for channel k."""
    lower: np.ndarray        # (B,) nats
    upper: np.ndarray        # (B,) nats
    iterations: np.ndarray   # (B,) int
    stop: np.ndarray         # (B,) index into STOP_REASONS
    p_star: np.ndarray       # (B, n)
    histories: list[list[IterateRecord]] | None

    @property
    def converged(self) -> np.ndarray:
        return self.stop == 0


def _reports(rows: _Rows) -> list[SolveReport]:
    """One SolveReport per channel of `rows`, each with its own p_star."""
    capacity = 0.5 * (rows.lower + rows.upper)
    return [SolveReport(capacity_nats=c, capacity_bits=c / LN2, lower=lo, upper=up,
                        iterations=t, p_star=p.copy(), stop_reason=STOP_REASONS[s],
                        history=rows.histories[k] if rows.histories else None)
            for k, (c, lo, up, t, s, p) in enumerate(zip(
                capacity.tolist(), rows.lower.tolist(), rows.upper.tolist(),
                rows.iterations.tolist(), rows.stop.tolist(), rows.p_star))]


def upper_bound(p, ch: CqChannel) -> float:
    """max_x D(rho_x || rho_p) over all letters (nats). A zero weight outside rho_p's
    support reads +inf, also a p_star weight that underflowed (the loop had its ln p)."""
    p = validate_distribution(p, n=ch.input_size)
    return _certificates_of(p, ch)[2]


def solve_batch(states, cfg: SolverConfig | None = None) -> list[SolveReport]:
    """Solve a stack of channels of one shape together; one report per
    channel, in order.

    `states` is a complex (B, n, m, m) array, `states[k]` the states of
    channel k. It is validated once with the checks of CqChannel, a defect
    named as `states[k][x]`, and left unchanged; the loop runs on its
    Hermitian part. Every channel runs the iteration of `solve`, all of them
    in lockstep from the uniform distribution. A channel leaves the batch
    when its certificate gap closes or at max_iters: stop_reason "gap"
    (converged, also at max_iters) or "max_iters". `iterations` counts the
    updates, one certificate evaluation each. Report k equals, bit for bit,
    `solve(CqChannel(states[k]), cfg)`.
    """
    return _reports(_solve_stacked(*_channel_states(states, batch=True), cfg or SolverConfig()))


def _solve_stacked(states, entropies, cfg: SolverConfig, start=None) -> _Rows:
    """The iteration loop of solve_batch and solve on states (B, n, m, m),
    validated or exact Hermitian unit-trace PSD stacks built by code
    (bloch._bloch_states), with the entropies (B, n) of their spectra, from
    the uniform distribution or the sweep's refined inputs `start` (B, n),
    every weight above 0; -H(rho_x) is formed once per solve. A row that
    stops is written into the arrays it returns at its batch index, bit for
    bit what it gives alone."""
    size, n = entropies.shape
    # ln p of the iterate each row holds, every weight positive
    q = np.full((size, n), -math.log(n)) if start is None else np.log(start)
    p = np.exp(q)
    neg_h = -entropies[:, :, None]
    rows = np.arange(size)        # batch index of each active row
    histories = [[] for _ in range(size)] if cfg.record_history else None
    out = _Rows(np.empty(size), np.empty(size), np.empty(size, dtype=int),
                np.empty(size, dtype=np.int8), np.empty((size, n)), histories)
    for t in range(cfg.max_iters + 1):   # every row stops by t = max_iters
        d, lower, upper = _certificates(p, q, states, neg_h)
        if histories:
            for k, b in enumerate(rows):
                histories[b].append(IterateRecord(t, float(lower[k]), float(upper[k]),
                                                  p[k].copy()))
        gap = upper - lower
        tol = cfg.gap_tol if t else -math.inf   # the gap counts from the first update on
        # A row stops when its gap closes or at max_iters; a NaN gap stops no
        # row. Every ln p of the loop is finite, so no letter's d is +inf.
        if t == cfg.max_iters or not gap.min() > tol:
            closed = gap <= tol
            stop = closed | (t == cfg.max_iters)
            done = rows[stop]
            out.lower[done], out.upper[done], out.stop[done], out.p_star[done] = (
                lower[stop], upper[stop], ~closed[stop], p[stop])   # STOP_REASONS index
            out.iterations[done] = t
            go = ~stop
            if not go.any():
                return out
            q, p, d, states, neg_h, rows = (v[go] for v in (q, p, d, states, neg_h, rows))
        # sigma_p >= p_x rho_x gives D_x <= -ln p_x, so Z lies in [1, n] unshifted
        q += d
        e = np.exp(q)   # a weight below the float64 range reads as 0
        z = e.sum(axis=1, keepdims=True)
        q -= np.log(z)
        p = e / z


def solve(ch: CqChannel, cfg: SolverConfig | None = None) -> SolveReport:
    """Run the iteration from the uniform distribution until the certificate
    gap closes or max_iters is hit: the loop of `solve_batch` with one
    channel, whose states CqChannel has already validated.

    The report carries both certificates, so the true capacity C satisfies
    report.lower <= C <= report.upper. Non-convergence is reported
    (converged=False), not raised.
    """
    return _reports(_solve_stacked(ch.states[None], ch.entropies[None],
                                   cfg or SolverConfig()))[0]


def optimality_kkt_check(report: SolveReport, ch: CqChannel, tol: float) -> bool:
    """Stationarity test at the reported optimum.

    True iff max_x D(rho_x || rho*) <= capacity + tol and every letter with
    weight above 10*tol has D within tol of the capacity.
    """
    _require_positive_finite("tol", tol)
    p = validate_distribution(report.p_star, n=ch.input_size)
    d = _certificates_of(p, ch)[0]
    cap = report.capacity_nats
    if float(d.max()) > cap + tol:
        return False
    supported = p > 10.0 * tol
    return bool(np.all(np.abs(d[supported] - cap) <= tol))
