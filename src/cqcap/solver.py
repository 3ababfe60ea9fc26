"""Blahut-Arimoto fixed-point iteration for classical-quantum channel
capacity, with a two-sided certificate at every iterate.

The iteration keeps a distribution p over input letters and multiplies
each weight by exp(D(rho_x || rho_p)) before renormalizing; rho_p is the
p-average output state. The Holevo information of the current iterate
bounds the capacity from below, max_x D(rho_x || rho_p) bounds it from
above, and the solver stops once the two certificates pinch to gap_tol.
`solve_batch` runs the iteration for a (B, n, m, m) stack of channels in
lockstep; `solve` is its one-channel case. The sweep and the benchmark
split their stacks into calls of `batch_size(n, m)` channels.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .qinfo import (LN2, CqChannel, _channel_states, _divergences, _eigh,
                    _entropy_from_eigs, validate_distribution)

log = logging.getLogger(__name__)

UNDERFLOW_CLAMP = 1e-300
# Bytes of stacked states the sweep and the benchmark pass to one solve_batch
# call: 4096 binary qubit channels (the coarse sweep's 1331 in one call) or 64
# with n = m = 8. A stack is validated as a whole, so its temporaries grow with
# its bytes: `cqcap bench --n 8 --m 8 --acc 1e-2 --trials 4096` peaked at
# 171 MB in calls of 4096 channels and at 46 MB in calls of 64, which were
# also faster (3.1 s against 3.7 s; 2-core x86-64, numpy 2.4).
BATCH_BYTES = 512 << 10


def batch_size(n: int, m: int) -> int:
    """Channels of n states of dimension m that fit in BATCH_BYTES, at least 1."""
    return max(1, BATCH_BYTES // (16 * n * m * m))


class SupportViolationError(RuntimeError):
    """A positive-weight letter has +inf relative entropy to the average
    state. Cannot happen from an interior start; indicates numerically
    degenerate inputs."""


def _require_positive_finite(name: str, value: float) -> None:
    """Reject a step or tolerance that is NaN, infinite or not above 0."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    gap_tol: float = 1e-6          # stop when upper - lower <= gap_tol (nats)
    max_iters: int = 100_000
    record_history: bool = False

    def __post_init__(self):
        _require_positive_finite("gap_tol", self.gap_tol)
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters!r}")


@dataclass(frozen=True, eq=False)
class IterateRecord:
    t: int
    lower: float   # Holevo information of p_t (nats)
    upper: float   # max_x D(rho_x || rho_t) (nats, possibly +inf)
    p: np.ndarray


@dataclass(frozen=True, eq=False)
class SolveReport:
    capacity_nats: float
    capacity_bits: float
    lower: float
    upper: float
    iterations: int
    p_star: np.ndarray
    converged: bool
    history: list[IterateRecord] | None = None


def _certificates(p: np.ndarray, states: np.ndarray, entropies: np.ndarray):
    """Per-letter relative entropies to the average states plus both bounds,
    for B channels of one shape at once.

    `p` is (B, n), `states` (B, n, m, m) and `entropies` (B, n). Returns
    (d, lower, upper) where d[b, x] = D(rho_x || rho_p) with +inf on support
    violations, lower[b] is the Holevo information of p[b] and upper[b] is
    max(d[b]) over every letter including zero-weight ones.
    """
    w, v = _eigh(np.einsum("bx,bxij->bij", p, states))
    d = _divergences(states, entropies, w, v)
    # as holevo_information; a matmul per row, like the trace in _divergences
    lower = _entropy_from_eigs(w) + (p[:, None, :] @ -entropies[:, :, None])[:, 0, 0]
    return d, lower, d.max(axis=1)


def _certificates_of(p: np.ndarray, ch: CqChannel):
    """_certificates for one channel, through a leading axis of 1."""
    d, lower, upper = _certificates(p[None], ch.states[None], ch.entropies[None])
    return d[0], float(lower[0]), float(upper[0])


def _update(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """One multiplicative step p_x <- p_x exp(d_x) / Z, done in log domain,
    for a distribution (n,) or for each row of a stack (B, n)."""
    pos = p > 0.0
    if np.isinf(d).any():
        bad = pos & np.isinf(d)
        if bad.any():
            raise SupportViolationError(
                f"+inf relative entropy at positive-weight letters "
                f"{np.argwhere(bad).tolist()} (weights {p[bad].tolist()})")
    ell = np.where(pos, np.log(np.where(pos, p, 1.0)) + d, -math.inf)
    r = np.exp(ell - ell.max(axis=-1, keepdims=True))
    under = pos & (r == 0.0)
    if under.any():
        log.warning("update underflow clamped to %g at letters %s",
                    UNDERFLOW_CLAMP, np.argwhere(under).tolist())
        r[under] = UNDERFLOW_CLAMP
    return r / r.sum(axis=-1, keepdims=True)


def ba_step(p, ch: CqChannel) -> np.ndarray:
    """One iteration of the capacity fixed-point update.

    Zero-weight letters stay at zero; a +inf relative entropy on a
    positive-weight letter raises SupportViolationError.
    """
    p = validate_distribution(p, n=ch.input_size)
    return _update(p, _certificates_of(p, ch)[0])


def upper_bound(p, ch: CqChannel) -> float:
    """max_x D(rho_x || rho_p) over all letters (nats, +inf possible)."""
    p = validate_distribution(p, n=ch.input_size)
    return _certificates_of(p, ch)[2]


def solve_batch(states, cfg: SolverConfig | None = None) -> list[SolveReport]:
    """Solve a stack of channels of one shape together; one report per
    channel, in order.

    `states` is a complex (B, n, m, m) array, `states[k]` the states of
    channel k. It is validated once with the checks of CqChannel, a defect
    named as `states[k][x]`, and left unchanged. Every channel runs the
    iteration of `solve` from the uniform distribution, all of them in
    lockstep, and leaves the batch when its certificate gap closes, when a
    positive-weight letter gets +inf relative entropy (reported as
    converged=False) or at max_iters. Report k equals, bit for bit,
    `solve(CqChannel(states[k]), cfg)`.
    """
    return _solve_stacked(*_channel_states(states, batch=True), cfg or SolverConfig())


def _solve_stacked(states, entropies, cfg: SolverConfig) -> list[SolveReport]:
    """The iteration loop of solve_batch and solve, on validated states
    (B, n, m, m) and their entropies (B, n)."""
    size, n = entropies.shape
    p = np.full((size, n), 1.0 / n)
    rows = np.arange(size)        # batch index of each active row
    d, lower, upper = _certificates(p, states, entropies)
    histories = [[IterateRecord(0, float(lo), float(up), q.copy())]
                 for lo, up, q in zip(lower, upper, p)] if cfg.record_history else None
    reports: list[SolveReport | None] = [None] * size
    t = 0
    while True:
        gap = upper - lower
        tol = cfg.gap_tol if t else -math.inf   # the gap counts from the first update on
        step = None
        if t < cfg.max_iters and gap.min() > tol:
            try:
                step = _update(p, d)
            except SupportViolationError:
                pass
        if step is None:
            # Some row stops here: its gap closed, it reached max_iters, or a
            # positive-weight letter has +inf divergence, which ends the run
            # before the update it would break. (Or a gap is NaN: none stops.)
            closed = gap <= tol
            stop = closed | (t == cfg.max_iters)
            violated = ((p > 0.0) & np.isinf(d)).any(axis=1) & ~stop
            for k in np.flatnonzero(violated):
                letters = np.flatnonzero((p[k] > 0.0) & np.isinf(d[k]))
                log.warning("channel %d: stopping at iteration %d: +inf relative "
                            "entropy at positive-weight letters %s (weights %s)",
                            rows[k], t + 1, letters.tolist(), p[k, letters].tolist())
            stop |= violated
            for k in np.flatnonzero(stop):
                b, lo, up = rows[k], float(lower[k]), float(upper[k])
                capacity = 0.5 * (lo + up) if math.isfinite(up) else lo
                reports[b] = SolveReport(
                    capacity_nats=capacity, capacity_bits=capacity / LN2, lower=lo,
                    upper=up, iterations=t, p_star=p[k].copy(), converged=bool(closed[k]),
                    history=histories[b] if histories else None)
            go = ~stop
            if not go.any():
                return reports
            p, d, states, entropies, rows = p[go], d[go], states[go], entropies[go], rows[go]
            step = _update(p, d)
        p = step
        d, lower, upper = _certificates(p, states, entropies)
        t += 1
        if histories:
            for k, b in enumerate(rows):
                histories[b].append(IterateRecord(t, float(lower[k]), float(upper[k]),
                                                  p[k].copy()))


def solve(ch: CqChannel, cfg: SolverConfig | None = None) -> SolveReport:
    """Run the iteration from the uniform distribution until the certificate
    gap closes or max_iters is hit: the loop of `solve_batch` with one
    channel, whose states CqChannel has already validated.

    The report carries both certificates, so the true capacity C satisfies
    report.lower <= C <= report.upper whenever the upper bound is finite.
    Non-convergence is reported (converged=False), not raised.
    """
    return _solve_stacked(ch.states[None], ch.entropies[None], cfg or SolverConfig())[0]


def optimality_kkt_check(report: SolveReport, ch: CqChannel, tol: float) -> bool:
    """Stationarity test at the reported optimum.

    True iff max_x D(rho_x || rho*) <= capacity + tol and every letter with
    weight above 10*tol has D within tol of the capacity.
    """
    d = _certificates_of(report.p_star, ch)[0]
    cap = report.capacity_nats
    if float(d.max()) > cap + tol:
        return False
    supported = report.p_star > 10.0 * tol
    return bool(np.all(np.abs(d[supported] - cap) <= tol))
