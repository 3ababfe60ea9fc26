"""Blahut-Arimoto fixed-point iteration for classical-quantum channel
capacity, with a two-sided certificate at every iterate.

The iteration keeps a distribution p over input letters and multiplies
each weight by exp(D(rho_x || rho_p)) before renormalizing; rho_p is the
p-average output state. The Holevo information of the current iterate
bounds the capacity from below, max_x D(rho_x || rho_p) bounds it from
above, and the solver stops once the two certificates pinch to gap_tol.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .qinfo import (LN2, CqChannel, _divergences, _eigh, _entropy_from_eigs,
                    validate_distribution)

log = logging.getLogger(__name__)

UNDERFLOW_CLAMP = 1e-300


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


def _certificates(p: np.ndarray, ch: CqChannel):
    """Per-letter relative entropies to the average state plus both bounds.

    Returns (d, lower, upper) where d[x] = D(rho_x || rho_p) with +inf on
    support violations, lower is the Holevo information of p and upper is
    max(d) over every letter including zero-weight ones.
    """
    w, v = _eigh(np.einsum("x,xij->ij", p, ch.states))
    d = _divergences(ch.states, ch.entropies, w, v)
    lower = _entropy_from_eigs(w) + float(p @ -ch.entropies)  # as holevo_information
    return d, lower, float(d.max())


def _update(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """One multiplicative step p_x <- p_x exp(d_x) / Z, done in log domain."""
    pos = p > 0.0
    if np.any(np.isinf(d[pos])):
        letters = np.flatnonzero(pos & np.isinf(d))
        raise SupportViolationError(
            f"+inf relative entropy at positive-weight letters {letters.tolist()} "
            f"(weights {p[letters].tolist()})")
    ell = np.full_like(p, -math.inf)
    ell[pos] = np.log(p[pos]) + d[pos]
    r = np.exp(ell - ell.max())
    under = pos & (r == 0.0)
    if np.any(under):
        log.warning("update underflow clamped to %g at letters %s",
                    UNDERFLOW_CLAMP, np.flatnonzero(under).tolist())
        r[under] = UNDERFLOW_CLAMP
    return r / r.sum()


def ba_step(p, ch: CqChannel) -> np.ndarray:
    """One iteration of the capacity fixed-point update.

    Zero-weight letters stay at zero; a +inf relative entropy on a
    positive-weight letter raises SupportViolationError.
    """
    p = validate_distribution(p, n=ch.input_size)
    d, _, _ = _certificates(p, ch)
    return _update(p, d)


def upper_bound(p, ch: CqChannel) -> float:
    """max_x D(rho_x || rho_p) over all letters (nats, +inf possible)."""
    p = validate_distribution(p, n=ch.input_size)
    return _certificates(p, ch)[2]


def solve(ch: CqChannel, cfg: SolverConfig | None = None) -> SolveReport:
    """Run the iteration from the uniform distribution until the certificate
    gap closes or max_iters is hit.

    The report carries both certificates, so the true capacity C satisfies
    report.lower <= C <= report.upper whenever the upper bound is finite.
    Non-convergence is reported (converged=False), not raised.
    """
    cfg = cfg or SolverConfig()
    n = ch.input_size
    p = np.full(n, 1.0 / n)
    d, lower, upper = _certificates(p, ch)
    history: list[IterateRecord] | None = None
    if cfg.record_history:
        history = [IterateRecord(0, lower, upper, p.copy())]
    iterations = 0
    converged = False
    for t in range(1, cfg.max_iters + 1):
        try:
            p = _update(p, d)
        except SupportViolationError as err:
            log.warning("stopping at iteration %d: %s", t, err)
            break
        d, lower, upper = _certificates(p, ch)
        iterations = t
        if history is not None:
            history.append(IterateRecord(t, lower, upper, p.copy()))
        if upper - lower <= cfg.gap_tol:
            converged = True
            break
    capacity = 0.5 * (lower + upper) if math.isfinite(upper) else lower
    return SolveReport(capacity_nats=capacity, capacity_bits=capacity / LN2,
                       lower=lower, upper=upper, iterations=iterations,
                       p_star=p, converged=converged, history=history)


def optimality_kkt_check(report: SolveReport, ch: CqChannel, tol: float) -> bool:
    """Stationarity test at the reported optimum.

    True iff max_x D(rho_x || rho*) <= capacity + tol and every letter with
    weight above 10*tol has D within tol of the capacity.
    """
    d, _, _ = _certificates(report.p_star, ch)
    cap = report.capacity_nats
    if float(d.max()) > cap + tol:
        return False
    supported = report.p_star > 10.0 * tol
    return bool(np.all(np.abs(d[supported] - cap) <= tol))
