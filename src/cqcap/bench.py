"""Random-channel benchmark: iteration counts of the capacity solver over
seeded ensembles of classical-quantum channels.

States are drawn from the Ginibre construction G G^H / Tr(G G^H), which is
full-rank with probability one. Every trial owns a counter-based RNG
stream derived from (seed, n, m, accuracy index, trial index), so cells
and trials are reproducible individually. A cell's trials are solved
together, as arrays from the loop of `solve_batch`, and each trial's count
is the one `solve` gives for its channel alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .qinfo import CqChannel
from .solver import (SolverConfig, _require_gap_tol, _require_integer,
                     _require_positive_finite, _solve_rows, batch_size)
from .solver import solve  # noqa: F401  (rebound by perfbench/tracing.py)


@dataclass(frozen=True)
class BenchSpec:
    input_sizes: tuple[int, ...]
    output_dims: tuple[int, ...]
    accuracies: tuple[float, ...]   # certificate gap thresholds, nats
    trials: int = 200
    seed: int = 0

    def __post_init__(self):
        for field, kind in (("input_sizes", int), ("output_dims", int),
                            ("accuracies", float)):
            values = tuple(getattr(self, field))
            for v in values:   # before the cast, which would take True as 1.0
                if kind is int:
                    _require_integer(field, v, 2)
                else:
                    _require_positive_finite("accuracy", v)
            values = tuple(kind(v) for v in values)
            object.__setattr__(self, field, values)
            if not values:
                raise ValueError(f"{field} must not be empty")
            if len(set(values)) < len(values):
                raise ValueError(f"{field} must not repeat a value, got {values}")
        for a in self.accuracies:   # which also keeps ln(n)/accuracy finite
            _require_gap_tol("accuracies", a)
        _require_integer("trials", self.trials, 1)
        _require_integer("seed", self.seed, 0)


@dataclass(frozen=True)
class BenchResult:
    n: int
    m: int
    accuracy: float
    avg_iterations: float
    max_iterations: int
    trials_failed: int


def trial_rng(seed: int, n: int, m: int, acc_index: int,
              trial_index: int) -> np.random.Generator:
    """Deterministic per-trial stream (counter-based Philox generator)."""
    ss = np.random.SeedSequence(seed, spawn_key=(n, m, acc_index, trial_index))
    return np.random.Generator(np.random.Philox(ss))


def _ginibre_states(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """The (n, m, m) states of random_channel, not validated: G G^H / Tr(G G^H)
    per state, G = X + iY, from one draw that holds X then Y of each state in
    turn."""
    x = rng.standard_normal((n, 2, m, m))
    g = x[:, 0] + 1j * x[:, 1]
    a = g @ g.conj().swapaxes(-1, -2)
    return a / np.trace(a, axis1=-2, axis2=-1).real[:, None, None]


def random_density_matrix(m: int, rng: np.random.Generator) -> np.ndarray:
    """Ginibre density matrix: G G^H normalized to unit trace."""
    _require_integer("m", m, 1)
    return _ginibre_states(1, m, rng)[0]


def random_channel(n: int, m: int, rng: np.random.Generator) -> CqChannel:
    """Channel of n independent Ginibre states of dimension m."""
    _require_integer("n", n, 1)   # CqChannel names n < 2 and m < 2
    _require_integer("m", m, 1)
    return CqChannel(_ginibre_states(n, m, rng))


def iteration_budget(n: int, accuracy: float) -> float:
    """Worst-case iteration count to certify `accuracy`: ln(n) / accuracy."""
    _require_integer("n", n, 1)
    _require_positive_finite("accuracy", accuracy)
    return math.log(n) / accuracy


def run_bench(spec: BenchSpec) -> list[BenchResult]:
    """Aggregate iteration counts per (n, m, accuracy) cell.

    Returns a list of BenchResult in cell order. Each cell's trials are
    stacked and solved with the loop of `solve_batch`, `batch_size(n, m)`
    trials per call, under the budget ceil(ln(n)/accuracy) + 1, and read as
    arrays. Averages are exact (integer sums).
    """
    results = []
    for n, m, (ai, acc) in product(spec.input_sizes, spec.output_dims,
                                   enumerate(spec.accuracies)):
        cfg = SolverConfig(gap_tol=acc,
                           max_iters=int(math.ceil(iteration_budget(n, acc))) + 1)
        counts, failed, size = [], 0, batch_size(n, m)
        for start in range(0, spec.trials, size):
            rows = _solve_rows(np.stack([
                _ginibre_states(n, m, trial_rng(spec.seed, n, m, ai, trial))
                for trial in range(start, min(start + size, spec.trials))]), cfg)
            counts += rows.iterations.tolist()
            failed += int(np.count_nonzero(~rows.converged))
        results.append(BenchResult(n=n, m=m, accuracy=acc,
                                   avg_iterations=sum(counts) / spec.trials,
                                   max_iterations=max(counts), trials_failed=failed))
    return results


def check_iteration_budget(results: list[BenchResult]) -> bool:
    """True iff no trial exceeded ln(n)/accuracy iterations, read off each
    cell's max_iterations."""
    return all(r.max_iterations <= iteration_budget(r.n, r.accuracy)
               for r in results)

