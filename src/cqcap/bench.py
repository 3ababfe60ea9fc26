"""Random-channel benchmark: iteration counts of the capacity solver over
seeded ensembles of classical-quantum channels.

States are drawn from the Ginibre construction G G^H / Tr(G G^H), which is
full-rank with probability one. Every trial owns a counter-based RNG
stream derived from (seed, n, m, accuracy index, trial index), so cells
and trials are reproducible individually and independent of the worker
count used to run them.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from .qinfo import CqChannel
from .solver import SolverConfig, _require_positive_finite, solve


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
            values = tuple(kind(v) for v in getattr(self, field))
            object.__setattr__(self, field, values)
            if not values:
                raise ValueError(f"{field} must not be empty")
            if len(set(values)) < len(values):
                raise ValueError(f"{field} must not repeat a value, got {values}")
        if any(n < 2 for n in self.input_sizes):
            raise ValueError("input sizes must be >= 2")
        if any(m < 2 for m in self.output_dims):
            raise ValueError("output dimensions must be >= 2")
        for a in self.accuracies:
            _require_positive_finite("accuracy", a)
            if not math.isfinite(iteration_budget(max(self.input_sizes), a)):
                raise ValueError(f"accuracies: {a!r} makes the iteration budget "
                                 "ln(n)/accuracy infinite")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def random_density_matrix(m: int, rng: np.random.Generator) -> np.ndarray:
    """Ginibre density matrix: G G^H normalized to unit trace."""
    if m < 1:
        raise ValueError(f"dimension must be >= 1, got {m}")
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    a = g @ g.conj().T
    return a / a.trace().real


def random_channel(n: int, m: int, rng: np.random.Generator) -> CqChannel:
    """Channel of n independent Ginibre states of dimension m."""
    return CqChannel(np.stack([random_density_matrix(m, rng) for _ in range(n)]))


def iteration_budget(n: int, accuracy: float) -> float:
    """Worst-case iteration count to certify `accuracy`: ln(n) / accuracy."""
    return math.log(n) / accuracy


def _bench_trial(task) -> tuple[int, bool]:
    seed, n, m, acc_index, trial_index, accuracy = task
    rng = trial_rng(seed, n, m, acc_index, trial_index)
    ch = random_channel(n, m, rng)
    cfg = SolverConfig(gap_tol=accuracy,
                       max_iters=int(math.ceil(iteration_budget(n, accuracy))) + 1)
    report = solve(ch, cfg)
    return report.iterations, report.converged


def run_bench(spec: BenchSpec, jobs: int = 1) -> list[BenchResult]:
    """Aggregate iteration counts per (n, m, accuracy) cell.

    Returns a list of BenchResult in cell order. Averages are exact
    (integer sums) and independent of the worker count.
    """
    cells = list(product(spec.input_sizes, spec.output_dims,
                         enumerate(spec.accuracies)))
    tasks = [(spec.seed, n, m, ai, trial, acc)
             for n, m, (ai, acc) in cells for trial in range(spec.trials)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_bench_trial, tasks, chunksize=4))
    else:
        outcomes = [_bench_trial(t) for t in tasks]

    results = []
    for idx, (n, m, (ai, acc)) in enumerate(cells):
        chunk = outcomes[idx * spec.trials:(idx + 1) * spec.trials]
        counts = [it for it, _ in chunk]
        failed = sum(1 for _, ok in chunk if not ok)
        results.append(BenchResult(n=n, m=m, accuracy=acc,
                                   avg_iterations=sum(counts) / spec.trials,
                                   max_iterations=max(counts),
                                   trials_failed=failed))
    return results


def check_iteration_budget(results: list[BenchResult]) -> bool:
    """True iff no trial exceeded ln(n)/accuracy iterations, read off each
    cell's max_iterations."""
    return all(r.max_iterations <= iteration_budget(r.n, r.accuracy)
               for r in results)

