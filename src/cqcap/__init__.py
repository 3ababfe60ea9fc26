"""Classical-quantum channel capacity: a certified Blahut-Arimoto-type
solver, Bloch-parametrized binary channels with a closed-form approximate
optimal input, and reproducible random-channel benchmarks."""

from .bench import (BenchResult, BenchSpec, check_iteration_budget,
                    iteration_budget, random_channel, random_density_matrix,
                    run_bench, trial_rng)
from .bloch import (BinaryBlochChannel, GradientBoundaryError, SweepCell,
                    SweepGrid, approx_p1, binary_entropy, error_sweep,
                    exact_p1, holevo_bloch, holevo_bloch_gradient,
                    max_error_by_range, realize_channel)
from .qinfo import (CqChannel, check_linear_independence, holevo_information,
                    relative_entropy, validate_distribution,
                    validate_hermitian, von_neumann_entropy)
from .solver import (IterateRecord, SolveReport, SolverConfig,
                     optimality_kkt_check, solve, solve_batch, upper_bound)

__version__ = "0.1.0"

__all__ = [
    "BenchResult", "BenchSpec", "BinaryBlochChannel", "CqChannel",
    "GradientBoundaryError", "IterateRecord", "SolveReport", "SolverConfig",
    "SweepCell", "SweepGrid", "approx_p1", "binary_entropy",
    "check_iteration_budget",
    "check_linear_independence", "error_sweep", "exact_p1", "holevo_bloch",
    "holevo_bloch_gradient", "holevo_information", "iteration_budget",
    "max_error_by_range", "optimality_kkt_check", "random_channel",
    "random_density_matrix", "realize_channel", "relative_entropy",
    "run_bench", "solve", "solve_batch", "trial_rng", "upper_bound",
    "validate_distribution", "validate_hermitian", "von_neumann_entropy",
]
