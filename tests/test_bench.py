import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from cqcap.bench import (BenchResult, BenchSpec, _ginibre_states, check_iteration_budget,
                         iteration_budget, random_channel, random_density_matrix,
                         run_bench, trial_rng)
from cqcap.cli import main
from cqcap.solver import SolverConfig, solve


class TestRandomDensityMatrix:
    def test_dimension_one_is_forced(self):
        rng = np.random.default_rng(0)
        out = random_density_matrix(1, rng)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(1.0)

    def test_reproducible_stream(self):
        a = random_density_matrix(2, trial_rng(42, 2, 2, 0, 0))
        b = random_density_matrix(2, trial_rng(42, 2, 2, 0, 0))
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        a = random_density_matrix(2, trial_rng(42, 2, 2, 0, 0))
        b = random_density_matrix(2, trial_rng(42, 2, 2, 0, 1))
        assert not np.allclose(a, b)

    def test_full_rank_sample(self):
        # Ginibre states are full-rank almost surely; check a large sample
        rng = np.random.default_rng(7)
        min_eigs = []
        for _ in range(10_000):
            w = np.linalg.eigvalsh(random_density_matrix(2, rng))
            min_eigs.append(w[0])
        min_eigs = np.array(min_eigs)
        assert np.all(min_eigs > 0.0)
        assert min_eigs.mean() > 0.01  # spread consistent with full rank

    def test_valid_density(self):
        rng = np.random.default_rng(3)
        for m in (2, 5, 8):
            a = random_density_matrix(m, rng)
            assert np.abs(a - a.conj().T).max() <= 1e-14
            assert a.trace().real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(a)[0] >= -1e-12

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            random_density_matrix(0, np.random.default_rng(0))
        # True would otherwise pass as m = 1, and 2.5 fail inside numpy unnamed
        for m in (True, 2.5):
            with pytest.raises(ValueError, match=rf"^m must be an integer >= 1, got {m!r}$"):
                random_density_matrix(m, np.random.default_rng(0))
        for n, m, field in ((2.5, 2, "n"), (2, 2.5, "m"), (True, 2, "n"), (2, "2", "m")):
            with pytest.raises(ValueError, match=rf"^{field} must be an integer >= 1"):
                random_channel(n, m, np.random.default_rng(0))
        # CqChannel still names a single letter
        with pytest.raises(ValueError, match="need at least 2 input letters"):
            random_channel(1, 2, np.random.default_rng(0))

    def test_one_draw_gives_the_states_of_the_per_state_loop(self):
        # the stream the benchmark's counts and workloads rest on: state by
        # state, the real part of G, then its imaginary part, then G G^H / Tr
        def per_state(n, m, rng):
            states = []
            for _ in range(n):
                g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                a = g @ g.conj().T
                states.append(a / a.trace().real)
            return np.stack(states)

        for seed, n, m in product((0, 7, 2024), (2, 5, 8, 16), (1, 2, 3, 5, 8, 16)):
            got = _ginibre_states(n, m, trial_rng(seed, n, m, 0, 0))
            assert got.tobytes() == per_state(n, m, trial_rng(seed, n, m, 0, 0)).tobytes()
        assert random_density_matrix(5, trial_rng(1, 1, 5, 0, 0)).tobytes() == \
            per_state(1, 5, trial_rng(1, 1, 5, 0, 0))[0].tobytes()


class TestRunBench:
    def test_deterministic_given_spec(self):
        spec = BenchSpec((2,), (2,), (1e-2,), trials=5, seed=42)
        assert run_bench(spec) == run_bench(spec)

    def test_cell_layout_and_fields(self):
        spec = BenchSpec((2, 3), (2,), (1e-1, 1e-2), trials=3, seed=1)
        results = run_bench(spec)
        assert [(r.n, r.m, r.accuracy) for r in results] == \
            [(2, 2, 1e-1), (2, 2, 1e-2), (3, 2, 1e-1), (3, 2, 1e-2)]
        for r in results:
            ai = spec.accuracies.index(r.accuracy)
            # each trial solved alone, under the same budget
            cfg = SolverConfig(gap_tol=r.accuracy,
                               max_iters=math.ceil(iteration_budget(r.n, r.accuracy)) + 1)
            counts = [solve(random_channel(r.n, r.m, trial_rng(spec.seed, r.n, r.m, ai, t)),
                            cfg).iterations for t in range(3)]
            assert r.max_iterations == max(counts)
            assert r.avg_iterations == pytest.approx(sum(counts) / 3)
            assert r.avg_iterations <= r.max_iterations
            assert r.trials_failed == 0

    def test_stricter_accuracy_needs_more_iterations(self):
        spec = BenchSpec((2,), (2,), (1e-2, 1e-4), trials=20, seed=5)
        loose, strict = run_bench(spec)
        assert strict.avg_iterations > loose.avg_iterations

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BenchSpec((1,), (2,), (1e-3,))
        with pytest.raises(ValueError):
            BenchSpec((2,), (1,), (1e-3,))
        # past the float range by overflow or by rounding to 0.0, too
        for bad in (0.0, math.nan, math.inf, 10**400, Fraction(1, 10**400)):
            with pytest.raises(ValueError, match="accuracy"):
                BenchSpec((2,), (2,), (1e-3, bad))
        with pytest.raises(ValueError):
            BenchSpec((2,), (2,), (1e-3,), trials=0)
        for field, args in (("input_sizes", ((), (2,), (1e-3,))),
                            ("output_dims", ((2,), (), (1e-3,))),
                            ("accuracies", ((2,), (2,), ())),
                            ("input_sizes", ((2, 3, 2), (2,), (1e-3,))),
                            ("output_dims", ((2,), (2, 2), (1e-3,))),
                            ("accuracies", ((2,), (2,), (1e-3, 1e-4, 0.001)))):
            with pytest.raises(ValueError, match=field):
                BenchSpec(*args)
        with pytest.raises(ValueError, match="seed"):
            BenchSpec((2,), (2,), (1e-3,), seed=-1)
        # a value that is not an integer is refused, not truncated or left to fail later
        for field, kwargs in (("input_sizes", {"input_sizes": (2.9,)}),
                              ("output_dims", {"output_dims": (2, 3.5)}),
                              ("trials", {"trials": 2.5}),
                              ("trials", {"trials": math.nan}),
                              ("seed", {"seed": 1.5})):
            args = {"input_sizes": (2,), "output_dims": (2,), "accuracies": (1e-3,)}
            with pytest.raises(ValueError, match=field):
                BenchSpec(**{**args, **kwargs})
        spec = BenchSpec((np.int64(2),), (2,), (1e-3,), trials=np.int64(3))
        assert spec.input_sizes == (2,) and type(spec.input_sizes[0]) is int
        # below GAP_TOL_FLOOR, where ln(n)/accuracy would also overflow: at the
        # largest n only, or at every n
        for sizes, acc in (((2, 8), 6e-309), ((2,), 1e-320)):
            with pytest.raises(ValueError, match="accuracies"):
                BenchSpec(sizes, (2,), (1e-3, acc))

    def test_spec_refuses_booleans(self):
        # True would otherwise pass as 1 trial, False as seed 0 and True as a gap of 1.0
        args = {"input_sizes": (2,), "output_dims": (2,), "accuracies": (1e-3,)}
        for field, kwargs in (("trials", {"trials": True}), ("seed", {"seed": False}),
                              ("accuracy", {"accuracies": (1e-3, True)}),
                              ("accuracy", {"accuracies": ("1e-3",)})):
            with pytest.raises(ValueError, match=rf"^{field} must be"):
                BenchSpec(**{**args, **kwargs})
        # a string size is named with its value, not read as a number
        with pytest.raises(ValueError, match=r"^input_sizes must be an integer >= 2, got '2'$"):
            BenchSpec(**{**args, "input_sizes": ("2",)})


class TestIterationBudget:
    def test_budget_values(self):
        assert iteration_budget(2, 1e-3) == pytest.approx(math.log(2) / 1e-3)
        assert iteration_budget(8, 1e-5) == pytest.approx(math.log(8) / 1e-5)

    def test_rejects_bad_arguments(self):
        # an accuracy of 0 would divide by zero, a fractional n take a log
        for n, accuracy, field in ((2, 0, "accuracy"), (2, -1e-3, "accuracy"),
                                   (2, math.nan, "accuracy"), (2, True, "accuracy"),
                                   (2, "1e-3", "accuracy"), (2, 10**400, "accuracy"),
                                   (2, Fraction(1, 10**400), "accuracy"), (2.5, 1e-3, "n"),
                                   (0, 1e-3, "n"), (True, 1e-3, "n")):
            with pytest.raises(ValueError, match=rf"^{field} must be"):
                iteration_budget(n, accuracy)

    def test_real_runs_respect_budget(self):
        spec = BenchSpec((2, 5), (2,), (1e-3,), trials=10, seed=11)
        results = run_bench(spec)
        assert check_iteration_budget(results)
        assert all(r.trials_failed == 0 for r in results)

    def test_synthetic_violation_detected(self):
        # the budget for n = 2 at accuracy 1e-3 is ln(2)/1e-3 ~ 693
        def cell(max_iterations):
            return BenchResult(n=2, m=2, accuracy=1e-3, avg_iterations=5.0,
                               max_iterations=max_iterations, trials_failed=0)
        assert not check_iteration_budget([cell(600), cell(1000)])
        assert check_iteration_budget([cell(600)])


def test_csv_and_table_rendering(tmp_path, capsys):
    cells = 1   # (n, m, accuracy) = (2, 2, 1e-2)
    path = tmp_path / "bench.csv"
    argv = ["bench", "--n", "2", "--m", "2", "--acc", "1e-2", "--trials", "2",
            "--seed", "3", "--out", str(path)]
    assert main(argv) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "n,m,accuracy,avg_iterations,max_iterations,trials_failed"
    assert lines[1].startswith("2,2,0.01,")
    # the table is everything printed before the budget line
    table = capsys.readouterr().out.split("\niteration budget")[0]
    assert "input n" in table.splitlines()[0]
    assert len(table.splitlines()) == cells + 1
    # byte determinism on re-export
    text = path.read_text()
    assert main(argv) == 0
    assert path.read_text() == text
