"""Name-resolution guards. The benchmark's trace (perfbench/tracing.py)
rebinds cqcap names listed in its WRAPPED table, and `cqcap.__all__` lists
the public API. A refactor that renames or drops one of these names would
otherwise only surface when the benchmark runs with tracing on or when a
user star-imports the package; these tests catch it in the unit suite, and
one more keeps the names README "Removed names" lists out of the package. A
guard keeps each import that the package holds only for the trace to rebind
(`# noqa: F401`) listed in WRAPPED. Six more guards keep file output in the
CLI, every certificate evaluation in `qinfo._certificates`, the m = 2
certificates off LAPACK, every Bloch norm in `bloch._mixture_norm_sq`, the
sweep's per-solve work in arrays and the harnesses' solver results in
arrays."""

import dataclasses
import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np

import cqcap
import cqcap.bench
import cqcap.bloch
import cqcap.qinfo
import cqcap.solver
from cqcap.bench import random_channel, trial_rng

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_to_a_callable():
    wrapped = _load_tracing().WRAPPED
    assert wrapped
    for module, path, _ in wrapped:
        assert module.startswith("cqcap."), module
        owner = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(owner, part), f"{module}.{path}: no attribute {part!r}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{path} is not callable"


def test_every_unused_import_is_one_the_trace_rebinds():
    # an import kept with `# noqa: F401` has no use but WRAPPED's; once the
    # trace stops rebinding it, the import goes too
    wrapped = {(module, path) for module, path, _ in _load_tracing().WRAPPED}
    package = Path(cqcap.__file__).resolve().parent
    kept = set()
    for path in sorted(package.glob("*.py")):
        module = "cqcap" if path.stem == "__init__" else f"cqcap.{path.stem}"
        for line in path.read_text().splitlines():
            if "# noqa: F401" in line:
                match = re.fullmatch(r"from \S+ import (\w+)\s+# noqa: F401.*", line)
                assert match, f"{path.name}: unexpected form {line!r}"
                kept.add((module, match.group(1)))
    assert kept
    assert kept <= wrapped, sorted(kept - wrapped)


def test_only_the_cli_opens_files():
    # file output belongs to the front end; the other modules only compute
    package = Path(cqcap.__file__).resolve().parent
    openers = sorted(str(path.relative_to(package)) for path in package.rglob("*.py")
                     if path.name != "cli.py" and "open(" in path.read_text())
    assert openers == []


def test_every_exported_name_resolves():
    for name in cqcap.__all__:
        assert hasattr(cqcap, name), f"cqcap.__all__ lists missing {name!r}"
    namespace = {}
    exec("from cqcap import *", namespace)
    assert set(cqcap.__all__) <= set(namespace)


# README "Removed names": (module, name) of each public name that went, the
# `cqcap.hermitian` module as ("cqcap", "hermitian")
REMOVED = (
    ("cqcap.solver", "ba_step"), ("cqcap.solver", "SupportViolationError"),
    ("cqcap.solver", "UNDERFLOW_CLAMP"), ("cqcap.solver", "BATCH_CHUNK"),
    ("cqcap.solver", "STEPS"), ("cqcap.solver", "MAX_STEP"),
    ("cqcap.qinfo", "average_state"), ("cqcap.qinfo", "validate_density"),
    ("cqcap.bloch", "write_sweep_csv"), ("cqcap.bloch", "write_range_csv"),
    ("cqcap.bench", "write_bench_csv"), ("cqcap.bench", "format_bench_table"),
    ("cqcap", "hermitian"),
)


def test_removed_names_stay_removed():
    for module, name in REMOVED:
        assert not hasattr(importlib.import_module(module), name), f"{module}.{name}"
        assert name not in cqcap.__all__, name
    assert importlib.util.find_spec("cqcap.hermitian") is None
    assert "step" not in {f.name for f in dataclasses.fields(cqcap.solver.SolverConfig)}


def test_one_certificate_routine(monkeypatch):
    assert cqcap.solver._certificates is cqcap.qinfo._certificates
    calls = []
    real = cqcap.qinfo._certificates
    monkeypatch.setattr(cqcap.qinfo, "_certificates",
                        lambda *args: calls.append(1) or real(*args))
    ch = random_channel(3, 2, trial_rng(0, 3, 2, 0, 0))
    p = np.array([0.5, 0.3, 0.2])
    report = cqcap.solver.solve(ch, cqcap.solver.SolverConfig(gap_tol=1e-3))
    for call in (lambda: cqcap.qinfo.holevo_information(p, ch),
                 lambda: cqcap.solver.upper_bound(p, ch),
                 lambda: cqcap.solver.optimality_kkt_check(report, ch, 1e-2)):
        calls.clear()
        call()
        assert len(calls) == 1


def test_qubit_certificates_make_no_eigh_call(monkeypatch):
    # m = 2 certificates take the closed form; qinfo._eigh stays the
    # eigensolver of validation, one call per stack, and of m > 2 certificates
    stacks = {m: np.stack([random_channel(3, m, trial_rng(0, 3, m, 0, k)).states
                           for k in range(4)]) for m in (2, 3)}
    calls = []
    real = cqcap.qinfo._eigh
    monkeypatch.setattr(cqcap.qinfo, "_eigh", lambda a: calls.append(1) or real(a))
    for m, want in ((2, 0), (3, 1)):
        calls.clear()
        states, entropies = cqcap.qinfo._channel_states(stacks[m], batch=True)
        assert len(calls) == 1
        calls.clear()
        cqcap.qinfo._certificates(np.full((4, 3), 1.0 / 3.0), states, entropies)
        assert len(calls) == want
    calls.clear()
    reports = cqcap.solver.solve_batch(stacks[2], cqcap.solver.SolverConfig(gap_tol=1e-6))
    assert sum(r.iterations for r in reports) > 4 and len(calls) == 1


def test_one_bloch_norm(monkeypatch):
    # the float64 closed form, its gradient and the mpmath oracle all take
    # |p1 r1 + (1-p1) r2|^2 from one law-of-cosines routine
    calls = []
    real = cqcap.bloch._mixture_norm_sq
    monkeypatch.setattr(cqcap.bloch, "_mixture_norm_sq",
                        lambda *args: calls.append(1) or real(*args))
    ch = cqcap.bloch.BinaryBlochChannel(0.9, 0.7, 1.0)
    for call in (lambda: cqcap.bloch.holevo_bloch(ch, 0.4),
                 lambda: cqcap.bloch.holevo_bloch_gradient(ch, 0.4),
                 lambda: cqcap.bloch.exact_p1(ch)):
        calls.clear()
        call()
        assert calls


def test_the_sweep_builds_no_channel_per_solve(monkeypatch):
    # error_sweep builds and scores its rows as arrays: no realize_channel,
    # holevo_bloch or BinaryBlochChannel call
    counts = {}
    for owner, name in ((cqcap.bloch, "holevo_bloch"), (cqcap.bloch, "realize_channel"),
                        (cqcap.bloch.BinaryBlochChannel, "__post_init__")):
        counts[name] = 0

        def counted(*args, real=getattr(owner, name), name=name):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, counted)
    grid = cqcap.bloch.SweepGrid(lambda_step=0.25, theta_step=1.0, reference_gap_tol=1e-4)
    cells = cqcap.bloch.error_sweep(grid)
    assert len(cells) == 9 and len(grid.theta_values()) == 4
    assert counts["holevo_bloch"] == 0
    assert counts["realize_channel"] == 0
    assert counts["__post_init__"] == 0


def test_the_harnesses_build_no_report_per_row(monkeypatch):
    # error_sweep and run_bench read the solver's result arrays: no
    # SolveReport, and the sweep takes every cell's p1_hat from one approx_p1
    # call. The names the trace wraps on this path stay in WRAPPED, which
    # test_every_wrapped_name_resolves_to_a_callable checks
    counts = {"SolveReport": 0, "approx_p1": 0}
    real_init, real_p1 = cqcap.solver.SolveReport.__init__, cqcap.bloch.approx_p1

    def counted_init(self, *args, **kwargs):
        counts["SolveReport"] += 1
        real_init(self, *args, **kwargs)

    def counted_p1(*args):
        counts["approx_p1"] += 1
        return real_p1(*args)
    monkeypatch.setattr(cqcap.solver.SolveReport, "__init__", counted_init)
    monkeypatch.setattr(cqcap.bloch, "approx_p1", counted_p1)
    cells = cqcap.bloch.error_sweep(
        cqcap.bloch.SweepGrid(lambda_step=0.125, theta_step=1.0, reference_gap_tol=1e-4))
    results = cqcap.bench.run_bench(cqcap.bench.BenchSpec((2, 3), (2,), (1e-2,), trials=5))
    assert len(cells) == 25 and len(results) == 2
    assert counts == {"SolveReport": 0, "approx_p1": 1}
    cqcap.solver.solve_batch(np.stack([random_channel(2, 2, trial_rng(0, 2, 2, 0, k)).states
                                       for k in range(3)]))
    assert counts["SolveReport"] == 3   # the hook sees the reports solve_batch builds
