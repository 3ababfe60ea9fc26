"""Name-resolution guards. The benchmark's trace (perfbench/tracing.py)
rebinds cqcap names listed in its WRAPPED table, and `cqcap.__all__` lists
the public API. A refactor that renames or drops one of these names would
otherwise only surface when the benchmark runs with tracing on or when a
user star-imports the package; these tests catch it in the unit suite. A
guard keeps each import that the package holds only for the trace to rebind
(`# noqa: F401`) listed in WRAPPED. Four more guards keep file output in the
CLI, every certificate evaluation in `qinfo._certificates`, every Bloch norm
in `bloch._mixture_norm_sq` and the sweep's per-solve work in arrays."""

import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np

import cqcap
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
                 lambda: cqcap.solver.ba_step(p, ch),
                 lambda: cqcap.solver.optimality_kkt_check(report, ch, 1e-2)):
        calls.clear()
        call()
        assert len(calls) == 1


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
    # error_sweep builds and scores its rows as arrays: no realize_channel or
    # holevo_bloch call, and at most one BinaryBlochChannel per cell, the one
    # approx_p1 makes to check its lambdas
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
    assert counts["__post_init__"] <= len(cells)
