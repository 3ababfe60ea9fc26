"""Name-resolution guards. The benchmark's trace (perfbench/tracing.py)
rebinds cqcap names listed in its WRAPPED table, and `cqcap.__all__` lists
the public API. A refactor that renames or drops one of these names would
otherwise only surface when the benchmark runs with tracing on or when a
user star-imports the package; these tests catch it in the unit suite, and
one more keeps the names and parameters README "Removed names" lists out of
the package (`SolverConfig.step`, `solve_batch`'s `start`,
`validate_distribution`'s `rows`, `positive` and `name`). A
guard keeps each import that the package holds only for the trace to rebind
(`# noqa: F401`) listed in WRAPPED. Sixteen more guards keep file output in
the CLI, the rule for a scalar parameter in `solver.py`, every certificate
evaluation in `qinfo._certificates`, one call site of it in the solver
loop, every divergence in `qinfo._divergences`, the support rule in
`qinfo._support_rule`, the solver's two stop reasons, every m = 2 path off
LAPACK, `qinfo._qubit_spectra` without an option, every Bloch norm in
`bloch._mixture_norm_sq`, one search in `bloch.exact_p1`, the sweep's
per-solve work in arrays, the sweep's states out of validation, the secant
loop's lambda terms computed once, the sweep's lambda terms once per lambda
value and the harnesses' solver results in arrays."""

import dataclasses
import importlib
import importlib.util
import inspect
import math
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


def test_only_the_solver_imports_numbers():
    # what a scalar parameter is (solver._is_real, solver._require_integer)
    # is said once; every other module asks the solver's checks
    package = Path(cqcap.__file__).resolve().parent
    importers = sorted(path.name for path in package.glob("*.py")
                       if re.search(r"^\s*(import|from) numbers\b", path.read_text(), re.M))
    assert importers == ["solver.py"]


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
    ("cqcap.bloch", "_INV_PHI"), ("cqcap", "hermitian"), ("cqcap.solver", "log"),
    ("cqcap.solver", "_log_normalize"),
)


def test_removed_names_stay_removed():
    for module, name in REMOVED:
        assert not hasattr(importlib.import_module(module), name), f"{module}.{name}"
        assert name not in cqcap.__all__, name
    assert importlib.util.find_spec("cqcap.hermitian") is None
    assert "step" not in {f.name for f in dataclasses.fields(cqcap.solver.SolverConfig)}
    # the warm start is the sweep's, on the loop _solve_stacked, not a public parameter
    assert list(inspect.signature(cqcap.solver.solve_batch).parameters) == ["states", "cfg"]
    assert list(inspect.signature(cqcap.qinfo.validate_distribution).parameters) == ["p", "n"]


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


def test_one_certificate_site_in_the_solver_loop():
    # the loop evaluates the certificates at the top of each pass, once,
    # not once before the loop and again after each update
    assert inspect.getsource(cqcap.solver._solve_stacked).count("_certificates(") == 1


def test_qubit_spectra_take_no_option():
    # _qubit_spectra gives the difference form alone; validation's det/w+
    # step lives in _density_spectra, so no flag picks between the two
    assert list(inspect.signature(cqcap.qinfo._qubit_spectra).parameters) == ["sigma"]


def test_qubit_certificates_make_no_eigh_call(monkeypatch):
    # every m = 2 path takes the closed form: validation, the certificates, a
    # whole batched solve and relative_entropy make no qinfo._eigh call and
    # no np.linalg.eigh call around it; qinfo._eigh stays the eigensolver of
    # m > 2, one call per validated stack
    stacks = {m: np.stack([random_channel(3, m, trial_rng(0, 3, m, 0, k)).states
                           for k in range(4)]) for m in (2, 3)}
    calls, lapack = [], []
    real, real_lapack = cqcap.qinfo._eigh, np.linalg.eigh
    monkeypatch.setattr(cqcap.qinfo, "_eigh", lambda a: calls.append(1) or real(a))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: lapack.append(1) or real_lapack(a))
    p = np.full((4, 3), 1.0 / 3.0)
    states, entropies = cqcap.qinfo._channel_states(stacks[3], batch=True)
    assert len(calls) == 1
    calls.clear()
    cqcap.qinfo._certificates(p, np.log(p), states, -entropies[..., None])
    assert len(calls) == 1 and len(lapack) == 2
    calls.clear()
    lapack.clear()
    states, entropies = cqcap.qinfo._channel_states(stacks[2], batch=True)
    cqcap.qinfo._certificates(p, np.log(p), states, -entropies[..., None])
    ch = cqcap.qinfo.CqChannel(stacks[2][0])
    cqcap.qinfo.relative_entropy(ch.states[0], ch.states[1])
    reports = cqcap.solver.solve_batch(stacks[2], cqcap.solver.SolverConfig(gap_tol=1e-6))
    assert sum(r.iterations for r in reports) > 4
    assert calls == [] and lapack == []


def test_one_divergence_entry(monkeypatch):
    # the certificates and relative_entropy take every divergence, m = 2
    # included, through one qinfo._divergences call
    calls = []
    real = cqcap.qinfo._divergences
    monkeypatch.setattr(cqcap.qinfo, "_divergences",
                        lambda *args: calls.append(1) or real(*args))
    for m in (2, 3):
        stack = np.stack([random_channel(3, m, trial_rng(0, 3, m, 0, k)).states
                          for k in range(4)])
        states, entropies = cqcap.qinfo._channel_states(stack, batch=True)
        p = np.full((4, 3), 1.0 / 3.0)
        for call in (lambda: cqcap.qinfo._certificates(p, np.log(p), states, -entropies[..., None]),
                     lambda: cqcap.qinfo.relative_entropy(states[0, 0], states[0, 1])):
            calls.clear()
            call()
            assert len(calls) == 1, m


def test_one_support_rule(monkeypatch):
    # every divergence takes its support rule from one qinfo._support_rule
    # call, which alone reads SUPPORT_TOL: on stacks whose average state has
    # an eigenvalue below it, at m = 2 and m = 3, and in relative_entropy
    assert [name for name, fn in vars(cqcap.qinfo).items()
            if "SUPPORT_TOL" in getattr(getattr(fn, "__code__", None), "co_names", ())] == \
        ["_support_rule"]
    calls, masses = [], []
    real = cqcap.qinfo._support_rule

    def counted(ln_p, w, ln_w, mass_of):
        calls.append(1)
        return real(ln_p, w, ln_w, lambda cut: masses.append(1) or mass_of(cut))
    monkeypatch.setattr(cqcap.qinfo, "_support_rule", counted)
    eps = 1.5e-10
    for m in (2, 3):
        states = np.zeros((1, 2, m, m), dtype=complex)
        states[0, 0, 0, 0], states[0, 0, 1, 1], states[0, 1, 0, 0] = 1.0 - eps, eps, 1.0
        states, entropies = cqcap.qinfo._channel_states(states, batch=True)
        p = np.full((1, 2), 0.5)
        for call in (lambda: cqcap.qinfo._certificates(p, np.log(p), states, -entropies[..., None]),
                     lambda: cqcap.qinfo.relative_entropy(states[0, 0], states[0, 1])):
            calls.clear()
            masses.clear()
            call()
            assert (len(calls), len(masses)) == (1, 1), m


def test_two_stop_reasons():
    # the loop keeps every ln p finite, so no letter's divergence is +inf
    # and a channel stops only on its gap or at max_iters
    assert cqcap.solver.STOP_REASONS == ("gap", "max_iters")


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


def test_exact_p1_runs_one_search(monkeypatch):
    # exact_p1 starts from the float64 secant of _refined_p1, called once, and
    # evaluates _holevo_mp in mpmath.mp to polish that value (two Newton
    # steps of five values here; golden section to 1e-10 took about 50) and
    # in mpmath.iv at three points to prove it: no search of its own
    import mpmath
    calls, contexts = [], []
    real_start, real_chi = cqcap.bloch._refined_p1, cqcap.bloch._holevo_mp
    monkeypatch.setattr(cqcap.bloch, "_refined_p1",
                        lambda *args: calls.append(1) or real_start(*args))
    monkeypatch.setattr(cqcap.bloch, "_holevo_mp",
                        lambda *args: contexts.append(args[-1]) or real_chi(*args))
    cqcap.bloch.exact_p1(cqcap.bloch.BinaryBlochChannel(0.9, 0.7, 1.0))
    assert len(calls) == 1
    assert contexts.count(mpmath.iv) == 3
    assert 0 < contexts.count(mpmath.mp) <= 15
    assert len(contexts) == contexts.count(mpmath.iv) + contexts.count(mpmath.mp)


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


def test_the_sweep_validates_no_state_it_builds(monkeypatch):
    # error_sweep builds its states from a checked SweepGrid and hands them,
    # with their closed-form entropies, to solver._solve_stacked: no
    # qinfo._density_spectra or solver._channel_states call (the states
    # are checked in the suite, test_closed_form_entropies_match_validation)
    calls, states = [], random_channel(2, 2, trial_rng(0, 2, 2, 0, 0)).states[None]
    for owner, name in ((cqcap.qinfo, "_density_spectra"), (cqcap.solver, "_channel_states")):
        monkeypatch.setattr(owner, name, lambda *args, real=getattr(owner, name), name=name,
                            **kw: calls.append(name) or real(*args, **kw))
    grid = cqcap.bloch.SweepGrid(lambda_step=0.25, theta_step=1.0, reference_gap_tol=1e-4)
    assert len(cqcap.bloch.error_sweep(grid)) == 9
    assert calls == []
    # the patches see solve_batch's validation
    cqcap.solver.solve_batch(states)
    assert calls == ["_channel_states", "_density_spectra"]


def test_the_secant_loop_computes_its_lambda_terms_once(monkeypatch):
    # _refined_p1 takes h(lambda1) and h(lambda2) once per call, not once
    # per gradient evaluation of its secant steps
    calls = []
    real = cqcap.bloch.binary_entropy
    monkeypatch.setattr(cqcap.bloch, "binary_entropy", lambda x: calls.append(1) or real(x))
    l1, l2, theta = np.array([0.9, 0.6, 0.8]), np.array([0.7, 0.95, 0.8]), np.ones(3)
    p1 = cqcap.bloch.approx_p1(l1, l2)
    calls.clear()
    cqcap.bloch._refined_p1(l1, l2, theta, p1)
    assert len(calls) == 2


def test_the_sweep_takes_its_lambda_terms_once_per_lambda_value(monkeypatch):
    # error_sweep works on the axes of its grid: the state entropies come from
    # the L spectra {lambda, 1 - lambda}, and only the mixture's binary entropy
    # h(1/2 + |p1 r1 + (1-p1) r2|) is taken on all L^2 T rows (lambda1,
    # lambda2, theta)
    sizes = {"binary_entropy": [], "_entropy_from_eigs": []}
    real_h, real_s = cqcap.bloch.binary_entropy, cqcap.bloch._entropy_from_eigs
    monkeypatch.setattr(cqcap.bloch, "binary_entropy",
                        lambda x: sizes["binary_entropy"].append(np.size(x)) or real_h(x))
    monkeypatch.setattr(cqcap.bloch, "_entropy_from_eigs",
                        lambda u, ln_u: sizes["_entropy_from_eigs"].append(
                            u.size // u.shape[-1]) or real_s(u, ln_u))
    grid = cqcap.bloch.SweepGrid(lambda_step=0.05, theta_step=math.pi / 10)
    lams, thetas = len(grid.lambda_values()), len(grid.theta_values())
    assert (lams, thetas) == (11, 11) and len(cqcap.bloch.error_sweep(grid)) == 121
    assert sizes["_entropy_from_eigs"] and max(sizes["_entropy_from_eigs"]) <= lams
    assert [n for n in sizes["binary_entropy"] if n > 2 * lams ** 2] == [lams ** 2 * thetas]


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
