#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of cqcap through its CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload capacity_dense --seed 1 --seconds 30 --trace 0

Every request calls `cqcap.cli.main` in-process, with the CLI defaults and
`CQCAP_JOBS` unset, and every output is checked against `reference.py`,
which does not use cqcap. A run repeats whole rounds of the same requests
while the next round is expected to end inside `--seconds`. The last line
of standard output is one JSON object: with `--trace 0` the end-to-end
metrics, with `--trace 1` the per-layer metrics of the traced rounds (see
README.md). The line before it holds the raw, unscaled figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHANNELS = ROOT / "channels"
OUT = ROOT / ".perfbench_run"

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference  # noqa: E402
from hostprobe import HostProbe  # noqa: E402
from tracing import Tracer  # noqa: E402

# Set-up time is reported as measured: over 30 imports the host probe's
# unit time correlated with import time at only 0.36, and scaling by it
# doubled the spread (README).
SETUP_REPS = 7
IMPORT_CODE = ("import time; t0 = time.perf_counter(); import cqcap.cli; "
               "print(time.perf_counter() - t0)")


def write_channel(path: Path, states: np.ndarray) -> None:
    doc = {"dim": int(states.shape[1]),
           "states": np.stack([states.real, states.imag], axis=-1).tolist()}
    path.write_text(json.dumps(doc))


def read_channel(path: Path) -> np.ndarray:
    a = np.asarray(json.loads(path.read_text())["states"], dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]


def rotate(states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """New states for the same channel: seeded phases on the output basis
    (a diagonal unitary U rho U^H) and a seeded letter order. Capacity and
    iteration count stay the same and the eigensolver's work per iteration
    nearly so, so the seed changes the files and hardly the cost of a run
    (a full unitary would change the Jacobi sweep counts; README)."""
    phases = np.exp(2j * np.pi * rng.random(states.shape[1]))
    out = phases[:, None] * states[rng.permutation(len(states))] * phases.conj()
    return 0.5 * (out + out.conj().transpose(0, 2, 1))


class Runner:
    """Times CLI requests, less the host-probe time inside them, and keeps
    the counts every metric is made from."""

    def __init__(self, cli_main, probe: HostProbe):
        self.main = cli_main
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.busy_s = 0.0
        self.solves = 0
        self.iterations = 0
        self.counted_solves = 0
        self.timed: list[tuple[str, float, float, float]] = []  # kind, t0, t1, busy

    def request(self, kind: str, argv: list[str], solves: int, check) -> None:
        """One CLI call; `check(stdout)` returns (problem or None, iterations
        or None)."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed operation, not a stop
                traceback.print_exc()
                rc = -1
        t1 = time.perf_counter()
        elapsed = (t1 - t0) - self.probe.time_in(t0, t1)
        self.attempted += 1
        self.busy_s += elapsed
        self.timed.append((kind, t0, t1, elapsed))
        if rc != 0:
            self.failed += 1
            print(f"[{kind}] exit {rc}: {' '.join(argv)}\n{err.getvalue()}",
                  file=sys.stderr)
            return
        try:
            problem, iterations = check(out.getvalue())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem, iterations = f"unreadable output: {exc!r}", None
        if problem is not None:
            self.failed += 1
            self.wrong.append(f"{kind}: {problem}")
            print(f"[{kind}] wrong output: {problem}", file=sys.stderr)
            return
        self.solves += solves
        if iterations is not None:
            self.iterations += iterations
            self.counted_solves += solves


def capacity_check(states: np.ndarray, eps: float, max_iters: int | None = None):
    def check(stdout: str):
        report = json.loads(stdout)
        problem = reference.check_certificates(report, states, eps)
        if problem is None and max_iters is not None \
                and report["iterations"] > max_iters:
            problem = f"{report['iterations']} iterations > {max_iters}"
        return problem, report["iterations"]
    return check


class CapacityDense:
    """`cqcap capacity FILE --format json` on 8-letter, 8-dimensional
    Ginibre channels at gap 1e-5.

    The channels are a fixed Ginibre draw, transformed per seed by
    `rotate`, so each seed gives other files of the same difficulty.
    """

    EPS = 1e-5
    COUNT = 21
    BASE_SEED = 20190521
    primary = "capacity"

    def prepare(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng([seed, 1])
        self.files = []
        for k in range(self.COUNT):
            base = reference.ginibre_channel(self.BASE_SEED, 8, 8, 0, k)
            path = work / f"dense_{k}.json"
            write_channel(path, rotate(base, rng))
            self.files.append(path)

    def load_expected(self) -> None:
        self.states = [read_channel(p) for p in self.files]

    def round(self, run: Runner) -> None:
        for path, states in zip(self.files, self.states):
            run.request("capacity", ["capacity", str(path), "--format", "json",
                                     "--eps", repr(self.EPS)], 1,
                        capacity_check(states, self.EPS))

    def final_checks(self, run: Runner) -> None:
        pass


class SweepCoarse:
    """`cqcap sweep` on the acceptance grid (lambda step 0.05, theta step
    pi/10, reference gap 1e-6), plus `cqcap capacity` on the 11 channels of
    the worst cell (0.85, 0.95), whose JSON gives the iteration counts the
    sweep does not print."""

    LAMBDAS = [0.5 + 0.05 * i for i in range(11)]
    THETAS = [j * math.pi / 10 for j in range(11)]
    REF_EPS = 1e-6
    WORST = (0.85, 0.95)
    primary = "sweep"

    def prepare(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng([seed, 2])
        self.cells_csv = work / "sweep.csv"
        self.ranges_csv = work / "sweep_ranges.csv"
        self.files = []
        for j, theta in enumerate(self.THETAS):
            v1, v2 = reference.sweep_vectors(*self.WORST, theta)
            path = work / f"worst_cell_{j}.json"
            write_channel(path, rotate(reference.bloch_states(np.stack([v1, v2])), rng))
            self.files.append(path)

    def load_expected(self) -> None:
        self.states = [read_channel(p) for p in self.files]
        l1, l2, th = np.meshgrid(self.LAMBDAS, self.LAMBDAS, self.THETAS,
                                 indexing="ij")
        v1, v2 = reference.sweep_vectors(l1, l2, th)
        best, _ = reference.max_holevo_bits(v1, v2)
        p_hat = np.vectorize(reference.approx_p1)(l1, l2)
        err = np.abs(reference.holevo_bits(p_hat, v1, v2) - best).max(axis=2)
        self.expected = {(round(a, 9), round(b, 9)): float(err[i, k])
                         for i, a in enumerate(self.LAMBDAS)
                         for k, b in enumerate(self.LAMBDAS)}
        v1, v2 = reference.sweep_vectors(*self.WORST, np.array(self.THETAS))
        self.worst_bits = reference.max_holevo_bits(v1, v2)[0]

    def _check_sweep(self, stdout: str):
        if "flagged     : 0\n" not in stdout:
            return "a reference solve in the sweep did not converge", None
        rows = [line.split(",") for line in
                self.cells_csv.read_text().splitlines()[1:]]
        cells = {(round(float(a), 9), round(float(b), 9)): float(e)
                 for a, b, e in rows}
        if len(rows) != len(self.expected) or cells.keys() != self.expected.keys():
            return "cell grid differs from the acceptance grid", None
        # the program's reference is the solver's lower bound, within
        # REF_EPS nats of the maximum; the CSV keeps 10 digits
        tol = self.REF_EPS / reference.LN2 + 1e-9
        for key, err in cells.items():
            if abs(err - self.expected[key]) > tol:
                return (f"cell {key}: error {err!r} bits, recomputed "
                        f"{self.expected[key]!r}"), None
            if max(key) <= 0.94 and err > 3e-4:
                return f"interior cell {key}: error {err!r} > 3e-4 bits", None
        ranges = [line.split(",") for line in
                  self.ranges_csv.read_text().splitlines()[1:]]
        r_values = [round(r, 9) for r in self.LAMBDAS if r > 0.5]
        if [round(float(r), 9) for r, _ in ranges] != r_values:
            return "range CSV rows differ from the grid", None
        for r, err in ranges:
            running = max(e for (a, b), e in cells.items()
                          if a <= float(r) + 1e-9 and b <= float(r) + 1e-9)
            if float(err) != running:
                return f"range R={r}: {err} is not the running maximum {running!r}", None
        return None, None

    def round(self, run: Runner) -> None:
        run.request("sweep", ["sweep", "--lambda-step", "0.05",
                              "--theta-step", repr(math.pi / 10),
                              "--ref-eps", repr(self.REF_EPS),
                              "--out", str(self.cells_csv),
                              "--range-out", str(self.ranges_csv)],
                    len(self.expected) * len(self.THETAS), self._check_sweep)
        for path, states, best in zip(self.files, self.states, self.worst_bits):
            check = capacity_check(states, self.REF_EPS)

            def against_bloch(stdout, check=check, best=best):
                problem, iterations = check(stdout)
                lower = json.loads(stdout)["lower_nats"]
                if problem is None and not \
                        -1e-9 <= best * reference.LN2 - lower <= self.REF_EPS:
                    problem = (f"lower {lower!r} nats vs 1-D maximum "
                               f"{best * reference.LN2!r}")
                return problem, iterations

            run.request("capacity", ["capacity", str(path), "--format", "json",
                                     "--eps", repr(self.REF_EPS)], 1, against_bloch)

    def final_checks(self, run: Runner) -> None:
        pass


class BenchLoose:
    """`cqcap bench --n 2,5,8 --m 2,5,8 --acc 1e-3 --trials 40 --seed SEED`.
    After the timed rounds, one seeded trial per cell is regenerated apart
    from cqcap and solved with `cqcap capacity`, whose certificates are
    checked against the reference."""

    SIZES = (2, 5, 8)
    ACC = 1e-3
    TRIALS = 40
    primary = "bench"

    def prepare(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.csv = work / "bench.csv"
        self.work = work
        self.max_iters: dict[tuple[int, int], int] = {}

    def load_expected(self) -> None:
        self.cells = [(n, m) for n in self.SIZES for m in self.SIZES]

    def _check_bench(self, stdout: str):
        if "iteration budget ln(n)/accuracy respected: yes" not in stdout:
            return "iteration budget line missing or NO", None
        rows = [line.split(",") for line in self.csv.read_text().splitlines()[1:]]
        if [(int(r[0]), int(r[1])) for r in rows] != self.cells:
            return "bench CSV cells differ from the requested grid", None
        total = 0
        for n, m, acc, avg, mx, failed in rows:
            n, m = int(n), int(m)
            if int(failed) != 0:
                return f"cell ({n}, {m}): {failed} trials failed", None
            if int(mx) > math.log(n) / self.ACC:
                return f"cell ({n}, {m}): {mx} iterations > ln(n)/acc", None
            total += round(float(avg) * self.TRIALS)
            self.max_iters[(n, m)] = int(mx)
        return None, total

    def round(self, run: Runner) -> None:
        run.request("bench", ["bench", "--n", "2,5,8", "--m", "2,5,8",
                              "--acc", repr(self.ACC),
                              "--trials", str(self.TRIALS),
                              "--seed", str(self.seed), "--out", str(self.csv)],
                    len(self.cells) * self.TRIALS, self._check_bench)

    def final_checks(self, run: Runner) -> None:
        rng = np.random.default_rng([self.seed, 3])
        for n, m in self.cells:
            trial = int(rng.integers(self.TRIALS))
            states = reference.ginibre_channel(self.seed, n, m, 0, trial)
            path = self.work / f"bench_trial_{n}_{m}_{trial}.json"
            write_channel(path, states)
            budget = math.ceil(math.log(n) / self.ACC) + 1
            run.request("sample", ["capacity", str(path), "--format", "json",
                                   "--eps", repr(self.ACC),
                                   "--max-iter", str(budget)], 1,
                        capacity_check(states, self.ACC,
                                       self.max_iters.get((n, m), 0)))


WORKLOADS = {"capacity_dense": CapacityDense, "sweep_coarse": SweepCoarse,
             "bench_loose": BenchLoose}


def time_import() -> float:
    """Seconds to import cqcap.cli in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "CQCAP_JOBS"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def tail_percentile(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it; with
    fewer than 40 samples there is no tail and the median is returned."""
    n = len(values)
    if n < 40:
        return statistics.median(values)
    return sorted(values)[n - 11]


def run_rounds(workload, run: Runner, seconds: float, tracer: Tracer | None):
    """Whole rounds while the next is expected to end in the window, with
    the host probe running. With a tracer, rounds alternate untraced and
    traced (at least one of each). Returns, per kind of round, a list of
    (busy seconds, first probe unit, last probe unit)."""
    rounds = {"plain": [], "traced": []}
    durations = []
    run.probe.start()
    try:
        start = time.perf_counter()
        while True:
            traced = tracer is not None and \
                len(rounds["plain"]) > len(rounds["traced"])
            t0, busy0, mark0 = time.perf_counter(), run.busy_s, run.probe.mark()
            if traced:
                plain_main = run.main
                run.main = tracer.wrap("cli.request", plain_main)
                try:
                    with tracer.installed():
                        workload.round(run)
                finally:
                    run.main = plain_main
            else:
                workload.round(run)
            rounds["traced" if traced else "plain"].append(
                (run.busy_s - busy0, mark0, run.probe.mark()))
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            enough = tracer is None or rounds["traced"]
            if enough and elapsed + statistics.mean(durations) > seconds:
                return rounds
    finally:
        run.probe.stop()


def end_to_end(workload, run: Runner, setup_s: float) -> dict:
    """End-to-end metrics of the untraced rounds; each request's time is
    scaled by the host speed around it."""
    busy = scaled = 0.0
    lat_raw, lat = [], []
    for kind, t0, t1, elapsed in run.timed:
        norm = elapsed * run.probe.local_scale(t0, t1)
        busy += elapsed
        scaled += norm
        if kind == workload.primary:
            lat_raw.append(elapsed)
            lat.append(norm)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    iters = run.iterations / run.counted_solves if run.counted_solves else 0.0
    raw = {"solves_per_s": run.solves / busy, "iters_per_solve": iters,
           "latency_ms_p50": 1e3 * statistics.median(lat_raw),
           "latency_ms_tail": 1e3 * tail_percentile(lat_raw),
           "setup_s": setup_s, "peak_rss_mb": rss}
    steady = {"solves_per_s": (run.solves / scaled, "1/s"),
              "iters_per_solve": (iters, "count"),
              "latency_ms_p50": (1e3 * statistics.median(lat), "ms"),
              "latency_ms_tail": (1e3 * tail_percentile(lat), "ms"),
              "setup_s": (setup_s, "s"),
              "peak_rss_mb": (rss, "MB")}
    print(json.dumps({"raw": raw, "host_slowdown": busy / scaled,
                      "requests": len(lat)}))
    return {k: {"value": v, "unit": u} for k, (v, u) in steady.items()}


def per_layer(tracer: Tracer, probe: HostProbe, rounds: int, scale: float,
              overhead: float) -> dict:
    t = tracer.layer_totals(probe.time_in)

    def row(name):
        return t.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    eigh, solve, valid = row("hermitian.eigh"), row("solver.solve"), row("qinfo.validate")
    per_round = 1.0 / rounds
    iters = tracer.iterations
    values = {
        "hermitian.eigh_calls": (eigh["calls"] * per_round, "count"),
        "hermitian.eigh_s": (eigh["total_s"] * scale * per_round, "s"),
        "hermitian.eigh_us_per_call": (
            1e6 * eigh["total_s"] * scale / eigh["calls"] if eigh["calls"] else 0.0, "us"),
        "solver.solves": (solve["calls"] * per_round, "count"),
        "solver.iterations": (iters * per_round, "count"),
        "solver.self_s": (solve["self_s"] * scale * per_round, "s"),
        "solver.us_per_iter": (
            1e6 * solve["total_s"] * scale / iters if iters else 0.0, "us"),
        "qinfo.channels_validated": (valid["calls"] * per_round, "count"),
        "qinfo.validate_self_s": (valid["self_s"] * scale * per_round, "s"),
        "bloch.channels_realized": (row("bloch.realize")["calls"] * per_round, "count"),
        "bloch.realize_self_s": (row("bloch.realize")["self_s"] * scale * per_round, "s"),
        "bloch.closed_form_s": (row("bloch.closed_form")["total_s"] * scale * per_round, "s"),
        "bloch.sweep_self_s": (row("bloch.error_sweep")["self_s"] * scale * per_round, "s"),
        "bench.channels_generated": (row("bench.generate")["calls"] * per_round, "count"),
        "bench.generate_self_s": (row("bench.generate")["self_s"] * scale * per_round, "s"),
        "bench.run_self_s": (row("bench.run_bench")["self_s"] * scale * per_round, "s"),
        "cli.requests": (row("cli.request")["calls"] * per_round, "count"),
        "cli.self_s": (row("cli.request")["self_s"] * scale * per_round, "s"),
        "trace.spans": (len(tracer.spans) * per_round, "count"),
        "trace.overhead_pct": (overhead, "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is salted per process, which moved this benchmark's
        # speed by several percent from one process to the next; restart
        # this same process with a fixed salt.
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                   *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": "0"})

    if not (SRC / "cqcap" / "cli.py").is_file() or not CHANNELS.is_dir():
        print(f"error: no cqcap sources under {SRC} (run from a checkout)",
              file=sys.stderr)
        return 2
    os.environ.pop("CQCAP_JOBS", None)
    sys.path.insert(0, str(SRC))
    import cqcap.cli
    if Path(cqcap.cli.__file__).resolve().parent != SRC / "cqcap":
        print(f"error: imported cqcap from {cqcap.cli.__file__}", file=sys.stderr)
        return 2

    committed = {p.stem: read_channel(p) for p in CHANNELS.glob("*.json")}
    self_check = reference.self_check(committed)
    for problem in self_check:
        print(f"reference self-check failed: {problem}", file=sys.stderr)

    work = OUT / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    workload = WORKLOADS[args.workload]()
    setups = []
    for _ in range(SETUP_REPS):
        import_s = time_import()
        t0 = time.perf_counter()
        workload.prepare(args.seed, work)
        setups.append(import_s + time.perf_counter() - t0)
    setup_s = statistics.median(setups)
    workload.load_expected()

    probe = HostProbe()
    run = Runner(cqcap.cli.main, probe)
    tracer = Tracer() if args.trace else None
    rounds = run_rounds(workload, run, args.seconds, tracer)
    if not args.trace:
        metrics = end_to_end(workload, run, setup_s)
    workload.final_checks(run)
    if tracer is not None:
        def scaled(kind):
            return statistics.median(busy * probe.scale(m0, m1)
                                     for busy, m0, m1 in rounds[kind])
        plain = scaled("plain")
        overhead = 100.0 * (scaled("traced") - plain) / plain
        traced_scale = probe.scale(rounds["traced"][0][1], rounds["traced"][-1][2])
        metrics = per_layer(tracer, probe, len(rounds["traced"]), traced_scale,
                            overhead)
        tracer.write(work / "trace.jsonl")
    correct = not self_check and not run.wrong
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
