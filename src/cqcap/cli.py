"""Command-line front end: capacity solving, the binary-channel closed-form
approximation, the approximation-error sweep, and the random-channel
benchmark.

Exit codes are stable for scripting: 0 success, 1 usage or input error,
2 non-convergence (or failed benchmark trials).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .bench import BenchSpec, check_iteration_budget, run_bench
from .bloch import (BinaryBlochChannel, SweepGrid, approx_p1, error_sweep,
                    exact_p1, holevo_bloch, max_error_by_range)
from .qinfo import CqChannel
from .solver import SolverConfig, solve

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2


class CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; this tool reserves 2
    # for non-convergence, so remap usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def load_channel_file(path) -> CqChannel:
    """Parse a channel JSON document {"dim": m, "states": [...]}.

    Each state is an m x m array of [re, im] pairs. Violations of the
    density-matrix invariants are rejected with the offending state index
    and the measured defect.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as err:
        raise CliInputError(f"cannot read channel file: {err}") from err
    except (ValueError, RecursionError) as err:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and integer
        # literals past Python's digit limit; RecursionError deep nesting
        raise CliInputError(f"malformed JSON in {path}: {err}") from err
    if not isinstance(doc, dict) or "dim" not in doc or "states" not in doc:
        raise CliInputError('channel file must be {"dim": m, "states": [...]}')
    dim = doc["dim"]
    raw_states = doc["states"]
    # the least that building the stack needs; CqChannel checks n >= 2 and m >= 2
    if type(dim) is not int or dim < 1:
        raise CliInputError(f'"dim" must be a positive integer, got {dim!r}')
    if not isinstance(raw_states, list) or not raw_states:
        raise CliInputError('"states" must be a non-empty list')
    entries = []
    for idx, entry in enumerate(raw_states):
        expected = f"states[{idx}] must be a {dim}x{dim} array of [re, im] pairs"
        try:
            arr = np.asarray(entry, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as err:
            raise CliInputError(f"{expected}: {err}") from err
        if arr.shape != (dim, dim, 2):
            raise CliInputError(f"{expected}, got shape {arr.shape}")
        # the cast above would read "1" and true as numbers
        if {type(x) for row in entry for pair in row for x in pair} & {str, bool}:
            raise CliInputError(f"{expected}, got a string or boolean entry")
        entries.append(arr)
    # the view reads each [re, im] pair as one complex128, every double kept
    # (a -0.0 imaginary part too)
    return _checked(CqChannel, np.array(entries).view(np.complex128)[..., 0],
                    context="invalid channel: ")


def _checked(build, *args, context: str = "", **kwargs):
    # a library constructor rejects bad input with ValueError; here it exits 1
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        raise CliInputError(f"{context}{err}") from err


def _out_path(text: str, flag: str = "--out") -> Path:
    path = Path(text)
    if not path.name:   # "", "." and "/" leave no name to write or derive from
        raise CliInputError(f"cannot write output: {flag} {text!r} names no file")
    return path


def _require_writable(*paths) -> None:
    # open or create each output before any solve, so a bad path fails fast
    try:
        for path in paths:
            open(path, "a").close()
    except OSError as err:
        raise CliInputError(f"cannot write output: {err}") from err


def _write_lines(path, lines) -> None:
    try:
        with open(path, "w", newline="") as f:
            f.writelines(line + "\n" for line in lines)
    except OSError as err:
        raise CliInputError(f"cannot write output: {err}") from err


def _fmt_vec(values) -> str:
    return " ".join(f"{v:.6f}" for v in values)


def _cmd_capacity(args) -> int:
    ch = load_channel_file(args.channel_file)
    cfg = _checked(SolverConfig, gap_tol=args.eps, max_iters=args.max_iter,
                   record_history=args.history)
    report = solve(ch, cfg)
    if args.format == "json":
        payload = {
            "capacity_bits": report.capacity_bits,
            "capacity_nats": report.capacity_nats,
            "lower_nats": report.lower,
            "upper_nats": report.upper,
            "gap_nats": report.upper - report.lower,
            "iterations": report.iterations,
            "converged": report.converged,
            "stop_reason": report.stop_reason,
            "p_star": list(report.p_star),
        }
        if report.history is not None:
            payload["history"] = [
                {"t": rec.t, "lower_nats": rec.lower, "upper_nats": rec.upper, "p": list(rec.p)}
                for rec in report.history]
        print(json.dumps(payload))
    else:
        print(f"capacity    : {report.capacity_bits:.6f} bits = "
              f"{report.capacity_nats:.6f} nats")
        print(f"lower bound : {report.lower:.6f} nats")
        print(f"upper bound : {report.upper:.6f} nats")
        print(f"gap         : {report.upper - report.lower:.6f} nats")
        print(f"iterations  : {report.iterations}")
        print(f"converged   : {'yes' if report.converged else 'no'}")
        print(f"stop reason : {report.stop_reason}")
        print(f"p_star      : {_fmt_vec(report.p_star)}")
        if report.history is not None:
            print("history (t, lower nats, upper nats):")
            for rec in report.history:
                print(f"  {rec.t:6d}  {rec.lower:.6f}  {rec.upper:.6f}")
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _cmd_approx(args) -> int:
    ch = _checked(BinaryBlochChannel, args.lambda1, args.lambda2, args.theta)
    p_hat = approx_p1(args.lambda1, args.lambda2)
    chi_hat = holevo_bloch(ch, p_hat)
    # chi at the maximizer is at least both float64 readings, which can agree to roundoff
    chi_best = max(holevo_bloch(ch, exact_p1(ch)), chi_hat)
    print(f"p_hat       : {_fmt_vec([p_hat, 1.0 - p_hat])}")
    print(f"chi_hat     : {chi_hat:.6f} bits")
    print(f"chi_exact   : {chi_best:.6f} bits")
    print(f"gap         : {chi_best - chi_hat:.6f} bits")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    grid = _checked(SweepGrid, lambda_step=args.lambda_step,
                    theta_step=args.theta_step, reference_gap_tol=args.ref_eps)
    out = _out_path(args.out)
    range_out = (out.with_name(out.stem + "_ranges" + (out.suffix or ".csv"))
                 if args.range_out is None else _out_path(args.range_out, "--range-out"))
    if out.resolve() == range_out.resolve():
        raise CliInputError(f"--out and --range-out name the same file: {out}")
    _require_writable(out, range_out)
    cells = error_sweep(grid)
    lams = grid.lambda_values()
    ranges = max_error_by_range(cells, [lam for lam in lams if lam > 0.5])
    _write_lines(out, ["lambda1,lambda2,error_bits"] + [
        f"{c.lambda1:.10g},{c.lambda2:.10g},{c.error_bits:.10g}" for c in cells])
    _write_lines(range_out, ["R,max_error_bits"] +
                 [f"{r:.10g},{err:.10g}" for r, err in ranges])
    flagged = sum(1 for c in cells if not c.ba_converged)
    (_, capped), (_, full) = max_error_by_range(cells, [min(0.95, lams[-1]), lams[-1]])
    print(f"cells       : {len(cells)} ({len(lams)}^2 lambda grid, "
          f"{len(grid.theta_values())} theta values)")
    print(f"flagged     : {flagged}")
    print(f"iterations  : {sum(c.iterations for c in cells)} total, "
          f"{max(c.max_iterations for c in cells)} max per reference solve")
    print(f"max error (lambda <= 0.95): {capped:.6f} bits")
    print(f"max error (full grid)     : {full:.6f} bits")
    print(f"wrote {out}")
    print(f"wrote {range_out}")
    return EXIT_OK


def _parse_list(text: str, kind) -> tuple:
    try:
        return tuple(kind(tok) for tok in text.split(",") if tok)
    except ValueError as err:
        what = "integer" if kind is int else "number"
        raise CliInputError(f"expected a comma-separated {what} list, got {text!r}") \
            from err


def _format_bench_table(results) -> str:
    """Aligned text table of the per-cell statistics."""
    headers = ("input n", "output m", "accuracy", "avg iter", "max iter", "failed")
    rows = [(str(r.n), str(r.m), f"{r.accuracy:.0e}", f"{r.avg_iterations:.1f}",
             str(r.max_iterations), str(r.trials_failed)) for r in results]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cmd_bench(args) -> int:
    spec = _checked(BenchSpec, input_sizes=_parse_list(args.n, int),
                    output_dims=_parse_list(args.m, int),
                    accuracies=_parse_list(args.acc, float),
                    trials=args.trials, seed=args.seed)
    if args.out is not None:
        _require_writable(_out_path(args.out))
    results = run_bench(spec)
    print(_format_bench_table(results))
    budget_ok = check_iteration_budget(results)
    print(f"iteration budget ln(n)/accuracy respected: {'yes' if budget_ok else 'NO'}")
    if args.out is not None:
        _write_lines(args.out, [
            "n,m,accuracy,avg_iterations,max_iterations,trials_failed"] + [
            f"{r.n},{r.m},{r.accuracy:.10g},{r.avg_iterations:.10g},"
            f"{r.max_iterations},{r.trials_failed}" for r in results])
        print(f"wrote {args.out}")
    failed = sum(r.trials_failed for r in results)
    if failed:
        print(f"{failed} trial(s) did not converge", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cqcap",
                     description="Classical-quantum channel capacity toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    cap = sub.add_parser("capacity", help="solve a channel given as a JSON file")
    cap.add_argument("channel_file")
    cap.add_argument("--eps", type=float, default=SolverConfig.gap_tol,
                     help="certificate gap threshold in nats (default %(default)g)")
    cap.add_argument("--max-iter", type=int, default=SolverConfig.max_iters)
    cap.add_argument("--history", action="store_true",
                     help="record per-iterate certificates")
    cap.add_argument("--format", choices=("json", "text"), default="text")
    cap.set_defaults(func=_cmd_capacity)

    app = sub.add_parser("approx",
                         help="closed-form approximate input for a binary "
                              "qubit channel")
    app.add_argument("--lambda1", type=float, required=True)
    app.add_argument("--lambda2", type=float, required=True)
    app.add_argument("--theta", type=float, required=True)
    app.set_defaults(func=_cmd_approx)

    sw = sub.add_parser("sweep", help="approximation-error sweep over the "
                                      "(lambda1, lambda2) grid")
    sw.add_argument("--lambda-step", type=float, default=SweepGrid.lambda_step)
    sw.add_argument("--theta-step", type=float, default=SweepGrid.theta_step)
    sw.add_argument("--ref-eps", type=float, default=SweepGrid.reference_gap_tol)
    sw.add_argument("--out", default="sweep.csv")
    sw.add_argument("--range-out", default=None,
                    help="range-maxima CSV (default: derived from --out)")
    sw.set_defaults(func=_cmd_sweep)

    be = sub.add_parser("bench", help="random-channel iteration benchmark")
    be.add_argument("--n", required=True, help="comma list of input sizes")
    be.add_argument("--m", required=True, help="comma list of output dimensions")
    be.add_argument("--acc", required=True, help="comma list of gap thresholds")
    be.add_argument("--trials", type=int, default=BenchSpec.trials)
    be.add_argument("--seed", type=int, default=BenchSpec.seed)
    be.add_argument("--out", default=None)
    be.set_defaults(func=_cmd_bench)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; parse_args keeps no state between calls
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
