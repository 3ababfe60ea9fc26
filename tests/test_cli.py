import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cqcap.cli
from cqcap.bench import BenchResult, random_density_matrix
from cqcap.cli import (EXIT_INPUT, EXIT_NOT_CONVERGED, EXIT_OK, load_channel_file,
                       main)

CHANNELS = Path(__file__).resolve().parent.parent / "channels"
# letter 0 keeps 1.5e-10 along |1>, which letter 1 leaves empty, so the
# average state's eigenvalue there lies below qinfo.SUPPORT_TOL; C =
# 5.51819e-11 nats (a 50-digit maximum of the Holevo information)
SUPPORT_BOUNDARY = {"dim": 2, "states": [
    [[[1.0 - 1.5e-10, 0], [0, 0]], [[0, 0], [1.5e-10, 0]]],
    [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]}


class TestCapacity:
    def test_orthogonal_pure_text(self, capsys):
        code = main(["capacity", str(CHANNELS / "orthogonal_pure.json"),
                     "--eps", "1e-6"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "capacity    : 1.000000 bits" in out
        assert "p_star      : 0.500000 0.500000" in out
        assert "converged   : yes" in out

    def test_identical_states_zero_capacity(self, capsys):
        code = main(["capacity", str(CHANNELS / "identical_states.json")])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "capacity    : 0.000000 bits" in out

    def test_z_channel_json_format(self, capsys):
        code = main(["capacity", str(CHANNELS / "z_channel.json"),
                     "--eps", "1e-6", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert (payload["converged"], payload["stop_reason"]) == (True, "gap")
        assert payload["capacity_bits"] == pytest.approx(math.log2(1.25), abs=1e-5)
        assert payload["p_star"][0] == pytest.approx(0.6, abs=1e-4)
        assert payload["gap_nats"] <= 1e-6

    def test_history_flag(self, capsys):
        code = main(["capacity", str(CHANNELS / "z_channel.json"),
                     "--history", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["history"][0]["t"] == 0
        assert len(payload["history"]) == payload["iterations"] + 1

    def test_history_text_mode(self, capsys):
        code = main(["capacity", str(CHANNELS / "z_channel.json"), "--history"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "history (t, lower nats, upper nats):" in out

    def test_non_convergence_exit_code(self, capsys):
        code = main(["capacity", str(CHANNELS / "z_channel.json"),
                     "--eps", "1e-12", "--max-iter", "2"])
        out = capsys.readouterr().out
        assert code == EXIT_NOT_CONVERGED
        assert "converged   : no" in out
        code = main(["capacity", str(CHANNELS / "z_channel.json"), "--format", "json",
                     "--eps", "1e-12", "--max-iter", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_NOT_CONVERGED
        assert (payload["converged"], payload["stop_reason"]) == (False, "max_iters")

    def test_support_boundary_channel_json(self, tmp_path, capsys):
        # the support rule follows the weights, so a positive weight's
        # letter has a finite divergence: one update certifies C
        path = tmp_path / "support_boundary.json"
        path.write_text(json.dumps(SUPPORT_BOUNDARY))
        code = main(["capacity", str(path), "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert (payload["converged"], payload["iterations"], payload["stop_reason"]) == \
            (True, 1, "gap")
        assert payload["lower_nats"] <= 5.51819e-11 <= payload["upper_nats"]

    def test_stop_reason_in_text_mode(self, tmp_path, capsys):
        boundary = tmp_path / "support_boundary.json"
        boundary.write_text(json.dumps(SUPPORT_BOUNDARY))
        z = str(CHANNELS / "z_channel.json")
        for argv, code, reason in (
                ([z], EXIT_OK, "gap"),
                ([z, "--eps", "1e-12", "--max-iter", "2"], EXIT_NOT_CONVERGED, "max_iters"),
                ([str(boundary)], EXIT_OK, "gap")):
            assert main(["capacity"] + argv) == code
            assert f"\nstop reason : {reason}\n" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        code = main(["capacity", "no_such_file.json"])
        assert code == EXIT_INPUT
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["capacity", str(bad)]) == EXIT_INPUT
        assert "malformed JSON" in capsys.readouterr().err
        bad.write_bytes(bytes(range(256)))  # not UTF-8 from byte 0x80 on
        assert main(["capacity", str(bad)]) == EXIT_INPUT
        assert "malformed JSON" in capsys.readouterr().err

    def test_integer_too_large_for_float(self, tmp_path, capsys):
        path = tmp_path / "huge_entry.json"
        path.write_text('{"dim": 2, "states": [[[[1' + "0" * 400 + ', 0], [0, 0]], '
                        '[[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]}')
        assert main(["capacity", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: states[0] must be a 2x2 array of [re, im] pairs")

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "long_dim.json"
        path.write_text('{"dim": ' + "1" * 5000 + ', "states": []}')
        assert main(["capacity", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: malformed JSON")

    def test_nesting_too_deep(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"dim": 2, "states": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["capacity", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: malformed JSON")

    def test_invalid_state_reports_index_and_defect(self, tmp_path, capsys):
        ket0 = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
        for defect, bad in (
                ("trace", [[[0.9, 0], [0, 0]], [[0, 0], [0.3, 0]]]),
                ("non-finite", [[[math.nan, 0], [0, 0]], [[0, 0], [1, 0]]]),
                ("Hermitian", [[[0.5, 0], [0.3, 0]], [[0.1, 0], [0.5, 0]]]),
                ("diagonal", [[[0.5, 1e-6], [0, 0]], [[0, 0], [0.5, 0]]]),
                ("semidefinite", [[[1.2, 0], [0, 0]], [[0, 0], [-0.2, 0]]]),
                ("semidefinite", [[[0.5, 0], [1e308, 0]], [[1e308, 0], [0.5, 0]]]),
                ("Hermitian", [[[0.5, 0], [1e308, 0]], [[-1e308, 0], [0.5, 0]]])):
            path = tmp_path / "bad_state.json"
            path.write_text(json.dumps({"dim": 2, "states": [ket0, bad]}))
            with warnings.catch_warnings():
                # entries near 1e308 overflow inside validation; numpy must not
                # print its warnings ahead of the error line
                warnings.simplefilter("error")
                assert main(["capacity", str(path)]) == EXIT_INPUT
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "states[1]" in err
            assert defect in err

    def test_wrong_shape_rejected(self, tmp_path, capsys):
        ket0 = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
        # a missing [re, im] level, then a string, an object and a ragged
        # entry, then a numeric string and a boolean, which a float cast reads
        for idx, states in ((0, [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]),
                            (1, [ket0, [[[0, 0], [0, 0]], [[0, 0], "a"]]]),
                            (1, [ket0, [[[0, 0], {"a": 1}], [[0, 0], [1, 0]]]]),
                            (1, [ket0, [[[0, 0], [0]], [[0, 0], [1, 0]]]]),
                            (1, [ket0, [[[0, 0], [0, 0]], [[0, 0], ["1", 0]]]]),
                            (1, [ket0, [[[0, 0], [0, 0]], [[0, 0], [True, 0]]]])):
            path = tmp_path / "bad_shape.json"
            path.write_text(json.dumps({"dim": 2, "states": states}))
            assert main(["capacity", str(path)]) == EXIT_INPUT
            err = capsys.readouterr().err
            assert "re, im" in err
            assert f"states[{idx}]" in err

    @pytest.mark.parametrize("flags", [["--max-iter", "0"], ["--eps", "0"],
                                       ["--eps", "nan"], ["--eps", "inf"]])
    def test_bad_solver_config_rejected(self, flags, capsys):
        code = main(["capacity", str(CHANNELS / "z_channel.json")] + flags)
        assert code == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_loader_checks_the_document_and_channel_the_minimums(self, tmp_path, capsys):
        # the loader checks what building the stack needs; CqChannel refuses
        # fewer than 2 letters or an output dimension below 2
        ket0 = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
        form = 'channel file must be {"dim": m, "states": [...]}'
        for doc, message in (
                ([ket0, ket0], form),
                ({"dim": 2}, form),
                ({"dim": "2", "states": [ket0, ket0]},
                 "\"dim\" must be a positive integer, got '2'"),
                ({"dim": 2, "states": []}, '"states" must be a non-empty list'),
                ({"dim": 1, "states": [[[[1, 0]]], [[[1, 0]]]]},
                 "invalid channel: need output dimension >= 2, got 1"),
                ({"dim": 2, "states": [ket0]},
                 "invalid channel: need at least 2 input letters, got 1")):
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            assert main(["capacity", str(path)]) == EXIT_INPUT
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_loader_roundtrip(self):
        ch = load_channel_file(CHANNELS / "z_channel.json")
        assert ch.input_size == 2
        assert ch.output_dim == 2

    def test_loader_keeps_every_double(self, tmp_path):
        rng = np.random.default_rng(5)
        states = np.stack([random_density_matrix(8, rng) for _ in range(8)])
        states[3, 2, 2] = complex(states[3, 2, 2].real, -0.0)
        pairs = np.stack([states.real, states.imag], axis=-1)
        path = tmp_path / "dense.json"
        path.write_text(json.dumps({"dim": 8, "states": pairs.tolist()}))
        ch = load_channel_file(path)
        assert ch.states.real.tobytes() == states.real.tobytes()
        assert ch.states.imag.tobytes() == states.imag.tobytes()


class TestApprox:
    def test_symmetric(self, capsys):
        code = main(["approx", "--lambda1", "0.8", "--lambda2", "0.8",
                     "--theta", "1.0"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "p_hat       : 0.500000 0.500000" in out
        assert "gap         : 0.000000 bits" in out

    def test_z_channel_approximation(self, capsys):
        code = main(["approx", "--lambda1", "1", "--lambda2", "0.5",
                     "--theta", "0"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "p_hat       : 0.600000 0.400000" in out

    def test_moderate_angle_gap_is_small(self, capsys):
        code = main(["approx", "--lambda1", "0.9", "--lambda2", "0.7",
                     "--theta", "1.57"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        gap_line = next(line for line in out.splitlines() if "gap" in line)
        gap = float(gap_line.split(":")[1].split()[0])
        assert 0.0 <= gap <= 3e-4

    def test_gap_is_never_negative(self, capsys):
        # at theta = 0 float64 chi at exact_p1 and at p_hat agree to roundoff
        # and read in either order; chi_exact is the larger reading, so the
        # gap does not print as -0.000000
        rng = np.random.default_rng(5)
        for lam1, lam2 in rng.uniform(0.5, 1.0, (40, 2)).tolist():
            assert main(["approx", "--lambda1", repr(lam1), "--lambda2", repr(lam2),
                         "--theta", "0"]) == EXIT_OK
            out = capsys.readouterr().out
            assert "gap         : 0.000000 bits" in out, (lam1, lam2)

    def test_out_of_range_arguments(self, capsys):
        assert main(["approx", "--lambda1", "0.2", "--lambda2", "0.8",
                     "--theta", "1.0"]) == EXIT_INPUT
        assert "lambda1" in capsys.readouterr().err


class TestSweep:
    def test_writes_both_tables_and_summary(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--lambda-step", "0.2", "--theta-step", "1.5",
                     "--ref-eps", "1e-5",
                     "--out", str(out)])
        text = capsys.readouterr().out
        assert code == EXIT_OK
        assert "max error" in text
        assert "\nflagged     : 0\n" in text
        assert re.search(r"^iterations  : \d+ total, \d+ max per reference solve$", text,
                         re.MULTILINE)
        assert out.exists()
        ranges = tmp_path / "sweep_ranges.csv"
        assert ranges.exists()
        assert out.read_text().splitlines()[0] == "lambda1,lambda2,error_bits"
        assert ranges.read_text().splitlines()[0] == "R,max_error_bits"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["sweep", "--lambda-step", "0.2", "--theta-step", "1.5",
                "--ref-eps", "1e-5"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == EXIT_OK
        assert main(args + ["--out", str(second)]) == EXIT_OK
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_bad_grid_rejected(self, capsys):
        assert main(["sweep", "--lambda-step", "0"]) == EXIT_INPUT
        capsys.readouterr()
        for flags in (["--lambda-step", "nan"], ["--theta-step", "inf"],
                      ["--ref-eps", "nan"]):
            assert main(["sweep"] + flags) == EXIT_INPUT
            assert "error:" in capsys.readouterr().err
        # a subnormal step overflows the axis length to inf
        for field in ("lambda_step", "theta_step"):
            flag = "--" + field.replace("_", "-")
            assert main(["sweep", flag, "1e-320"]) == EXIT_INPUT
            assert f"error: {field}" in capsys.readouterr().err
            # a finite step can still ask for far too many solves
            assert main(["sweep", flag, "1e-300"]) == EXIT_INPUT
            err = capsys.readouterr().err
            assert err.startswith("error: lambda_step") and f"{field} 1e-300" in err


def test_unwritable_output_fails_before_any_solve(tmp_path, monkeypatch, capsys):
    import cqcap.bench
    import cqcap.bloch
    calls = []
    for module, name in ((cqcap.bloch, "_solve_stacked"), (cqcap.bench, "_solve_stacked")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, module=module, **k:
                            calls.append(module.__name__) or real(*a, **k))
    missing = str(tmp_path / "missing" / "out.csv")
    sweep = ["sweep", "--lambda-step", "0.2", "--theta-step", "1.5",
             "--ref-eps", "1e-5"]
    bench = ["bench", "--n", "2", "--m", "2", "--acc", "1e-2", "--trials", "2"]
    # the patches see the solves of a valid sweep and bench
    assert main(sweep + ["--out", str(tmp_path / "first.csv")]) == EXIT_OK
    assert main(bench) == EXIT_OK
    assert sorted(set(calls)) == ["cqcap.bench", "cqcap.bloch"]
    calls.clear()
    capsys.readouterr()
    for argv in (sweep + ["--out", missing],
                 sweep + ["--out", ""], sweep + ["--out", "."], sweep + ["--out", "/"],
                 sweep + ["--out", str(tmp_path / "ok.csv"), "--range-out", missing],
                 sweep + ["--out", str(tmp_path / "ok.csv"), "--range-out", ""],
                 bench + ["--out", missing], bench + ["--out", ""]):
        assert main(argv) == EXIT_INPUT
        assert "error: cannot write output" in capsys.readouterr().err
    assert calls == []


def test_same_sweep_outputs_fail_before_any_solve(tmp_path, monkeypatch, capsys):
    import cqcap.bloch
    calls = []
    real = cqcap.bloch._solve_stacked
    monkeypatch.setattr(cqcap.bloch, "_solve_stacked",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    monkeypatch.chdir(tmp_path)
    sweep = ["sweep", "--lambda-step", "0.2", "--theta-step", "1.5",
             "--ref-eps", "1e-5"]
    assert main(sweep) == EXIT_OK and calls   # the patch sees a valid sweep's solves
    calls.clear()
    capsys.readouterr()
    for out, range_out in (("same.csv", "same.csv"), ("same.csv", "./same.csv"),
                           (str(tmp_path / "same.csv"), "same.csv")):
        assert main(sweep + ["--out", out, "--range-out", range_out]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error: --out and --range-out" in err
    assert calls == []
    assert not (tmp_path / "same.csv").exists()


class TestBench:
    def test_small_run_with_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--n", "2", "--m", "2", "--acc", "1e-2",
                     "--trials", "3", "--seed", "42", "--out", str(out)])
        text = capsys.readouterr().out
        assert code == EXIT_OK
        assert "input n" in text
        assert "iteration budget ln(n)/accuracy respected: yes" in text
        assert out.read_text().startswith(
            "n,m,accuracy,avg_iterations,max_iterations,trials_failed")

    def test_deterministic_output(self, capsys):
        args = ["bench", "--n", "2", "--m", "2,3", "--acc", "1e-2",
                "--trials", "2", "--seed", "7"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_failed_trials_exit_two(self, monkeypatch, capsys):
        # no real trial fails inside its budget, so the run reports one
        monkeypatch.setattr(cqcap.cli, "run_bench",
                            lambda spec: [BenchResult(2, 2, 1e-2, 3.0, 4, 1)])
        code = main(["bench", "--n", "2", "--m", "2", "--acc", "1e-2", "--trials", "2"])
        assert code == EXIT_NOT_CONVERGED
        assert capsys.readouterr().err == "1 trial(s) did not converge\n"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_write_failure_after_the_run_exits_one(self, capsys):
        # /dev/full opens, so the pre-open check passes; the write then fails
        code = main(["bench", "--n", "2", "--m", "2", "--acc", "1e-2", "--trials", "1",
                     "--out", "/dev/full"])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == \
            "error: cannot write output: [Errno 28] No space left on device\n"

    def test_bad_list_rejected(self, capsys):
        assert main(["bench", "--n", "two", "--m", "2", "--acc", "1e-3"]) \
            == EXIT_INPUT
        assert "integer list" in capsys.readouterr().err
        for field, flags in (
                ("input_sizes", ["--n", ",", "--m", "2", "--acc", "1e-3"]),
                ("input_sizes", ["--n", "2,2", "--m", "2", "--acc", "1e-3"]),
                ("output_dims", ["--n", "2", "--m", "3,3", "--acc", "1e-3"]),
                ("accuracies", ["--n", "2", "--m", "2", "--acc", "1e-3,0.001"]),
                ("seed", ["--n", "2", "--m", "2", "--acc", "1e-3", "--seed", "-1"]),
                # below GAP_TOL_FLOOR; ln(2)/1e-320 would also overflow the budget
                ("accuracies", ["--n", "2", "--m", "2", "--acc", "1e-320"])):
            assert main(["bench", "--trials", "2"] + flags) == EXIT_INPUT
            assert f"error: {field}" in capsys.readouterr().err


@pytest.mark.parametrize("name, argv", [
    ("accuracies", ["bench", "--n", "2", "--m", "2", "--acc", "1e-17", "--trials", "1"]),
    ("gap_tol", ["capacity", str(CHANNELS / "z_channel.json"), "--eps", "1e-17"]),
    ("reference_gap_tol", ["sweep", "--ref-eps", "1e-17"])],
    ids=["bench", "capacity", "sweep"])
def test_gap_below_the_float64_floor_exits_one(name, argv, tmp_path, capsys):
    # below GAP_TOL_FLOOR the float64 bounds stop closing; `bench` at 1e-17
    # would otherwise run its 6.9e16-iteration budget
    out = ["--out", str(tmp_path / "out.csv")] if argv[0] == "sweep" else []
    assert main(argv + out) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(
        f"error: {name} must be at least GAP_TOL_FLOOR = 1e-13 nats")
    assert list(tmp_path.iterdir()) == []


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_INPUT


def test_one_parser_serves_every_request(tmp_path, monkeypatch, capsys):
    # main reuses one parser per process: each call's output must equal the
    # output of a parser built for that call alone, so no flag, default or
    # failed parse carries over from one request to the next
    import cqcap.cli
    z = str(CHANNELS / "z_channel.json")
    calls = [["capacity", z, "--history", "--format", "json"],
             ["capacity", z, "--format", "json"],
             ["sweep", "--lambda-step", "0.25", "--theta-step", "1.5", "--ref-eps", "1e-4",
              "--out", str(tmp_path / "sweep.csv")],
             ["bench", "--n", "2", "--m", "2", "--acc", "1e-2", "--trials", "2",
              "--out", str(tmp_path / "bench.csv")],
             ["bench", "--n", "2", "--m", "2", "--acc", "1e-2", "--trials", "2"],
             ["capacity", z, "--format", "yaml"],
             ["capacity", z]]

    def run_all():
        runs = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            files = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
            runs.append((code, out, err, files))
        return runs

    reused = run_all()
    monkeypatch.setattr(cqcap.cli, "_parser", cqcap.cli.build_parser)
    for path in tmp_path.iterdir():
        path.unlink()
    assert reused == run_all()
    assert [code for code, *_ in reused] == [EXIT_OK] * 5 + [EXIT_INPUT, EXIT_OK]
    assert "history" in json.loads(reused[0][1])
    assert "history" not in json.loads(reused[1][1])
    assert "wrote" not in reused[4][1]


def test_importing_the_cli_leaves_mpmath_unloaded():
    # only the oracle (exact_p1) and approx_p1's near-equal branch import mpmath
    src = str(Path(cqcap.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, cqcap.cli; print('mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"
