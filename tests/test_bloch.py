import math
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import cqcap.bloch
from cqcap.bloch import (MAX_SWEEP_SOLVES, BinaryBlochChannel, GradientBoundaryError,
                         SweepGrid, approx_p1, binary_entropy, error_sweep,
                         exact_p1, holevo_bloch, holevo_bloch_gradient,
                         max_error_by_range, realize_channel)
from cqcap.cli import main
from cqcap.qinfo import _channel_states, holevo_information
from cqcap.solver import SolverConfig, _reports, _solve_stacked, solve

LN2 = math.log(2.0)


def s2_oracle(x):
    # scalar binary entropy in high precision
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        if x <= 0 or x >= 1:
            return 0.0
        return float(-(x * mpmath.log(x, 2) + (1 - x) * mpmath.log(1 - x, 2)))


class TestRealizeChannel:
    def test_orthogonal_pure_endpoints(self):
        ch = realize_channel(BinaryBlochChannel(1.0, 1.0, math.pi))
        assert np.allclose(ch.states[0], np.diag([1.0, 0.0]), atol=1e-15)
        assert np.allclose(ch.states[1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_theta_zero_is_diagonal(self):
        ch = realize_channel(BinaryBlochChannel(0.8, 0.7, 0.0))
        assert np.allclose(ch.states[0], np.diag([0.8, 0.2]))
        assert np.allclose(ch.states[1], np.diag([0.7, 0.3]))

    def test_fully_mixed(self):
        ch = realize_channel(BinaryBlochChannel(0.5, 0.5, 1.3))
        assert np.allclose(ch.states[0], np.eye(2) / 2)
        assert np.allclose(ch.states[1], np.eye(2) / 2)

    def test_spectra(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            lam1, lam2 = rng.uniform(0.5, 1.0, 2)
            theta = rng.uniform(0.0, math.pi)
            ch = realize_channel(BinaryBlochChannel(lam1, lam2, theta))
            w1 = np.linalg.eigvalsh(ch.states[0])
            w2 = np.linalg.eigvalsh(ch.states[1])
            assert np.allclose(w1, [1 - lam1, lam1], atol=1e-12)
            assert np.allclose(w2, [1 - lam2, lam2], atol=1e-12)

    def test_states_broadcast_bit_for_bit(self):
        # a 2-D grid of (lambda1, lambda2, theta), edges included, against the
        # stacked scalar calls and realize_channel
        rng = np.random.default_rng(16)
        lam1, lam2 = rng.uniform(0.5, 1.0, (2, 3, 4))
        theta = rng.uniform(0.0, math.pi, (3, 4))
        lam1[0, :2], lam2[0, :2], theta[0, :2] = (1.0, 0.5), (0.5, 1.0), (math.pi, 0.0)
        states = cqcap.bloch._bloch_states(lam1, lam2, theta)
        assert states.shape == (3, 4, 2, 2, 2) and states.dtype == np.complex128
        for idx in np.ndindex(3, 4):
            args = float(lam1[idx]), float(lam2[idx]), float(theta[idx])
            one = cqcap.bloch._bloch_states(*args)
            assert one.shape == (2, 2, 2)
            assert states[idx].tobytes() == one.tobytes()
            assert realize_channel(BinaryBlochChannel(*args)).states.tobytes() \
                == one.tobytes()
        # numbers broadcast against an array
        row = cqcap.bloch._bloch_states(0.7, lam2[1], theta[1])
        assert row.tobytes() == cqcap.bloch._bloch_states(
            np.full(4, 0.7), lam2[1], theta[1]).tobytes()

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            BinaryBlochChannel(0.4, 0.8, 1.0)
        with pytest.raises(ValueError):
            BinaryBlochChannel(0.8, 1.1, 1.0)
        with pytest.raises(ValueError):
            BinaryBlochChannel(0.8, 0.8, -0.1)
        # True would otherwise pass as 1; a string or None is refused by name
        for field in ("lambda1", "lambda2", "theta"):
            for bad in (True, np.True_, "0.9", None):
                args = {"lambda1": 0.8, "lambda2": 0.8, "theta": 1.0, field: bad}
                with pytest.raises(ValueError, match=rf"^{field} must be in .*, got "):
                    BinaryBlochChannel(**args)


class TestHolevoFormula:
    def test_degenerate_weights_vanish(self):
        ch = BinaryBlochChannel(0.77, 0.91, 0.4)
        assert holevo_bloch(ch, 0.0) == 0.0
        assert holevo_bloch(ch, 1.0) == 0.0

    def test_orthogonal_pure_bit(self):
        assert holevo_bloch(BinaryBlochChannel(1.0, 1.0, math.pi), 0.5) \
            == pytest.approx(1.0, abs=1e-15)

    def test_antipodal_equal_radii(self):
        # mixture lands at the origin, so chi = 1 - S(0.9)
        got = holevo_bloch(BinaryBlochChannel(0.9, 0.9, math.pi), 0.5)
        expected = 1.0 - s2_oracle(0.9)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.531004, abs=1e-6)
        quantum = holevo_information(
            np.array([0.5, 0.5]),
            realize_channel(BinaryBlochChannel(0.9, 0.9, math.pi))) / LN2
        assert got == pytest.approx(quantum, abs=1e-10)

    def test_array_form_matches_scalar_calls_bit_for_bit(self):
        # error_sweep scores its rows with the array form; holevo_bloch is its
        # scalar case, so the two agree exactly
        rng = np.random.default_rng(17)
        lam1, lam2 = rng.uniform(0.5, 1.0, (2, 5, 6))
        p1 = rng.uniform(0.0, 1.0, (5, 6))
        theta = rng.uniform(0.0, math.pi, (5, 6))
        lam1[0, :3], lam2[0, :3] = (1.0, 0.5, 0.8), (1.0, 0.5, 0.8)
        theta[0, :3], p1[0, :3] = (math.pi, 1.1, 0.0), (0.5, 0.0, 1.0)
        chi = cqcap.bloch._holevo_bits(lam1, lam2, theta, p1)
        assert chi.shape == (5, 6)
        for idx in np.ndindex(5, 6):
            ch = BinaryBlochChannel(float(lam1[idx]), float(lam2[idx]), float(theta[idx]))
            one = holevo_bloch(ch, float(p1[idx]))
            assert type(one) is float
            assert np.float64(one).tobytes() == chi[idx].tobytes()
        # booleans, strings and lists are refused, not read as 0, 1 or numbers
        for bad in (p1 + 1.0, np.where(p1 > 0.5, math.nan, p1), p1 > 0.5, p1.astype(str),
                    True, np.True_, "0.4", None, [0.3]):
            for form in (cqcap.bloch._holevo_bits,
                         lambda *a: cqcap.bloch._gradient_in_p1(*a[:3])(a[3])):
                with pytest.raises(ValueError, match="^p1 must be in"):
                    form(lam1, lam2, theta, bad)

    def test_scalar_forms_refuse_arrays(self):
        # holevo_bloch and its gradient return floats, so p1 is a real number:
        # an array is refused by name, 0-d too, not left to NumPy's TypeError
        ch = BinaryBlochChannel(0.8, 0.9, 0.4)
        for bad in (np.array([0.4]), np.array(0.4), np.array([[0.4]])):
            for form in (holevo_bloch, holevo_bloch_gradient):
                with pytest.raises(ValueError, match=r"^p1 must be in \[0, 1\], got array"):
                    form(ch, bad)
        assert holevo_bloch(ch, np.float64(0.4)) == holevo_bloch(ch, 0.4)

    def test_matches_ensemble_computation(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            lam1, lam2 = rng.uniform(0.5, 1.0, 2)
            theta = rng.uniform(0.0, math.pi)
            p1 = float(rng.uniform())
            ch = BinaryBlochChannel(lam1, lam2, theta)
            lhs = holevo_bloch(ch, p1) * LN2
            rhs = holevo_information(np.array([p1, 1 - p1]), realize_channel(ch))
            assert abs(lhs - rhs) <= 1e-10

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            ch = BinaryBlochChannel(*rng.uniform(0.5, 1.0, 2),
                                    rng.uniform(0.0, math.pi))
            v = holevo_bloch(ch, float(rng.uniform()))
            assert -1e-12 <= v <= 1.0 + 1e-12

    def test_concave_in_p1(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            ch = BinaryBlochChannel(*rng.uniform(0.5, 1.0, 2),
                                    rng.uniform(0.0, math.pi))
            a, b = rng.uniform(0.0, 1.0, 2)
            alpha = float(rng.uniform())
            mix = alpha * a + (1 - alpha) * b
            assert holevo_bloch(ch, mix) >= \
                alpha * holevo_bloch(ch, a) \
                + (1 - alpha) * holevo_bloch(ch, b) - 1e-10


class TestGradient:
    def test_symmetric_channel_stationary_at_half(self):
        for theta in (0.0, 0.7, math.pi):
            assert holevo_bloch_gradient(BinaryBlochChannel(0.8, 0.8, theta), 0.5) \
                == pytest.approx(0.0, abs=1e-13)

    def test_z_channel_optimum_is_stationary(self):
        got = holevo_bloch_gradient(BinaryBlochChannel(1.0, 0.5, 0.0), 0.6)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_positive_below_maximizer(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            ch = BinaryBlochChannel(*rng.uniform(0.6, 0.95, 2),
                                    rng.uniform(0.0, math.pi))
            p_star = exact_p1(ch)
            if p_star > 0.06:
                assert holevo_bloch_gradient(ch, p_star - 0.05) > 0.0

    def test_matches_central_differences(self):
        rng = np.random.default_rng(15)
        h = 1e-6
        for _ in range(50):
            ch = BinaryBlochChannel(*rng.uniform(0.51, 0.99, 2),
                                    rng.uniform(0.0, math.pi))
            p1 = float(rng.uniform(0.02, 0.98))
            fd = (holevo_bloch(ch, p1 + h) - holevo_bloch(ch, p1 - h)) / (2 * h)
            an = holevo_bloch_gradient(ch, p1)
            scale = max(abs(an), abs(fd), 1e-2)
            assert abs(an - fd) / scale <= 1e-6

    def test_pure_boundary_raises(self):
        with pytest.raises(GradientBoundaryError):
            holevo_bloch_gradient(BinaryBlochChannel(1.0, 0.5, 0.3), 1.0)

    def test_identical_pure_states_flat(self):
        # chi is identically zero, so the boundary is not singular here
        assert holevo_bloch_gradient(BinaryBlochChannel(1.0, 1.0, 0.0), 0.5) == 0.0


class TestApproxP1:
    def test_equal_radii_branch(self):
        assert approx_p1(0.8, 0.8) == 0.5
        assert approx_p1(1.0, 1.0) == 0.5

    def test_noiseless_vs_mixed(self):
        assert approx_p1(1.0, 0.5) == pytest.approx(0.6, abs=1e-12)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(44)
        for _ in range(500):
            lam1, lam2 = rng.uniform(0.5, 1.0, 2)
            assert 0.0 <= approx_p1(lam1, lam2) <= 1.0

    def test_nearly_equal_lambdas_match_the_theta_zero_optimum(self):
        # float64 cancels as the lambdas meet: 1.0 at (0.6, 0.600000001) and
        # 0.5 at (1.0, 0.999999999999), where the optimum is 1 - 1/e
        for lam in (0.5, 0.55, 0.75, 0.95, 1.0):
            # one ulp to either side, then fixed offsets
            others = [float(np.nextafter(lam, 0.0)), float(np.nextafter(lam, 2.0))]
            for offset in (1e-14, 1e-12, 1e-9, 1e-6, 1e-4):
                others += [lam - offset, lam + offset]
            for other in others:
                if 0.5 <= other <= 1.0:
                    exact = exact_p1(BinaryBlochChannel(lam, other, 0.0))
                    assert abs(approx_p1(lam, other) - exact) <= 1e-8, (lam, other)
            # the ulp-apart pairs are proven off theta = 0 too: cos(1e-300)
            # rounds to 1 at 60 digits, and at pi the symmetric limit is 1/2
            for other in others[:2]:
                if 0.5 <= other <= 1.0:
                    assert exact_p1(BinaryBlochChannel(lam, other, 1e-300)) \
                        == exact_p1(BinaryBlochChannel(lam, other, 0.0)), (lam, other)
                    assert abs(exact_p1(BinaryBlochChannel(lam, other, math.pi)) - 0.5) \
                        <= 1e-9, (lam, other)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            approx_p1(0.4, 0.8)
        with pytest.raises(ValueError):
            approx_p1(0.8, 1.2)

    def test_arrays_equal_the_scalar_calls(self, monkeypatch):
        # equal lambdas, a pair in the near-equal mpmath branch, the endpoints
        # 0.5 and 1.0 and ordinary pairs, in a (2, 4) array and broadcast
        lam1 = np.array([[0.8, 0.5, 1.0, 0.7 + 1e-9], [0.6, 0.93, 0.5, 1.0]])
        lam2 = np.array([[0.8, 0.5, 1.0, 0.7], [0.95, 0.61, 1.0, 0.5]])
        calls = []
        real = cqcap.bloch._approx_p1_mp
        monkeypatch.setattr(cqcap.bloch, "_approx_p1_mp",
                            lambda *args: calls.append(args) or real(*args))
        got = approx_p1(lam1, lam2)
        assert calls == [(0.7 + 1e-9, 0.7)]   # only the entry that needs it
        want = [[approx_p1(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(lam1.tolist(), lam2.tolist())]
        assert type(want[0][0]) is float
        assert got.shape == (2, 4) and got.tobytes() == np.array(want).tobytes()
        assert approx_p1(0.8, lam2).tobytes() == \
            np.array([[approx_p1(0.8, b) for b in row] for row in lam2.tolist()]).tobytes()
        # real numbers count as their floats; an object array of them is refused
        assert approx_p1(Fraction(9, 10), 0.7) == approx_p1(0.9, 0.7)
        assert approx_p1(mpmath.mpf(0.9), 0.7) == approx_p1(0.9, 0.7)
        mixed = np.array([[Fraction(4, 5), mpmath.mpf(0.5), 1, 0.7 + 1e-9],
                          [0.6, Fraction(93, 100), mpmath.mpf(0.5), 1.0]], dtype=object)
        with pytest.raises(ValueError, match="^lambda1 must be a real number or"):
            approx_p1(mixed, lam2)
        # a lambda out of range or NaN raises what the first such call raises;
        # a boolean, string or object lambda is refused by the same name
        for bad1, bad2 in (([0.8, 0.4], [0.7, 0.9]), ([0.8, 0.9], [0.7, 1.2]),
                           ([0.8, math.nan], [0.7, 0.7]), ([0.6, 0.3], [1.5, 0.7])):
            with pytest.raises(ValueError) as scalar:
                for a, b in zip(bad1, bad2):
                    approx_p1(a, b)
            with pytest.raises(ValueError) as array:
                approx_p1(np.array(bad1), np.array(bad2))
            assert str(array.value) == str(scalar.value)
        for bad1, bad2 in ((["0.9", "0.8"], [0.7, 0.9]), ([0.8, 0.9], [True, False]),
                           (np.array([0.8, True], dtype=object), [0.7, 0.9]),
                           (np.array([0.8, "0.9"], dtype=object), [0.7, 0.9]),
                           ([Fraction(4, 5), Fraction(2, 5)], [0.7, 0.9])):
            with pytest.raises(ValueError) as scalar:
                for a, b in zip(bad1, bad2):
                    approx_p1(a, b)
            with pytest.raises(ValueError) as array:
                approx_p1(np.array(bad1), np.array(bad2))
            assert str(array.value).split()[0] == str(scalar.value).split()[0]


# approx_p1 and binary_entropy read their arguments by one rule
REAL = (0.9, 1, np.int64(1), np.float32(0.9), np.longdouble(0.9), Fraction(9, 10),
        mpmath.mpf(0.9), [0.9, 1], np.array([0.9, 1.0]), np.array([1, 1]))
NOT_REAL = (np.array([Fraction(9, 10)], dtype=object), np.array([mpmath.mpf(0.9)], dtype=object),
            np.array([True]), np.array(["0.9"]), [True], ["0.9"], "0.9", True, np.True_, None,
            0.9 + 0j, np.complex128(0.9), np.array([0.9 + 0j]))


@pytest.mark.parametrize("value, real", [(v, True) for v in REAL] + [(v, False) for v in NOT_REAL],
                         ids=repr)
def test_closed_form_reads_its_arguments_by_one_rule(value, real):
    if real:   # as its floats, bit for bit
        as_float = np.asarray(value, dtype=float)
        assert np.asarray(binary_entropy(value)).tobytes() == \
            np.asarray(binary_entropy(as_float)).tobytes()
        assert np.asarray(approx_p1(value, 0.7)).tobytes() == \
            np.asarray(approx_p1(as_float, 0.7)).tobytes()
        return
    with pytest.raises(ValueError, match="^x must be a real number or an integer or float array"):
        binary_entropy(value)
    for name, args in (("lambda1", (value, 0.7)), ("lambda2", (0.7, value))):
        with pytest.raises(ValueError,
                           match=f"^{name} must be a real number or an integer or float array"):
            approx_p1(*args)


def test_closed_form_past_the_float_range():
    # an int beyond the float range is +/-inf by the rule: beyond the ends of
    # binary_entropy, outside approx_p1's domain, which names the value as given
    assert binary_entropy(10**400) == 0.0 and binary_entropy(-10**400) == 0.0
    for value in (10**400, -10**400, Fraction(2, 5)):
        with pytest.raises(ValueError, match=rf"^lambda1 must be in \[0.5, 1\], "
                                             rf"got {re.escape(repr(value))}$"):
            approx_p1(value, 0.7)


class TestExactP1:
    def test_symmetric(self):
        # equal lambdas make chi symmetric about 1/2, flat at theta = 0
        for ch in ((0.85, 0.85, 1.1), (0.8, 0.8, 0.0), (0.5, 0.5, 0.0), (1.0, 1.0, 0.0)):
            assert exact_p1(BinaryBlochChannel(*ch)) == 0.5, ch

    def test_z_channel(self):
        assert exact_p1(BinaryBlochChannel(1.0, 0.5, 0.0)) \
            == pytest.approx(0.6, abs=1e-9)
        # real numbers other than floats count as their floats
        assert exact_p1(BinaryBlochChannel(Fraction(1), Fraction(1, 2), 0)) \
            == exact_p1(BinaryBlochChannel(1.0, 0.5, 0.0))

    def test_an_unproven_bracket_raises(self, monkeypatch):
        # too few digits to separate the interval values of chi at p and at
        # p -/+ 1e-12, about |chi''| 5e-25 apart: a float64-scale curvature
        # at 15 digits, lambdas 1 ulp apart (|chi''| near 1e-32) at 40
        dps = mpmath.iv.dps
        for digits, ch in ((15, (0.9, 0.7, 1.0)), (40, (0.75, 0.7500000000000001, 0.0))):
            monkeypatch.setattr(cqcap.bloch, "_EXACT_P1_DPS", digits)
            with pytest.raises(ArithmeticError, match="not proven"):
                exact_p1(BinaryBlochChannel(*ch))
            assert mpmath.iv.dps == dps

    def test_maximizer_dominates_approximation(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            ch = BinaryBlochChannel(*rng.uniform(0.5, 1.0, 2),
                                    rng.uniform(0.0, math.pi))
            p_best = exact_p1(ch)
            p_hat = approx_p1(ch.lambda1, ch.lambda2)
            assert holevo_bloch(ch, p_best) >= holevo_bloch(ch, p_hat) - 1e-12

    def test_matches_closed_form_at_theta_zero(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            lam1, lam2 = rng.uniform(0.5, 0.99, 2)
            ch = BinaryBlochChannel(lam1, lam2, 0.0)
            assert abs(approx_p1(lam1, lam2) - exact_p1(ch)) <= 1e-7


class TestRefinedP1:
    def test_reaches_the_1d_maximizer(self):
        rng = np.random.default_rng(2025)
        chans = [BinaryBlochChannel(*rng.uniform(0.5, 1.0, 2), rng.uniform(0.0, math.pi))
                 for _ in range(40)]
        l1, l2, theta = (np.array([getattr(ch, f) for ch in chans])
                         for f in ("lambda1", "lambda2", "theta"))
        got = cqcap.bloch._refined_p1(l1, l2, theta, approx_p1(l1, l2))
        assert got.shape == (40,)
        for ch, p1 in zip(chans, got.tolist()):
            assert abs(p1 - exact_p1(ch)) <= 1e-9

    def test_degenerate_rows_stay_finite_and_inside(self):
        # equal lambdas (every p1 optimal at theta = 0), two fully mixed
        # states, identical pure states (chi = 0, gradient 0) and orthogonal
        # pure states
        l1 = np.array([0.8, 0.8, 0.5, 1.0, 1.0, 1.0, 0.5])
        l2 = np.array([0.8, 0.8, 0.5, 1.0, 1.0, 0.7, 1.0])
        theta = np.array([0.0, 1.3, 2.0, 0.0, math.pi, math.pi, math.pi])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cqcap.bloch._refined_p1(l1, l2, theta, approx_p1(l1, l2))
        assert np.all(np.isfinite(got)) and np.all((0.0 < got) & (got < 1.0))
        assert got[[0, 1, 2, 3, 4]].tolist() == [0.5] * 5

    def test_theta_zero_keeps_the_closed_form_maximizer(self):
        # where cos theta rounds to 1 approx_p1 is the maximizer, while the
        # secant's float64 gradient cancels as the lambdas meet: lambdas 1e-14
        # to 1e-4 apart around seven bases (12 of them moved by more than
        # 1e-9, (1.0, 1.0 - 1e-14) by 1.3e-3, while the secant stepped there)
        bases = np.array([0.55, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0])
        l1 = np.repeat(bases, 6)
        l2 = l1 - np.tile(10.0 ** np.arange(-14, -3, 2), len(bases))
        p1 = approx_p1(l1, l2)
        for theta in (0.0, 1e-300):
            got = cqcap.bloch._refined_p1(l1, l2, np.full(len(l1), theta), p1)
            assert got.tobytes() == p1.tobytes(), theta

    def test_broadcast_axes_give_the_bytes_of_repeated_rows(self):
        # error_sweep passes (K, 1) lambdas, the (T,) thetas and p1 (K, T);
        # every entry keeps the bits of the call on the repeated rows
        rng = np.random.default_rng(36)
        l1, l2 = rng.uniform(0.5, 1.0, (2, 30, 1))
        l1[:3, 0] = l2[:3, 0]   # equal lambdas, where p1 = 1/2 stays
        thetas = np.array([0.0, 0.4, 1.7, 2.9, math.pi])
        p1 = np.repeat(approx_p1(l1, l2), len(thetas), axis=1)
        got = cqcap.bloch._refined_p1(l1, l2, thetas, p1)
        assert got.shape == (30, 5)
        rows = cqcap.bloch._refined_p1(np.repeat(l1, 5), np.repeat(l2, 5),
                                       np.tile(thetas, 30), p1.ravel())
        assert got.tobytes() == rows.tobytes()


class TestErrorSweep:
    def test_theta_zero_grid_errors_within_reference_gap(self):
        # theta_step > pi collapses the theta grid to {0}, where the
        # approximation is exact and only the solver gap remains
        grid = SweepGrid(lambda_step=0.1, theta_step=4.0, reference_gap_tol=1e-6)
        assert grid.theta_values() == [0.0]
        cells = error_sweep(grid)
        assert all(c.ba_converged for c in cells)
        for c in cells:
            assert c.error_bits <= grid.reference_gap_tol / LN2 + 1e-9

    def test_diagonal_cells_are_exact_by_symmetry(self):
        grid = SweepGrid(lambda_step=0.2, theta_step=math.pi / 4,
                         reference_gap_tol=1e-6)
        for c in error_sweep(grid):
            if c.lambda1 == c.lambda2:
                assert c.error_bits <= grid.reference_gap_tol / LN2 + 1e-9

    def test_warm_start_matches_the_uniform_start_within_the_gap(self, monkeypatch):
        # the acceptance grid; the references start at the refined closed-form
        # input, against the same solves from the uniform distribution
        grid = SweepGrid(lambda_step=0.05, theta_step=math.pi / 10,
                         reference_gap_tol=1e-6)
        warm = error_sweep(grid)
        monkeypatch.setattr(cqcap.bloch, "_solve_stacked",
                            lambda states, entropies, cfg, start:
                            _solve_stacked(states, entropies, cfg))
        uniform = error_sweep(grid)
        assert all(c.ba_converged for c in warm + uniform)
        for w, u in zip(warm, uniform):
            assert (w.lambda1, w.lambda2) == (u.lambda1, u.lambda2)
            assert abs(w.error_bits - u.error_bits) <= grid.reference_gap_tol / LN2
        # uniform start: 123,663 iterations, at most 1076; refined start: one
        # update per row (test_plain_counts_are_unchanged pins the unrefined
        # closed-form start at 27,977 and 177)
        assert sum(c.iterations for c in warm) < sum(c.iterations for c in uniform) / 3
        assert max(c.max_iterations for c in warm) < \
            max(c.max_iterations for c in uniform) / 3
        assert (sum(c.iterations for c in warm), max(c.max_iterations for c in warm)) \
            == (1331, 1)

    def test_mirrored_cells_match_solving_every_row(self, monkeypatch):
        # swapping the lambdas relabels the letters and rotates both states, so
        # the sweep solves only lambda1 <= lambda2 and copies the rest
        grid = SweepGrid(lambda_step=0.1, theta_step=math.pi / 4,
                         reference_gap_tol=1e-6)
        lams, thetas = grid.lambda_values(), grid.theta_values()
        solved = []
        monkeypatch.setattr(cqcap.bloch, "_solve_stacked",
                            lambda states, entropies, cfg, start: solved.append(states)
                            or _solve_stacked(states, entropies, cfg, start))
        cells = error_sweep(grid)
        solved = np.concatenate(solved)
        assert len(solved) == len(lams) * (len(lams) + 1) // 2 * len(thetas)
        assert np.all(solved[:, 0, 0, 0].real
                      <= np.linalg.eigvalsh(solved[:, 1])[:, -1] + 1e-12)
        chans = [BinaryBlochChannel(c.lambda1, c.lambda2, theta)
                 for c in cells for theta in thetas]
        p1 = np.array([approx_p1(ch.lambda1, ch.lambda2) for ch in chans])
        l1, l2, theta = (np.array([getattr(ch, f) for ch in chans])
                         for f in ("lambda1", "lambda2", "theta"))
        w = cqcap.bloch._refined_p1(l1, l2, theta, p1)
        # the oracle validates the states it solves; the sweep does not
        states, entropies = _channel_states(
            np.stack([realize_channel(ch).states for ch in chans]), batch=True)
        reports = _reports(_solve_stacked(states, entropies, SolverConfig(gap_tol=1e-6),
                                          np.stack([w, 1.0 - w], axis=1)))
        for k, cell in enumerate(cells):
            rows = range(k * len(thetas), (k + 1) * len(thetas))
            counts = [reports[i].iterations for i in rows]
            error = max(abs(holevo_bloch(chans[i], p1[i]) - reports[i].lower / LN2)
                        for i in rows)
            assert (cell.iterations, cell.max_iterations, cell.ba_converged) == \
                (sum(counts), max(counts), all(reports[i].converged for i in rows))
            assert abs(cell.error_bits - error) <= 1e-15

    @pytest.mark.parametrize("grid", [SweepGrid(0.05, math.pi / 10, 1e-6), SweepGrid()],
                             ids=["coarse", "paper"])
    def test_closed_form_entropies_match_validation(self, grid, monkeypatch):
        # the sweep hands the states it builds and their closed-form entropies
        # to the solver loop unvalidated; validation accepts those states
        # unchanged, and its entropies agree: bit for bit for the diagonal
        # state 1, within 2e-15 nats for the tilted state 2 (1.3e-15 coarse,
        # 1.5e-15 paper measured)
        passed = []
        monkeypatch.setattr(cqcap.bloch, "_solve_stacked",
                            lambda states, entropies, cfg, start: passed.append(
                                (states, entropies)) or _solve_stacked(states, entropies,
                                                                       cfg, start))
        cells = error_sweep(grid)
        states, entropies = (np.concatenate(v) for v in zip(*passed))
        lams = len(grid.lambda_values())
        assert len(states) == lams * (lams + 1) // 2 * len(grid.theta_values())
        checked, validated = _channel_states(states, batch=True)
        assert checked.tobytes() == states.tobytes()
        assert entropies[:, 0].tobytes() == validated[:, 0].tobytes()
        assert np.abs(entropies - validated).max() <= 2e-15
        assert all(c.ba_converged for c in cells)

    def test_every_cell_converges_at_the_floor_gap(self):
        # from the unrefined closed-form input the rows at theta = 46 pi / 50
        # of (0.98, 0.99) stalled at a gap of 2.7e-12 nats for 100,000
        # adaptive iterations, and the cell and its mirror were flagged
        grid = SweepGrid(lambda_step=0.01, theta_step=46 * (math.pi / 50),
                         reference_gap_tol=1e-13)
        assert len(grid.theta_values()) == 2
        cells = error_sweep(grid)
        assert len(cells) == 51 * 51 and all(c.ba_converged for c in cells)

    def test_warm_started_lower_bound_against_the_1d_maximum(self):
        rng = np.random.default_rng(1909)
        chans = [BinaryBlochChannel(*rng.uniform(0.5, 1.0, 2), rng.uniform(0.0, math.pi))
                 for _ in range(20)]
        p1 = np.array([approx_p1(ch.lambda1, ch.lambda2) for ch in chans])
        cfg = SolverConfig(gap_tol=1e-6)
        states, entropies = _channel_states(
            np.stack([realize_channel(ch).states for ch in chans]), batch=True)
        reports = _reports(_solve_stacked(states, entropies, cfg,
                                          np.stack([p1, 1.0 - p1], axis=1)))
        for ch, report in zip(chans, reports):
            chi = holevo_bloch(ch, exact_p1(ch)) * LN2
            assert report.converged
            assert -1e-12 <= chi - report.lower <= cfg.gap_tol

    def test_sorted_and_deterministic(self):
        grid = SweepGrid(lambda_step=0.2, theta_step=1.5, reference_gap_tol=1e-5)
        cells = error_sweep(grid)
        keys = [(c.lambda1, c.lambda2) for c in cells]
        assert keys == sorted(keys)
        assert cells == error_sweep(grid)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepGrid(lambda_step=0.0)
        with pytest.raises(ValueError):
            SweepGrid(reference_gap_tol=-1.0)
        for field in ("lambda_step", "theta_step"):
            with pytest.raises(ValueError, match=field):
                SweepGrid(**{field: 1e-320})
            # beyond the float range, or a positive Fraction that rounds to 0.0
            for step in (10**400, Fraction(1, 10**400)):
                with pytest.raises(ValueError, match=rf"^{field} must be finite and positive"):
                    SweepGrid(**{field: step})
        # finite axes whose grid is too large to run are refused up front
        for field, step in (("lambda_step", 1e-300), ("theta_step", 1e-300),
                            ("lambda_step", 1e-4)):
            with pytest.raises(ValueError, match=f"{field} {step!r}.* more than the"):
                SweepGrid(**{field: step})
        assert len(SweepGrid(lambda_step=0.003).lambda_values()) ** 2 * 51 \
            <= MAX_SWEEP_SOLVES

    def test_grid_refuses_booleans(self):
        # lambda_step=True would otherwise pass as 1.0, the one-point grid [0.5];
        # a string, None or a complex step is refused by name as well
        for field in ("lambda_step", "theta_step", "reference_gap_tol"):
            for value in (True, "1e-3", None, 1j):
                with pytest.raises(ValueError, match=rf"^{field} must be"):
                    SweepGrid(**{field: value})

    def test_default_axes_stay_inside_domains(self):
        # i * (pi/50) overshoots pi by one ulp at i = 50 without clamping
        grid = SweepGrid()
        thetas = grid.theta_values()
        assert len(thetas) == 51
        assert thetas[-1] == math.pi
        lams = grid.lambda_values()
        assert len(lams) == 51
        assert lams[-1] <= 1.0
        for theta in thetas:
            BinaryBlochChannel(0.7, 0.7, theta)


@pytest.fixture(scope="module")
def cells():
    grid = SweepGrid(lambda_step=0.1, theta_step=math.pi / 4,
                     reference_gap_tol=1e-5)
    return error_sweep(grid)


class TestMaxErrorByRange:
    def test_single_cell_range(self, cells):
        rows = max_error_by_range(cells, [0.6])
        expected = max(c.error_bits for c in cells
                       if c.lambda1 <= 0.6 + 1e-9 and c.lambda2 <= 0.6 + 1e-9)
        assert rows == [(0.6, expected)]

    def test_monotone_in_range(self, cells):
        rows = max_error_by_range(cells, [0.7, 0.8, 0.9, 1.0])
        values = [v for _, v in rows]
        assert values == sorted(values)

    def test_out_of_range_rejected(self, cells):
        with pytest.raises(ValueError):
            max_error_by_range(cells, [1.2])
        with pytest.raises(ValueError, match="R=0.4 below the smallest grid point"):
            max_error_by_range(cells, [0.4])
        with pytest.raises(ValueError, match="^cells is empty: need at least one sweep cell$"):
            max_error_by_range([], [0.6])
        # NaN is not read as a point below the grid, nor True as R = 1.0
        for r in (math.nan, True, "1e-3", None, 1j):
            with pytest.raises(ValueError, match=f"^R must be finite and positive, got {r!r}$"):
                max_error_by_range(cells, [r])

    def test_coarse_maxima_keep_the_bits_of_a_list_per_range(self):
        # the maxima of one list of cells per R, as max_error_by_range was
        # written before it took arrays, for cells sorted and shuffled
        cells = error_sweep(SweepGrid(lambda_step=0.05, theta_step=math.pi / 10))
        r_values = SweepGrid(lambda_step=0.05).lambda_values() + [0.95, 0.97]
        want = [(r, max(c.error_bits for c in cells
                        if c.lambda1 <= r + 1e-9 and c.lambda2 <= r + 1e-9)) for r in r_values]
        shuffled = [cells[k] for k in np.random.default_rng(27).permutation(len(cells))]
        for order in (cells, shuffled):
            got = max_error_by_range(order, r_values)
            assert [(r, v.hex()) for r, v in got] == [(r, v.hex()) for r, v in want]
            assert all(type(v) is float for _, v in got)
            with pytest.raises(ValueError, match=r"^R=1\.2 outside the swept range \(max 1\.0\)$"):
                max_error_by_range(order, [0.6, 1.2])
            with pytest.raises(ValueError, match=r"^R=0\.4 below the smallest grid point$"):
                max_error_by_range(order, [0.4])


def test_csv_export_formats(tmp_path, capsys):
    grid = SweepGrid(lambda_step=0.25, theta_step=2.0, reference_gap_tol=1e-4)
    cells = len(grid.lambda_values()) ** 2
    sweep_path = tmp_path / "cells.csv"
    range_path = tmp_path / "ranges.csv"
    argv = ["sweep", "--lambda-step", "0.25", "--theta-step", "2.0",
            "--ref-eps", "1e-4",
            "--out", str(sweep_path), "--range-out", str(range_path)]
    assert main(argv) == 0
    lines = sweep_path.read_text().splitlines()
    assert lines[0] == "lambda1,lambda2,error_bits"
    assert len(lines) == cells + 1
    assert lines[1].startswith("0.5,0.5,")
    assert range_path.read_text().splitlines()[0] == "R,max_error_bits"
    # byte determinism on re-export
    text = sweep_path.read_text()
    assert main(argv) == 0
    assert sweep_path.read_text() == text


def test_solve_invariant_under_common_unitary_rotation():
    # conjugating every state by one unitary must not change the solver output
    rng = np.random.default_rng(90)
    for _ in range(5):
        ch = BinaryBlochChannel(*rng.uniform(0.55, 0.95, 2),
                                rng.uniform(0.0, math.pi))
        base = realize_channel(ch)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(g)
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        rotated = type(base)(np.stack([u @ s @ u.conj().T for s in base.states]))
        cfg = SolverConfig(gap_tol=1e-6)
        a, b = solve(base, cfg), solve(rotated, cfg)
        assert abs(a.lower - b.lower) <= 1e-9
        assert abs(a.upper - b.upper) <= 1e-9
        assert np.abs(a.p_star - b.p_star).max() <= 1e-9


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)
    assert binary_entropy(0.9) == pytest.approx(s2_oracle(0.9), abs=1e-14)
    # a float for a number, exactly +0.0 at and beyond the ends, NaN for NaN,
    # and no RuntimeWarning on the way (the suite turns those into errors)
    for x in (0.0, 1.0, -0.5, 1.5, -math.inf, math.inf):
        h = binary_entropy(x)
        assert type(h) is float and h == 0.0 and math.copysign(1.0, h) == 1.0
    assert type(binary_entropy(0.3)) is float
    assert math.isnan(binary_entropy(math.nan))
    # an array gives the scalar calls elementwise, bit for bit
    xs = np.array([[0.0, 1.0, 0.5, math.nan], [0.9, -0.1, 1.1, 1e-300]])
    h = binary_entropy(xs)
    assert h.shape == xs.shape
    assert h.tobytes() == np.array([[binary_entropy(x) for x in row]
                                    for row in xs.tolist()]).tobytes()
    # a real number or an integer or float array-like, by the closed form's
    # rule: Fraction and mpf cast as floats, integers count, nothing else does
    assert binary_entropy(Fraction(9, 10)) == binary_entropy(0.9)
    assert binary_entropy(mpmath.mpf(0.9)) == binary_entropy(0.9)
    assert binary_entropy(1) == 0.0
    assert binary_entropy([0.9, 1]).tobytes() == binary_entropy(np.array([0.9, 1.0])).tobytes()
    for bad in ("0.5", True, np.True_, None, 0.5 + 0j, np.complex128(0.5),
                np.array([0.5 + 0j]), [True, False], ["0.5"], [Fraction(1, 2)]):
        with pytest.raises(ValueError, match="^x must be"):
            binary_entropy(bad)
