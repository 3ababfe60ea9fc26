"""Property-based checks over randomly drawn channels and parameters."""

import math

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np

import pytest

from cqcap.bench import random_channel, trial_rng
from cqcap.bloch import (BinaryBlochChannel, approx_p1, holevo_bloch,
                         realize_channel)
from cqcap.qinfo import CqChannel, holevo_information, von_neumann_entropy
from cqcap.solver import GAP_TOL_FLOOR, solve, solve_batch, SolverConfig

LN2 = math.log(2.0)

lams = st.floats(0.5, 1.0, allow_nan=False)
thetas = st.floats(0.0, math.pi, allow_nan=False)
unit = st.floats(0.0, 1.0, allow_nan=False)


@hyp.settings(deadline=None, max_examples=60)
@hyp.given(lam1=lams, lam2=lams, theta=thetas, p1=unit)
def test_bloch_formula_matches_ensemble(lam1, lam2, theta, p1):
    ch = BinaryBlochChannel(lam1, lam2, theta)
    lhs = holevo_bloch(ch, p1) * LN2
    rhs = holevo_information(np.array([p1, 1.0 - p1]), realize_channel(ch))
    assert abs(lhs - rhs) <= 1e-10


@hyp.settings(deadline=None, max_examples=100)
@hyp.given(lam1=lams, lam2=lams, theta=thetas, p1=unit)
def test_bloch_value_in_unit_interval(lam1, lam2, theta, p1):
    v = holevo_bloch(BinaryBlochChannel(lam1, lam2, theta), p1)
    assert -1e-12 <= v <= 1.0 + 1e-12


@hyp.settings(deadline=None, max_examples=100)
@hyp.given(lam1=lams, lam2=lams, theta=thetas, a=unit, b=unit, alpha=unit)
def test_bloch_concavity(lam1, lam2, theta, a, b, alpha):
    ch = BinaryBlochChannel(lam1, lam2, theta)
    mix = alpha * a + (1.0 - alpha) * b
    assert holevo_bloch(ch, mix) >= \
        alpha * holevo_bloch(ch, a) + (1.0 - alpha) * holevo_bloch(ch, b) - 1e-10


@hyp.settings(deadline=None, max_examples=200)
@hyp.given(lam1=lams, lam2=lams)
def test_approx_p1_total_on_domain(lam1, lam2):
    p = approx_p1(lam1, lam2)
    assert 0.0 <= p <= 1.0
    if lam1 == lam2:
        assert p == 0.5


@hyp.settings(deadline=None, max_examples=25)
@hyp.given(seed=st.integers(0, 2**32 - 1),
           n=st.integers(2, 4), m=st.integers(2, 4))
def test_step_preserves_distribution_and_ascends(seed, n, m):
    ch = random_channel(n, m, trial_rng(seed, n, m, 0, 0))
    p = np.full(n, 1.0 / n)
    before = holevo_information(p, ch)
    report, = solve_batch(ch.states[None], SolverConfig(gap_tol=GAP_TOL_FLOOR, max_iters=1,
                                                        record_history=True), start=p[None])
    p_next = report.history[1].p   # the loop's first step from p
    assert np.all(p_next >= 0.0)
    assert abs(p_next.sum() - 1.0) <= 1e-12
    assert holevo_information(p_next, ch) >= before - 1e-10


@hyp.settings(deadline=None, max_examples=25)
@hyp.given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6))
def test_entropy_bounds(seed, m):
    from cqcap.bench import random_density_matrix
    rho = random_density_matrix(m, trial_rng(seed, 2, m, 0, 0))
    h = von_neumann_entropy(rho)
    assert -1e-12 <= h <= math.log(m) + 1e-12


@hyp.settings(deadline=None, max_examples=10)
@hyp.given(seed=st.integers(0, 2**32 - 1))
def test_solve_certificates_bracket_each_other(seed):
    ch = random_channel(2, 2, trial_rng(seed, 2, 2, 2, 0))
    report = solve(ch, SolverConfig(gap_tol=1e-5))
    assert report.converged
    assert report.lower <= report.upper + 1e-9
    assert report.lower <= report.capacity_nats <= report.upper


def classical_capacity(w, gap=1e-10, max_iters=50_000):
    """Blahut-Arimoto for the classical channel with rows w[x] (each a
    distribution over outputs), with its own certificates: returns
    (I(p; w), max_x D(w_x || p w)) in nats at the last iterate."""
    p = np.full(len(w), 1.0 / len(w))
    logw = np.log(np.where(w > 0.0, w, 1.0))
    for _ in range(max_iters):
        out = p @ w
        d = (w * (logw - np.log(out))).sum(axis=1)   # D(w_x || out), out > 0
        lower, upper = float(p @ d), float(d.max())
        if upper - lower <= gap:
            break
        p = p * np.exp(d - upper)
        p /= p.sum()
    return lower, upper


@pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (2, 4), (4, 3), (6, 5)])
def test_commuting_channels_match_classical_blahut_arimoto(n, m):
    # diagonal states commute, so the capacity is that of the classical
    # channel whose rows are their diagonals
    rng = np.random.default_rng([n, m, 19])
    for _ in range(4):
        w = rng.dirichlet(np.full(m, 0.7), size=n)
        lower, upper = classical_capacity(w)
        assert upper - lower <= 1e-10
        states = np.stack([np.diag(row) for row in w]).astype(complex)
        report = solve(CqChannel(states), SolverConfig(gap_tol=1e-7))
        assert report.converged
        assert report.lower <= upper + 1e-12 and lower <= report.upper + 1e-12


def _haar_unitary(m, rng):
    q, r = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@hyp.settings(deadline=None, max_examples=12)
@hyp.given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), m=st.integers(2, 4))
def test_capacity_invariant_under_relabelling_rotation_and_duplication(seed, n, m):
    rng = trial_rng(seed, n, m, 4, 0)
    ch = random_channel(n, m, rng)
    u = _haar_unitary(m, rng)
    rotated = u @ ch.states @ u.conj().T
    variants = (ch.states[rng.permutation(n)],
                0.5 * (rotated + rotated.conj().transpose(0, 2, 1)),
                np.concatenate([ch.states, ch.states[rng.integers(n)][None]]))
    cfg = SolverConfig(gap_tol=1e-6)
    base = solve(ch, cfg)
    assert base.converged
    for states in variants:
        report = solve(CqChannel(states), cfg)
        assert report.converged
        # both enclose the one capacity, up to roundoff in the rotated states
        assert report.lower <= base.upper + 1e-12 and base.lower <= report.upper + 1e-12


def test_appending_a_convex_mixture_leaves_the_capacity_unchanged():
    # the letter sum_x a_x rho_x adds no capacity, so the enclosures of the
    # channel with and without it overlap
    a = np.array([0.2, 0.3, 0.5])
    for seed in range(10):
        ch = random_channel(3, 3, trial_rng(seed, 3, 3, 0, 0))
        mixed = np.einsum("x,xij->ij", a, ch.states)
        reports = [solve(c, SolverConfig(gap_tol=1e-9))
                   for c in (ch, CqChannel(np.concatenate([ch.states, mixed[None]])))]
        assert all(r.converged for r in reports)
        assert max(r.lower for r in reports) <= min(r.upper for r in reports)
