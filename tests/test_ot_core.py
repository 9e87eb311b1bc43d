"""Transport solvers against independent oracles and closed-form cases."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from osborn import ot_core
from osborn.data_io import TEConfig
from osborn.errors import ComputationError, ValidationError
from osborn.ot_core import (
    Coupling,
    MarginalWeights,
    cost_matrix,
    median_positive_cost,
    sinkhorn,
    sinkhorn_frobenius,
    _frobenius_dual,
    _newton_direction,
    _tikhonov,
)
from osborn.synth import SynthSpec, build_pool

from conftest import (
    EXACT_MAX_CELLS,
    assignment_cost_loop,
    exact_ot,
    newton_direction_dense,
    peak_ratio,
)


def _residual(coupling, marg):
    r = np.abs(coupling.plan.sum(axis=1) - marg.source).max()
    c = np.abs(coupling.plan.sum(axis=0) - marg.target).max()
    return max(float(r), float(c))


# ---------------------------------------------------------------------------
# ground cost
# ---------------------------------------------------------------------------


def test_cost_matrix_matches_scalar_loop():
    rng = np.random.default_rng(0)
    S = rng.normal(size=(6, 3))
    T = rng.normal(size=(4, 3))
    C = cost_matrix(S, T)
    for i in range(6):
        for j in range(4):
            direct = sum((S[i, k] - T[j, k]) ** 2 for k in range(3))
            assert C[i, j] == pytest.approx(direct, abs=1e-12)


def test_cost_matrix_zero_on_identical_rows_never_negative():
    S = np.array([[1.0, 2.0], [3.0, -4.0]])
    C = cost_matrix(S, S.copy())
    assert C[0, 0] == 0.0
    assert C[1, 1] == 0.0
    assert np.all(C >= 0.0)


def test_cost_matrix_point_pair_closed_form():
    C = cost_matrix(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
    assert C.shape == (1, 1)
    assert C[0, 0] == pytest.approx(25.0, abs=1e-12)


def test_cost_matrix_validation():
    with pytest.raises(ValidationError, match="2-d"):
        cost_matrix(np.zeros(3), np.zeros((2, 3)))
    with pytest.raises(ValidationError, match="dimension mismatch"):
        cost_matrix(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ValidationError, match="non-finite"):
        cost_matrix(np.full((2, 2), np.inf), np.zeros((2, 2)))
    with pytest.raises(ValidationError, match="non-empty"):
        cost_matrix(np.zeros((0, 2)), np.zeros((2, 2)))


def test_cost_matrix_is_bit_identical_to_the_dense_expression_in_one_array():
    # the in-place form must round every entry exactly as the expression
    # with two n x m temporaries does: shapes below, at and past one row
    # block, with coincident rows (true zeros) and a ragged last block
    rng = np.random.default_rng(11)
    for n, m, d in ((3, 2, 2), (300, 257, 5), (600, 40, 16), (1000, 1000, 16)):
        S = rng.normal(size=(n, d))
        T = rng.normal(size=(m, d)) + 0.5
        T[: min(n, m) // 2] = S[: min(n, m) // 2]
        ref = (S * S).sum(axis=1)[:, None] + (T * T).sum(axis=1)[None, :] - 2.0 * (S @ T.T)
        np.maximum(ref, 0.0, out=ref)
        C, ratio = peak_ratio(lambda: cost_matrix(S, T), ref.nbytes)
        assert C.tobytes() == ref.tobytes()
    # at 1000 x 1000 the result plus one block of norm sums, not two
    # temporaries beside it
    assert ratio <= 1.5


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (4, 5), (37, 41), (40, 42)])
def test_median_positive_cost_is_bit_identical_to_np_median(shape):
    # one partition of a copy against np.median, on odd and even sizes
    rng = np.random.default_rng(sum(shape))
    cases = {
        "random": rng.exponential(size=shape),
        "heavy ties": rng.integers(1, 4, size=shape).astype(float) / 3.0,
        "all equal": np.full(shape, 0.7),
    }
    mostly_zero = np.zeros(shape)
    mostly_zero.flat[::3] = rng.uniform(0.5, 2.0, size=mostly_zero.flat[::3].size)
    cases["mostly zero"] = mostly_zero
    for name, C in cases.items():
        before = C.copy()
        med = np.median(C)
        if not med > 0:
            med = np.median(C[C > 0])
        got = median_positive_cost(C)
        assert type(got) is float
        assert got == float(med), name
        assert np.array_equal(C, before), name  # the input is not reordered


def test_median_positive_cost_fallbacks():
    assert median_positive_cost(np.array([[1.0, 3.0], [5.0, 7.0]])) == 4.0
    # mostly zeros: plain median is 0, falls back to positive entries
    C = np.zeros((3, 3))
    C[0, 0] = 2.0
    assert median_positive_cost(C) == 2.0
    assert median_positive_cost(np.zeros((2, 2))) == 1.0


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------


def test_marginal_weights_validation():
    m = MarginalWeights.uniform(4, 3)
    assert m.source.sum() == pytest.approx(1.0, abs=1e-15)
    assert m.target.shape == (3,)
    with pytest.raises(ValidationError, match="sum to 1"):
        MarginalWeights(np.array([0.5, 0.6]), np.array([0.5, 0.5]))
    with pytest.raises(ValidationError, match="non-negative"):
        MarginalWeights(np.array([-0.5, 1.5]), np.array([0.5, 0.5]))
    with pytest.raises(ValidationError, match="non-empty"):
        MarginalWeights(np.array([]), np.array([1.0]))
    with pytest.raises(ValidationError):
        MarginalWeights.uniform(0, 2)


# ---------------------------------------------------------------------------
# exact LP oracle (conftest.exact_ot)
# ---------------------------------------------------------------------------


def test_exact_matches_brute_force_assignment():
    # with uniform square marginals the optimum sits on a permutation, so
    # enumerating all n! assignments is an independent oracle
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        C = rng.uniform(0.0, 5.0, size=(n, n))
        coup = exact_ot(C, MarginalWeights.uniform(n, n))
        best = assignment_cost_loop(C) / n
        assert coup.transport_cost == pytest.approx(best, abs=1e-10)
        assert coup.converged


def test_exact_matches_hungarian_solver():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 9))
        C = rng.uniform(0.0, 3.0, size=(n, n))
        coup = exact_ot(C, MarginalWeights.uniform(n, n))
        ri, ci = linear_sum_assignment(C)
        assert coup.transport_cost == pytest.approx(C[ri, ci].sum() / n, abs=1e-9)


def test_exact_known_two_by_two_plan():
    # rows (0.3, 0.7), cols (0.6, 0.4), off-diagonal cost: the unique optimum
    # saturates the cheap diagonal first
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    marg = MarginalWeights(np.array([0.3, 0.7]), np.array([0.6, 0.4]))
    coup = exact_ot(C, marg)
    expected = np.array([[0.3, 0.0], [0.3, 0.4]])
    assert np.allclose(coup.plan, expected, atol=1e-10)
    assert coup.transport_cost == pytest.approx(0.3, abs=1e-10)


def test_exact_reports_the_lp_iteration_count():
    rng = np.random.default_rng(11)
    C = rng.uniform(0.0, 3.0, size=(6, 6))
    marg = MarginalWeights(rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6)))
    assert exact_ot(C, marg).iterations_used > 0


def test_exact_refuses_large_instances():
    n = 9
    with pytest.raises(ValidationError, match=str(EXACT_MAX_CELLS)):
        exact_ot(np.zeros((n, n)), MarginalWeights.uniform(n, n))


def test_exact_handles_zero_mass_rows():
    C = np.array([[0.0, 2.0], [2.0, 0.0], [1.0, 1.0]])
    marg = MarginalWeights(np.array([0.5, 0.5, 0.0]), np.array([0.5, 0.5]))
    coup = exact_ot(C, marg)
    assert np.all(coup.plan[2] == 0.0)
    assert coup.transport_cost == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# entropic solver
# ---------------------------------------------------------------------------


def test_sinkhorn_marginals_and_cost_against_exact():
    worst = 0.0
    for seed in range(25):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        d = int(rng.integers(2, 5))
        S = rng.normal(size=(n, d))
        T = rng.normal(size=(m, d)) + 1.0
        C = cost_matrix(S, T)
        marg = MarginalWeights.uniform(n, m)
        eps = 0.01 * median_positive_cost(C)
        coup = sinkhorn(C, marg, eps, max_iters=20000, tol=1e-8)
        assert coup.converged
        assert _residual(coup, marg) <= 1e-8
        assert np.all(coup.plan >= 0.0)
        ref = exact_ot(C, marg).transport_cost
        worst = max(worst, abs(coup.transport_cost - ref) / ref)
    assert worst < 0.05


def test_sinkhorn_cost_decreases_with_epsilon():
    # the entropic bias shrinks as the regularization goes to zero
    rng = np.random.default_rng(77)
    C = cost_matrix(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)) + 0.5)
    marg = MarginalWeights.uniform(6, 6)
    med = median_positive_cost(C)
    exact = exact_ot(C, marg).transport_cost
    costs = [
        sinkhorn(C, marg, mult * med, max_iters=20000, tol=1e-9).transport_cost
        for mult in (0.5, 0.05, 0.005)
    ]
    assert costs[0] > costs[1] > costs[2]
    assert costs[2] >= exact - 1e-9
    assert abs(costs[2] - exact) / exact < 0.02


def test_sinkhorn_two_point_symmetric_instance():
    # two coincident clouds: optimal cost is 0; the entropic plan pays only
    # the regularization bias, which vanishes with epsilon
    S = np.array([[0.0], [1.0]])
    C = cost_matrix(S, S)
    marg = MarginalWeights.uniform(2, 2)
    coup = sinkhorn(C, marg, 0.01, max_iters=5000, tol=1e-10)
    assert coup.converged
    assert coup.transport_cost < 1e-6
    assert np.allclose(coup.plan, np.diag([0.5, 0.5]), atol=1e-6)


def test_plan_is_read_only():
    coup = sinkhorn(np.array([[1.0]]), MarginalWeights.uniform(1, 1), 1.0)
    with pytest.raises(ValueError):
        coup.plan[0, 0] = 7.0


def test_sinkhorn_single_cell():
    coup = sinkhorn(np.array([[25.0]]), MarginalWeights.uniform(1, 1), 1.0)
    assert coup.converged
    assert coup.plan[0, 0] == pytest.approx(1.0, abs=1e-6)
    assert coup.transport_cost == pytest.approx(25.0, abs=1e-4)


def test_sinkhorn_zero_mass_columns_are_skipped():
    rng = np.random.default_rng(4)
    C = cost_matrix(rng.normal(size=(3, 2)), rng.normal(size=(4, 2)))
    marg = MarginalWeights(
        np.array([0.25, 0.5, 0.25]), np.array([0.5, 0.0, 0.5, 0.0]))
    coup = sinkhorn(C, marg, 0.05, max_iters=10000, tol=1e-8)
    assert coup.converged
    assert np.all(coup.plan[:, 1] == 0.0)
    assert np.all(coup.plan[:, 3] == 0.0)
    assert _residual(coup, marg) <= 1e-8
    ref = exact_ot(C, marg)
    assert coup.transport_cost >= ref.transport_cost - 1e-9


def test_sinkhorn_validation():
    C = np.ones((2, 2))
    marg = MarginalWeights.uniform(2, 2)
    with pytest.raises(ValidationError, match="epsilon"):
        sinkhorn(C, marg, 0.0)
    for eps in (np.inf, np.nan):
        with pytest.raises(ValidationError, match="epsilon"):
            sinkhorn(C, marg, eps)
    for tol in (np.inf, np.nan, 0.0, -1e-6):
        with pytest.raises(ValidationError, match="tol"):
            sinkhorn(C, marg, 1.0, tol=tol)
    with pytest.raises(ValidationError, match="max_iters"):
        sinkhorn(C, marg, 1.0, max_iters=0)
    with pytest.raises(ValidationError, match="negative entries"):
        sinkhorn(-C, marg, 1.0)
    with pytest.raises(ValidationError, match="do not match"):
        sinkhorn(C, MarginalWeights.uniform(3, 2), 1.0)
    with pytest.raises(ValidationError, match="non-finite"):
        sinkhorn(np.full((2, 2), np.nan), marg, 1.0)


@pytest.mark.parametrize("solver", [
    lambda C, marg: sinkhorn(C, marg, 1.0),
    lambda C, marg: sinkhorn_frobenius(C, marg, 1.0),
], ids=["sinkhorn", "frobenius"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cost_validation_reports_non_finite_before_negative(solver, bad):
    marg = MarginalWeights.uniform(2, 3)
    C = np.ones((2, 3))
    C[1, 2] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        solver(C, marg)
    C[0, 0] = -1.0
    with pytest.raises(ValidationError, match="non-finite"):
        solver(C, marg)
    C[1, 2] = 0.0
    with pytest.raises(ValidationError, match="negative entries"):
        solver(C, marg)


@pytest.mark.parametrize("solver", [sinkhorn, sinkhorn_frobenius],
                         ids=["sinkhorn", "frobenius"])
@pytest.mark.parametrize("cost", [np.ones(3), np.ones((0, 3)), np.ones((2, 0))],
                         ids=["1-d", "no rows", "no columns"])
def test_cost_that_is_not_a_non_empty_matrix_is_refused(solver, cost):
    with pytest.raises(ValidationError, match="cost matrix must be 2-d and non-empty"):
        solver(cost, MarginalWeights.uniform(2, 3), 1.0)


def test_sinkhorn_reports_non_convergence_without_lying():
    rng = np.random.default_rng(8)
    C = cost_matrix(rng.normal(size=(8, 3)), rng.normal(size=(8, 3)) + 2.0)
    marg = MarginalWeights.uniform(8, 8)
    coup = sinkhorn(C, marg, 1e-4 * median_positive_cost(C), max_iters=3,
                    tol=1e-12)
    assert not coup.converged
    assert coup.iterations_used <= 3


def _far_apart_instance():
    rng = np.random.default_rng(8)
    C = cost_matrix(rng.normal(size=(40, 3)), rng.normal(size=(40, 3)) + 2.0)
    return C, MarginalWeights.uniform(40, 40)


@pytest.mark.parametrize("bound", [ot_core.SCALING_BOUND, 2.0])
def test_sinkhorn_absorbs_scalings_at_tiny_epsilon(monkeypatch, bound):
    # max C / epsilon is about 3,900: exp(-C / epsilon) underflows whole rows,
    # so a kernel loop without the stabilized kernel fails here.  Absorbing
    # at every iteration (bound 2) must not move the iterates either.
    monkeypatch.setattr(ot_core, "SCALING_BOUND", bound)
    C, marg = _far_apart_instance()
    eps = 1e-3 * median_positive_cost(C)
    assert C.max() / eps > 3800
    coup = sinkhorn(C, marg, eps, max_iters=5000, tol=1e-8)
    assert np.all(np.isfinite(coup.plan))
    assert coup.converged
    assert _residual(coup, marg) <= 1e-8
    # the log-domain loop's cost on this instance
    assert coup.transport_cost == pytest.approx(13.7124450359493, rel=1e-12)


def test_sinkhorn_absorption_follows_the_log_domain_iterates():
    # at 1e-4 x median the scalings of an unabsorbed kernel loop overflow
    # within 400 iterations; the solve stops unconverged at the same iterate
    # as the log-domain loop
    C, marg = _far_apart_instance()
    coup = sinkhorn(C, marg, 1e-4 * median_positive_cost(C), max_iters=1000,
                    tol=1e-8)
    assert np.all(np.isfinite(coup.plan))
    assert not coup.converged and coup.iterations_used == 1000
    assert coup.transport_cost == pytest.approx(10.008905817159754, rel=1e-12)


# small synth instances whose scaling step, at a tiny epsilon, meets a kernel
# row (b / (Kt v) overflows) or a column (g / (Kt^T u) divides by zero) that
# underflowed against the scalings: (samples, seed, epsilon x median)
@pytest.mark.parametrize("samples,seed,eps_mult", [(8, 7, 1e-30), (12, 1, 1e-20)],
                         ids=["row", "column"])
def test_sinkhorn_sweeps_again_when_the_kernel_underflows(monkeypatch, samples, seed,
                                                          eps_mult):
    # the solve absorbs its scalings and sweeps again in the log domain,
    # with no numpy warning (the suite makes one an error), and returns a
    # finite plan that converged judges by its residual
    sweeps = []
    sweep = ot_core._log_sweep
    monkeypatch.setattr(ot_core, "_log_sweep", lambda *a: sweeps.append(a) or sweep(*a))
    spec = SynthSpec(num_models=2, feature_dim=2, source_classes=2,
                     target_classes=2, samples=samples, domain_shift=(0.0, 1.5),
                     prediction_noise=(0.0, 0.4), seed=seed)
    rec = build_pool(spec).manifest.models[1]
    C = cost_matrix(rec.source_features, rec.target_features)
    marg = MarginalWeights.uniform(*C.shape)
    coup = sinkhorn(C, marg, eps_mult * median_positive_cost(C))
    assert len(sweeps) > 1
    assert np.all(np.isfinite(coup.plan))
    assert coup.converged == (_residual(coup, marg) <= 1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_coupling_refuses_a_plan_with_a_non_finite_entry(bad):
    # the residual that decides converged also judges the entries: one NaN
    # or infinite entry makes its row sum, and so the residual, non-finite
    C = np.ones((2, 3))
    plan = np.full((2, 3), 1.0 / 6.0)
    plan[1, 2] = bad
    with pytest.raises(ComputationError, match="non-finite plan entries"):
        ot_core._coupling(C, plan, np.arange(2), np.arange(3), 1,
                          MarginalWeights.uniform(2, 3), 1e-6)


@pytest.mark.parametrize("support", [False, True])
def test_newton_direction_solves_the_dense_system(support):
    # the Schur-complement step against a dense (n+m) solve of the same
    # Tikhonov-regularized system, for an entropic plan and for a quadratic
    # plan's 0/1 support
    rng = np.random.default_rng(5)
    n, m = 7, 5
    P = rng.uniform(0.0, 1.0, size=(n, m))
    P /= P.sum()
    W = (P > 0.2 * P.max()) / 0.3 if support else P
    assert np.all(W.sum(axis=1) > 0) and np.all(W.sum(axis=0) > 0)
    grad_r = P.sum(axis=1) - 1.0 / n
    grad_c = P.sum(axis=0) - 1.0 / m
    dx, dy = newton_direction_dense(W, grad_r, grad_c)
    r, c = W.sum(axis=1), W.sum(axis=0)
    lam = 1e-12 * (1.0 + max(r.max(), c.max()))
    H = np.block([[np.diag(r), W], [W.T, np.diag(c)]]) + lam * np.eye(n + m)
    grad = np.concatenate([grad_r, grad_c])
    dense = np.linalg.solve(H, -grad)
    # the two solves may differ along the constant shift (+t on rows, -t on
    # columns), which only lam pins down; the plan sees dx_i + dy_j
    assert np.allclose(dx[:, None] + dy[None, :],
                       dense[:n, None] + dense[None, n:], rtol=0, atol=1e-10)
    assert np.allclose(H @ np.concatenate([dx, dy]), -grad, rtol=0, atol=1e-10)


def test_sinkhorn_converges_at_pool_scale_without_a_newton_finish():
    # 600 x 600 at the default config.  Kernel scaling does most of the
    # work; the matrix-free Newton finish, which runs at every size, takes
    # the last step once scaling stalls
    spec = SynthSpec(num_models=2, feature_dim=8, source_classes=4,
                     target_classes=4, samples=600, domain_shift=(0.0, 1.5),
                     prediction_noise=(0.0, 0.4), seed=7)
    rec = build_pool(spec).manifest.models[1]
    C = cost_matrix(rec.source_features, rec.target_features)
    assert C.shape == (600, 600)
    marg = MarginalWeights.uniform(*C.shape)
    cfg = TEConfig()
    out = sinkhorn(C, marg, cfg.epsilon * median_positive_cost(C),
                   cfg.max_iters, cfg.convergence_tol)
    assert out.converged
    assert _residual(out, marg) <= cfg.convergence_tol
    # the log-domain loop needs 17
    assert out.iterations_used <= 17


def _pool_scale_cost(independent=False, seed=7):
    """The 1500 x 1500 cost matrix (d = 16) of the shift-1.5 model of a
    4-model pool drawn by ``seed``.  ``independent`` draws the source and
    target clouds apart instead: 4 class means from 3 N(0, I), each
    sample's class uniform and its noise N(0, I), and the target shifted
    by 0.5 in every coordinate, so no source sample has a target twin and
    the plan is far from a matching."""
    n, d = 1500, 16
    if independent:
        rng = np.random.default_rng(seed)
        means = 3.0 * rng.standard_normal((4, d))
        source_classes, target_classes = rng.integers(0, 4, n), rng.integers(0, 4, n)
        source = means[source_classes] + rng.standard_normal((n, d))
        target = means[target_classes] + rng.standard_normal((n, d)) + 0.5
        return cost_matrix(source, target)
    spec = SynthSpec(num_models=4, feature_dim=d, source_classes=4,
                     target_classes=4, samples=n,
                     domain_shift=(0.0, 0.5, 1.0, 1.5),
                     prediction_noise=(0.0, 0.4 / 3, 0.8 / 3, 0.4), seed=seed)
    rec = build_pool(spec).manifest.models[3]
    return cost_matrix(rec.source_features, rec.target_features)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sinkhorn_converges_at_pool_scale_on_independent_draws(seed):
    # source and target drawn apart: at the default config these solves
    # take 116-368 iterations where the synth pools' take about 8, and a
    # Newton trial on seed 0 overflows, which must be rejected without a
    # RuntimeWarning; the plan is still the only n x m array beside the
    # cost matrix
    C = _pool_scale_cost(independent=True, seed=seed)
    marg = MarginalWeights.uniform(*C.shape)
    cfg = TEConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out, ratio = peak_ratio(
            lambda: sinkhorn(C, marg, cfg.epsilon * median_positive_cost(C),
                             cfg.max_iters, cfg.convergence_tol),
            C.nbytes)
    assert out.converged
    assert _residual(out, marg) <= cfg.convergence_tol
    assert ratio <= 1.5, ratio


def test_sinkhorn_converges_at_small_epsilon_at_pool_scale():
    # 1500 x 1500 at 0.01 x median: plain scaling shrinks the residual by
    # only about 10 % per iteration here and stops unconverged at the
    # default budget, while the matrix-free Newton finish converges in a
    # few steps without any n x m array beside the kernel buffer that
    # becomes the plan
    C = _pool_scale_cost()
    marg = MarginalWeights.uniform(*C.shape)
    eps = 0.01 * median_positive_cost(C)
    cfg = TEConfig()
    out, ratio = peak_ratio(
        lambda: sinkhorn(C, marg, eps, cfg.max_iters, cfg.convergence_tol),
        C.nbytes)
    assert out.converged
    assert _residual(out, marg) <= cfg.convergence_tol
    assert out.iterations_used <= 30
    assert ratio <= 1.5


def test_sinkhorn_keeps_scaling_while_it_would_reach_tol_sooner(monkeypatch):
    # the same instance at the default epsilon: below the Newton gate the
    # residual still shrinks fast enough to reach tol within
    # NEWTON_SWITCH_ITERS scaling iterations, which cost less than one
    # Newton step at this size, so none is taken
    calls = []
    newton_step = ot_core._newton_cg_step
    monkeypatch.setattr(ot_core, "_newton_cg_step",
                        lambda *args: calls.append(args) or newton_step(*args))
    C = _pool_scale_cost()
    marg = MarginalWeights.uniform(*C.shape)
    cfg = TEConfig()
    out = sinkhorn(C, marg, cfg.epsilon * median_positive_cost(C),
                   cfg.max_iters, cfg.convergence_tol)
    assert out.converged
    assert calls == []


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_newton_trial_that_overflows_is_rejected_without_a_warning(monkeypatch, sign):
    # a step of +-1e4 overflows one scaling of every trial, the shortest
    # too (exp(625)), and the other underflows, so inf * 0 makes the
    # residual NaN: each trial is rejected, and nothing warns
    rng = np.random.default_rng(0)
    Kt = rng.uniform(0.1, 1.0, (4, 3))
    u, v = np.ones(4), np.ones(3)
    b, g = np.full(4, 0.25), np.full(3, 1.0 / 3.0)
    Kv = Kt @ v
    res = float(np.abs(Kv - b).max())
    monkeypatch.setattr(ot_core, "_newton_direction",
                        lambda *args: (np.full(4, sign * 1e4), np.full(3, -sign * 1e4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u_out, v_out, Kv_out, res_out, ok = ot_core._newton_cg_step(
            Kt, u, v, Kv, b, g, res, 1e-9)
    assert ok is False
    assert u_out is u and v_out is v and Kv_out is Kv and res_out == res


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


def _kernel_products(Kt, u, v):
    """``W y``, ``W^T z`` and ``(W * W)^T z`` for the entropic plan ``W =
    diag(u) Kt diag(v)``, without forming it."""
    return (lambda y: u * (Kt @ (v * y)), lambda z: v * (Kt.T @ (u * z)),
            lambda z: v * v * np.einsum("ij,ij,i->j", Kt, Kt, u * u * z))


def _support_products(W):
    """``W y``, ``W^T z`` and ``(W * W)^T z = W^T z`` for a 0/1 ``W``, as
    ``np.bincount`` gathers over its cells."""
    I, J = np.nonzero(W)
    n, m = W.shape

    def cols_of(z):
        return np.bincount(J, weights=z[I], minlength=m)

    return (lambda y: np.bincount(I, weights=y[J], minlength=n), cols_of,
            cols_of)


def _entropic_case(rng, n, m):
    Kt = rng.uniform(0.05, 1.0, size=(n, m))
    u = rng.uniform(0.5, 2.0, size=n)
    v = rng.uniform(0.5, 2.0, size=m)
    return u[:, None] * Kt * v[None, :], _kernel_products(Kt, u, v)


def _newton_direction_and_dense_system(W, products, lam, grad_r, grad_c, eta):
    """The matrix-free step on ``W``, the dense reference step and the
    shifted dense (n+m) Hessian with the gradient."""
    n, m = W.shape
    step = _newton_direction(*products, W.sum(axis=1), W.sum(axis=0), lam,
                             grad_r, grad_c, eta)
    ref = newton_direction_dense(W, grad_r, grad_c, lam)
    H = np.block([[np.diag(W.sum(axis=1)), W], [W.T, np.diag(W.sum(axis=0))]])
    H += lam * np.eye(n + m)
    return step, ref, H, np.concatenate([grad_r, grad_c])


@pytest.mark.parametrize("case", ["entropic", "support-0.001", "support-0.5"])
def test_newton_direction_matches_the_dense_step(case):
    # the one matrix-free Schur-complement step against the dense reference
    # step: on an entropic plan diag(u) Kt diag(v) at the Tikhonov shift, its
    # products taken through Kt, and on a 0/1 support where column 2 is
    # empty and row 0 holds three cells, its products O(nnz) gathers, at a
    # Levenberg-Marquardt shift
    if case == "entropic":
        rng = np.random.default_rng(6)
        n, m = 9, 7
        W, products = _entropic_case(rng, n, m)
        grad_r = W.sum(axis=1) - 1.0 / n
        grad_c = W.sum(axis=0) - 1.0 / m
        lam = _tikhonov(W.sum(axis=1), W.sum(axis=0))
        eta = 1e-13
    else:
        n, m = 6, 5
        I, J = np.array([(0, 0), (0, 1), (0, 3), (1, 1), (2, 0), (3, 3),
                         (4, 1), (5, 4), (4, 4)]).T
        W = np.zeros((n, m))
        W[I, J] = 1.0
        assert W[:, 2].sum() == 0 and W[0].sum() == 3 and np.all(W.sum(axis=1) > 0)
        products = _support_products(W)
        rng = np.random.default_rng(9)
        grad_r, grad_c = rng.normal(size=n), rng.normal(size=m)
        lam = float(case.split("-")[1])
        eta = 1e-14
    (dx, dy), (ref_dx, ref_dy), H, grad = _newton_direction_and_dense_system(
        W, products, lam, grad_r, grad_c, eta)
    # at the Tikhonov shift the steps may differ along the constant shift
    # (+t on rows, -t on columns), which only lam pins down; the plan sees
    # dx_i + dy_j
    assert np.allclose(dx[:, None] + dy[None, :],
                       ref_dx[:, None] + ref_dy[None, :], rtol=1e-9, atol=1e-10)
    assert np.allclose(H @ np.concatenate([dx, dy]), -grad, rtol=0, atol=1e-9)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 12), m=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1), lam=_log_uniform(1e-3, 1.0),
       support=st.booleans())
def test_newton_direction_matches_the_dense_step_on_random_plans(n, m, seed,
                                                                 lam, support):
    # at a shift of at least 1e-3 the system is well posed, so the whole
    # step, not only dx_i + dy_j, matches the dense reference
    rng = np.random.default_rng(seed)
    if support:
        W = (rng.random((n, m)) < rng.uniform(0.1, 0.9)).astype(np.float64)
        products = _support_products(W)
    else:
        W, products = _entropic_case(rng, n, m)
    grad_r, grad_c = rng.normal(size=n), rng.normal(size=m)
    (dx, dy), (ref_dx, ref_dy), H, grad = _newton_direction_and_dense_system(
        W, products, lam, grad_r, grad_c, 1e-14)
    scale = max(1.0, float(np.abs(ref_dx).max()), float(np.abs(ref_dy).max()))
    np.testing.assert_allclose(dx, ref_dx, rtol=0, atol=1e-9 * scale)
    np.testing.assert_allclose(dy, ref_dy, rtol=0, atol=1e-9 * scale)
    np.testing.assert_allclose(H @ np.concatenate([dx, dy]), -grad, rtol=0,
                               atol=1e-9 * float(np.abs(grad).max()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), m=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1),
       eps_mult=_log_uniform(1e-2, 1.0), tol=_log_uniform(1e-17, 1e-6),
       max_iters=st.integers(1, 1000))
def test_sinkhorn_properties_on_random_instances(n, m, seed, eps_mult, tol,
                                                 max_iters):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    C = cost_matrix(rng.normal(size=(n, d)),
                    rng.normal(size=(m, d)) + rng.uniform(0.0, 2.0))
    b = rng.uniform(0.1, 1.0, size=n)
    g = rng.uniform(0.1, 1.0, size=m)
    marg = MarginalWeights(b / b.sum(), g / g.sum())
    coup = sinkhorn(C, marg, eps_mult * median_positive_cost(C), max_iters, tol)
    assert np.all(np.isfinite(coup.plan))
    assert np.all(coup.plan >= 0.0)
    assert 1 <= coup.iterations_used <= max_iters
    if coup.converged:
        assert _residual(coup, marg) <= tol


# ---------------------------------------------------------------------------
# quadratic-regularized solver
# ---------------------------------------------------------------------------


def _quad_objective(plan, C, eps):
    return float((C * plan).sum() + eps * (plan * plan).sum())


def test_frobenius_plans_are_feasible_and_beat_entropic_on_their_objective():
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        C = cost_matrix(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)) + 1.0)
        marg = MarginalWeights.uniform(5, 5)
        eps = 0.1 * median_positive_cost(C)
        frob = sinkhorn_frobenius(C, marg, eps, max_iters=20000, tol=1e-8)
        ent = sinkhorn(C, marg, eps, max_iters=20000, tol=1e-8)
        assert frob.converged
        assert _residual(frob, marg) <= 1e-8
        assert np.all(frob.plan >= 0.0)
        assert _quad_objective(frob.plan, C, eps) <= _quad_objective(ent.plan, C, eps)


def test_sinkhorn_converges_at_pool_scale_at_the_default_config():
    # a 200 x 200 pool solve at the default epsilon, budget and tolerance,
    # the size and settings a pairwise run uses
    spec = SynthSpec(num_models=2, feature_dim=8, source_classes=4,
                     target_classes=4, samples=200, domain_shift=(0.0, 1.5),
                     prediction_noise=(0.0, 0.4), seed=7)
    rec = build_pool(spec).manifest.models[1]
    C = cost_matrix(rec.source_features, rec.target_features)
    assert C.shape == (200, 200)
    marg = MarginalWeights.uniform(200, 200)
    cfg = TEConfig()
    eps = cfg.epsilon * median_positive_cost(C)
    out = sinkhorn(C, marg, eps, cfg.max_iters, cfg.convergence_tol)
    assert out.converged
    assert _residual(out, marg) <= cfg.convergence_tol
    assert out.iterations_used <= 30
    tight = sinkhorn(C, marg, eps, cfg.max_iters, 1e-10)
    assert tight.converged
    assert out.transport_cost == pytest.approx(tight.transport_cost, rel=1e-4)


def test_frobenius_converges_at_pool_scale_at_the_default_config():
    # a 200 x 200 pool solve at the default budget and tolerance, the size
    # and settings a pairwise run uses
    spec = SynthSpec(num_models=2, feature_dim=8, source_classes=4,
                     target_classes=4, samples=200, domain_shift=(0.0, 1.5),
                     prediction_noise=(0.0, 0.4), seed=7)
    rec = build_pool(spec).manifest.models[1]
    C = cost_matrix(rec.source_features, rec.target_features)
    assert C.shape == (200, 200)
    marg = MarginalWeights.uniform(200, 200)
    cfg = TEConfig()
    eps = cfg.epsilon * median_positive_cost(C)
    frob = sinkhorn_frobenius(C, marg, eps, cfg.max_iters, cfg.convergence_tol)
    assert frob.converged
    assert _residual(frob, marg) <= cfg.convergence_tol
    assert frob.iterations_used <= cfg.max_iters
    ent = sinkhorn(C, marg, eps, cfg.max_iters, cfg.convergence_tol)
    assert _quad_objective(frob.plan, C, eps) <= _quad_objective(ent.plan, C, eps)


def test_frobenius_converges_at_pool_scale_in_a_few_newton_steps():
    # 1500 x 1500 at the default config, where L-BFGS on the same dual
    # needs 79 iterations: the start plus a few Newton steps on the sparse
    # support converge, with no n x m float array beside the buffer that
    # becomes the plan
    C = _pool_scale_cost()
    marg = MarginalWeights.uniform(*C.shape)
    cfg = TEConfig()
    eps = cfg.epsilon * median_positive_cost(C)
    out, ratio = peak_ratio(
        lambda: sinkhorn_frobenius(C, marg, eps, cfg.max_iters,
                                   cfg.convergence_tol),
        C.nbytes)
    assert out.converged
    assert _residual(out, marg) <= cfg.convergence_tol
    assert out.iterations_used <= 15
    assert ratio <= 1.5


_frobenius_cases = given(
    n=st.integers(1, 40), m=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
    eps_mult=_log_uniform(1e-2, 1.0), tol=_log_uniform(1e-17, 1e-6),
    max_iters=st.integers(1, 200), zero_mass=st.booleans(),
    flat_cost=st.booleans())


def _frobenius_instance(n, m, seed, zero_mass, flat_cost):
    """The cost and unnormalized marginal weights of one random instance."""
    rng = np.random.default_rng(seed)
    if flat_cost:
        C = np.full((n, m), float(rng.choice([0.0, rng.uniform(0.1, 3.0)])))
    else:
        d = int(rng.integers(1, 5))
        C = cost_matrix(rng.normal(size=(n, d)),
                        rng.normal(size=(m, d)) + rng.uniform(0.0, 2.0))
    b = rng.uniform(0.1, 1.0, size=n)
    g = rng.uniform(0.1, 1.0, size=m)
    if zero_mass:
        # about a third of the entries lose their mass; one always keeps it
        b[1:][rng.random(n - 1) < 0.3] = 0.0
        g[1:][rng.random(m - 1) < 0.3] = 0.0
    return C, b, g


@settings(max_examples=200, deadline=None, derandomize=True)
@_frobenius_cases
def test_frobenius_properties_on_random_instances(n, m, seed, eps_mult, tol,
                                                  max_iters, zero_mass,
                                                  flat_cost):
    C, b, g = _frobenius_instance(n, m, seed, zero_mass, flat_cost)
    try:
        marg = MarginalWeights(b / b.sum(), g / g.sum())
        coup = sinkhorn_frobenius(C, marg, eps_mult * median_positive_cost(C),
                                  max_iters, tol)
    except ValidationError:
        return
    assert np.all(np.isfinite(coup.plan))
    assert np.all(coup.plan >= 0.0)
    assert 1 <= coup.iterations_used <= max_iters
    if coup.converged:
        assert _residual(coup, marg) <= tol


def _excess(buf, cells):
    """The clipped excess ``Z`` a dual evaluation read: ``buf`` when it read
    every cell, else its candidate cells' ``z`` scattered into zeros."""
    if cells is None:
        return buf
    Z = np.zeros_like(buf)
    Z[cells[0], cells[1]] = cells[2]
    return Z


def test_frobenius_dual_matches_the_dense_formula(monkeypatch):
    # random potentials put cells on both sides of the clip at zero; each
    # point is evaluated dense (a 63-cell problem's candidates are over the
    # cap) and screened (the cap lifted), and the second point drifts far
    # enough from the first to rebuild the candidate set
    rng = np.random.default_rng(21)
    n, m, eps = 7, 9, 0.3
    C = rng.uniform(0.0, 4.0, size=(n, m))
    b = rng.dirichlet(np.ones(n))
    g = rng.dirichlet(np.ones(m))
    x0 = rng.uniform(0.0, 2.5, size=n + m)
    x1 = x0 + np.concatenate([np.full(n, 0.1), np.full(m, -0.05)])
    for share in (ot_core.SCREEN_MAX_SHARE, 1.0):
        monkeypatch.setattr(ot_core, "SCREEN_MAX_SHARE", share)
        screen = ot_core._Screen(ot_core.SCREEN_SLACK * eps)
        for x in (x0, x1):
            f, h = x[:n], x[n:]
            Z = np.maximum(f[:, None] + h[None, :] - C, 0.0)
            assert 0 < np.count_nonzero(Z) < Z.size
            ref_value = -(f @ b + h @ g) + (Z ** 2).sum() / (4.0 * eps)
            P = Z / (2.0 * eps)
            ref_grad = np.concatenate([P.sum(axis=1) - b, P.sum(axis=0) - g])
            buf = np.full((n, m), np.nan)
            value, grad, cells = _frobenius_dual(x, C, b, g, eps, buf, screen)
            assert screen.ref is x
            assert (cells is None) == (share < 1.0)
            assert value == pytest.approx(ref_value, rel=1e-12)
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref_grad).max())
            np.testing.assert_allclose(_excess(buf, cells), Z, rtol=1e-12, atol=0.0)
            # the value is C^1 (piecewise quadratic), so central differences
            # of step 1e-6 match the gradient to far better than 1e-6; the
            # steps stay within the screen's drift bound
            step = 1e-6
            fd = np.empty_like(x)
            for k in range(x.size):
                e = np.zeros_like(x)
                e[k] = step
                fd[k] = (_frobenius_dual(x + e, C, b, g, eps, buf, screen)[0]
                         - _frobenius_dual(x - e, C, b, g, eps, buf, screen)[0]
                         ) / (2.0 * step)
            np.testing.assert_allclose(fd, grad, rtol=0.0, atol=1e-6)
            assert screen.ref is x


def test_frobenius_solve_holds_one_work_buffer_and_returns_its_own_plan():
    # a 600 x 600 pool solve at the default config: the dual evaluations and
    # the returned plan share one n x m buffer, so the solve's traced peak
    # stays near one cost matrix
    spec = SynthSpec(num_models=2, feature_dim=8, source_classes=4,
                     target_classes=4, samples=600, domain_shift=(0.0, 1.5),
                     prediction_noise=(0.0, 0.4), seed=7)
    near, C = (cost_matrix(rec.source_features, rec.target_features)
               for rec in build_pool(spec).manifest.models)
    cfg = TEConfig()
    assert C.shape == (600, 600)
    marg = MarginalWeights.uniform(600, 600)

    def solve(cost):
        eps = cfg.epsilon * median_positive_cost(cost)
        return sinkhorn_frobenius(cost, marg, eps, cfg.max_iters,
                                  cfg.convergence_tol)

    first, ratio = peak_ratio(lambda: solve(C), C.nbytes)
    assert first.converged
    assert _residual(first, marg) <= cfg.convergence_tol
    assert ratio <= 1.5
    # a second solve must not write into the first one's plan
    kept = first.plan.copy()
    second = solve(near)
    assert not np.shares_memory(first.plan, second.plan)
    assert np.array_equal(first.plan, kept)


def test_frobenius_newton_steps_take_few_dual_evaluations(monkeypatch):
    # the two 600 x 600 pool solves at the default config take 40 dual
    # evaluations between them; without the Levenberg-Marquardt shift the
    # Armijo searches shorten steps into empty columns over and over, and
    # the solves take about 650.  The evaluations read screened candidate
    # cells, so the full n x m sweeps, candidate rebuilds (8 here), dense
    # evaluations (none) and one final plan a solve, are fewer than the
    # evaluations, each of which used to sweep
    calls, sweeps = [], []
    for name in ("_frobenius_dual", "_candidates", "_clipped_excess"):
        fn = getattr(ot_core, name)
        log = calls if name == "_frobenius_dual" else sweeps
        monkeypatch.setattr(ot_core, name,
                            lambda *args, fn=fn, log=log: log.append(1) or fn(*args))
    spec = SynthSpec(num_models=2, feature_dim=8, source_classes=4,
                     target_classes=4, samples=600, domain_shift=(0.0, 1.5),
                     prediction_noise=(0.0, 0.4), seed=7)
    cfg = TEConfig()
    marg = MarginalWeights.uniform(600, 600)
    models = build_pool(spec).manifest.models
    for rec in models:
        C = cost_matrix(rec.source_features, rec.target_features)
        out = sinkhorn_frobenius(C, marg, cfg.epsilon * median_positive_cost(C),
                                 cfg.max_iters, cfg.convergence_tol)
        assert out.converged
    assert len(calls) <= 60
    assert len(sweeps) + len(models) < len(calls)


@settings(max_examples=150, deadline=None, derandomize=True)
@_frobenius_cases
def test_frobenius_screened_solve_matches_the_dense_solve(n, m, seed, eps_mult,
                                                          tol, max_iters,
                                                          zero_mass, flat_cost):
    # the instances of test_frobenius_properties_on_random_instances, solved
    # with the candidate cap lifted (screened wherever that is exact) and at
    # 0 (every evaluation dense): both routes add the same terms in the same
    # order, so the steps and the plan are the same to the bit
    C, b, g = _frobenius_instance(n, m, seed, zero_mass, flat_cost)
    try:
        marg = MarginalWeights(b / b.sum(), g / g.sum())
    except ValidationError:
        return
    eps = eps_mult * median_positive_cost(C)
    solves = []
    for share in (1.0, 0.0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ot_core, "SCREEN_MAX_SHARE", share)
            solves.append(sinkhorn_frobenius(C, marg, eps, max_iters, tol))
    screened, dense = solves
    assert screened.iterations_used == dense.iterations_used
    assert screened.converged == dense.converged
    assert screened.plan.tobytes() == dense.plan.tobytes()


def test_frobenius_flat_cost_evaluates_densely_within_one_buffer():
    # a flat cost puts every cell within the screen's slack, so the set is
    # over the cap and the solve evaluates densely in its work buffer; a
    # set of all 360,000 cells would lift the peak to about ten times the
    # cost matrix
    C = np.full((600, 600), 1.7)
    marg = MarginalWeights.uniform(600, 600)
    cfg = TEConfig()
    out, ratio = peak_ratio(
        lambda: sinkhorn_frobenius(C, marg, cfg.epsilon * median_positive_cost(C),
                                   cfg.max_iters, cfg.convergence_tol),
        C.nbytes)
    assert out.converged
    assert _residual(out, marg) <= cfg.convergence_tol
    assert ratio <= 1.5


def test_frobenius_stops_at_the_last_accepted_step_when_armijo_fails(monkeypatch):
    # with one trial per search, the first full step that fails the Armijo
    # test ends the solve unconverged, and the plan is that of the potentials
    # before it: what a budget one iteration shorter returns
    rng = np.random.default_rng(401)
    C = rng.uniform(0.0, 4.0, size=(4, 5))
    marg = MarginalWeights.uniform(4, 5)
    monkeypatch.setattr(ot_core, "ARMIJO_TRIALS", 1)
    stopped = sinkhorn_frobenius(C, marg, 0.3, max_iters=50000, tol=1e-10)
    assert not stopped.converged and stopped.iterations_used < 50000
    monkeypatch.undo()
    budget = sinkhorn_frobenius(C, marg, 0.3, max_iters=stopped.iterations_used - 1,
                                tol=1e-10)
    assert np.array_equal(stopped.plan, budget.plan)


def test_frobenius_takes_a_last_step_that_the_value_cannot_resolve():
    # at a large epsilon the step that meets tol changes the dual value by
    # less than the value's rounding, so an Armijo test alone rejects it
    # and the solve spends its whole budget one step short of tol
    rng = np.random.default_rng(11)
    C = cost_matrix(rng.normal(size=(30, 3)), rng.normal(size=(30, 3)) + 1.0)
    marg = MarginalWeights(rng.dirichlet(np.ones(30)), rng.dirichlet(np.ones(30)))
    coup = sinkhorn_frobenius(C, marg, 10.0 * median_positive_cost(C),
                              max_iters=1000, tol=1e-11)
    assert coup.converged and coup.iterations_used <= 30
    assert _residual(coup, marg) <= 1e-11


def test_frobenius_stops_when_its_steps_no_longer_lower_the_dual():
    # tol 1e-17 is below this instance's rounding floor: every Armijo search
    # then accepts a step of equal dual value that leaves the residual where
    # it is, so a solve without the stall stop spends all 1000 iterations
    rng = np.random.default_rng(0)
    C = cost_matrix(rng.normal(size=(40, 3)), rng.normal(size=(40, 3)) + 1.0)
    marg = MarginalWeights(rng.dirichlet(np.ones(40)), rng.dirichlet(np.ones(40)))
    coup = sinkhorn_frobenius(C, marg, median_positive_cost(C), max_iters=1000,
                              tol=1e-17)
    assert not coup.converged and coup.iterations_used <= 300
    assert _residual(coup, marg) > 1e-17


def test_sinkhorn_stops_when_its_residual_no_longer_falls():
    # tol 1e-17 is below this instance's rounding floor: the residual settles
    # at a few 1e-17 and never reaches tol, so a solve without the stall
    # stop spends all 1000 iterations
    rng = np.random.default_rng(0)
    C = cost_matrix(rng.normal(size=(40, 3)), rng.normal(size=(40, 3)) + 1.0)
    marg = MarginalWeights(rng.dirichlet(np.ones(40)), rng.dirichlet(np.ones(40)))
    coup = sinkhorn(C, marg, 0.1 * median_positive_cost(C), max_iters=1000,
                    tol=1e-17)
    assert not coup.converged and coup.iterations_used <= 200
    assert _residual(coup, marg) > 1e-17


def test_frobenius_converged_means_residual_within_tol():
    rng = np.random.default_rng(0)
    C = cost_matrix(rng.normal(size=(6, 3)), rng.normal(size=(6, 3)) + 0.5)
    marg = MarginalWeights.uniform(6, 6)
    eps = 0.1 * median_positive_cost(C)
    done = sinkhorn_frobenius(C, marg, eps, max_iters=20000, tol=1e-5)
    assert done.converged and _residual(done, marg) <= 1e-5
    # one iteration fewer must be both unconverged and outside tol
    short = sinkhorn_frobenius(C, marg, eps, max_iters=done.iterations_used - 1,
                               tol=1e-5)
    assert not short.converged and _residual(short, marg) > 1e-5


def test_frobenius_newton_finish_reaches_a_tight_tolerance():
    # the QP-oracle instances below, without the oracle: the Newton steps
    # must bring each to a residual of 1e-10
    for seed in range(6):
        rng = np.random.default_rng(400 + seed)
        C = rng.uniform(0.0, 4.0, size=(4, 5))
        marg = MarginalWeights.uniform(4, 5)
        coup = sinkhorn_frobenius(C, marg, 0.3, max_iters=50000, tol=1e-10)
        assert coup.converged
        assert _residual(coup, marg) <= 1e-10


def test_frobenius_matches_quadratic_program_oracle():
    cvxpy = pytest.importorskip("cvxpy")
    for seed in range(6):
        rng = np.random.default_rng(400 + seed)
        n, m = 4, 5
        C = rng.uniform(0.0, 4.0, size=(n, m))
        marg = MarginalWeights.uniform(n, m)
        eps = 0.3
        coup = sinkhorn_frobenius(C, marg, eps, max_iters=50000, tol=1e-10)
        P = cvxpy.Variable((n, m), nonneg=True)
        prob = cvxpy.Problem(
            cvxpy.Minimize(cvxpy.sum(cvxpy.multiply(C, P))
                           + eps * cvxpy.sum_squares(P)),
            [cvxpy.sum(P, axis=1) == marg.source, cvxpy.sum(P, axis=0) == marg.target],
        )
        prob.solve(solver="CLARABEL")
        ours = _quad_objective(coup.plan, C, eps)
        assert ours == pytest.approx(float(prob.value), rel=1e-6, abs=1e-8)


def test_frobenius_produces_exactly_sparse_plans():
    # far-apart clusters at small regularization: the projection clips entire
    # blocks to exact zeros, unlike the strictly positive entropic plan
    S = np.array([[0.0], [0.0], [10.0], [10.0]])
    T = np.array([[0.0], [0.0], [10.0], [10.0]])
    C = cost_matrix(S, T)
    marg = MarginalWeights.uniform(4, 4)
    frob = sinkhorn_frobenius(C, marg, 0.5, max_iters=20000, tol=1e-10)
    ent = sinkhorn(C, marg, 0.5, max_iters=20000, tol=1e-10)
    cross = np.ix_([0, 1], [2, 3])
    assert np.all(frob.plan[cross] == 0.0)
    assert np.all(ent.plan > 0.0)


def test_frobenius_zero_mass_and_validation():
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    marg = MarginalWeights(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    coup = sinkhorn_frobenius(C, marg, 0.2, max_iters=10000, tol=1e-9)
    assert np.all(coup.plan[1] == 0.0)
    assert coup.plan[0].sum() == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValidationError, match="epsilon"):
        sinkhorn_frobenius(C, MarginalWeights.uniform(2, 2), -1.0)
    for eps in (np.inf, np.nan):
        with pytest.raises(ValidationError, match="epsilon"):
            sinkhorn_frobenius(C, MarginalWeights.uniform(2, 2), eps)
    for tol in (np.inf, np.nan, 0.0, -1e-6):
        with pytest.raises(ValidationError, match="tol"):
            sinkhorn_frobenius(C, MarginalWeights.uniform(2, 2), 0.2, tol=tol)
