"""Transport solvers against independent oracles and closed-form cases."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from osborn import ot_core
from osborn.data_io import TEConfig
from osborn.errors import ComputationError, ValidationError
from osborn.ot_core import (
    EXACT_MAX_CELLS,
    NEWTON_MAX_POTENTIALS,
    Coupling,
    MarginalWeights,
    cost_matrix,
    exact_ot,
    median_positive_cost,
    sinkhorn,
    sinkhorn_frobenius,
    _newton_direction,
)
from osborn.synth import SynthSpec, build_pool

from conftest import assignment_cost_loop


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
# exact solver
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


def test_plan_is_read_only():
    coup = exact_ot(np.array([[1.0]]), MarginalWeights.uniform(1, 1))
    with pytest.raises(ValueError):
        coup.plan[0, 0] = 7.0


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
    with pytest.raises(ValidationError, match="max_iters"):
        sinkhorn(C, marg, 1.0, max_iters=0)
    with pytest.raises(ValidationError, match="negative entries"):
        sinkhorn(-C, marg, 1.0)
    with pytest.raises(ValidationError, match="do not match"):
        sinkhorn(C, MarginalWeights.uniform(3, 2), 1.0)
    with pytest.raises(ValidationError, match="non-finite"):
        sinkhorn(np.full((2, 2), np.nan), marg, 1.0)


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
    dx, dy = _newton_direction(W, grad_r, grad_c)
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
    # 600 x 600 at the default config: n + m is past the Newton limit, so
    # kernel scaling alone must reach the tolerance
    spec = SynthSpec(num_models=2, feature_dim=8, source_classes=4,
                     target_classes=4, samples=600, domain_shift=(0.0, 1.5),
                     prediction_noise=(0.0, 0.4), seed=7)
    rec = build_pool(spec).manifest.models[1]
    C = cost_matrix(rec.source_features, rec.target_features)
    assert sum(C.shape) > NEWTON_MAX_POTENTIALS
    marg = MarginalWeights.uniform(*C.shape)
    cfg = TEConfig()
    out = sinkhorn(C, marg, cfg.epsilon * median_positive_cost(C),
                   cfg.max_iters, cfg.convergence_tol)
    assert out.converged
    assert _residual(out, marg) <= cfg.convergence_tol
    # the log-domain loop needs 17
    assert out.iterations_used <= 17


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
