"""Discrete optimal transport solvers over squared Euclidean ground cost.

Three routes to a transport plan:

* ``sinkhorn``         -- entropic regularization, log-domain scaling updates
* ``sinkhorn_frobenius`` -- squared-Frobenius regularization, solved by
  L-BFGS on its smooth dual in the potentials (Blondel, Seguy & Rolet 2018),
  finished by semismooth Newton steps when a tight tolerance needs them
* ``exact_ot``         -- the unregularized LP, for small reference instances

All solvers accept explicit marginal weights and tolerate zero-mass rows or
columns by solving the reduced problem and re-inserting zero rows/columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, minimize

from .errors import ComputationError, ValidationError

EXACT_MAX_CELLS = 64
# largest n + m for which the solvers take dense (n+m)^2 Newton steps
NEWTON_MAX_POTENTIALS = 1024


@dataclass(frozen=True)
class MarginalWeights:
    """Probability weights on source rows and target columns."""

    source: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.source, dtype=np.float64)
        t = np.asarray(self.target, dtype=np.float64)
        object.__setattr__(self, "source", s)
        object.__setattr__(self, "target", t)
        for name, v in (("source", s), ("target", t)):
            if v.ndim != 1 or v.size == 0:
                raise ValidationError(f"{name} marginal must be a non-empty vector")
            if not np.all(np.isfinite(v)) or np.any(v < 0):
                raise ValidationError(f"{name} marginal must be finite and non-negative")
            if abs(float(v.sum()) - 1.0) > 1e-12:
                raise ValidationError(
                    f"{name} marginal must sum to 1 (got {float(v.sum())!r})"
                )

    @classmethod
    def uniform(cls, n: int, m: int) -> "MarginalWeights":
        if n < 1 or m < 1:
            raise ValidationError("marginal sizes must be >= 1")
        return cls(np.full(n, 1.0 / n), np.full(m, 1.0 / m))


@dataclass(frozen=True)
class Coupling:
    """A transport plan together with its linear cost and solver diagnostics."""

    plan: np.ndarray
    transport_cost: float
    iterations_used: int
    converged: bool


def cost_matrix(source, target) -> np.ndarray:
    """Pairwise squared Euclidean distances between source and target rows."""
    S = np.asarray(source, dtype=np.float64)
    T = np.asarray(target, dtype=np.float64)
    if S.ndim != 2 or T.ndim != 2:
        raise ValidationError("cost_matrix expects 2-d feature arrays")
    if S.shape[1] != T.shape[1]:
        raise ValidationError(
            f"feature dimension mismatch ({S.shape[1]} vs {T.shape[1]})"
        )
    if S.shape[0] == 0 or T.shape[0] == 0:
        raise ValidationError("feature arrays must be non-empty")
    if not (np.all(np.isfinite(S)) and np.all(np.isfinite(T))):
        raise ValidationError("non-finite feature value")
    sq = (S * S).sum(axis=1)[:, None] + (T * T).sum(axis=1)[None, :] - 2.0 * (S @ T.T)
    # rounding can push true zeros slightly negative
    np.maximum(sq, 0.0, out=sq)
    return sq


def median_positive_cost(cost: np.ndarray) -> float:
    """Median cost entry, falling back to the positive entries if the plain
    median is zero (degenerate but possible with many coincident points)."""
    C = np.asarray(cost, dtype=np.float64)
    med = float(np.median(C))
    if med > 0:
        return med
    pos = C[C > 0]
    if pos.size:
        return float(np.median(pos))
    return 1.0


def _validate_problem(cost, marginals: MarginalWeights):
    C = np.asarray(cost, dtype=np.float64)
    if C.ndim != 2 or C.size == 0:
        raise ValidationError("cost matrix must be 2-d and non-empty")
    if not np.all(np.isfinite(C)):
        raise ValidationError("cost matrix has non-finite entries")
    if np.any(C < 0):
        raise ValidationError("cost matrix has negative entries")
    n, m = C.shape
    if marginals.source.shape[0] != n or marginals.target.shape[0] != m:
        raise ValidationError(
            f"marginal sizes ({marginals.source.shape[0]}, {marginals.target.shape[0]}) "
            f"do not match cost shape {C.shape}"
        )
    return C


def _validate_settings(epsilon, max_iters):
    epsilon = float(epsilon)
    if not epsilon > 0:
        raise ValidationError("epsilon must be > 0")
    max_iters = int(max_iters)
    if max_iters < 1:
        raise ValidationError("max_iters must be >= 1")
    return epsilon, max_iters


def _reduce(C, marginals: MarginalWeights):
    """Drop zero-mass rows and columns: the kept indices, their weights and
    the reduced cost matrix."""
    rows = np.flatnonzero(marginals.source > 0)
    cols = np.flatnonzero(marginals.target > 0)
    return (rows, cols, marginals.source[rows], marginals.target[cols],
            C[np.ix_(rows, cols)])


def _coupling(C, P, rows, cols, iterations_used, converged) -> Coupling:
    """Re-insert the zero rows/columns around the reduced plan ``P``."""
    plan = np.zeros(C.shape, dtype=np.float64)
    plan[np.ix_(rows, cols)] = P
    plan.setflags(write=False)
    return Coupling(
        plan=plan,
        transport_cost=float((C * plan).sum()),
        iterations_used=iterations_used,
        converged=converged,
    )


def _lse_rows(A):
    mx = A.max(axis=1)
    return mx + np.log(np.exp(A - mx[:, None]).sum(axis=1))


def _lse_cols(A):
    mx = A.max(axis=0)
    return mx + np.log(np.exp(A - mx[None, :]).sum(axis=0))


def _residual(P, b, g) -> float:
    """The worse of the row and column marginal defects (infinity norm)."""
    return max(float(np.abs(P.sum(axis=1) - b).max()),
               float(np.abs(P.sum(axis=0) - g).max()))


def _newton_polish_step(W, plan_of, f, h, P, b, g, res):
    """One damped Newton step on a transport dual in the potentials (f, h).

    The dual gradient is the marginal defect of ``P = plan_of(f, h)`` and the
    Hessian is ``[[diag(W 1), W], [W^T, diag(W^T 1)]]``: ``W`` is the plan
    itself for the entropic dual (up to the shared epsilon factor, which
    cancels in the step) and the 0/1 support of the plan over ``2 epsilon``
    for the quadratic dual, where this is a semismooth Newton step on the
    current support.  The constant-shift nullspace is handled by a tiny
    Tikhonov term.  Backtracks on the residual; reports failure so the
    caller can fall back or stop.
    """
    nr = f.shape[0]
    r = W.sum(axis=1)
    c = W.sum(axis=0)
    grad = np.concatenate([P.sum(axis=1) - b, P.sum(axis=0) - g])
    H = np.zeros((nr + c.shape[0], nr + c.shape[0]))
    H[:nr, :nr] = np.diag(r)
    H[nr:, nr:] = np.diag(c)
    H[:nr, nr:] = W
    H[nr:, :nr] = W.T
    lam = 1e-12 * (1.0 + float(max(r.max(), c.max())))
    try:
        step = np.linalg.solve(H + lam * np.eye(H.shape[0]), -grad)
    except np.linalg.LinAlgError:
        return f, h, P, res, False
    if not np.all(np.isfinite(step)):
        return f, h, P, res, False
    for alpha in (1.0, 0.5, 0.25, 0.125, 0.0625):
        f_try = f + alpha * step[:nr]
        h_try = h + alpha * step[nr:]
        P_try = plan_of(f_try, h_try)
        res_try = _residual(P_try, b, g)
        if res_try < res:
            return f_try, h_try, P_try, res_try, True
    return f, h, P, res, False


def sinkhorn(cost, marginals: MarginalWeights, epsilon: float,
             max_iters: int = 1000, tol: float = 1e-6) -> Coupling:
    """Entropic OT via log-domain scaling iterations.

    Dual potentials are updated in log space, so small ``epsilon`` does not
    overflow.  Convergence is declared when the worse of the two marginal
    residuals (infinity norm) drops to ``tol``.

    Plain scaling starts from zero potentials.  Once the residual is small
    on instances where the dense (n+m) dual Hessian is affordable, damped
    Newton steps on the dual potentials finish the solve: at small
    ``epsilon`` with near-degenerate costs plain scaling contracts like
    1 - O(1e-4) per sweep and cannot reach tight tolerances in any
    reasonable budget, while the Newton phase converges quadratically to
    the same potentials.
    """
    epsilon, max_iters = _validate_settings(epsilon, max_iters)
    C = _validate_problem(cost, marginals)
    rows, cols, b, g, Cr = _reduce(C, marginals)
    K = -Cr / epsilon
    log_b = np.log(b)
    log_g = np.log(g)
    f = np.zeros(rows.shape[0])
    h = np.zeros(cols.shape[0])
    newton_ok = sum(Cr.shape) <= NEWTON_MAX_POTENTIALS
    newton_gate = max(100.0 * float(tol), 1e-4)
    P = None
    res = np.inf
    iters = 0
    while iters < max_iters and res > tol:
        iters += 1
        if newton_ok and res <= newton_gate:
            f, h, P, res, newton_ok = _newton_polish_step(
                P, lambda f, h: np.exp(K + f[:, None] + h[None, :]),
                f, h, P, b, g, res)
        else:
            f = log_b - _lse_rows(K + h[None, :])
            h = log_g - _lse_cols(K + f[:, None])
            P = np.exp(K + f[:, None] + h[None, :])
            res = _residual(P, b, g)
    if not np.all(np.isfinite(P)):
        raise ComputationError("sinkhorn produced non-finite plan entries")
    return _coupling(C, P, rows, cols, iters, res <= tol)


def sinkhorn_frobenius(cost, marginals: MarginalWeights, epsilon: float,
                       max_iters: int = 1000, tol: float = 1e-6) -> Coupling:
    """Squared-Frobenius-regularized OT.

    Minimizes ``<C, P> + epsilon * ||P||_F^2`` over the transport polytope
    through its smooth dual (Blondel, Seguy & Rolet 2018): minimize
    ``-(f.b + h.g) + sum([f_i + h_j - C_ij]_+^2) / (4 epsilon)`` over the
    potentials with L-BFGS.  The dual gradient is the marginal defect of the
    plan ``P = [f + h - C]_+ / (2 epsilon)``, so L-BFGS stops exactly when
    the residual reaches ``tol``.  When L-BFGS stalls just above a tight
    ``tol`` and the dense (n+m) Hessian is affordable, damped semismooth
    Newton steps on the plan's support finish the solve.
    ``iterations_used`` counts L-BFGS iterations plus Newton steps and never
    exceeds ``max_iters``.  Unlike the entropic route the optimal plan can be
    exactly sparse.
    """
    epsilon, max_iters = _validate_settings(epsilon, max_iters)
    C = _validate_problem(cost, marginals)
    rows, cols, b, g, Cr = _reduce(C, marginals)
    nr, mc = Cr.shape

    def plan_of(f, h):
        return np.maximum(f[:, None] + h[None, :] - Cr, 0.0) / (2.0 * epsilon)

    def dual(x):
        P = plan_of(x[:nr], x[nr:])
        value = epsilon * float((P * P).sum()) - float(x[:nr] @ b + x[nr:] @ g)
        return value, np.concatenate([P.sum(axis=1) - b, P.sum(axis=0) - g])

    opt = minimize(dual, np.zeros(nr + mc), jac=True, method="L-BFGS-B",
                   options={"gtol": float(tol), "ftol": 0.0, "maxiter": max_iters})
    f, h = opt.x[:nr], opt.x[nr:]
    P = plan_of(f, h)
    res = _residual(P, b, g)
    iters = int(opt.nit)
    newton_ok = (nr + mc) <= NEWTON_MAX_POTENTIALS
    while res > tol and newton_ok and iters < max_iters:
        iters += 1
        f, h, P, res, newton_ok = _newton_polish_step(
            (P > 0) / (2.0 * epsilon), plan_of, f, h, P, b, g, res)
    if not np.all(np.isfinite(P)):
        raise ComputationError("frobenius solver produced non-finite plan entries")
    return _coupling(C, P, rows, cols, iters, res <= tol)


def exact_ot(cost, marginals: MarginalWeights) -> Coupling:
    """Unregularized OT solved as a transportation LP (reference oracle).

    Refuses instances with more than ``EXACT_MAX_CELLS`` plan entries: this
    route exists for validating the scalable solvers, not for production use.
    """
    C = _validate_problem(cost, marginals)
    n, m = C.shape
    if n * m > EXACT_MAX_CELLS:
        raise ValidationError(
            f"exact solver limited to {EXACT_MAX_CELLS} plan entries, got {n * m}"
        )
    rows, cols, b, g, Cr = _reduce(C, marginals)
    nr, mc = Cr.shape
    A_eq = np.zeros((nr + mc, nr * mc))
    for i in range(nr):
        A_eq[i, i * mc:(i + 1) * mc] = 1.0
    for j in range(mc):
        A_eq[nr + j, j::mc] = 1.0
    b_eq = np.concatenate([b, g])
    res = linprog(Cr.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise ComputationError(f"exact transport LP failed: {res.message}")
    P = np.maximum(res.x.reshape(nr, mc), 0.0)
    defect = _residual(P, b, g)
    if defect > 1e-10:
        raise ComputationError(f"exact transport LP returned marginal residual {defect:g}")
    return _coupling(C, P, rows, cols, int(res.nit), True)
