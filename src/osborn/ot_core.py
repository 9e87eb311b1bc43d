"""Discrete optimal transport solvers over squared Euclidean ground cost.

Two routes to a transport plan:

* ``sinkhorn``         -- entropic regularization, kernel-domain scaling on a
  stabilized kernel whose large scalings are absorbed into log-domain
  potentials, with a log-domain sweep wherever a scaling step meets a
  kernel row or column that underflowed (Cuturi 2013; Schmitzer 2019),
  finished at every size by matrix-free inexact Newton steps (Brauer,
  Clason, Lorenz & Wirth 2017)
* ``sinkhorn_frobenius`` -- squared-Frobenius regularization, solved at
  every size by globalized semismooth Newton steps on its smooth dual in
  the potentials (Blondel, Seguy & Rolet 2018; Lorenz, Manns & Meyer 2021),
  each on the plan's sparse support, with every dual evaluation read on a
  screened set of cells that can carry mass (Alaya et al. 2019): a cell
  whose slack ``C - f - h`` at a reference point is at least ``delta`` has
  zero excess while the potentials drift by at most ``delta / 2``; a set
  over its cap falls back to a dense evaluation with the same bits

Both regularized duals have the Hessian ``[[diag(r), W], [W^T, diag(c)]]``
and take their Newton steps from one ``_newton_direction``; they differ only
in how products with ``W`` are formed.  Both solvers accept explicit marginal
weights and tolerate zero-mass rows or columns by solving the reduced problem
and re-inserting zero rows/columns.  Every returned plan is judged once, by
``_coupling``, from its worse marginal residual (infinity norm):
``converged`` means it is at most ``tol``, and a residual that is not
finite raises ``ComputationError``; no solver scans its plan itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import _check_int
from .errors import ComputationError, ValidationError

# the entropic Newton finish starts once scaling, at the rate its last
# iteration shrank the residual, would need more than this many further
# iterations to reach tol: at pool scale one Newton step (its diagonal,
# inner solve and backtracking) costs about as many matrix-vector products
NEWTON_SWITCH_ITERS = 8
# conjugate-gradient iterations allowed in one Newton step
NEWTON_CG_MAX_ITERS = 100
# step lengths a damped entropic Newton step tries, longest first
BACKTRACK_STEPS = (1.0, 0.5, 0.25, 0.125, 0.0625)
# a Frobenius Newton step's diagonal shift starts at this factor times the
# residual; the factor halves after a full step, doubles after a shorter one
FROBENIUS_SHIFT = 10.0
# step lengths one Frobenius Armijo search tries before the solve stops
ARMIJO_TRIALS = 30
# a Frobenius dual evaluation reads only the cells whose slack C - f - h at a
# reference point is below this factor times epsilon.  On the frobenius-solve
# bench pool (12 solves of 300 x 300, 70 iterations) 0.25 keeps 355-2,256 of
# the 90,000 cells a set and rebuilds it 2.4 times a solve; 1/16 keeps
# 303-1,348 for 2.7 rebuilds, while at 1/2 some sets and at 1 every set is
# over the cap below, and the solves take 1.5-1.6 times as long
SCREEN_SLACK = 0.25
# a set of candidate (or positive) cells that is not smaller than this share
# of the cells is not kept, and the evaluation reads the n x m work buffer
# instead: a cell kept takes three 8-byte values (row, column, cost or
# excess), so a set at the cap takes 3/32 of the cost matrix's bytes, and a
# solve holds at most two sets and a 1-byte mask beside its work buffer
SCREEN_MAX_SHARE = 1.0 / 32.0
# the rounding of C - f - h, relative to the potentials' size, that the
# screen's drift margin must cover
SCREEN_ROUNDING = 2.0 ** -40
# iterations in a row that make no progress before a solve stops: entropic
# iterations near tol that do not lower the best residual so far, or
# accepted Frobenius steps that do not lower the dual value.  Below a
# solve's rounding floor no step can reach tol
STALL_STEPS = 50
# a kernel scaling outside [1 / SCALING_BOUND, SCALING_BOUND] is absorbed
# into the log-domain potentials and the stabilized kernel is rebuilt
SCALING_BOUND = 1e30
# rows of the norm-sum block cost_matrix adds at a time
COST_BLOCK_ROWS = 256


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
    # |s|^2 + |t|^2 - 2 s.t in the Gram matrix's own array: negation and
    # doubling are exact and addition commutes, so every entry rounds as
    # (|s|^2 + |t|^2) - 2 s.t does; only a row block of the norm sums is
    # held beside it
    sq = S @ T.T
    sq *= -2.0
    s2 = (S * S).sum(axis=1)
    t2 = (T * T).sum(axis=1)
    for lo in range(0, sq.shape[0], COST_BLOCK_ROWS):
        hi = lo + COST_BLOCK_ROWS
        sq[lo:hi] += s2[lo:hi, None] + t2[None, :]
    # rounding can push true zeros slightly negative
    np.maximum(sq, 0.0, out=sq)
    return sq


def _median_in_place(flat) -> float:
    """``np.median`` of the 1-d array ``flat``, bit for bit, from one
    partition of ``flat`` in place (``np.median`` partitions at several
    positions): the middle entry, or the mean of the two middle entries."""
    k = flat.size // 2
    flat.partition(k)
    if flat.size % 2:
        return float(flat[k])
    return float((flat[:k].max() + flat[k]) / 2.0)


def median_positive_cost(cost: np.ndarray) -> float:
    """Median cost entry, falling back to the positive entries if the plain
    median is zero (degenerate but possible with many coincident points).
    Each median partitions a copy of the entries."""
    C = np.asarray(cost, dtype=np.float64)
    med = _median_in_place(C.flatten())
    if med > 0:
        return med
    pos = C[C > 0]
    if pos.size:
        return _median_in_place(pos)
    return 1.0


def _validate_problem(cost, marginals: MarginalWeights):
    C = np.asarray(cost, dtype=np.float64)
    if C.ndim != 2 or C.size == 0:
        raise ValidationError("cost matrix must be 2-d and non-empty")
    # NaN and +-inf propagate into the extremes, so two reductions check
    # every entry without an n x m mask
    lo, hi = float(C.min()), float(C.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValidationError("cost matrix has non-finite entries")
    if lo < 0:
        raise ValidationError("cost matrix has negative entries")
    n, m = C.shape
    if marginals.source.shape[0] != n or marginals.target.shape[0] != m:
        raise ValidationError(
            f"marginal sizes ({marginals.source.shape[0]}, {marginals.target.shape[0]}) "
            f"do not match cost shape {C.shape}"
        )
    return C


def _validate_settings(epsilon, max_iters, tol):
    epsilon = float(epsilon)
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValidationError("epsilon must be finite and > 0")
    max_iters = _check_int(max_iters, "max_iters")
    if max_iters < 1:
        raise ValidationError("max_iters must be >= 1")
    tol = float(tol)
    if not (np.isfinite(tol) and tol > 0):
        raise ValidationError("tol must be finite and > 0")
    return epsilon, max_iters, tol


def _reduce(C, marginals: MarginalWeights):
    """Drop zero-mass rows and columns: the kept indices, their weights and
    the reduced cost matrix (``C`` itself when nothing is dropped)."""
    rows = np.flatnonzero(marginals.source > 0)
    cols = np.flatnonzero(marginals.target > 0)
    Cr = C if (rows.size, cols.size) == C.shape else C[np.ix_(rows, cols)]
    return rows, cols, marginals.source[rows], marginals.target[cols], Cr


def _coupling(C, P, rows, cols, iterations_used, marginals, tol) -> Coupling:
    """Re-insert the zero rows/columns around the reduced plan ``P`` and
    judge the returned plan by one number, its marginal residual, the
    worse of its row and column marginal defects (infinity norm):
    ``converged`` means it is at most ``tol``, and a residual that is not
    finite raises ``ComputationError`` (a NaN or infinite entry makes its
    row and column sums, and so the residual, non-finite)."""
    if P.shape == C.shape:
        plan = P
    else:
        plan = np.zeros(C.shape, dtype=np.float64)
        plan[np.ix_(rows, cols)] = P
    res = max(float(np.abs(plan.sum(axis=1) - marginals.source).max()),
              float(np.abs(plan.sum(axis=0) - marginals.target).max()))
    if not np.isfinite(res):
        raise ComputationError("transport solve produced non-finite plan entries")
    plan.setflags(write=False)
    return Coupling(plan=plan, transport_cost=float(np.vdot(C, plan)),
                    iterations_used=iterations_used, converged=res <= tol)


def _log_sum_exp(A, axis):
    """Log-sum-exp of ``A`` along ``axis``, computed in place: ``A`` is
    overwritten."""
    mx = A.max(axis=axis)
    A -= np.expand_dims(mx, axis)
    np.exp(A, out=A)
    return mx + np.log(A.sum(axis=axis))


def _log_kernel(Cr, epsilon, f, h, out):
    """``-C / epsilon + f_i + h_j`` written into ``out``."""
    np.divide(Cr, -epsilon, out=out)
    out += f[:, None]
    out += h[None, :]
    return out


def _log_sweep(Cr, epsilon, f, h, b, g, Kt):
    """One log-domain iteration from the potentials ``(f, h)``: ``f`` fits
    the rows, then ``h`` the columns.  Returns the new potentials, with
    ``Kt`` holding the stabilized kernel ``exp(-C / epsilon + f_i + h_j)``."""
    f = f + (np.log(b) - _log_sum_exp(_log_kernel(Cr, epsilon, f, h, Kt), axis=1))
    h = h + (np.log(g) - _log_sum_exp(_log_kernel(Cr, epsilon, f, h, Kt), axis=0))
    np.exp(_log_kernel(Cr, epsilon, f, h, Kt), out=Kt)
    return f, h


def _clipped_excess(Cr, f, h, out):
    """``[f_i + h_j - C_ij]_+`` written into ``out``.  ``h`` is copied in
    and ``f`` added along rows: one broadcast operand, not two, and the same
    bits, since addition commutes."""
    out[...] = h
    out += f[:, None]
    out -= Cr
    return np.maximum(out, 0.0, out=out)


def _cells(mask, values):
    """The rows, columns and ``values`` of the cells ``mask`` marks, in
    row-major order, or ``None`` when they are not fewer than
    ``SCREEN_MAX_SHARE`` of the cells."""
    if not np.count_nonzero(mask) < SCREEN_MAX_SHARE * mask.size:
        return None
    I, J = np.divmod(np.flatnonzero(mask), mask.shape[1])
    return I, J, values[I, J]


def _candidates(Cr, x, delta, buf):
    """The cells that can carry mass near the potentials ``x = (f, h)``, from
    ``buf`` holding ``C - f``: those whose slack ``C_ij - f_i - h_j`` is
    below ``delta``, as rows, columns and costs (``_cells``).  ``None`` when
    they are too many, or when ``delta`` is within ``SCREEN_ROUNDING`` of
    the potentials' size."""
    if not 4.0 * SCREEN_ROUNDING * np.abs(x).max() < delta:
        return None
    return _cells(buf < x[buf.shape[0]:] + delta, Cr)


class _Screen:
    """The candidate cells of a Frobenius solve's dual evaluations
    (``sinkhorn_frobenius`` states the rule): ``_candidates`` at the
    reference potentials ``ref`` (none yet while ``ref`` is ``None``;
    ``cells`` is ``None`` for a dense evaluation), rebuilt at ``x`` once
    the drift from ``ref``, plus ``SCREEN_ROUNDING`` times the potentials'
    size for the rounding it must cover, exceeds ``delta / 2``.  Without a
    set the drift only decides when to look for one again."""

    def __init__(self, delta, ref=None, cells=None):
        self.delta, self.ref, self.cells = delta, ref, cells

    def cells_at(self, x, Cr, buf):
        nr = buf.shape[0]
        if self.ref is not None:
            d = x - self.ref
            drift = d[:nr].max() + d[nr:].max()
            if self.cells is not None:
                drift += SCREEN_ROUNDING * (np.abs(x).max() + np.abs(self.ref).max())
            if drift <= self.delta / 2.0:
                return self.cells
        np.subtract(Cr, x[:nr, None], out=buf)
        self.ref, self.cells = x, _candidates(Cr, x, self.delta, buf)
        return self.cells


def _frobenius_dual(x, Cr, b, g, epsilon, buf, screen):
    """Value and gradient of the squared-Frobenius dual at the potentials
    ``x = (f, h)``: ``-(f.b + h.g) + sum(Z * Z) / (4 epsilon)`` with ``Z =
    [f_i + h_j - C_ij]_+``, and the marginal defect of the plan ``Z / (2
    epsilon)``, with the cells ``(I, J, z)`` it summed, ``z`` their ``Z``.
    With candidates from ``screen`` those are the candidates (every other
    cell's ``Z`` is exactly zero) and ``buf`` is untouched.  Without, ``Z``
    is formed in the n x m buffer ``buf`` and its positive cells are taken,
    or, when they are too many (``_cells``), ``None`` is returned and
    ``buf`` is left holding ``Z``.  Every route forms each ``Z_ij`` with the
    same bits and adds the same terms in the same order (each row and each
    column in index order, as ``np.bincount`` does, then the rows' sums of
    squares), so the route changes no bit of the result.
    """
    nr, mc = buf.shape
    f, h = x[:nr], x[nr:]
    cells = screen.cells_at(x, Cr, buf)
    if cells is not None:
        I, J, cost = cells
        z = f[I]
        z += h[J]
        z -= cost
        cells = I, J, np.maximum(z, 0.0, out=z)
    else:
        Z = _clipped_excess(Cr, f, h, buf)
        cells = _cells(Z > 0, Z)
    if cells is None:
        rows, sq = np.zeros(nr), np.zeros(nr)
        for col in Z.T:
            rows += col
            sq += col * col
        cols = Z.sum(axis=0)  # numpy adds the rows of a row-major array in turn
    else:
        I, J, z = cells
        rows = np.bincount(I, weights=z, minlength=nr)
        sq = np.bincount(I, weights=z * z, minlength=nr)
        cols = np.bincount(J, weights=z, minlength=mc)
    value = float(sq.sum()) / (4.0 * epsilon) - float(f @ b + h @ g)
    # np.bincount over no cells counts in integers
    grad = np.concatenate([rows, cols], dtype=np.float64)
    grad /= 2.0 * epsilon
    grad[:nr] -= b
    grad[nr:] -= g
    return value, grad, cells


def _tikhonov(r, c) -> float:
    """The diagonal shift a Newton solve adds to a transport dual's Hessian
    with row sums ``r`` and column sums ``c``: it pins the constant-shift
    nullspace."""
    return 1e-12 * (1.0 + float(max(r.max(), c.max())))


def _pcg(matvec, rhs, diag, eta):
    """Conjugate gradients for ``matvec(y) = rhs`` from ``y = 0`` with the
    Jacobi preconditioner ``diag``: stops once the residual norm is at most
    ``eta |rhs|`` or after ``NEWTON_CG_MAX_ITERS`` iterations."""
    y = np.zeros_like(rhs)
    resid = rhs.copy()
    z = resid / diag
    p = z
    rz = float(resid @ z)
    stop = eta * eta * float(rhs @ rhs)
    for _ in range(NEWTON_CG_MAX_ITERS):
        Sp = matvec(p)
        pSp = float(p @ Sp)
        if not pSp > 0:  # rounding broke positive definiteness
            break
        alpha = rz / pSp
        y += alpha * p
        resid -= alpha * Sp
        if float(resid @ resid) <= stop:
            break
        z = resid / diag
        rz, rz_old = float(resid @ z), rz
        p = z + (rz / rz_old) * p
    return y


def _forcing(res, b, tol) -> float:
    """A Newton step's inner relative residual: the quadratic forcing of
    Dembo, Eisenstat & Steihaug (1982), capped at ``tol / res`` so the step
    that meets ``tol`` lands where an exact Newton step would."""
    return min(0.1, res / float(b.max()), tol / res)


def _newton_direction(rows_of, cols_of, sq_cols_of, r, c, lam, grad_r,
                      grad_c, eta):
    """The Newton step ``(dx, dy)`` for the Hessian ``[[diag(r), W], [W^T,
    diag(c)]] + lam I`` and gradient ``(grad_r, grad_c)``, ``W`` given only
    by ``rows_of(y) = W y``, ``cols_of(z) = W^T z`` and ``sq_cols_of(z) =
    (W * W)^T z``.  ``dy`` solves the Schur complement ``S = diag(c + lam) -
    W^T diag(r + lam)^-1 W``, never formed, by conjugate gradients to the
    relative residual ``eta`` (Brauer, Clason, Lorenz & Wirth 2017), and
    ``dx`` follows row by row.  The Jacobi preconditioner, the true
    diagonal of ``S``, keeps near-permutation plans solvable."""
    r = r + lam
    c = c + lam
    diag = np.maximum(c - sq_cols_of(1.0 / r), lam)
    dy = _pcg(lambda y: c * y - cols_of(rows_of(y) / r),
              cols_of(grad_r / r) - grad_c, diag, eta)
    return -(grad_r + rows_of(dy)) / r, dy


def _newton_cg_step(Kt, u, v, Kv, b, g, res, tol):
    """One damped inexact Newton step on the log-scalings of the entropic
    plan ``P = diag(u) Kt diag(v)``, with ``Kv = Kt v``, without forming
    ``P``.  The dual's gradient is the marginal defect ``(r - b, c - g)``
    of ``P`` and its Hessian ``[[diag(r), P], [P^T, diag(c)]]`` (epsilon
    cancels), so the step is the shared ``_newton_direction`` through ``P y
    = u (Kt (v y))``, ``P^T z = v (Kt^T (u z))`` and one pass over ``Kt``
    for ``(P * P)^T z``.  Backtracks on the residual, each trial's from two
    matrix-vector products; a trial that overflows is rejected without a
    warning.  Returns ``(u, v, Kt v, res, ok)``; ``ok`` is false when no
    trial lowered the residual."""
    r = u * Kv
    c = v * (Kt.T @ u)
    dx, dy = _newton_direction(
        lambda y: u * (Kt @ (v * y)), lambda z: v * (Kt.T @ (u * z)),
        lambda z: v * v * np.einsum("ij,ij,i->j", Kt, Kt, u * u * z),
        r, c, _tikhonov(r, c), r - b, c - g, _forcing(res, b, tol))
    if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(dy))):
        return u, v, Kv, res, False
    for alpha in BACKTRACK_STEPS:
        # a long step can overflow a scaling, and inf * 0 is NaN; the
        # trial is then rejected by its residuals, which are not both finite
        with np.errstate(over="ignore", invalid="ignore"):
            u_try = u * np.exp(alpha * dx)
            v_try = v * np.exp(alpha * dy)
            Kv_try = Kt @ v_try
            res_rows = float(np.abs(u_try * Kv_try - b).max())
            res_cols = float(np.abs(v_try * (Kt.T @ u_try) - g).max())
        res_try = max(res_rows, res_cols)
        if np.isfinite(res_rows + res_cols) and res_try < res:
            return u_try, v_try, Kv_try, res_try, True
    return u, v, Kv, res, False


def sinkhorn(cost, marginals: MarginalWeights, epsilon: float,
             max_iters: int = 1000, tol: float = 1e-6) -> Coupling:
    """Entropic OT via kernel-domain scaling on a stabilized kernel.

    Iteration 1 is a log-domain sweep from zero potentials: ``f`` fits the
    rows, then ``h`` the columns.  Its plan becomes the stabilized kernel
    ``Kt = exp(-C / epsilon + f_i + h_j)``, and every later iteration is a
    kernel-domain scaling (Cuturi 2013) with two matrix-vector products:
    ``u = b / (Kt v)``, ``v = g / (Kt^T u)``.  The plan is ``u Kt v`` and its
    columns fit exactly after each iteration, so the residual is the row
    defect ``|u (Kt v) - b|``; ``Kt v`` is then the next denominator.  When
    a scaling leaves ``[1 / SCALING_BOUND, SCALING_BOUND]`` it is absorbed
    into the potentials, ``Kt`` is rebuilt and the scalings reset to one
    (Schmitzer 2019), so small ``epsilon`` neither overflows nor underflows
    whole rows of the kernel.  At a tiny ``epsilon`` a row or column of
    ``Kt`` can still underflow against the scalings, so that an entry of
    ``b / (Kt v)`` or ``g / (Kt^T u)`` is not positive and finite (both are
    taken under ``np.errstate``): the last scalings are then absorbed into the
    potentials and iteration 1's log-domain sweep, ``_log_sweep``, is taken
    again from them.  The loop stops when its residual drops to
    ``tol``, or after ``STALL_STEPS`` iterations in a row at a residual
    within ``max(100 tol, 1e-4)`` that do not lower the best residual so far
    (a ``tol`` below the rounding floor); ``converged`` is taken on the
    returned plan.

    Once the residual is at most ``max(100 tol, 1e-4)`` and scaling, at the
    rate of its last iteration, would need more than
    ``NEWTON_SWITCH_ITERS`` further iterations to reach ``tol``, damped
    inexact Newton steps on the log-scalings finish the solve, at every
    problem size (``_newton_cg_step``): at small ``epsilon`` with
    near-degenerate costs plain scaling contracts like 1 - O(1e-4) per sweep
    and cannot reach tight tolerances in any reasonable budget, while the
    Newton phase converges quadratically to the same potentials.  Each
    step solves its m x m Schur complement by preconditioned conjugate
    gradients through matrix-vector products with ``Kt``, so it forms
    neither that matrix nor the plan, and its trial residuals come from
    matrix-vector products too.  A step counts as one iteration; one that
    cannot lower the residual hands the rest of the solve back to scaling.
    The call holds one n x m array, ``Kt``, which finally becomes the plan
    in place; ``_coupling`` judges it.
    """
    epsilon, max_iters, tol = _validate_settings(epsilon, max_iters, tol)
    C = _validate_problem(cost, marginals)
    rows, cols, b, g, Cr = _reduce(C, marginals)
    # iteration 1 in the log domain, in the one n x m work buffer that
    # then holds the stabilized kernel and finally the plan
    Kt = np.empty_like(Cr)
    f, h = _log_sweep(Cr, epsilon, np.zeros_like(b), np.zeros_like(g), b, g, Kt)
    u, v = np.ones_like(b), np.ones_like(g)
    Kv = Kt @ v
    res = float(np.abs(Kv - b).max())
    iters = 1
    newton_ok = True
    newton_gate = max(100.0 * float(tol), 1e-4)
    contraction = 0.0  # res / its value before the last scaling iteration
    best = res
    stalled = 0  # iterations in a row that did not lower best
    while iters < max_iters and res > tol and stalled < STALL_STEPS:
        iters += 1
        if (newton_ok and res <= newton_gate
                and res * contraction ** NEWTON_SWITCH_ITERS > tol):
            u, v, Kv, res, newton_ok = _newton_cg_step(Kt, u, v, Kv, b, g, res, tol)
        else:
            res_before = res
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                u_next = b / Kv
                v_next = g / (Kt.T @ u_next)
            # np.minimum and np.maximum, unlike min and max, keep a NaN
            lo = np.minimum(u_next.min(), v_next.min())
            hi = np.maximum(u_next.max(), v_next.max())
            if not (lo > 0 and hi < np.inf):
                # a row or column of the kernel underflowed against the
                # scalings: absorb them and sweep again in the log domain
                f, h = _log_sweep(Cr, epsilon, f + np.log(u), h + np.log(v), b, g, Kt)
                u, v = np.ones_like(b), np.ones_like(g)
            elif lo < 1.0 / SCALING_BOUND or hi > SCALING_BOUND:
                f += np.log(u_next)
                h += np.log(v_next)
                np.exp(_log_kernel(Cr, epsilon, f, h, Kt), out=Kt)
                u, v = np.ones_like(b), np.ones_like(g)
            else:
                u, v = u_next, v_next
            Kv = Kt @ v
            res = float(np.abs(u * Kv - b).max())
            contraction = res / res_before
        # far from tol the max-norm residual can plateau for a hundred or more
        # scaling iterations while other rows still move, so only a stall
        # within the Newton gate counts
        stalled = stalled + 1 if best <= res <= newton_gate else 0
        best = min(best, res)
    Kt *= u[:, None]
    Kt *= v[None, :]
    return _coupling(C, Kt, rows, cols, iters, marginals, tol)


def sinkhorn_frobenius(cost, marginals: MarginalWeights, epsilon: float,
                       max_iters: int = 1000, tol: float = 1e-6) -> Coupling:
    """Squared-Frobenius-regularized OT.

    Minimizes ``<C, P> + epsilon * ||P||_F^2`` over the transport polytope
    through its smooth dual (Blondel, Seguy & Rolet 2018), ``-(f.b + h.g) +
    sum([f_i + h_j - C_ij]_+^2) / (4 epsilon)``, by globalized semismooth
    Newton steps in the potentials (Lorenz, Manns & Meyer 2021).  The
    gradient is the marginal defect of the plan ``P = [f + h - C]_+ / (2
    epsilon)``, and the Hessian is ``[[diag(r), W], [W^T, diag(c)]] / (2
    epsilon)`` with ``W`` the plan's 0/1 support and ``r``, ``c`` its row
    and column counts.  The start ``f_i = min_j C_ij + 2 epsilon b_i``,
    ``h_j = min_i (C_ij - f_i)`` puts every row and column on the support's
    edge.  Each step takes the support from the last accepted evaluation
    and the shared ``_newton_direction`` through O(nnz) ``np.bincount``
    products with
    ``W``, its diagonal shifted by ``_tikhonov`` plus ``FROBENIUS_SHIFT``
    (adapted step by step) times the residual, a Levenberg-Marquardt term
    that keeps the step of a column with little or no support finite.  An
    Armijo search on the dual value, shortening by quadratic interpolation,
    sets the step length; it also takes a trial whose residual is within
    ``tol``, whose value change rounding can hide.  A search that finds
    neither in ``ARMIJO_TRIALS`` trials ends the solve at the last accepted
    potentials, and so do ``STALL_STEPS`` accepted steps in a row
    that leave the dual value where it was (a ``tol`` below the rounding
    floor).  ``iterations_used`` counts the start plus the Newton steps, at
    most ``max_iters``; ``converged`` means the returned plan's residual is
    at most ``tol``.  Unlike the entropic route the plan can be exactly
    sparse.

    Dual evaluations (``_frobenius_dual``) read a screened candidate set of
    cells (after the safe screening of Alaya et al. 2019), not the n x m
    matrix.  One sweep at reference potentials ``(f0, h0)`` keeps the cells
    whose slack ``C - f0 - h0`` is below ``delta = SCREEN_SLACK *
    epsilon``; at the start the work buffer already holds ``C - f0``, so
    that is one comparison with ``h0 + delta``.  While an evaluation's
    drift ``max(f - f0) + max(h - h0)`` is at most ``delta / 2`` every
    other cell has ``f_i + h_j - C_ij <= -delta / 2``, so its excess is
    exactly zero (the margin also covers rounding, ``SCREEN_ROUNDING``) and
    the value, the gradient and the next step's support come from the
    candidates alone; a larger drift rebuilds the set where the evaluation
    is.  A set of ``SCREEN_MAX_SHARE`` of the cells or more (a flat cost
    makes every cell a candidate) is not kept, and until the next rebuild
    the evaluations form ``[f + h - C]_+`` in one n x m work buffer
    instead.  Both routes give the same bits, so the screen changes no
    iterate.  The plan is written into that buffer from the last accepted
    evaluation's cells (or formed there, when they were too many to keep)
    and returned.
    """
    epsilon, max_iters, tol = _validate_settings(epsilon, max_iters, tol)
    C = _validate_problem(cost, marginals)
    rows, cols, b, g, Cr = _reduce(C, marginals)
    nr, mc = Cr.shape
    buf = np.empty(Cr.shape)  # row-major, as the dense route's sums assume
    f = Cr.min(axis=1) + 2.0 * epsilon * b
    x = np.concatenate([f, np.subtract(Cr, f[:, None], out=buf).min(axis=0)])
    delta = SCREEN_SLACK * epsilon
    screen = _Screen(delta, x, _candidates(Cr, x, delta, buf))
    value, grad, support = _frobenius_dual(x, Cr, b, g, epsilon, buf, screen)
    res = float(np.abs(grad).max())
    iters = 1
    shift = FROBENIUS_SHIFT
    stalled = 0  # accepted steps in a row that did not lower the value
    while res > tol and iters < max_iters and stalled < STALL_STEPS:
        iters += 1
        if support is None:  # buf holds Z at x
            I, J = np.divmod(np.flatnonzero(buf.ravel() > 0), mc)
        else:
            on = support[2] > 0
            I, J = support[0][on], support[1][on]
        r, c = np.bincount(I, minlength=nr), np.bincount(J, minlength=mc)
        scaled = 2.0 * epsilon * grad  # the Hessian above is over 2 epsilon

        def rows_of(y):  # W y
            return np.bincount(I, weights=y[J], minlength=nr)

        def cols_of(z):  # W^T z, and (W * W)^T z as W is 0/1
            return np.bincount(J, weights=z[I], minlength=mc)

        d = np.concatenate(_newton_direction(
            rows_of, cols_of, cols_of, r, c, _tikhonov(r, c) + shift * res,
            scaled[:nr], scaled[nr:], _forcing(res, b, tol)))
        slope = float(grad @ d)
        if not slope < 0:  # rounding left no descent direction
            break
        alpha = 1.0
        for _ in range(ARMIJO_TRIALS):
            trial = _frobenius_dual(x + alpha * d, Cr, b, g, epsilon, buf, screen)
            if (trial[0] <= value + 1e-4 * alpha * slope
                    or np.abs(trial[1]).max() <= tol):
                break
            # the minimizer of the quadratic through value, slope and trial
            q = -0.5 * slope * alpha / (trial[0] - value - slope * alpha)
            alpha *= min(max(q, 0.1), 0.5)
        else:
            break
        stalled = stalled + 1 if trial[0] >= value else 0
        x = x + alpha * d
        value, grad, support = trial
        res = float(np.abs(grad).max())
        shift = shift / 2.0 if alpha == 1.0 else shift * 2.0
    if support is None:
        P = _clipped_excess(Cr, x[:nr], x[nr:], buf)
        P /= 2.0 * epsilon
    else:
        P = buf
        P.fill(0.0)
        P[support[0], support[1]] = support[2] / (2.0 * epsilon)
    return _coupling(C, P, rows, cols, iters, marginals, tol)
