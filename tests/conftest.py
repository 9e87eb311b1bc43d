"""Shared fixtures and independent reference implementations.

The reference routines here deliberately use naive scalar loops (different
code paths from the library's vectorized versions) so that agreement between
the two is meaningful evidence rather than a tautology.  The transport
oracle ``exact_ot`` solves the unregularized LP with scipy instead, and
``exhaustive_select_full`` keeps the full-table exhaustive search, over
itertools' table with the library's kernel, as the reference for the
pruned one.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from osborn import ComputationError, Coupling, ValidationError
from osborn.data_io import (
    LabelVector,
    ModelRecord,
    PoolManifest,
    PredictionVector,
    _check_model_id,
    _read_headed,
)
from osborn.metrics import PairwiseCache, subset_f


# ---------------------------------------------------------------------------
# reference implementations (scalar loops, no shared code with the library)
# ---------------------------------------------------------------------------


def cond_entropy_rows_given_cols(table):
    """H(row | col) of a joint mass table, via per-column conditionals."""
    P = np.asarray(table, dtype=np.float64)
    total = 0.0
    for b in range(P.shape[1]):
        col = 0.0
        for a in range(P.shape[0]):
            col += P[a, b]
        if col <= 0:
            continue
        for a in range(P.shape[0]):
            q = P[a, b] / col
            if q > 0:
                total -= P[a, b] * math.log(q)
    return total


def joint_table_loop(plan, src_labels, tgt_labels, cs, ct):
    """Accumulate plan mass onto label pairs one cell at a time."""
    out = np.zeros((cs, ct))
    for i in range(plan.shape[0]):
        for j in range(plan.shape[1]):
            out[src_labels[i], tgt_labels[j]] += plan[i, j]
    return out


def pearson_loop(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sxx = syy = 0.0
    for i in range(n):
        sxy += (xs[i] - mx) * (ys[i] - my)
        sxx += (xs[i] - mx) ** 2
        syy += (ys[i] - my) ** 2
    return sxy / math.sqrt(sxx * syy)


def kendall_tau_b_loop(xs, ys):
    n = len(xs)
    conc = disc = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            if dx != 0 and dy != 0:
                if (dx > 0) == (dy > 0):
                    conc += 1
                else:
                    disc += 1
    n0 = n * (n - 1) // 2
    denom = math.sqrt((n0 - count_tie_pairs(xs)) * (n0 - count_tie_pairs(ys)))
    return (conc - disc) / denom


def net_concordance_loop(xs, ys):
    """Each item's sum over all items j of sgn(x_i - x_j) * sgn(y_i - y_j)."""
    def sgn(d):
        return (d > 0) - (d < 0)

    return [sum(sgn(xi - xj) * sgn(yi - yj) for xj, yj in zip(xs, ys))
            for xi, yi in zip(xs, ys)]


def earlier_smaller_loop(values):
    """For each position p, the number of earlier positions holding a
    smaller value."""
    return [sum(1 for q in values[:p] if q < v) for p, v in enumerate(values)]


def count_tie_pairs(vals):
    n = len(vals)
    ties = 0
    for i in range(n):
        for j in range(i + 1, n):
            if vals[i] == vals[j]:
                ties += 1
    return ties


def weighted_kendall_loop(xs, ys):
    """Top-weighted Kendall statistic: items ranked by ys descending with
    average ranks for ties; pair weight 1/(rank_i+1) + 1/(rank_j+1)."""
    n = len(xs)
    order = sorted(range(n), key=lambda i: -ys[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and ys[order[j + 1]] == ys[order[i]]:
            j += 1
        avg = (i + j) / 2.0
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    w = [1.0 / (r + 1.0) for r in ranks]
    num = den = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            pw = w[i] + w[j]
            sx = int(xs[i] > xs[j]) - int(xs[i] < xs[j])
            sy = int(ys[i] > ys[j]) - int(ys[i] < ys[j])
            num += pw * sx * sy
            den += pw
    return num / den


def majority_vote_loop(pred_lists, truth):
    """Per-sample vote counting with smallest-class tie break."""
    n = len(truth)
    hits = 0
    for i in range(n):
        counts = {}
        for preds in pred_lists:
            counts[preds[i]] = counts.get(preds[i], 0) + 1
        best = min(c for c in counts if counts[c] == max(counts.values()))
        hits += int(best == truth[i])
    return hits / n


def write_rankings_loop(path, rows):
    """Write ``(member ids, alpha, accuracy or None)`` rows as a rankings
    file, one line at a time: ids joined by ``;``, reals by ``repr``, and an
    empty field for a missing accuracy."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ensemble,alpha,accuracy\n")
        for ids, alpha, acc in rows:
            acc_text = "" if acc is None else repr(float(acc))
            fh.write(f"{';'.join(ids)},{float(alpha)!r},{acc_text}\n")


def write_cache_loop(path, cache):
    """Write a ``PairwiseCache`` as a cache file, one line at a time: a
    ``model`` row per id, then a ``pair`` row per ordered pair of distinct
    ids, both in id order, reals by ``repr`` and ``converged`` as 0 or 1."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, mid in enumerate(cache.ids):
            fh.write(f"model,{mid},wd,{float(cache.wd[i])!r},wt,{float(cache.wt[i])!r},"
                     f"converged,{int(cache.converged[i])}\n")
        for i, j in itertools.permutations(range(len(cache.ids)), 2):
            fh.write(f"pair,{cache.ids[i]},{cache.ids[j]},h,{float(cache.pair_h[i, j])!r}\n")


def numbered_lines_loop(path):
    """Every non-blank line of a text file as a ``(line number, stripped
    text)`` pair, the file iterated line by line after universal-newline
    translation, a leading byte-order mark dropped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return [(n, s) for n, s in enumerate(map(str.strip, fh), start=1) if s]


def read_features_loop(path):
    """A feature file read one value at a time: the lines as
    ``numbered_lines_loop`` gives them, split as ``data_io._read_headed``
    splits them, then each row split on commas and each value parsed by
    ``float``, an error naming the file's line."""
    d, rows = _read_headed(path, numbered_lines_loop(path), "feature", "d",
                           "dimension")
    out = np.empty((len(rows), d), dtype=np.float64)
    for i, (lineno, row) in enumerate(rows):
        parts = row.split(",")
        if len(parts) != d:
            raise ValidationError(
                f"{path}:{lineno}: row has {len(parts)} values, expected {d}")
        try:
            out[i] = [float(p) for p in parts]
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: non-numeric value") from exc
    finite = np.isfinite(out)
    if not finite.all():
        lineno = rows[int(np.argmin(finite.all(axis=1)))][0]
        raise ValidationError(f"{path}:{lineno}: non-finite feature value")
    return out


def read_class_file_loop(path, kind, cls):
    """A label or prediction file read one row at a time: the lines as
    ``numbered_lines_loop`` gives them, split as ``data_io._read_headed``
    splits them, then one ``int`` per row into a Python list, each value
    checked against ``[0, C)`` in file order, an error naming the file's
    line.  ``kind`` is ``"label"`` or ``"prediction"`` and ``cls`` the
    vector type."""
    num_classes, rows = _read_headed(path, numbered_lines_loop(path), kind, "C",
                                     "class-count")
    values = []
    for lineno, row in rows:
        try:
            value = int(row)
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: non-integer {kind} value") from None
        if not 0 <= value < num_classes:
            raise ValidationError(f"{path}:{lineno}: {kind}s must lie in "
                                  f"[0, {num_classes}), got {value}")
        values.append(value)
    try:
        array = np.array(values, dtype=np.int64)
    except OverflowError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return cls(array, num_classes)


def read_scores_loop(path):
    """A rankings file read one row at a time: the lines as
    ``numbered_lines_loop`` gives them, the first the header, then each row
    split on commas and its ensemble on semicolons, every member checked by
    the model-id rule and each real parsed by ``float``, in file order, an
    error naming the file's line.  ``(ensembles, alpha, accuracy)`` as
    ``read_scores`` returns them."""
    lines = numbered_lines_loop(path)
    if not lines or lines[0][1] != "ensemble,alpha,accuracy":
        raise ValidationError(f"{path}: expected header 'ensemble,alpha,accuracy'")
    ensembles, alpha, accuracy = [], [], []
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 3:
            raise ValidationError(f"{path}:{lineno}: expected 3 fields")
        ids = tuple(parts[0].split(";"))
        if "" in ids:
            raise ValidationError(f"{path}:{lineno}: empty ensemble member in '{parts[0]}'")
        if len(set(ids)) != len(ids):
            raise ValidationError(f"{path}:{lineno}: repeated model id in '{parts[0]}'")
        for mid in ids:
            try:
                _check_model_id(mid)
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
        try:
            a = float(parts[1])
            acc = math.nan if parts[2] == "" else float(parts[2])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: non-numeric field") from None
        if not math.isfinite(a):
            raise ValidationError(f"{path}:{lineno}: alpha must be finite, got {parts[1]}")
        if parts[2] != "" and not 0.0 <= acc <= 1.0:
            raise ValidationError(
                f"{path}:{lineno}: accuracy must lie in [0, 1], got {acc}")
        ensembles.append(ids)
        alpha.append(a)
        accuracy.append(acc)
    return (ensembles, np.array(alpha, dtype=np.float64),
            np.array(accuracy, dtype=np.float64))


def cohesion_pair_loop(pred_i, pred_j):
    """H(pred_i | pred_j) of one pair from its own ci x cj count table:
    column sums by ``sum(axis=0)`` and one ``np.sum`` of the positive
    cells' terms in row-major order.  It pins the bits of the row form;
    ``cond_entropy_rows_given_cols`` is the independent scalar check."""
    ci, cj = pred_i.num_classes, pred_j.num_classes
    codes = pred_i.values * cj + pred_j.values
    P = np.bincount(codes, minlength=ci * cj).reshape(ci, cj) / len(pred_i)
    col = P.sum(axis=0)
    mask = P > 0
    cells = P[mask]
    marg = np.broadcast_to(col[None, :], P.shape)[mask]
    return float(np.sum(cells * np.log(marg / cells)))


def assignment_cost_loop(C):
    """Minimum-cost perfect assignment by brute force (small square C)."""
    n = C.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(C[i, perm[i]] for i in range(n))
        best = min(best, cost)
    return best


# plan entries the LP oracle accepts: it exists to check the scalable
# solvers on small instances
EXACT_MAX_CELLS = 64


def exact_ot(cost, marginals):
    """Unregularized OT as a transportation LP (``scipy.optimize.linprog``,
    HiGHS): the oracle the regularized solvers are compared with.

    Zero-mass rows and columns stay out of the LP and come back as zero rows
    and columns of the plan.  Instances of more than ``EXACT_MAX_CELLS`` plan
    entries are refused with ``ValidationError``.  ``iterations_used`` is the
    LP's iteration count; a plan off its marginals by more than 1e-10 raises
    ``ComputationError``.
    """
    C = np.asarray(cost, dtype=np.float64)
    n, m = C.shape
    if n * m > EXACT_MAX_CELLS:
        raise ValidationError(
            f"exact solver limited to {EXACT_MAX_CELLS} plan entries, got {n * m}"
        )
    rows = np.flatnonzero(marginals.source > 0)
    cols = np.flatnonzero(marginals.target > 0)
    nr, mc = rows.size, cols.size
    A_eq = np.zeros((nr + mc, nr * mc))
    for i in range(nr):
        A_eq[i, i * mc:(i + 1) * mc] = 1.0
    for j in range(mc):
        A_eq[nr + j, j::mc] = 1.0
    b_eq = np.concatenate([marginals.source[rows], marginals.target[cols]])
    res = linprog(C[np.ix_(rows, cols)].ravel(), A_eq=A_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if not res.success:
        raise ComputationError(f"exact transport LP failed: {res.message}")
    plan = np.zeros((n, m))
    plan[np.ix_(rows, cols)] = np.maximum(res.x.reshape(nr, mc), 0.0)
    residual = max(float(np.abs(plan.sum(axis=1) - marginals.source).max()),
                   float(np.abs(plan.sum(axis=0) - marginals.target).max()))
    if residual > 1e-10:
        raise ComputationError(f"exact transport LP returned marginal residual {residual:g}")
    return Coupling(plan=plan, transport_cost=float(np.vdot(C, plan)),
                    iterations_used=int(res.nit), converged=True)


def newton_direction_dense(W, grad_rows, grad_cols, lam=None):
    """The Newton step ``(dx, dy)`` of a transport dual with Hessian
    ``[[diag(W 1), W], [W^T, diag(W^T 1)]]`` and gradient ``(grad_rows,
    grad_cols)``, its diagonal shifted by ``lam``, by default ``1e-12 (1 +
    max(W 1, W^T 1))`` against the constant-shift nullspace: the row block
    is eliminated and the dense m x m Schur complement ``diag(W^T 1 + lam) -
    W^T diag(W 1 + lam)^-1 W`` is solved by ``np.linalg.solve``."""
    r = W.sum(axis=1)
    c = W.sum(axis=0)
    if lam is None:
        lam = 1e-12 * (1.0 + float(max(r.max(), c.max())))
    r += lam
    S = -(W.T @ (W / r[:, None]))
    S[np.diag_indices_from(S)] += c + lam
    dy = np.linalg.solve(S, W.T @ (grad_rows / r) - grad_cols)
    return -(grad_rows + W @ dy) / r, dy


def subset_f_loop(a, H, rows):
    """f of each row of member indices by scalar subtraction: each member in
    row order, then its pairs with the members before it, ``H[p, v]`` and
    ``H[v, p]`` for each earlier p in row order."""
    out = []
    for row in np.asarray(rows).tolist():
        f = 0.0
        for j, v in enumerate(row):
            f -= float(a[v])
            for p in row[:j]:
                f -= float(H[p, v])
                f -= float(H[v, p])
        out.append(f)
    return np.array(out)


def exhaustive_select_full(ids, a, H, k):
    """Exhaustive search over the full table: every size-k subset from
    ``itertools.combinations``, all of them summed by ``metrics.subset_f``,
    and the first maximum.  ``(member ids, f)``, as ``exhaustive_select``
    returns them; the reference for its pruned search."""
    rows = itertools.chain.from_iterable(itertools.combinations(range(len(ids)), k))
    combos = np.fromiter(rows, dtype=np.intp).reshape(-1, k)
    f = subset_f(a, H, combos)
    best = int(np.argmax(f))
    return tuple(ids[i] for i in combos[best]), float(f[best])


def wide_pool_cache(rng, m=32):
    """A cache shaped like that of a generated pool whose models degrade with
    their index: W_D, W_T and the cohesion entropies all rise with model
    index, plus noise.  The trends are least-squares fits to the cache of a
    32-model, 200-row pool with domain shift 0 .. 1.5 and prediction noise
    0 .. 0.4 (the bench's ``wide-pool``)."""
    i = np.arange(m, dtype=np.float64)
    wd = 10.7 + 0.0027 * i ** 2 + rng.normal(0.0, 0.06, m)
    wt = 0.05 + 0.05 * i + rng.normal(0.0, 0.06, m)
    pair = (0.19 + 0.031 * (i[:, None] + i) - 0.00085 * i[:, None] * i
            + rng.normal(0.0, 0.07, (m, m)))
    pair = np.maximum(pair, 0.0)
    np.fill_diagonal(pair, 0.0)
    return PairwiseCache(ids=tuple(f"m{v:02d}" for v in range(m)), wd=wd, wt=wt,
                         converged=[True] * m, pair_h=pair)


def peak_ratio(fn, nbytes):
    """Run ``fn()`` under tracemalloc: its result and the peak rise of traced
    memory during the call, as a multiple of ``nbytes``."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / nbytes


# ---------------------------------------------------------------------------
# small pool fixtures
# ---------------------------------------------------------------------------


def make_record(mid, src_feats, src_labels, cs, tgt_feats, preds, cp):
    return ModelRecord(
        model_id=mid,
        source_features=np.asarray(src_feats, dtype=np.float64),
        source_labels=LabelVector(np.asarray(src_labels), cs),
        target_features=np.asarray(tgt_feats, dtype=np.float64),
        target_predictions=PredictionVector(np.asarray(preds), cp),
    )


@pytest.fixture
def tiny_pool():
    """Two models over a 4-sample target set, small enough to hand-check."""
    rng = np.random.default_rng(0)
    tgt_labels = LabelVector(np.array([0, 1, 0, 1]), 2)
    t_feats = rng.normal(size=(4, 2))
    rec_a = make_record(
        "a", rng.normal(size=(4, 2)), [0, 1, 0, 1], 2,
        t_feats + 0.1, [0, 1, 0, 1], 2,
    )
    rec_b = make_record(
        "b", rng.normal(size=(4, 2)), [1, 0, 1, 0], 2,
        t_feats - 0.1, [1, 1, 0, 1], 2,
    )
    return PoolManifest(models=(rec_a, rec_b), target_labels=tgt_labels)
