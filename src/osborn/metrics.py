"""OSBORN scoring terms and the per-pool pairwise cache.

The score of an ensemble decomposes into per-model terms (domain difference
W_D and task difference W_T, each computed from one optimal transport solve
per model) plus a cohesion term W_C that sums a conditional entropy over every
ordered pair of distinct members.  Because each piece depends on at most two
models, a pool of M models is fully described by M per-model entries and
M*(M-1) pair entries; everything downstream (scoring, greedy selection,
exhaustive search) reads from that cache.

Lower scores mean a more transferable ensemble.  Entropies use natural log.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data_io import (
    LabelVector,
    ModelRecord,
    PoolManifest,
    PredictionVector,
    TEConfig,
    _check_int,
    _check_model_id,
    _numbered_lines,
    _read_text,
    stratified_indices,
    substream_seed,
    write_table,
)
from .errors import ComputationError, ValidationError
from .ot_core import Coupling, MarginalWeights, cost_matrix, median_positive_cost, \
    sinkhorn, sinkhorn_frobenius


@dataclass(frozen=True)
class ScoreBreakdown:
    """Full decomposition of one ensemble's score.

    ``osborn_value`` is the weighted sum of the member W_D, W_T terms and the
    pairwise cohesion entropies; ``f_value`` is its negation (the set function
    that greedy selection maximizes).
    """

    member_ids: tuple
    wd_raw: dict
    wt_raw: dict
    pair_h_raw: dict
    wd_used: dict
    wt_used: dict
    pair_h_used: dict
    weights: tuple
    standardized: bool
    converged: dict
    osborn_value: float
    f_value: float


def _members(ensemble) -> list:
    """An ensemble, a sequence of model ids, as a list.  A bare string is
    refused: as a sequence it would be one member per character."""
    if isinstance(ensemble, str):
        raise ValidationError("an ensemble must be a sequence of model ids, "
                              "got a str")
    return list(ensemble)


def _check_finite(ids, wd, wt, pair_h):
    """Raise ``ValidationError`` naming the first model, or the first
    ordered pair, of ``ids`` whose ``wd``, ``wt`` or ``pair_h`` entry is not
    finite, checked in that order."""
    for arr, what in ((wd, "model"), (wt, "model"), (pair_h, "pair")):
        bad = np.argwhere(~np.isfinite(arr))
        if bad.size:
            key = tuple(ids[i] for i in bad[0])
            raise ValidationError(f"non-finite cached value for {what} "
                                  f"{key if what == 'pair' else key[0]!r}")


@dataclass(frozen=True, eq=False)
class PairwiseCache:
    """Per-model and per-ordered-pair terms for one pool under one config.

    Every array is indexed by position in ``ids``, the sorted unique model
    ids: ``wd``, ``wt`` (float64) and ``converged`` (bool) have shape (M,),
    and ``pair_h[i, j]`` holds H(pred_i | pred_j) on an (M, M) float64 array
    with a zero diagonal.  The arrays are read-only copies of the inputs.
    """

    ids: tuple
    wd: np.ndarray
    wt: np.ndarray
    converged: np.ndarray
    pair_h: np.ndarray

    def __post_init__(self):
        ids = tuple(self.ids)
        if not ids:
            raise ValidationError("cache must contain at least one model")
        for mid in ids:
            _check_model_id(mid)
        if len(set(ids)) != len(ids):
            raise ValidationError("cache has duplicate model ids")
        if list(ids) != sorted(ids):
            raise ValidationError("cache model ids must be sorted")
        m = len(ids)
        arrays = {name: np.array(getattr(self, name), dtype=dtype)
                  for name, dtype in (("wd", np.float64), ("wt", np.float64),
                                      ("converged", bool), ("pair_h", np.float64))}
        for name in ("wd", "wt", "converged"):
            if arrays[name].shape != (m,):
                raise ValidationError(
                    "cache per-model tables disagree on model ids: "
                    f"{name} has shape {arrays[name].shape}, expected ({m},)"
                )
        if arrays["pair_h"].shape != (m, m):
            raise ValidationError(
                "cache pair table must cover every ordered pair: "
                f"pair_h has shape {arrays['pair_h'].shape}, expected ({m}, {m})"
            )
        _check_finite(ids, arrays["wd"], arrays["wt"], arrays["pair_h"])
        if np.any(np.diagonal(arrays["pair_h"]) != 0.0):
            raise ValidationError("cache pair table must have a zero diagonal")
        object.__setattr__(self, "ids", ids)
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def positions(self, ensemble) -> np.ndarray:
        """Indices into ``ids`` of an ensemble's members, a sequence of
        model-id strings, in the order given."""
        names = _members(ensemble)
        for mid in names:
            if not isinstance(mid, str):
                raise ValidationError("ensemble members must be model-id strings, "
                                      f"got {type(mid).__name__}")
        if not names:
            raise ValidationError("ensemble must be non-empty")
        if len(set(names)) != len(names):
            raise ValidationError("ensemble contains duplicate model ids")
        index = {mid: i for i, mid in enumerate(self.ids)}
        for mid in names:
            if mid not in index:
                raise ValidationError(f"model '{mid}' is not in the cache")
        return np.array([index[mid] for mid in names], dtype=np.intp)


# ---------------------------------------------------------------------------
# per-model terms
# ---------------------------------------------------------------------------


def _solve_transport(C, config: TEConfig) -> Coupling:
    eps = config.epsilon * median_positive_cost(C)
    marg = MarginalWeights.uniform(C.shape[0], C.shape[1])
    solver = sinkhorn if config.regularizer == "entropic" else sinkhorn_frobenius
    return solver(C, marg, eps, config.max_iters, config.convergence_tol)


def joint_from_coupling(coupling: Coupling, source_labels: LabelVector,
                        target_labels: LabelVector) -> np.ndarray:
    """Push the coupling mass onto label pairs: a (source classes, target
    classes) table whose entry (a, b) collects the plan mass between source
    rows labeled ``a`` and target rows labeled ``b``.  The table inherits
    the plan's total mass.
    """
    plan = coupling.plan
    n, m = plan.shape
    if len(source_labels) != n:
        raise ValidationError(
            f"coupling has {n} source rows but {len(source_labels)} source labels"
        )
    if len(target_labels) != m:
        raise ValidationError(
            f"coupling has {m} target columns but {len(target_labels)} target labels"
        )
    cs = source_labels.num_classes
    ct = target_labels.num_classes
    S = np.zeros((n, cs))
    S[np.arange(n), source_labels.values] = 1.0
    T = np.zeros((m, ct))
    T[np.arange(m), target_labels.values] = 1.0
    table = S.T @ plan @ T
    np.maximum(table, 0.0, out=table)
    return table


def _conditional_entropy(P: np.ndarray, col=None) -> np.ndarray:
    """H(row | column) of each non-negative joint table in a (tables, rows,
    columns) stack, in nats: per table the sum over positive cells of
    p(a,b) * log(p(b) / p(a,b)), where p(b), the column sums, default to
    ``P.sum(axis=1)``.  Each term is non-negative because the column
    marginal dominates the cell; a table without mass has entropy 0.  A
    cell whose ratio p(b) / p(a,b) overflows (a subnormal cell) takes its
    log as log p(b) - log p(a,b) instead, which stays finite; every other
    cell's log, and so every table without such a cell, is unchanged.

    A table's positive cells are summed by one pairwise ``np.sum`` in
    row-major order, so zero rows or columns padded onto a table leave its
    value bit for bit as it was.  Tables with the same number of positive
    cells are summed together as the rows of one array, which numpy sums
    as it sums each row alone."""
    if col is None:
        col = P.sum(axis=1)
    mask = P > 0
    cells = P[mask]
    marg = np.broadcast_to(col[:, None, :], P.shape)[mask]
    with np.errstate(over="ignore"):
        logs = np.log(marg / cells)
    over = np.isinf(logs)
    logs[over] = np.log(marg[over]) - np.log(cells[over])
    terms = cells * logs
    lengths = mask.sum(axis=(1, 2))
    starts = np.cumsum(lengths) - lengths
    out = np.zeros(P.shape[0])
    for n_cells in np.unique(lengths):
        rows = np.flatnonzero(lengths == n_cells)
        out[rows] = terms[starts[rows, None] + np.arange(n_cells)].sum(axis=1)
    return out


def w_task(table: np.ndarray) -> float:
    """Task difference: H(source label | target label) of the joint table
    from ``joint_from_coupling``, in nats."""
    return float(_conditional_entropy(table[None])[0])


# ---------------------------------------------------------------------------
# cohesion
# ---------------------------------------------------------------------------

# cells of the padded joint tables that one bincount in cohesion_pair counts
_COHESION_CELLS = 1 << 21


def cohesion_pair(pred_i: PredictionVector, preds) -> np.ndarray:
    """H(pred_i | pred_j) over the shared target set, in nats, for each
    pred_j in the sequence ``preds``: one entry per member, in order.

    An entry is zero exactly when pred_i is a deterministic function of
    pred_j (in particular when the two models agree everywhere, as pred_i
    does with itself).  For a single pair call ``cohesion_pair(a, [b])[0]``.

    One ``np.bincount`` counts the joint tables of a block of models,
    each padded with zeros to w x w for w the largest class count, so a
    call holds memory in proportion to ``len(preds)`` times the vector
    length.  A block holds at most ``_COHESION_CELLS`` cells, or one table.
    """
    n = len(pred_i)
    for pred in preds:
        if len(pred) != n:
            raise ValidationError(f"prediction lengths differ ({n} vs {len(pred)})")
    ci = pred_i.num_classes
    w = max([ci] + [pred.num_classes for pred in preds])
    step = max(1, _COHESION_CELLS // (w * w))
    row_codes = pred_i.values * w
    out = np.zeros(len(preds))
    for s in range(0, len(preds), step):
        block = preds[s:s + step]
        codes = np.array([pred.values for pred in block])
        codes += (np.arange(len(block)) * (w * w))[:, None]
        codes += row_codes
        P = np.bincount(codes.ravel(), minlength=codes.shape[0] * w * w)
        P = P.reshape(-1, w, w) / n
        col = P.sum(axis=1)
        # numpy sums the rows of a one-column table pairwise, not one by
        # one as above: sum an unpadded one-class column the same way
        for j, pred in enumerate(block):
            if pred.num_classes == 1:
                col[j, 0] = P[j, :ci, 0].sum()
        out[s:s + step] = _conditional_entropy(P, col)
    return out


# ---------------------------------------------------------------------------
# standardization and scoring
# ---------------------------------------------------------------------------


def _zscore(vals: np.ndarray) -> np.ndarray:
    # an empty table (a one-model cache has no pairs) has no spread either
    std = float(vals.std()) if vals.size else 0.0
    if std == 0.0:
        return np.zeros_like(vals)
    return (vals - float(vals.mean())) / std


def _zscored(cache: PairwiseCache):
    """The ``(wd, wt, pair_h)`` arrays of ``standardize_terms(cache)``; a
    z-score that is not finite raises the ``ValidationError`` that
    ``PairwiseCache`` would raise for it."""
    off = ~np.eye(len(cache.ids), dtype=bool)
    pair_h = np.zeros_like(cache.pair_h)
    pair_h[off] = _zscore(cache.pair_h[off])
    wd, wt = _zscore(cache.wd), _zscore(cache.wt)
    _check_finite(cache.ids, wd, wt, pair_h)
    return wd, wt, pair_h


def standardize_terms(cache: PairwiseCache) -> PairwiseCache:
    """Z-score W_D and W_T across models and pair entropies across ordered
    pairs, the off-diagonal of ``pair_h`` (population std).  A zero-variance
    column maps to all zeros, so a term with no spread simply stops
    influencing rankings.
    """
    wd, wt, pair_h = _zscored(cache)
    return PairwiseCache(ids=cache.ids, wd=wd, wt=wt, converged=cache.converged,
                         pair_h=pair_h)


def effective_terms(cache: PairwiseCache, config: TEConfig):
    """The cache as arrays over its sorted ids, weighted and (optionally)
    standardized: ``(ids, a, H)`` with ``a[i] = lambda_d * wd + lambda_t * wt``
    for model i and ``H[i, j] = lambda_c * H(pred_i | pred_j)`` off a zero
    diagonal, so that f(S) = -(a[S].sum() + H[S][:, S].sum()).  Every scorer
    and selector reads these same numbers, which keeps greedy's incremental
    gains and ``subset_f``'s sums consistent to rounding.

    Standardized terms are the arrays of ``standardize_terms``, z-scored
    from the cache's own arrays without building (and checking) a second
    ``PairwiseCache``; a z-score that is not finite raises the same
    ``ValidationError``.  A weighted term that is not finite, or a total
    ``sum |a| + 2 sum |H|`` that overflows, raises ``ComputationError``:
    that total bounds every subset's f, however it is summed, and every
    greedy gain, so below it all of them are finite.
    """
    wd, wt, pair_h = _zscored(cache) if config.standardize \
        else (cache.wd, cache.wt, cache.pair_h)
    with np.errstate(over="ignore", invalid="ignore"):
        a = config.lambda_d * wd + config.lambda_t * wt
        H = config.lambda_c * pair_h
        total = np.abs(a).sum() + 2.0 * np.abs(H).sum()
    if not np.isfinite(total):
        raise ComputationError(
            "weighted terms are not finite under weights lambda_d="
            f"{config.lambda_d!r}, lambda_t={config.lambda_t!r}, "
            f"lambda_c={config.lambda_c!r}; lower the weights")
    return cache.ids, a, H


def subset_f(a, H, combos) -> np.ndarray:
    """f of every row of ``combos`` (indices into ``a``), summed member by
    member in the order the rows list them (``_add_member``), so each value
    rounds the same way as a scalar loop over the subset would, and as the
    sums ``selection.score_all`` and ``selection.exhaustive_select`` carry
    while they enumerate.

    ``combos`` may hold any integer dtype; the kernel walks its columns.
    Indices are bounds-checked once up front, and a ``uint64`` table is then
    converted to ``intp``, since numpy takes the sum of ``uint64`` and
    ``intp`` in float64.
    """
    cols = np.asarray(combos).T
    m = H.shape[0]
    if cols.size and (cols.min() < 0 or cols.max() >= m):
        raise ValidationError("combos index a model that does not exist")
    if cols.dtype == np.uint64:
        cols = cols.astype(np.intp)
    Hflat = np.ravel(H)
    f = np.zeros(cols.shape[1])
    for j in range(1, cols.shape[0] + 1):
        _add_member(f, cols[:j], a, Hflat)
    return f


def _add_member(g, cols, a, Hflat):
    """Subtract in place from each row's partial sum ``g`` the terms of its
    newest member v, the last of the columns ``cols``: ``a[v]``, then
    ``H[p, v]`` and ``H[v, p]`` for each earlier member p.  Pair terms are
    gathered from the flattened ``H`` at ``i * m + j``, formed in one reused
    ``intp`` buffer (the product is taken in ``intp``, never in a narrow
    column dtype).  Its buffers are freed before the caller goes on."""
    m = len(a)
    v = cols[-1]
    terms = np.empty_like(g)
    flat = np.empty(len(g), dtype=np.intp)
    # every index is in range (the caller checks or builds it), so each
    # take skips numpy's check and writes into the reused buffer; v goes
    # through ``flat`` so that no take converts a narrow column into a fresh
    # intp array
    np.copyto(flat, v)
    g -= np.take(a, flat, out=terms, mode="clip")
    for p in cols[:-1]:
        np.multiply(p, m, out=flat, dtype=np.intp)
        flat += v
        g -= np.take(Hflat, flat, out=terms, mode="clip")
        np.multiply(v, m, out=flat, dtype=np.intp)
        flat += p
        g -= np.take(Hflat, flat, out=terms, mode="clip")


def osborn_score(ensemble, cache: PairwiseCache, config: TEConfig) -> ScoreBreakdown:
    """Score an ensemble from cached terms.  Lower is better; ``f_value`` is
    the negated score used as the maximization objective in selection."""
    p = np.sort(cache.positions(ensemble))
    _, a, H = effective_terms(cache, config)
    f = float(subset_f(a, H, p[None, :])[0])
    wd, wt, pair_h = _zscored(cache) if config.standardize else (cache.wd, cache.wt, cache.pair_h)
    members = tuple(cache.ids[i] for i in p)
    pairs = list(itertools.permutations(p, 2))

    def per_model(arr):
        return dict(zip(members, arr[p].tolist()))

    def per_pair(mat):
        return {(cache.ids[i], cache.ids[j]): float(mat[i, j]) for i, j in pairs}

    return ScoreBreakdown(
        member_ids=members,
        wd_raw=per_model(cache.wd),
        wt_raw=per_model(cache.wt),
        pair_h_raw=per_pair(cache.pair_h),
        wd_used=per_model(wd),
        wt_used=per_model(wt),
        pair_h_used=per_pair(pair_h),
        weights=(config.lambda_d, config.lambda_t, config.lambda_c),
        standardized=config.standardize,
        converged=per_model(cache.converged),
        osborn_value=-f,
        f_value=f,
    )


# ---------------------------------------------------------------------------
# cache construction
# ---------------------------------------------------------------------------


def _model_terms(record: ModelRecord, target_labels: LabelVector,
                 tgt_idx: np.ndarray, config: TEConfig):
    """(W_D, W_T, converged) of one model on its subsampled rows: W_D is the
    transport cost between source and target embeddings under squared
    Euclidean cost with uniform marginals, and W_T is the conditional
    entropy of the label table that same plan induces.  ``target_labels``
    are already restricted to ``tgt_idx``."""
    src_idx = stratified_indices(
        record.source_labels, config.subsample_cap,
        substream_seed(config.seed, "subsample-source", record.model_id),
    )
    coup = _solve_transport(cost_matrix(record.source_features[src_idx],
                                        record.target_features[tgt_idx]), config)
    source_labels = LabelVector(record.source_labels.values[src_idx],
                                record.source_labels.num_classes)
    wt = w_task(joint_from_coupling(coup, source_labels, target_labels))
    return coup.transport_cost, wt, coup.converged


def build_pairwise_cache(pool: PoolManifest, config: TEConfig,
                         threads: int = 1) -> PairwiseCache:
    """Compute every per-model and per-pair term for a pool.

    Rows are subsampled before the transport solve: the target side once per
    pool (shared across models so couplings see the same target samples) and
    each model's source side independently, both stratified by label with
    seeds derived from ``config.seed``.  Cohesion uses the full prediction
    vectors since it is linear-time.

    The per-model solves are farmed out to a thread pool but results are
    assembled in sorted id order, so the cache is identical for any thread
    count.  Pair entropies take one ``cohesion_pair`` call per model, in
    this thread.
    """
    threads = _check_int(threads, "threads")
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    ids = sorted(pool.model_ids())
    tgt_idx = stratified_indices(
        pool.target_labels, config.subsample_cap,
        substream_seed(config.seed, "subsample-target"),
    )
    target_labels = LabelVector(pool.target_labels.values[tgt_idx],
                                pool.target_labels.num_classes)

    def model_job(mid):
        return _model_terms(pool.record(mid), target_labels, tgt_idx, config)

    if threads == 1:
        results = [model_job(mid) for mid in ids]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool_exec:
            results = list(pool_exec.map(model_job, ids))
    wd, wt, converged = zip(*results)
    preds = [pool.target_predictions(mid) for mid in ids]
    pair_h = [cohesion_pair(pred, preds) for pred in preds]
    return PairwiseCache(ids=tuple(ids), wd=wd, wt=wt, converged=converged,
                         pair_h=pair_h)


# ---------------------------------------------------------------------------
# cache persistence
# ---------------------------------------------------------------------------


def _pair_ids(ids):
    """The first and the second id of every ordered pair of distinct
    positions in ``ids``, as two lists, in the order
    ``itertools.permutations(ids, 2)`` gives the pairs."""
    names = np.array(ids, dtype=object)
    first, second = np.nonzero(~np.eye(len(names), dtype=bool))
    return names[first].tolist(), names[second].tolist()


def write_cache(cache: PairwiseCache, path):
    """Serialize the cache with one ``model`` row per model and one ``pair``
    row per ordered pair, both in sorted id order.

    Each kind of row is rendered by whole-column ``repr`` and ``format``
    calls into the bytes that ``write_table`` would give row by row: reals
    by ``format_real``, ``converged`` as 0 or 1."""
    ids = cache.ids
    first, second = _pair_ids(ids)
    off = ~np.eye(len(ids), dtype=bool)
    models = map("model,{},wd,{},wt,{},converged,{:d}\n".format, ids,
                 map(repr, cache.wd.tolist()), map(repr, cache.wt.tolist()),
                 cache.converged.tolist())
    pairs = map("pair,{},{},h,{}\n".format, first, second,
                map(repr, cache.pair_h[off].tolist()))
    write_table(path, iter(["".join(itertools.chain(models, pairs))]))


def _cache_block(text):
    """The cache in ``text``, parsed by whole-column calls, or None where
    the text is not in the form ``write_cache`` writes or fails any check,
    ``PairwiseCache``'s own included.  That form is M ``model`` rows, then
    the M(M - 1) ``pair`` rows with their ids in the order
    ``itertools.permutations(ids, 2)`` gives, each line ended by ``\\n``
    and nothing else in the text."""
    lines = text.split("\n")
    if lines.pop():
        return None
    m = math.isqrt(len(lines))
    models, pairs = lines[:m], lines[m:]
    if m * m != len(lines) or set(map(str.count, models, itertools.repeat(","))) != {7} \
            or not set(map(str.count, pairs, itertools.repeat(","))) <= {4}:
        return None
    fields = ",".join(lines).split(",")
    mf, pf = fields[:8 * m], fields[8 * m:]
    ids = mf[1::8]
    first, second = _pair_ids(ids)
    if mf[0::8] != ["model"] * m or mf[2::8] != ["wd"] * m or mf[4::8] != ["wt"] * m \
            or mf[6::8] != ["converged"] * m or not set(mf[7::8]) <= {"0", "1"} \
            or pf[0::5] != ["pair"] * len(pairs) or pf[3::5] != ["h"] * len(pairs) \
            or pf[1::5] != first or pf[2::5] != second:
        return None
    try:
        pair_h = np.zeros((m, m))
        pair_h[~np.eye(m, dtype=bool)] = np.fromiter(map(float, pf[4::5]), np.float64,
                                                     len(pairs))
        return PairwiseCache(ids=tuple(ids),
                             wd=np.fromiter(map(float, mf[3::8]), np.float64, m),
                             wt=np.fromiter(map(float, mf[5::8]), np.float64, m),
                             converged=[flag == "1" for flag in mf[7::8]],
                             pair_h=pair_h)
    except (ValueError, ValidationError):
        return None


def _cache_rows(path, lines) -> PairwiseCache:
    """The cache in the numbered ``lines`` of cache file ``path``, read one
    row at a time: this loop alone decides what is accepted, and a row that
    breaks a rule raises ``ValidationError`` naming its line."""
    models, pair_h = {}, {}
    for lineno, line in lines:
        parts = line.split(",")
        try:
            if parts[0] == "model":
                if len(parts) != 8 or parts[2] != "wd" or parts[4] != "wt" \
                        or parts[6] != "converged":
                    raise ValueError
                mid = parts[1]
                if mid in models:
                    raise ValidationError(f"{path}:{lineno}: duplicate model '{mid}'")
                if parts[7] not in ("0", "1"):
                    raise ValueError
                models[mid] = (float(parts[3]), float(parts[5]), parts[7] == "1")
            elif parts[0] == "pair":
                if len(parts) != 5 or parts[3] != "h":
                    raise ValueError
                key = (parts[1], parts[2])
                if key in pair_h:
                    raise ValidationError(f"{path}:{lineno}: duplicate pair {key}")
                pair_h[key] = float(parts[4])
            else:
                raise ValueError
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: malformed cache row") from exc
    ids = sorted(models)
    if set(pair_h) != set(itertools.permutations(ids, 2)):
        raise ValidationError(f"{path}: cache pair table must cover every ordered pair")
    pos = {mid: i for i, mid in enumerate(ids)}
    pair = np.zeros((len(ids), len(ids)))
    for (a, b), v in pair_h.items():
        pair[pos[a], pos[b]] = v
    rows = np.array([models[mid] for mid in ids], dtype=np.float64).reshape(-1, 3)
    try:
        return PairwiseCache(ids=tuple(ids), wd=rows[:, 0], wt=rows[:, 1],
                             converged=rows[:, 2], pair_h=pair)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def read_cache(path) -> PairwiseCache:
    """Read a cache file as ``write_cache`` writes it.

    The text is read once, by ``data_io._read_text``.  A text in the form
    ``write_cache`` writes is parsed in one block by ``_cache_block``; any
    other text, and one that fails any of its checks, goes line by line
    (numbered by ``data_io._numbered_lines``) to the row loop,
    ``_cache_rows``, which alone decides what is accepted and which line an
    error names.  Rows may come in any order there, with blank lines and
    whitespace around each line."""
    text = _read_text(path, "cache")
    return _cache_block(text) or _cache_rows(path, _numbered_lines(text))
