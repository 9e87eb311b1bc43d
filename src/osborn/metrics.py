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

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data_io import (
    LabelVector,
    ModelRecord,
    PoolManifest,
    PredictionVector,
    TEConfig,
    format_real,
    stratified_indices,
    substream_seed,
)
from .errors import ValidationError
from .ot_core import Coupling, MarginalWeights, cost_matrix, median_positive_cost, \
    sinkhorn, sinkhorn_frobenius


@dataclass(frozen=True)
class JointLabelDistribution:
    """Joint mass over (source label, target label) induced by a coupling."""

    table: np.ndarray
    num_source_classes: int
    num_target_classes: int

    def target_marginal(self) -> np.ndarray:
        return self.table.sum(axis=0)


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


@dataclass(frozen=True)
class PairwiseCache:
    """Per-model and per-ordered-pair terms for one pool under one config.

    ``wd``/``wt``/``converged`` are keyed by model id; ``pair_h`` is keyed by
    ordered (conditioned-model, conditioning-model) id pairs and holds
    H(pred_i | pred_j).
    """

    wd: dict
    wt: dict
    converged: dict
    pair_h: dict

    def model_ids(self) -> tuple:
        return tuple(sorted(self.wd))

    def __post_init__(self):
        ids = sorted(self.wd)
        if not ids:
            raise ValidationError("cache must contain at least one model")
        if sorted(self.wt) != ids or sorted(self.converged) != ids:
            raise ValidationError("cache per-model tables disagree on model ids")
        expected_pairs = {(a, b) for a in ids for b in ids if a != b}
        if set(self.pair_h) != expected_pairs:
            raise ValidationError("cache pair table must cover every ordered pair")
        for table in (self.wd, self.wt):
            for mid, v in table.items():
                if not np.isfinite(v):
                    raise ValidationError(f"non-finite cached value for model '{mid}'")
        for key, v in self.pair_h.items():
            if not np.isfinite(v):
                raise ValidationError(f"non-finite cached value for pair {key}")


# ---------------------------------------------------------------------------
# per-model terms
# ---------------------------------------------------------------------------


def _solve_transport(C, config: TEConfig) -> Coupling:
    eps = config.epsilon * median_positive_cost(C)
    marg = MarginalWeights.uniform(C.shape[0], C.shape[1])
    solver = sinkhorn if config.regularizer == "entropic" else sinkhorn_frobenius
    return solver(C, marg, eps, config.max_iters, config.convergence_tol)


def w_domain(record: ModelRecord, target_features, config: TEConfig):
    """Domain difference: optimal transport cost between the model's source
    embeddings and the target embeddings, under squared Euclidean ground cost
    with uniform marginals.  Returns (cost, coupling); the coupling is reused
    for the task-difference term.
    """
    T = np.asarray(target_features, dtype=np.float64)
    C = cost_matrix(record.source_features, T)
    coup = _solve_transport(C, config)
    return coup.transport_cost, coup


def joint_from_coupling(coupling: Coupling, source_labels: LabelVector,
                        target_labels: LabelVector) -> JointLabelDistribution:
    """Push the coupling mass onto label pairs.

    Entry (a, b) collects the plan mass between source rows labeled ``a`` and
    target rows labeled ``b``; the table inherits the plan's total mass.
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
    return JointLabelDistribution(table=table, num_source_classes=cs,
                                  num_target_classes=ct)


def w_task(joint: JointLabelDistribution) -> float:
    """Task difference: conditional entropy H(source label | target label)
    of the coupled label distribution, in nats.

    Computed as sum over positive cells of p(a,b) * log(p(b) / p(a,b)); each
    term is non-negative because the marginal dominates the cell.
    """
    P = joint.table
    col = joint.target_marginal()
    mask = P > 0
    if not mask.any():
        return 0.0
    cells = P[mask]
    marg = np.broadcast_to(col[None, :], P.shape)[mask]
    return float(np.sum(cells * np.log(marg / cells)))


# ---------------------------------------------------------------------------
# cohesion
# ---------------------------------------------------------------------------


def cohesion_pair(pred_i: PredictionVector, pred_j: PredictionVector) -> float:
    """H(pred_i | pred_j) over the shared target set, in nats.

    Zero exactly when pred_i is a deterministic function of pred_j (in
    particular when the two models agree everywhere).
    """
    if len(pred_i) != len(pred_j):
        raise ValidationError(
            f"prediction lengths differ ({len(pred_i)} vs {len(pred_j)})"
        )
    ci, cj = pred_i.num_classes, pred_j.num_classes
    codes = pred_i.values * cj + pred_j.values
    P = np.bincount(codes, minlength=ci * cj).reshape(ci, cj) / len(pred_i)
    col = P.sum(axis=0)
    mask = P > 0
    cells = P[mask]
    marg = np.broadcast_to(col[None, :], P.shape)[mask]
    return float(np.sum(cells * np.log(marg / cells)))


def w_cohesion(ensemble, cache: "PairwiseCache") -> float:
    """Sum of cached pair entropies over all ordered pairs of distinct members."""
    ids = _member_ids(ensemble)
    if len(ids) < 2:
        return 0.0
    total = 0.0
    for a in ids:
        for b in ids:
            if a == b:
                continue
            total += _pair_value(cache, a, b)
    return total


def _member_ids(ensemble):
    ids = []
    for item in ensemble:
        mid = item.model_id if isinstance(item, ModelRecord) else str(item)
        ids.append(mid)
    if len(set(ids)) != len(ids):
        raise ValidationError("ensemble contains duplicate model ids")
    return ids


def _pair_value(cache, a, b):
    try:
        return cache.pair_h[(a, b)]
    except KeyError:
        raise ValidationError(f"cache has no entry for pair ('{a}', '{b}')") from None


# ---------------------------------------------------------------------------
# standardization and scoring
# ---------------------------------------------------------------------------


def _zscore(vals: np.ndarray) -> np.ndarray:
    std = float(vals.std())
    if std == 0.0:
        return np.zeros_like(vals)
    return (vals - float(vals.mean())) / std


def _zscore_table(table: dict) -> dict:
    keys = sorted(table)
    vals = _zscore(np.array([table[k] for k in keys], dtype=np.float64))
    return dict(zip(keys, vals.tolist()))


def standardize_terms(cache: PairwiseCache) -> PairwiseCache:
    """Z-score W_D and W_T across models and pair entropies across ordered
    pairs (population std).  A zero-variance column maps to all zeros, so a
    term with no spread simply stops influencing rankings.
    """
    return PairwiseCache(
        wd=_zscore_table(cache.wd),
        wt=_zscore_table(cache.wt),
        converged=dict(cache.converged),
        pair_h=_zscore_table(cache.pair_h),
    )


def _check_members(ids, cache):
    if not ids:
        raise ValidationError("ensemble must be non-empty")
    known = set(cache.wd)
    for mid in ids:
        if mid not in known:
            raise ValidationError(f"model '{mid}' is not in the cache")


def effective_terms(cache: PairwiseCache, config: TEConfig):
    """The cache as arrays over its sorted ids, weighted and (optionally)
    standardized: ``(ids, a, H)`` with ``a[i] = lambda_d * wd + lambda_t * wt``
    for model i and ``H[i, j] = lambda_c * H(pred_i | pred_j)`` off a zero
    diagonal, so that f(S) = -(a[S].sum() + H[S][:, S].sum()).  Every selector
    reads these same numbers, which keeps incremental gains and from-scratch
    scores consistent to rounding.
    """
    ids = cache.model_ids()
    wd = np.array([cache.wd[i] for i in ids], dtype=np.float64)
    wt = np.array([cache.wt[i] for i in ids], dtype=np.float64)
    pair = np.array([cache.pair_h[(i, j)] for i in ids for j in ids if i != j],
                    dtype=np.float64)
    if config.standardize:
        wd, wt, pair = _zscore(wd), _zscore(wt), _zscore(pair)
    H = np.zeros((len(ids), len(ids)))
    H[~np.eye(len(ids), dtype=bool)] = config.lambda_c * pair
    return ids, config.lambda_d * wd + config.lambda_t * wt, H


def osborn_score(ensemble, cache: PairwiseCache, config: TEConfig) -> ScoreBreakdown:
    """Score an ensemble from cached terms.  Lower is better; ``f_value`` is
    the negated score used as the maximization objective in selection."""
    ids = _member_ids(ensemble)
    _check_members(ids, cache)
    ordered = sorted(ids)
    use = standardize_terms(cache) if config.standardize else cache
    wd_sum = sum(use.wd[i] for i in ordered)
    wt_sum = sum(use.wt[i] for i in ordered)
    pairs = [(a, b) for a in ordered for b in ordered if a != b]
    wc = sum(_pair_value(use, a, b) for a, b in pairs)
    value = config.lambda_d * wd_sum + config.lambda_t * wt_sum + config.lambda_c * wc
    return ScoreBreakdown(
        member_ids=tuple(ordered),
        wd_raw={i: cache.wd[i] for i in ordered},
        wt_raw={i: cache.wt[i] for i in ordered},
        pair_h_raw={p: cache.pair_h[p] for p in pairs},
        wd_used={i: use.wd[i] for i in ordered},
        wt_used={i: use.wt[i] for i in ordered},
        pair_h_used={p: use.pair_h[p] for p in pairs},
        weights=(config.lambda_d, config.lambda_t, config.lambda_c),
        standardized=config.standardize,
        converged={i: cache.converged[i] for i in ordered},
        osborn_value=float(value),
        f_value=float(-value),
    )


# ---------------------------------------------------------------------------
# cache construction
# ---------------------------------------------------------------------------


def _model_terms(record: ModelRecord, target_labels: LabelVector,
                 tgt_idx: np.ndarray, config: TEConfig):
    src_idx = stratified_indices(
        record.source_labels, config.subsample_cap,
        substream_seed(config.seed, "subsample-source", record.model_id),
    )
    sub = dataclasses.replace(
        record,
        source_features=record.source_features[src_idx],
        source_labels=LabelVector(record.source_labels.values[src_idx],
                                  record.source_labels.num_classes),
        target_features=record.target_features[tgt_idx],
    )
    wd, coup = w_domain(sub, sub.target_features, config)
    sub_target = LabelVector(target_labels.values[tgt_idx], target_labels.num_classes)
    joint = joint_from_coupling(coup, sub.source_labels, sub_target)
    wt = w_task(joint)
    return wd, wt, coup.converged


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
    count.  Pair entropies cost microseconds each and run in this thread.
    """
    if pool.size < 1:
        raise ValidationError("pool is empty")
    threads = max(1, int(threads))
    ids = sorted(pool.model_ids())
    records = {m.model_id: m for m in pool.models}
    tgt_idx = stratified_indices(
        pool.target_labels, config.subsample_cap,
        substream_seed(config.seed, "subsample-target"),
    )

    def model_job(mid):
        return _model_terms(records[mid], pool.target_labels, tgt_idx, config)

    if threads == 1:
        results = [model_job(mid) for mid in ids]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool_exec:
            results = list(pool_exec.map(model_job, ids))
    wd, wt, converged = {}, {}, {}
    for mid, (d, t, c) in zip(ids, results):
        wd[mid], wt[mid], converged[mid] = d, t, c
    pair_h = {
        (a, b): cohesion_pair(records[a].target_predictions,
                              records[b].target_predictions)
        for a in ids for b in ids if a != b
    }
    return PairwiseCache(wd=wd, wt=wt, converged=converged, pair_h=pair_h)


# ---------------------------------------------------------------------------
# cache persistence
# ---------------------------------------------------------------------------


def write_cache(cache: PairwiseCache, path):
    """Serialize the cache with one ``model`` row per model and one ``pair``
    row per ordered pair, both in sorted id order."""
    ids = cache.model_ids()
    with open(path, "w", encoding="utf-8") as fh:
        for mid in ids:
            flag = 1 if cache.converged[mid] else 0
            fh.write(
                f"model,{mid},wd,{format_real(cache.wd[mid])},"
                f"wt,{format_real(cache.wt[mid])},converged,{flag}\n"
            )
        for a in ids:
            for b in ids:
                if a != b:
                    fh.write(f"pair,{a},{b},h,{format_real(cache.pair_h[(a, b)])}\n")


def read_cache(path) -> PairwiseCache:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ValidationError(f"cannot read cache file '{path}': {exc}") from exc
    wd, wt, converged, pair_h = {}, {}, {}, {}
    for lineno, line in enumerate(lines, start=1):
        parts = line.split(",")
        try:
            if parts[0] == "model":
                if len(parts) != 8 or parts[2] != "wd" or parts[4] != "wt" \
                        or parts[6] != "converged":
                    raise ValueError
                mid = parts[1]
                if mid in wd:
                    raise ValidationError(f"{path}:{lineno}: duplicate model '{mid}'")
                wd[mid] = float(parts[3])
                wt[mid] = float(parts[5])
                if parts[7] not in ("0", "1"):
                    raise ValueError
                converged[mid] = parts[7] == "1"
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
    try:
        return PairwiseCache(wd=wd, wt=wt, converged=converged, pair_h=pair_h)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
