"""Output checks for the benchmark, computed apart from the program.

Everything that depends only on the pool (pair entropies, W_D bounds,
majority-vote accuracies, subset enumerations) is computed once per run by
``Reference``; each pass's cache, selection trace, rankings and report are
then checked against it.  Each ``check_*`` function returns a list of error
strings, empty when the output is correct.

The only program code used here is ``stratified_indices`` and
``substream_seed``, to identify which rows the program subsampled before a
solve, so that the W_D bounds refer to the clouds that were actually solved.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np
from scipy.stats import kendalltau

from osborn.data_io import LabelVector, TEConfig, stratified_indices, substream_seed

# Row and column sums of a converged plan are within ``convergence_tol`` of
# 1/n, so its total mass and the moments it sees are off by at most about
# n * tol; the W_D and W_T bounds get this much relative slack.
BOUND_SLACK = 1e-2
# alpha, gains and correlations are recomputed in another summation order.
VALUE_TOL = 1e-9


def _close(x, y):
    """|x - y| <= VALUE_TOL, and false when either is NaN."""
    return bool(abs(x - y) <= VALUE_TOL)


def _read_class_file(path):
    with open(path, encoding="utf-8") as fh:
        head, *rows = fh.read().split()
    if not head.startswith("C="):
        raise ValueError(f"{path}: no class-count header")
    return np.array([int(r) for r in rows], dtype=np.int64), int(head[2:])


def _read_features(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _cond_entropy(a, b, ca, cb):
    """H(a | b) in nats, from a joint count table over two label vectors."""
    n = a.shape[0]
    counts = np.bincount(a * cb + b, minlength=ca * cb).reshape(ca, cb)
    col = counts.sum(axis=0)
    h = 0.0
    for i, j in zip(*np.nonzero(counts)):
        h += counts[i, j] / n * math.log(col[j] / counts[i, j])
    return h


def _majority_accuracy(preds, truth, combos, classes):
    """Majority vote per ensemble, ties to the smallest class index."""
    best = np.full((combos.shape[0], truth.shape[0]), -1, dtype=np.int64)
    label = np.zeros_like(best)
    for c in range(classes):
        votes = (preds[combos] == c).sum(axis=1)
        win = votes > best
        best[win] = votes[win]
        label[win] = c
    return (label == truth[None, :]).mean(axis=1)


def zscore(v):
    std = v.std()
    return np.zeros_like(v) if std == 0 else (v - v.mean()) / std


def subset_values(a, H, combos):
    """f(S) = -(sum of a over S + sum of H over ordered pairs in S)."""
    sym = H + H.T
    f = -a[combos].sum(axis=1)
    for i, j in itertools.combinations(range(combos.shape[1]), 2):
        f -= sym[combos[:, i], combos[:, j]]
    return f


class Reference:
    """What the pool alone determines about correct outputs."""

    def __init__(self, pool_dir, workload, pairwise_seed):
        with open(os.path.join(pool_dir, "pool.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        entries = sorted(doc["models"], key=lambda e: e["id"])
        self.ids = [e["id"] for e in entries]
        self.pos = {mid: i for i, mid in enumerate(self.ids)}
        m = len(self.ids)
        self.shift = np.asarray(workload.domain_shift)
        self.truth, target_classes = _read_class_file(
            os.path.join(pool_dir, doc["target_labels"]))
        preds = [_read_class_file(os.path.join(pool_dir, e["target_predictions"]))
                 for e in entries]
        self.preds = np.stack([p for p, _ in preds])
        self.pred_classes = [c for _, c in preds]

        self.pair_h = np.zeros((m, m))
        for i, j in itertools.permutations(range(m), 2):
            self.pair_h[i, j] = _cond_entropy(self.preds[i], self.preds[j],
                                              self.pred_classes[i], self.pred_classes[j])

        # W_D bounds on the clouds each solve saw: Jensen below, the
        # independent coupling above
        config = TEConfig(**workload.config)
        self.wd_lo = np.zeros(m)
        self.wd_hi = np.zeros(m)
        self.source_classes = np.zeros(m, dtype=np.int64)
        self.solved_rows = np.zeros(m, dtype=np.int64)
        tgt_idx = None
        for i, e in enumerate(entries):
            src_y, cs = _read_class_file(os.path.join(pool_dir, e["source_labels"]))
            self.source_classes[i] = cs
            if tgt_idx is None:
                tgt_idx = stratified_indices(
                    LabelVector(self.truth, target_classes), config.subsample_cap,
                    substream_seed(pairwise_seed, "subsample-target"))
            src_idx = stratified_indices(
                LabelVector(src_y, cs), config.subsample_cap,
                substream_seed(pairwise_seed, "subsample-source", e["id"]))
            S = _read_features(os.path.join(pool_dir, e["source_features"]))[src_idx]
            T = _read_features(os.path.join(pool_dir, e["target_features"]))[tgt_idx]
            ms, mt = S.mean(axis=0), T.mean(axis=0)
            self.wd_lo[i] = float(((ms - mt) ** 2).sum())
            self.wd_hi[i] = float((S * S).sum(axis=1).mean() + (T * T).sum(axis=1).mean()
                                  - 2.0 * ms @ mt)
            self.solved_rows[i] = max(S.shape[0], T.shape[0])
        self.tol = config.convergence_tol

        self.score_combos = np.array(list(itertools.combinations(range(m), workload.score_k)))
        self.accuracy = _majority_accuracy(self.preds, self.truth, self.score_combos,
                                           max(self.pred_classes))
        self.select_combos = None
        if workload.strategy == "exhaustive":
            self.select_combos = np.array(
                list(itertools.combinations(range(m), workload.select_k)))

    def terms(self, cache):
        """Standardized modular terms and pair matrix of a parsed cache."""
        m = len(self.ids)
        wd = np.array([cache["wd"][mid] for mid in self.ids])
        wt = np.array([cache["wt"][mid] for mid in self.ids])
        off = ~np.eye(m, dtype=bool)
        H = np.zeros((m, m))
        H[off] = zscore(cache["pair"][off])
        return zscore(wd) + zscore(wt), H


def read_cache(path, ref):
    m = len(ref.ids)
    cache = {"wd": {}, "wt": {}, "converged": {}, "pair": np.full((m, m), np.nan)}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            p = line.strip().split(",")
            if p[0] == "model":
                cache["wd"][p[1]] = float(p[3])
                cache["wt"][p[1]] = float(p[5])
                cache["converged"][p[1]] = p[7] == "1"
            elif p[0] == "pair":
                cache["pair"][ref.pos[p[1]], ref.pos[p[2]]] = float(p[4])
    return cache


def check_cache(cache, ref):
    errors = []
    if sorted(cache["wd"]) != ref.ids:
        return [f"cache lists models {sorted(cache['wd'])}, pool has {ref.ids}"]
    off = ~np.eye(len(ref.ids), dtype=bool)
    bad = np.argwhere(off & ~(np.abs(cache["pair"] - ref.pair_h) <= VALUE_TOL))
    for i, j in bad[:5]:
        errors.append(f"pair ({ref.ids[i]}, {ref.ids[j]}) = {cache['pair'][i, j]:.17g}, "
                      f"H(pred_i | pred_j) = {ref.pair_h[i, j]:.17g}")
    wd = np.array([cache["wd"][mid] for mid in ref.ids])
    for i, mid in enumerate(ref.ids):
        wt = cache["wt"][mid]
        if not cache["converged"][mid]:
            if not (0.0 <= wt and np.isfinite(wd[i])):
                errors.append(f"{mid}: W_T = {wt:.17g}, W_D = {wd[i]:.17g}")
            continue
        mass = 1.0 + ref.solved_rows[i] * ref.tol
        if not (0.0 <= wt <= mass * math.log(ref.source_classes[i])):
            errors.append(f"{mid}: W_T = {wt:.17g} outside [0, log C_s]")
        lo = ref.wd_lo[i] * (1.0 - BOUND_SLACK)
        hi = ref.wd_hi[i] * (1.0 + BOUND_SLACK)
        if not (lo <= wd[i] <= hi):
            errors.append(f"{mid}: W_D = {wd[i]:.17g} outside [{lo:.17g}, {hi:.17g}]")
    # Translating the target cloud by a adds |a|^2 (plus a small term in the
    # cloud means) to the transport cost, so W_D should grow like shift^2
    # with slope near 1; per-model subsampling and jitter add scatter of a
    # few tenths, so only the sign of the least-squares slope is checked.
    conv = np.array([cache["converged"][mid] for mid in ref.ids])
    if conv.sum() >= 2:
        slope = np.polyfit(ref.shift[conv] ** 2, wd[conv], 1)[0]
        if not slope > 0:
            errors.append(f"W_D does not rise with domain_shift^2 (slope {slope:.6g})")
    return errors


def check_selection(path, cache, ref, workload):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split()
    steps = [ln.split(",") for ln in lines[1:-1]]
    final = lines[-1].split(",", 1)[1].split(";")
    a, H = ref.terms(cache)
    k = workload.select_k
    errors = []
    if [s[1] for s in steps] != final or len(final) != k:
        return [f"trace steps {[s[1] for s in steps]} disagree with final {final}"]
    chosen = [ref.pos[mid] for mid in final]
    f_final = float(subset_values(a, H, np.array([chosen]))[0])
    if not _close(float(steps[-1][3]), f_final):
        errors.append(f"trace f = {steps[-1][3]}, recomputed {f_final:.17g}")
    if workload.strategy == "exhaustive":
        best = float(subset_values(a, H, ref.select_combos).max())
        if not f_final >= best - VALUE_TOL:
            errors.append(f"exhaustive winner f = {f_final:.17g} < max {best:.17g}")
        return errors
    sym = H + H.T
    for step, row in enumerate(steps):
        prior = chosen[:step]
        gains = -a - sym[:, prior].sum(axis=1)
        gains[prior] = -np.inf
        if not (gains[chosen[step]] >= gains.max() - VALUE_TOL
                and _close(float(row[2]), gains[chosen[step]])):
            errors.append(f"greedy step {step + 1} took {final[step]} "
                          f"(gain {row[2]}), best gain is {gains.max():.17g}")
    return errors


def read_rankings(path):
    with open(path, encoding="utf-8") as fh:
        rows = [ln.split(",") for ln in fh.read().split()[1:]]
    return ([r[0].split(";") for r in rows], np.array([float(r[1]) for r in rows]),
            np.array([float(r[2]) for r in rows]))


def check_rankings(path, cache, ref):
    ensembles, alpha, acc = read_rankings(path)
    want = [[ref.ids[i] for i in c] for c in ref.score_combos]
    if ensembles != want:
        return [f"rankings list {len(ensembles)} ensembles, expected every one of "
                f"{len(want)} size-{ref.score_combos.shape[1]} subsets in order"]
    errors = []
    a, H = ref.terms(cache)
    bad = np.flatnonzero(~(np.abs(alpha - subset_values(a, H, ref.score_combos))
                           <= VALUE_TOL))
    errors += [f"alpha of {';'.join(ensembles[i])} = {alpha[i]:.17g} disagrees with "
               "the cache" for i in bad[:5]]
    bad = np.flatnonzero(~(np.abs(acc - ref.accuracy) <= 1e-12))
    errors += [f"accuracy of {';'.join(ensembles[i])} = {acc[i]:.17g}, majority vote "
               f"gives {ref.accuracy[i]:.17g}" for i in bad[:5]]
    return errors


def check_report(path, rankings_path):
    _, alpha, acc = read_rankings(rankings_path)
    with open(path, encoding="utf-8") as fh:
        report = dict(ln.split(",") for ln in fh.read().split()[1:])
    pcc = float(np.corrcoef(alpha, acc)[0, 1])
    kt = float(kendalltau(alpha, acc).statistic)
    errors = []
    if not _close(float(report["pcc"]), pcc):
        errors.append(f"pcc = {report['pcc']}, numpy.corrcoef gives {pcc:.17g}")
    if not _close(float(report["kt"]), kt):
        errors.append(f"kt = {report['kt']}, scipy kendalltau gives {kt:.17g}")
    if not kt > 0:
        errors.append(f"kt = {kt:.17g} is not positive on a ground-truth pool")
    if not abs(float(report["wkt"])) <= 1.0 or int(report["n_pairs"]) != alpha.shape[0]:
        errors.append(f"wkt = {report['wkt']}, n_pairs = {report['n_pairs']} "
                      f"for {alpha.shape[0]} rows")
    return errors
