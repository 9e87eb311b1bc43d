"""Agreement between proxy rankings and measured ensemble accuracy.

Given each ranked ensemble's proxy score (alpha) and ground truth accuracy,
this module reports Pearson correlation, Kendall tau-b, and a
top-weighted Kendall variant that pays more attention to disagreements among
the best-ranked ensembles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_io import LabelVector, PredictionVector, write_table
from .errors import ComputationError, ValidationError

# entries of the (ensembles, classes, samples) vote table that
# majority_vote_accuracy fills at once, so its temporaries stay bounded
# whatever the number of ensembles
_VOTE_CELLS = 1 << 21


@dataclass(frozen=True)
class CorrelationReport:
    pcc: float
    kt: float
    wkt: float
    n_pairs: int


def majority_vote_accuracy(members, truth: LabelVector, combos) -> np.ndarray:
    """Majority-vote accuracy of every ensemble in ``combos``.

    ``members`` is a sequence of PredictionVector; row r of the 2-d integer
    array ``combos`` lists the indices into ``members`` of ensemble r.  Each
    ensemble's votes are summed per sample and the most voted class wins,
    ties going to the smallest class index.  The vote table of all members
    is built once; ensembles are voted in chunks.
    """
    members = list(members)
    if not members or not all(isinstance(m, PredictionVector) for m in members):
        raise ValidationError("majority vote needs PredictionVector members")
    n = len(truth)
    for m in members:
        if len(m) != n:
            raise ValidationError(
                f"member has {len(m)} predictions but truth has {n} labels"
            )
    combos = np.asarray(combos)
    if combos.ndim != 2 or combos.shape[1] == 0 or combos.dtype.kind not in "iu":
        raise ValidationError("combos must be a 2-d integer array with >= 1 column")
    if combos.size and (combos.min() < 0 or combos.max() >= len(members)):
        raise ValidationError("combos index a member that does not exist")
    # classes above every member's range get no votes and so never win,
    # which makes one shared width right for every ensemble
    width = max(m.num_classes for m in members)
    # class c's key is votes·width + (width − 1 − c), below (k + 1)·width:
    # the largest key names the most voted class, ties going to the smallest
    # index.  The tables hold one-vote counts; keys exist only per chunk.
    dtype = np.min_scalar_type((combos.shape[1] + 1) * width)
    onehot = np.zeros((len(members), width, n),
                      dtype=np.min_scalar_type(combos.shape[1]))
    correct = np.zeros((len(members), n), dtype=onehot.dtype)
    rows = np.arange(n)
    for i, m in enumerate(members):
        onehot[i, m.values, rows] = 1
        correct[i] = m.values == truth.values
    offsets = np.arange(width - 1, -1, -1, dtype=dtype)[:, None]
    # a truth class at or above `width` keeps key 0, below every winner's
    truth_offset = np.maximum(width - 1 - truth.values, 0).astype(dtype)
    out = np.empty(combos.shape[0])
    step = max(1, _VOTE_CELLS // (n * width))
    for s in range(0, combos.shape[0], step):
        chunk = combos[s:s + step]
        votes = onehot[chunk[:, 0]].astype(dtype, copy=False)
        truth_key = correct[chunk[:, 0]].astype(dtype, copy=False)
        for col in chunk[:, 1:].T:
            votes += onehot[col]
            truth_key += correct[col]
        votes *= width
        votes += offsets
        truth_key *= width
        truth_key += truth_offset
        hits = np.count_nonzero(truth_key == votes.max(axis=1), axis=1)
        out[s:s + step] = hits / n
    return out


def _paired(xs, ys, caller):
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ValidationError(f"{caller} expects two equal-length vectors")
    if x.shape[0] < 2:
        raise ValidationError(f"{caller} needs at least 2 observations")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError(f"{caller} saw a non-finite value")
    return x, y


def pearson(xs, ys) -> float:
    """Pearson correlation coefficient; errors on zero variance."""
    x, y = _paired(xs, ys, "pearson")
    a = x - x.mean()
    b = y - y.mean()
    sa = float((a * a).sum())
    sb = float((b * b).sum())
    if sa == 0.0 or sb == 0.0:
        raise ComputationError("pearson undefined for a zero-variance input")
    r = float((a * b).sum()) / float(np.sqrt(sa * sb))
    return min(1.0, max(-1.0, r))


def kendall_tau(xs, ys) -> float:
    """Kendall tau-b (tie-corrected)."""
    return _kendall_pair(*_paired(xs, ys, "kendall_tau"))[0]


def _earlier_smaller(v) -> np.ndarray:
    """For each position p of the non-negative integer array ``v``, the
    number of positions q < p with v[q] < v[p].

    Bottom-up merge counting: at block size b, every element of a right
    half-block counts the smaller elements of its left half-block with one
    ``searchsorted`` over all blocks at once (keys offset by block), so the
    whole count takes log2(N) vector passes.
    """
    n = v.shape[0]
    width = int(v.max()) + 1
    out = np.zeros(n, dtype=np.int64)
    pos = np.arange(n)
    b = 1
    while b < n:
        right = (pos // b) % 2 == 1
        base = (pos // (2 * b)) * width
        keys = np.sort(base[~right] + v[~right])
        q = base[right]
        out[right] += np.searchsorted(keys, q + v[right]) - np.searchsorted(keys, q)
        b *= 2
    return out


def _below_left(rx, ry) -> np.ndarray:
    """For each i, the number of j with rx[j] < rx[i] and ry[j] < ry[i]."""
    # ordered by rx with ties by descending ry, an earlier j with a smaller
    # ry also has a strictly smaller rx
    order = np.lexsort((-ry, rx))
    out = np.empty_like(rx)
    out[order] = _earlier_smaller(ry[order])
    return out


def _average_ranks(dense) -> np.ndarray:
    """1-based average ranks of values whose 0-based dense ranks are
    ``dense``: a tie group holds the mean of its positions, an exact
    half-integer."""
    counts = np.bincount(dense)
    return (np.cumsum(counts) - (counts - 1) / 2)[dense]


def _kendall_pair(x, y):
    """Kendall tau-b and the weighted tau (see ``weighted_kendall_tau``) of
    two checked vectors, both from one count of each item's net concordance
    c_i = sum_j sgn(x_i - x_j) sgn(y_i - y_j), taken from strict dominance
    counts in O(N log N) time and O(N) memory (Knight 1966; Vigna 2015 for
    the weighted, tied form)."""
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ComputationError("kendall tau undefined when one input is constant")
    n = x.shape[0]
    rx = np.unique(x, return_inverse=True)[1].astype(np.int64)
    ry = np.unique(y, return_inverse=True)[1].astype(np.int64)
    ry_down = ry.max() - ry  # from the top, as the weights rank the items
    concordant = _below_left(rx, ry) + _below_left(rx.max() - rx, ry_down)
    # pairs untied on both sides, by inclusion-exclusion over the tie groups
    # (each group count includes i itself)
    tie_x = np.bincount(rx)
    tie_y = np.bincount(ry)
    _, cell, cell_count = np.unique(rx * (ry.max() + 1) + ry,
                                    return_inverse=True, return_counts=True)
    untied = n - tie_x[rx] - tie_y[ry] + cell_count[cell]
    c = 2 * concordant - untied
    # tau-b = (con - dis) / sqrt(tot - xtie) / sqrt(tot - ytie) on exact
    # pair counts, where sum_i c_i = 2 (con - dis)
    tot = n * (n - 1) // 2
    xtie, ytie = (int((t * (t - 1) // 2).sum()) for t in (tie_x, tie_y))
    kt = (int(c.sum()) // 2) / math.sqrt(tot - xtie) / math.sqrt(tot - ytie)
    # the normalizer is applied as two chained sqrt divisions, which costs a
    # few ulps; a true tau cannot sit within 1e-12 of +/-1 without being
    # exactly there (one discordant pair already moves it by 4/(n*(n-1)))
    if abs(abs(kt) - 1.0) < 1e-12:
        kt = math.copysign(1.0, kt)
    w = 1.0 / _average_ranks(ry_down)
    # sum_i w_i (c_i / (N - 1)) and sum_i w_i add up in the same order, so
    # c = +/-(N - 1) everywhere gives exactly +/-1
    wkt = float(np.sum(w * (c / (n - 1)))) / float(np.sum(w))
    return min(1.0, max(-1.0, kt)), min(1.0, max(-1.0, wkt))


def weighted_kendall_tau(xs, ys) -> float:
    """Kendall-style correlation with hyperbolic top weighting.

    Items are ranked by ``ys`` descending (average ranks for ties, zero
    based); a pair (i, j) gets weight 1/(rank_i + 1) + 1/(rank_j + 1), so
    disagreements near the top of the accuracy ordering cost more than
    disagreements at the bottom.  Tied pairs on either side contribute zero
    to the numerator but keep their weight in the normalizer.

    The pair weight is additive, so the numerator is sum_i w_i c_i, where
    c_i = sum_j sgn(x_i - x_j) sgn(y_i - y_j), and the normalizer is
    (N - 1) sum_i w_i.
    """
    return _kendall_pair(*_paired(xs, ys, "weighted_kendall_tau"))[1]


def evaluate(alpha, accuracy) -> CorrelationReport:
    """Correlate proxy scores with accuracy over the rows whose accuracy is
    not NaN (NaN marks a row without a measured accuracy)."""
    alpha = np.asarray(alpha, dtype=np.float64)
    accuracy = np.asarray(accuracy, dtype=np.float64)
    if alpha.shape != accuracy.shape or alpha.ndim != 1:
        raise ValidationError("evaluate expects two equal-length vectors")
    usable = ~np.isnan(accuracy)
    n = int(np.count_nonzero(usable))
    if n < 2:
        raise ValidationError(f"need at least 2 records with accuracy, got {n}")
    alpha = alpha[usable]
    accuracy = accuracy[usable]
    # pearson runs first: it checks that every value is finite, which the
    # concordance count relies on
    pcc = pearson(alpha, accuracy)
    kt, wkt = _kendall_pair(alpha, accuracy)
    return CorrelationReport(pcc=pcc, kt=kt, wkt=wkt, n_pairs=n)


def write_report(report: CorrelationReport, path):
    write_table(path, [("pcc", report.pcc), ("kt", report.kt), ("wkt", report.wkt),
                       ("n_pairs", report.n_pairs)], header="metric,value")
