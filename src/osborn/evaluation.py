"""Agreement between proxy rankings and measured ensemble accuracy.

Given ranking records that carry both a proxy score (alpha) and a ground
truth accuracy, this module reports Pearson correlation, Kendall tau-b, and a
top-weighted Kendall variant that pays more attention to disagreements among
the best-ranked ensembles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import kendalltau, rankdata

from .data_io import LabelVector, PredictionVector, format_real
from .errors import ComputationError, ValidationError

# rows of the pair table that weighted_kendall_tau sums at once; each of its
# temporaries then holds at most _WKT_BLOCK * N floats instead of N * N
_WKT_BLOCK = 128


@dataclass(frozen=True)
class CorrelationReport:
    pcc: float
    kt: float
    wkt: float
    n_pairs: int


def ensemble_accuracy(members, truth: LabelVector) -> float:
    """Accuracy of an ensemble on the target set.

    Hard predictions are combined by majority vote with ties broken toward
    the smallest class index; per-class score tables (one 2-d array per
    member, same shape) are averaged and argmaxed.
    """
    members = list(members)
    if not members:
        raise ValidationError("ensemble_accuracy needs at least one member")
    n = len(truth)
    if all(isinstance(m, PredictionVector) for m in members):
        for m in members:
            if len(m) != n:
                raise ValidationError(
                    f"member has {len(m)} predictions but truth has {n} labels"
                )
        width = max(m.num_classes for m in members)
        votes = np.zeros((n, width), dtype=np.int64)
        rows = np.arange(n)
        for m in members:
            votes[rows, m.values] += 1
        combined = votes.argmax(axis=1)
    elif all(isinstance(m, np.ndarray) for m in members):
        shape = members[0].shape
        if len(shape) != 2 or shape[0] != n:
            raise ValidationError(
                f"score tables must be ({n}, num_classes) arrays"
            )
        for m in members:
            if m.shape != shape:
                raise ValidationError("score tables must share one shape")
            if not np.all(np.isfinite(m)):
                raise ValidationError("score table has non-finite entries")
        mean = np.mean(np.stack(members, axis=0), axis=0)
        combined = mean.argmax(axis=1)
    else:
        raise ValidationError(
            "members must be all PredictionVector or all score arrays"
        )
    return float(np.mean(combined == truth.values))


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
    x, y = _paired(xs, ys, "kendall_tau")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ComputationError("kendall tau undefined when one input is constant")
    stat = float(kendalltau(x, y, variant="b").statistic)
    if not np.isfinite(stat):
        raise ComputationError("kendall tau computation failed")
    # the normalizer is applied as two chained sqrt divisions, which costs a
    # few ulps; a true tau cannot sit within 1e-12 of +/-1 without being
    # exactly there (one discordant pair already moves it by 4/(n*(n-1)))
    if abs(abs(stat) - 1.0) < 1e-12:
        stat = math.copysign(1.0, stat)
    return min(1.0, max(-1.0, stat))


def weighted_kendall_tau(xs, ys) -> float:
    """Kendall-style correlation with hyperbolic top weighting.

    Items are ranked by ``ys`` descending (average ranks for ties, zero
    based); a pair (i, j) gets weight 1/(rank_i + 1) + 1/(rank_j + 1), so
    disagreements near the top of the accuracy ordering cost more than
    disagreements at the bottom.  Tied pairs on either side contribute zero
    to the numerator but keep their weight in the normalizer.  Pairs are
    summed in blocks of rows, so memory grows linearly with the input length.
    """
    x, y = _paired(xs, ys, "weighted_kendall_tau")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ComputationError(
            "weighted kendall tau undefined when one input is constant"
        )
    ranks = rankdata(-y, method="average") - 1.0
    w_item = 1.0 / (ranks + 1.0)
    num = den = 0.0
    for s in range(0, x.shape[0], _WKT_BLOCK):
        rows = slice(s, s + _WKT_BLOCK)
        # pairs (i, j) with i in this block and j > i: the block's rows
        # against columns s.., above the block's own diagonal
        w = np.triu(w_item[rows, None] + w_item[None, s:], k=1)
        sxy = np.sign(x[rows, None] - x[None, s:]) * np.sign(y[rows, None] - y[None, s:])
        num += float((w * sxy).sum())
        den += float(w.sum())
    return num / den


def evaluate(records) -> CorrelationReport:
    """Correlate alpha against accuracy over records that carry both."""
    usable = [r for r in records if r.accuracy is not None]
    if len(usable) < 2:
        raise ValidationError(
            f"need at least 2 records with accuracy, got {len(usable)}"
        )
    alphas = [r.alpha for r in usable]
    accs = [r.accuracy for r in usable]
    return CorrelationReport(
        pcc=pearson(alphas, accs),
        kt=kendall_tau(alphas, accs),
        wkt=weighted_kendall_tau(alphas, accs),
        n_pairs=len(usable),
    )


def write_report(report: CorrelationReport, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("metric,value\n")
        fh.write(f"pcc,{format_real(report.pcc)}\n")
        fh.write(f"kt,{format_real(report.kt)}\n")
        fh.write(f"wkt,{format_real(report.wkt)}\n")
        fh.write(f"n_pairs,{report.n_pairs}\n")
