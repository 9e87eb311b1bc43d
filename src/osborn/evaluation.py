"""Agreement between proxy rankings and measured ensemble accuracy.

Given each ranked ensemble's proxy score (alpha) and ground truth accuracy,
this module reports Pearson correlation, Kendall tau-b, and a
top-weighted Kendall variant that pays more attention to disagreements among
the best-ranked ensembles.  Both Kendall statistics come from one count of
each item's net concordance, taken from a single strict dominance count
over the bits of the accuracy ranks (Knight 1966; Vigna 2015; Claude &
Navarro 2012), so N ensembles cost O(N log N) time and O(N) memory.  The
ensembles' majority-vote accuracies are voted a cache-sized chunk at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_io import LabelVector, PredictionVector, write_table
from .errors import ComputationError, ValidationError

# entries of the (ensembles, classes, samples) vote table that
# majority_vote_accuracy fills at once, so its temporaries stay bounded
# whatever the number of ensembles.  At 2¹⁹ one-byte cells a chunk's tables
# and temporaries stay inside a 2 MB L2 cache: on a 2-core box with one BLAS
# thread, (models, samples, classes, k) = (32, 200, 4, 3), (140, 500, 4, 3),
# (60, 500, 100, 3) and (32, 200, 4, 5) voted 14–38 % faster at 2¹⁹ than at
# 2²¹, within a few per cent of 2¹⁸, and slower at 2¹⁷ and at 2²⁰.
_VOTE_CELLS = 1 << 19


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
    """For each position p of the non-negative integer array ``v`` (values
    and length below 2³¹), the number of positions q < p with v[q] < v[p].

    One level per bit of the largest value, most significant first, as in
    the wavelet matrix (Claude & Navarro 2012): at the level of bit b the
    entries sit in groups of equal higher bits, each group in position
    order.  Inside its group an entry whose bit b is 1 counts the earlier
    entries whose bit b is 0: the earlier entries that are smaller and first
    differ from it at bit b.  A stable partition by bit b, zeros first, then
    makes the next level's groups.  Values below W take ⌈log₂ W⌉ levels of
    O(N) cumsums, compares and one stable sort of booleans each.
    """
    n = v.shape[0]
    # each entry carries its position in the low 32 bits, its value above
    packed = (v.astype(np.int64, copy=False) << 32) | np.arange(n)
    count = np.zeros(n, dtype=np.int64)
    for b in range(int(v.max(initial=0)).bit_length() - 1, -1, -1):
        one = (packed & (1 << (32 + b))) != 0
        high = packed >> (33 + b)
        first = np.flatnonzero(np.concatenate(([True], high[1:] != high[:-1])))
        # zeros up to each entry, less the zeros before its group
        zeros = np.cumsum(~one)
        zeros -= np.repeat(zeros[first] - ~one[first], np.diff(first, append=n))
        zeros *= one
        count += zeros
        if b:
            perm = np.argsort(one, kind="stable")
            packed = packed[perm]
            count = count[perm]
    out = np.empty(n, dtype=np.int64)
    out[packed & 0xFFFFFFFF] = count
    return out


def _net_concordance(rx, ry) -> np.ndarray:
    """Item i's net concordance c_i = Σ_j sgn(rx_i − rx_j)·sgn(ry_i − ry_j)
    for 0-based dense ranks ``rx`` and ``ry`` (int64), from one strict
    dominance count.

    With sgn(a_i − a_j) = 2[a_j < a_i] + [a_j = a_i] − 1 on both sides, the
    sum over j expands to

        c_i = 4·LL_i + 2·(LE_i + EL_i) + EE_i − 2·(X<_i + Y<_i)
              − (Tx_i + Ty_i) + N,

    where LL_i = #{x_j < x_i, y_j < y_i}, LE_i = #{x_j < x_i, y_j = y_i},
    EL_i = #{x_j = x_i, y_j < y_i}, EE_i is i's cell count (equal x and y),
    X<_i = #{x_j < x_i}, Y<_i = #{y_j < y_i}, and Tx_i, Ty_i are i's tie
    group sizes; EE, Tx and Ty include i.  In (rx, ry) order a cell starts
    at P1 = X< + EL, and in (ry, rx) order at P2 = Y< + LE.  The earlier
    entries with a smaller ry in (rx, ry) order number S = LL + EL
    (``_earlier_smaller``), so c_i = 4·S − 2·P1 + 2·P2 − 4·Y< + EE − Tx −
    Ty + N.  Every term but S is one value per cell.
    """
    n = rx.shape[0]
    width = int(ry.max()) + 1
    tie_x = np.bincount(rx)
    tie_y = np.bincount(ry)
    key = rx * width + ry
    # entries of one cell may come in any order: they share every term
    order = np.argsort(key)
    key = key[order]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    size = np.diff(first, append=n)
    cx, cy = np.divmod(key[first], width)
    # cells into (ry, rx) order: a stable sort of the cells' ry, which are
    # in rx order already; a narrow dtype gets numpy's radix sort
    by_y = np.argsort(cy.astype(np.min_scalar_type(width - 1)), kind="stable")
    term = np.empty_like(first)
    term[by_y] = np.cumsum(size[by_y]) - size[by_y]
    term -= first
    term *= 2
    below_y = np.cumsum(tie_y) - tie_y
    term += size + n - tie_x[cx] - (4 * below_y + tie_y)[cy]
    c = np.repeat(term, size)
    # the per-cell arrays go before the count builds its own
    del first, size, cx, cy, by_y, term
    key %= width
    count = _earlier_smaller(key)
    count *= 4
    c += count
    out = np.empty_like(c)
    out[order] = c
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
    c_i = sum_j sgn(x_i - x_j) sgn(y_i - y_j) (``_net_concordance``): one
    strict dominance count over the bits of y's dense ranks, after the sorts
    that rank both sides, in O(N log N + N log W) time for W distinct y
    values and O(N) memory (Knight 1966; Vigna 2015 for the weighted, tied
    form; Claude & Navarro 2012 for the bit levels)."""
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ComputationError("kendall tau undefined when one input is constant")
    n = x.shape[0]
    rx = np.unique(x, return_inverse=True)[1].astype(np.int64, copy=False)
    ry = np.unique(y, return_inverse=True)[1].astype(np.int64, copy=False)
    c = _net_concordance(rx, ry)
    # tau-b = (con - dis) / sqrt(tot - xtie) / sqrt(tot - ytie) on exact
    # pair counts, where sum_i c_i = 2 (con - dis)
    tot = n * (n - 1) // 2
    xtie, ytie = (int((t * (t - 1) // 2).sum()) for t in map(np.bincount, (rx, ry)))
    kt = (int(c.sum()) // 2) / math.sqrt(tot - xtie) / math.sqrt(tot - ytie)
    # the normalizer is applied as two chained sqrt divisions, which costs a
    # few ulps; a true tau cannot sit within 1e-12 of +/-1 without being
    # exactly there (one discordant pair already moves it by 4/(n*(n-1)))
    if abs(abs(kt) - 1.0) < 1e-12:
        kt = math.copysign(1.0, kt)
    # ranked from the top, as the weights rank the items
    w = 1.0 / _average_ranks(ry.max() - ry)
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
