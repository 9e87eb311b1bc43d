"""Ensemble selection over cached pairwise terms.

The objective is f(S) = -( sum of member W_D + W_T terms + sum of
ordered-pair cohesion entropies within S ).  With the raw terms, which are
non-negative, f is submodular (adding v to a superset only picks up extra
pair terms, which can only lower the gain) and non-increasing (every member
lowers f).  The (1 - 1/e) bound of Nemhauser, Wolsey & Fisher needs a
non-decreasing f, so it does not apply: greedy forward selection is a
heuristic.  With standardized terms, pair entries can be negative and f is
not submodular either.  Exhaustive search returns the optimum whenever no
level of its subset table holds more than ``EXHAUSTIVE_BUDGET`` rows.

Every selector reads the terms as arrays, ``(ids, a, H)`` from
``metrics.effective_terms``, so that f(S) = -(a[S].sum() + H[S][:, S].sum()).
Greedy selection and the traces update marginal gains with rows of
``H + H.T``.  ``score_all`` and exhaustive selection build a table of
subsets one member column at a time, and each prefix carries its partial
sum of f, so every row is summed in the order ``metrics.subset_f`` sums
it, to the bit.  Exhaustive selection is a branch and bound (Land & Doig
1960): greedy's set is the incumbent, and the table drops each prefix whose
completion bound (the prefix's own cross terms with each candidate, from
rows of ``H + H.T``, plus the smallest pairs each candidate could form;
valid for terms of any sign) falls below the incumbent's f by more than a
rounding margin.  All candidate enumeration and tie-breaking is
lexicographic on model ids, so results are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import TEConfig, _check_int, write_table
from .errors import ValidationError
from .metrics import PairwiseCache, _add_member, _members, effective_terms, subset_f

EXHAUSTIVE_BUDGET = 10 ** 6
# completion bound entries that ``_kept`` forms at once, 8 bytes each
_BOUND_CELLS = 1 << 17


@dataclass(frozen=True)
class SelectionStep:
    chosen_id: str
    gain: float
    f_cumulative: float


@dataclass(frozen=True)
class SelectionTrace:
    steps: tuple

    @property
    def final(self) -> tuple:
        """The member ids in the order they were added."""
        return tuple(step.chosen_id for step in self.steps)


def _terms(pool, cache: PairwiseCache, config: TEConfig):
    ids, a, H = effective_terms(cache, config)
    if pool is not None:
        pool_ids = tuple(sorted(pool.model_ids()))
        if pool_ids != ids:
            raise ValidationError(
                "cache and pool disagree on model ids "
                f"({len(ids)} cached vs {len(pool_ids)} in pool)"
            )
    return ids, a, H


def _check_k(k: int, m: int) -> int:
    k = _check_int(k, "k")
    if not (1 <= k <= m):
        raise ValidationError(f"k must lie in [1, {m}], got {k}")
    return k


def _extend(cols: np.ndarray, top: int, keep=None):
    """``(next level, reps)``: each prefix row of ``cols``, a ``(j, count)``
    table of columns in lexicographic order, repeated once per admissible
    next member (``np.repeat``), the new column counting up from the row's
    last member + 1 to ``top`` (a ``cumsum``).  ``reps`` says how many rows
    each prefix becomes, so that anything carried per prefix follows it by
    ``np.repeat(x, reps)``.  Where the boolean ``keep`` is False, a prefix
    repeats no times: it and all its completions are dropped.  A next level
    of more than ``EXHAUSTIVE_BUDGET`` rows raises ``ValidationError``
    before it is allocated."""
    j = cols.shape[0]
    last = cols[-1]
    reps = top - last.astype(np.intp)  # next members last + 1 .. top
    if keep is not None:
        reps *= keep
    count = int(reps.sum())
    if count > EXHAUSTIVE_BUDGET:
        raise ValidationError(
            f"the subset table's level of member {j + 1} would hold {count} "
            f"rows, over the budget of {EXHAUSTIVE_BUDGET} rows a level"
        )
    starts = np.cumsum(reps) - reps
    nxt = np.empty((j + 1, count), dtype=cols.dtype)
    for i in range(j):
        nxt[i] = np.repeat(cols[i], reps)
    if keep is not None:  # runs start only at kept prefixes
        starts, last = starts[keep], last[keep]
    # steps of 1 within a row's run, and from the previous run's end (top)
    # to last + 1 at each run's start; unsigned arithmetic wraps modulo
    # 2**bits and every true value lies in [0, m - 1], so the wrapped
    # running sum is exact
    step = np.ones(nxt.shape[1], dtype=cols.dtype)
    step[starts] = last + 1
    step[starts[1:]] -= top
    np.cumsum(step, dtype=cols.dtype, out=nxt[j])
    return nxt, reps


def _trace(ids, a, H, order) -> SelectionTrace:
    """The trace of adding ``order`` (indices into ``ids``) one at a time.
    A member's gain is ``-a[v]`` less the rows ``(H + H.T)[u]`` of the
    members u before it; only those k rows are formed."""
    gains = -a
    f_cum = 0.0
    steps = []
    for v, row in zip(order, H[order] + H[:, order].T):
        f_cum += gains[v]
        steps.append(SelectionStep(chosen_id=ids[v], gain=float(gains[v]),
                                   f_cumulative=float(f_cum)))
        gains = gains - row
    return SelectionTrace(steps=tuple(steps))


def marginal_gain(current, v, cache: PairwiseCache, config: TEConfig) -> float:
    """f(current + v) - f(current) in closed form from cached terms: the
    last gain of the trace that adds the current members, then v."""
    members = _members(current)
    if v in members:
        raise ValidationError(f"model '{v}' is already in the ensemble")
    order = cache.positions(members + [v])
    ids, a, H = effective_terms(cache, config)
    return _trace(ids, a, H, order).steps[-1].gain


def _greedy_order(a, sym, k: int) -> list:
    """Greedy's k members (indices into ``a``) in the order it adds them:
    each step takes the largest marginal gain, the smallest index on ties.
    ``sym`` is ``H + H.T``; all gains move by one row of it per step."""
    gains = -a
    order = []
    for _ in range(k):
        v = int(np.argmax(gains))  # first maximum: smallest id wins ties
        order.append(v)
        gains -= sym[v]
        gains[v] = -np.inf
    return order


def greedy_select(pool, k: int, cache: PairwiseCache,
                  config: TEConfig) -> SelectionTrace:
    """Forward greedy maximization of f under a cardinality budget.

    At every step the candidate with the largest marginal gain is taken;
    ties go to the lexicographically smallest id.  All M gains are updated
    with one vector operation per step, so a full run costs O(k * M).
    """
    ids, a, H = _terms(pool, cache, config)
    k = _check_k(k, len(ids))
    return _trace(ids, a, H, _greedy_order(a, H + H.T, k))


def _completion_bound(sym, k: int):
    """``s``, the ``(m, k - 1)`` table for the prune in
    ``exhaustive_select``: ``s[v, r - 1]`` is the sum of the r - 1 smallest
    off-diagonal entries of row v of ``sym = H + H.T`` (0 for r = 1).
    ``sym``'s diagonal is overwritten with inf."""
    np.fill_diagonal(sym, np.inf)
    s = np.zeros((len(sym), k - 1))
    smallest = np.partition(sym, np.arange(k - 2), axis=1)[:, :k - 2]
    np.cumsum(smallest, axis=1, out=s[:, 1:])
    return s


def _subset_sums(a, H, k: int, bound=None):
    """``(f, combos)``: the size-k subsets of range(len(a)), rows in
    lexicographic order, built one member column at a time (``_extend``)
    and returned as the transpose of the last level, an F-ordered ``(count,
    k)`` view whose columns are contiguous; and f of each row, summed while
    the table grows.  The first level holds every first member, 0 .. m - k,
    in the smallest unsigned dtype that fits ``m - 1``; ``_extend`` refuses
    a later level over ``EXHAUSTIVE_BUDGET`` rows.  Each prefix carries its
    partial sum, and each new column subtracts its member's terms
    (``metrics._add_member``), so f is ``subset_f``'s value to the bit.

    ``bound``, ``(sym, s, floor)`` from ``exhaustive_select``, drops each
    prefix P before the next column is added when its completion bound
    (``_kept``, with r members still to add) lies below ``floor``.  Without
    it ``combos`` is the full table."""
    m = len(a)
    Hflat = np.ravel(H)
    cols = np.arange(m - k + 1, dtype=np.min_scalar_type(m - 1))[None, :]
    g = np.zeros(cols.shape[1])
    for r in range(k - 1, 0, -1):  # members still to add after this level's
        _add_member(g, cols, a, Hflat)
        keep = None if bound is None else _kept(cols, g, a, r, *bound)
        cols, reps = _extend(cols, m - r, keep)
        del keep
        g = np.repeat(g, reps)
    _add_member(g, cols, a, Hflat)
    return g, cols.T


def _kept(cols, g, a, r, sym, s, floor):
    """The boolean mask of the prefixes P, the rows of ``cols`` with
    partial sums ``g``, whose bound ``g - (sum of the r smallest q_P[v])``
    is not below ``floor`` (a NaN bound keeps its row), or None when every
    prefix is kept.  q_P (``exhaustive_select``) is formed a block of
    ``_BOUND_CELLS`` entries at a time, never for a whole level."""
    m = len(a)
    c = a + 0.5 * s[:, r - 1]
    low = np.empty_like(g)
    step = max(1, _BOUND_CELLS // m)
    for start in range(0, len(g), step):
        block = cols[:, start:start + step]
        q = sym[block[0]] + c
        for p in block[1:]:
            q += sym[p]
        q[block[-1][:, None] >= np.arange(m)] = np.inf  # only v > last(P)
        low[start:start + step] = np.partition(q, r - 1, axis=1)[:, :r].sum(axis=1)
    drop = np.less(g - low, floor)
    return np.logical_not(drop, out=drop) if drop.any() else None


def _absmax(x) -> float:
    return max(float(x.max()), -float(x.min()))


def exhaustive_select(pool, k: int, cache: PairwiseCache, config: TEConfig, *,
                      terms=None):
    """True argmax of f over all subsets of size k (lexicographic tie-break).

    Returns (member ids, f_value).  Refused with ``ValidationError`` when a
    level of the pruned table would hold more than ``EXHAUSTIVE_BUDGET``
    rows; use greedy_select then.  ``terms``, the ``(ids, a, H)`` that
    ``effective_terms`` already gave for ``cache`` and ``config``, spares
    computing them again.

    Prune.  For 2 <= k < M (k = 1 has nothing to prune, k = M one
    subset), greedy's set (``_greedy_order``), scored by ``subset_f``, is
    the incumbent f_inc.  Before each column is added, ``_subset_sums``
    drops a prefix P (last member l, r = k - |P| members still to add) when

        ub(P) = f(P) - (sum of the r smallest q_P[v], v > l) < f_inc - margin,
        q_P[v] = a[v] + sum_{p in P} (H + H.T)[p, v] + s[v, r - 1] / 2,

    with s[v, r - 1] the sum of the r - 1 smallest off-diagonal entries of
    row v of H + H.T (``_completion_bound``).  For any completion C, r
    members above l, f(P + C) = f(P) - sum_{v in C} (a[v] + sum_{p in P}
    (H + H.T)[p, v] + sum_{w in C - v} (H + H.T)[v, w] / 2): the cross
    terms are P's own, and v's r - 1 partners within C add at least
    s[v, r - 1] / 2, so the last sum is at least that of q_P over C, and so
    at least that of the r smallest q_P[v].  No step asks for a sign, so
    ub(P) >= f(P + C) whatever the signs of the terms.

    Rounding.  A row's f is the sum of n = k * k terms (k member terms,
    k (k - 1) pair terms) subtracted one at a time, so the computed f lies
    within gamma_{n-1} S of the exact sum (Higham, *Accuracy and Stability
    of Numerical Algorithms*, section 4.2), where

        gamma_n = n u / (1 - n u),  u = 2**-53,
        S = k max|a| + k (k - 1) max|H|,

    and S bounds the row's sum of absolute terms.  The computed ub is
    within gamma_n S of ub(P), less an absolute k 2**-1074: each input term
    passes through at most n roundings (the carried f through |P|**2 + 1;
    a[v] and a cross term through k + 1: one for a + s / 2 or H + H.T, the
    |P| additions that form q_P[v], r - 1 in the sum of r entries and the
    final subtraction; a term of s through k + r), the terms' absolute sum
    is at most S, as for a row (|P| (|P| - 1) + 2 r |P| + r (r - 1) = k (k
    - 1) pair terms of H), taking the smallest computed entries can only
    raise the bound, and halving a subnormal s[v, r - 1] loses at most
    2**-1075.  Every row is summed as ``subset_f`` sums the incumbent, so a
    row whose computed f is at least f_inc has an exact f of at least f_inc
    - gamma_{n-1} S, and each of its prefixes a computed ub of at least
    f_inc - delta - k 2**-1074, where delta = 2 gamma_n S.  margin = 2
    delta + k 2**-1074 keeps them all, with delta to spare for rounding
    delta itself and the threshold: every maximizer survives, the survivors
    stay in lexicographic order, and their first maximum is the full
    table's, with the same f bits.
    """
    ids, a, H = _terms(pool, cache, config) if terms is None else terms
    m = len(ids)
    k = _check_k(k, m)
    bound = None
    if 2 <= k < m:
        n = k * k
        gamma = n * 2.0 ** -53 / (1.0 - n * 2.0 ** -53)
        # Python floats: the coefficients are tiny, so neither product overflows
        delta = 2.0 * gamma * k * _absmax(a) + 2.0 * gamma * k * (k - 1) * _absmax(H)
        sym = H + H.T
        incumbent = np.sort(_greedy_order(a, sym, k))[None, :]
        f_inc = float(subset_f(a, H, incumbent)[0])
        floor = f_inc - (2.0 * delta + k * 2.0 ** -1074)
        bound = (sym, _completion_bound(sym, k), floor)
    f, combos = _subset_sums(a, H, k, bound)
    best = int(np.argmax(f))  # first maximum: lexicographic tie-break
    return tuple(ids[i] for i in combos[best]), float(f[best])


def exhaustive_trace(pool, k: int, cache: PairwiseCache,
                     config: TEConfig) -> SelectionTrace:
    """The exhaustive winner as a trace: its members in id order, each with
    its gain over the members before it."""
    ids, a, H = terms = _terms(pool, cache, config)
    best, _ = exhaustive_select(pool, k, cache, config, terms=terms)
    return _trace(ids, a, H, cache.positions(best))


def score_all(pool, k: int, cache: PairwiseCache, config: TEConfig):
    """Score every size-k subset as arrays: ``(ids, combos, values)``.

    ``ids`` are the sorted model ids; row r of ``combos`` holds the
    increasing indices into ``ids`` of subset r, rows in lexicographic
    order; ``values[r]`` is that subset's osborn value (-f), ``-subset_f``
    of the row to the bit.  ``combos`` is the F-ordered table of
    ``_subset_sums``, in the smallest unsigned dtype that holds
    ``len(ids) - 1``.  Exactly the tables of more than
    ``EXHAUSTIVE_BUDGET`` rows are refused: the last level is the largest.
    """
    ids, a, H = _terms(pool, cache, config)
    f, combos = _subset_sums(a, H, _check_k(k, len(ids)))
    return ids, combos, np.negative(f, out=f)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def write_selection(trace: SelectionTrace, path):
    rows = [(i, step.chosen_id, step.gain, step.f_cumulative)
            for i, step in enumerate(trace.steps, start=1)]
    write_table(path, rows + [("ensemble", trace.final)],
                header="step,chosen_id,gain,f_cumulative")
