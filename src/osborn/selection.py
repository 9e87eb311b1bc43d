"""Ensemble selection over cached pairwise terms.

The objective is f(S) = -( sum of member W_D + W_T terms + sum of
ordered-pair cohesion entropies within S ).  With the raw terms, which are
non-negative, f is submodular (adding v to a superset only picks up extra
pair terms, which can only lower the gain) and non-increasing (every member
lowers f).  The (1 - 1/e) bound of Nemhauser, Wolsey & Fisher needs a
non-decreasing f, so it does not apply: greedy forward selection is a
heuristic.  With standardized terms, pair entries can be negative and f is
not submodular either.  Exhaustive search returns the optimum whenever the
number of size-k subsets is within ``EXHAUSTIVE_BUDGET``.

Every selector reads the terms as arrays, ``(ids, a, H)`` from
``metrics.effective_terms``, so that f(S) = -(a[S].sum() + H[S][:, S].sum()).
Greedy selection and the traces update marginal gains with rows of
``H + H.T``.  Exhaustive selection sums every subset while it enumerates
them, then re-scores the few that can win with ``metrics.subset_f``, the
kernel ``osborn_score`` and ``score_all`` use, so the winner's f is that
kernel's value.  All candidate enumeration and tie-breaking is
lexicographic on model ids, so results are reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_io import TEConfig, _check_int, write_table
from .errors import ValidationError
from .metrics import PairwiseCache, _members, effective_terms, subset_f

EXHAUSTIVE_BUDGET = 10 ** 6


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


def _levels(m: int, k: int):
    """The size-k subsets of range(m), built one member column at a time.

    Level j holds every admissible (j + 1)-member prefix as a ``(j + 1,
    count)`` table of columns, rows in lexicographic order; the last level is
    the full table.  The generator yields ``(cols, reps)`` per level:
    ``reps`` says how many rows of this level each row of the previous one
    becomes, so that anything carried per prefix follows it by
    ``np.repeat(x, reps)``.  Level 0 comes from one row, the empty prefix,
    and its ``reps`` is a single count.  Columns hold the smallest unsigned
    dtype that fits ``m - 1``.  The budget is checked before any level is
    built.
    """
    count = math.comb(m, k)
    if count > EXHAUSTIVE_BUDGET:
        raise ValidationError(
            f"exhaustive enumeration of C({m}, {k}) subsets exceeds the "
            f"budget of {EXHAUSTIVE_BUDGET}"
        )
    cols = np.arange(m - k + 1, dtype=np.min_scalar_type(m - 1))[None, :]
    reps = m - k + 1
    for top in range(m - k + 1, m):  # the largest member the new column holds
        yield cols, reps
        cols, reps = _extend(cols, top)
    yield cols, reps


def _extend(cols: np.ndarray, top: int):
    """``(next level, reps)`` for ``_levels``: each row of ``cols`` repeated
    once per admissible next member (``np.repeat``), the new column counting
    up from the row's last member + 1 to ``top`` (a ``cumsum``).  Its
    temporaries are freed before ``_levels`` yields the level."""
    j = cols.shape[0]
    last = cols[-1]
    reps = top - last.astype(np.intp)  # next members last + 1 .. top
    starts = np.cumsum(reps) - reps
    nxt = np.empty((j + 1, int(reps.sum())), dtype=cols.dtype)
    for i in range(j):
        nxt[i] = np.repeat(cols[i], reps)
    # steps of 1 within a row's run, and from the previous run's end (top)
    # to last + 1 at each run's start; unsigned arithmetic wraps modulo
    # 2**bits and every true value lies in [0, m - 1], so the wrapped
    # running sum is exact
    step = np.ones(nxt.shape[1], dtype=cols.dtype)
    step[starts] = last + 1
    step[starts[1:]] -= top
    np.cumsum(step, dtype=cols.dtype, out=nxt[j])
    return nxt, reps


def _combinations(m: int, k: int) -> np.ndarray:
    """Every size-k subset of range(m) as one row, in lexicographic order:
    the last level of ``_levels``, returned as its transpose, an F-ordered
    ``(count, k)`` view whose columns are contiguous."""
    for cols, _ in _levels(m, k):
        pass
    return cols.T


def _trace(ids, a, sym, order) -> SelectionTrace:
    """The trace of adding ``order`` (indices into ``ids``) one at a time;
    ``sym`` is ``H + H.T``."""
    gains = -a
    f_cum = 0.0
    steps = []
    for v in order:
        f_cum += gains[v]
        steps.append(SelectionStep(chosen_id=ids[v], gain=float(gains[v]),
                                   f_cumulative=float(f_cum)))
        gains = gains - sym[v]
    return SelectionTrace(steps=tuple(steps))


def marginal_gain(current, v, cache: PairwiseCache, config: TEConfig) -> float:
    """f(current + v) - f(current) in closed form from cached terms: the
    last gain of the trace that adds the current members, then v."""
    members = _members(current)
    if v in members:
        raise ValidationError(f"model '{v}' is already in the ensemble")
    order = cache.positions(members + [v])
    ids, a, H = effective_terms(cache, config)
    return _trace(ids, a, H + H.T, order).steps[-1].gain


def greedy_select(pool, k: int, cache: PairwiseCache,
                  config: TEConfig) -> SelectionTrace:
    """Forward greedy maximization of f under a cardinality budget.

    At every step the candidate with the largest marginal gain is taken;
    ties go to the lexicographically smallest id.  All M gains are updated
    with one vector operation per step, so a full run costs O(k * M).
    """
    ids, a, H = _terms(pool, cache, config)
    k = _check_k(k, len(ids))
    sym = H + H.T
    gains = -a
    order = []
    for _ in range(k):
        v = int(np.argmax(gains))  # first maximum: smallest id wins ties
        order.append(v)
        gains -= sym[v]
        gains[v] = -np.inf
    return _trace(ids, a, sym, order)


def _screen(a, H, k: int):
    """``(g, combos)``: the table of ``_combinations`` and, for each of its
    rows, f summed while ``_levels`` builds it.  Each prefix carries its
    partial sum (``_add_member``).  The values round differently from
    ``subset_f``'s."""
    Hflat = np.ravel(H)
    g = np.zeros(1)  # the empty prefix
    for cols, reps in _levels(len(a), k):
        g = np.repeat(g, reps)
        _add_member(g, cols, a, Hflat)
    return g, cols.T


def _add_member(g, cols, a, Hflat):
    """Subtract in place from each row's partial sum ``g`` the terms of its
    newest member v: ``a[v]``, then ``H[p, v]`` and ``H[v, p]`` for each
    earlier member p.  Its buffers are freed before the next level is
    built."""
    m = len(a)
    v = cols[-1]
    terms = np.empty_like(g)
    flat = np.empty(len(g), dtype=np.intp)
    # every index is in range by construction, so each take skips numpy's
    # check and writes into the reused buffer; v goes through ``flat`` so
    # that no take converts a narrow column into a fresh intp array
    np.copyto(flat, v)
    g -= np.take(a, flat, out=terms, mode="clip")
    for p in cols[:-1]:
        np.multiply(p, m, out=flat, dtype=np.intp)
        flat += v
        g -= np.take(Hflat, flat, out=terms, mode="clip")
        np.multiply(v, m, out=flat, dtype=np.intp)
        flat += p
        g -= np.take(Hflat, flat, out=terms, mode="clip")


def _absmax(x) -> float:
    return max(float(x.max()), -float(x.min()))


def exhaustive_select(pool, k: int, cache: PairwiseCache, config: TEConfig, *,
                      terms=None):
    """True argmax of f over all subsets of size k (lexicographic tie-break).

    Returns (member ids, f_value).  Guarded by an enumeration budget; use
    greedy_select beyond it.  ``terms``, the ``(ids, a, H)`` that
    ``effective_terms`` already gave for ``cache`` and ``config``, spares
    computing them again.

    Every subset is screened as it is enumerated (``_screen``), and only
    the near-best rows are scored by ``subset_f``.  The screened value g of
    a row and its f from ``subset_f`` are two sums of the same n = k * k
    terms (k member terms, k(k - 1) pair terms), each by a tree of
    additions, so each lies within gamma_{n-1} S of the exact sum (Higham,
    *Accuracy and Stability of Numerical Algorithms*, section 4.2), where

        gamma_n = n u / (1 - n u),  u = 2**-53,
        S = k max|a| + k (k - 1) max|H|,

    and S bounds the row's sum of absolute terms.  So |g - f| <= delta =
    2 gamma_{n-1} S on every row, and every row whose f is the maximum has
    g >= max(g) - 2 delta.  Those rows are scored in lexicographic order and
    the first maximum of f wins, the row a full pass would pick.  delta is
    computed with gamma_n: its excess of at least 4 u S on 2 delta covers
    the rounding of delta itself and of the threshold.
    """
    ids, a, H = _terms(pool, cache, config) if terms is None else terms
    k = _check_k(k, len(ids))
    g, combos = _screen(a, H, k)
    n = k * k
    gamma = n * 2.0 ** -53 / (1.0 - n * 2.0 ** -53)
    # Python floats: the coefficients are tiny, so neither product overflows
    delta = 2.0 * gamma * k * _absmax(a) + 2.0 * gamma * k * (k - 1) * _absmax(H)
    rows = np.flatnonzero(g >= float(g.max()) - 2.0 * delta)
    del g  # when every row ties, the full pass runs without it
    near = combos if len(rows) == len(combos) else combos[rows]
    f = subset_f(a, H, near)
    best = int(np.argmax(f))  # first maximum: lexicographic tie-break
    return tuple(ids[i] for i in near[best]), float(f[best])


def exhaustive_trace(pool, k: int, cache: PairwiseCache,
                     config: TEConfig) -> SelectionTrace:
    """The exhaustive winner as a trace: its members in id order, each with
    its gain over the members before it."""
    ids, a, H = terms = _terms(pool, cache, config)
    best, _ = exhaustive_select(pool, k, cache, config, terms=terms)
    return _trace(ids, a, H + H.T, cache.positions(best))


def score_all(pool, k: int, cache: PairwiseCache, config: TEConfig):
    """Score every size-k subset as arrays: ``(ids, combos, values)``.

    ``ids`` are the sorted model ids; row r of ``combos`` holds the
    increasing indices into ``ids`` of subset r, rows in lexicographic
    order; ``values[r]`` is that subset's osborn value (-f).  ``combos`` is
    the F-ordered table of ``_combinations``, in the smallest unsigned dtype
    that holds ``len(ids) - 1``.
    """
    ids, a, H = _terms(pool, cache, config)
    combos = _combinations(len(ids), _check_k(k, len(ids)))
    return ids, combos, -subset_f(a, H, combos)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def write_selection(trace: SelectionTrace, path):
    rows = [(i, step.chosen_id, step.gain, step.f_cumulative)
            for i, step in enumerate(trace.steps, start=1)]
    write_table(path, rows + [("ensemble", trace.final)],
                header="step,chosen_id,gain,f_cumulative")
