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
``metrics.effective_terms``, so that f(S) = -(a[S].sum() + H[S][:, S].sum()),
and sums subsets with ``metrics.subset_f``, the kernel ``osborn_score`` uses.
All candidate enumeration and tie-breaking is lexicographic on model ids, so
results are reproducible across runs.
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


def _combinations(m: int, k: int) -> np.ndarray:
    """Every size-k subset of range(m) as one row, in lexicographic order.

    The table is built as ``(k, count)`` columns, one level per member: each
    row of a level is repeated once per admissible next member (``np.repeat``)
    and the new column counts up from the row's last member + 1 (a
    ``cumsum``).  It holds the smallest unsigned dtype that fits ``m - 1``
    and is returned as its transpose, an F-ordered ``(count, k)`` view whose
    columns are contiguous.
    """
    count = math.comb(m, k)
    if count > EXHAUSTIVE_BUDGET:
        raise ValidationError(
            f"exhaustive enumeration of C({m}, {k}) subsets exceeds the "
            f"budget of {EXHAUSTIVE_BUDGET}"
        )
    dtype = np.min_scalar_type(m - 1)
    cols = np.arange(m - k + 1, dtype=dtype)[None, :]
    for j in range(1, k):
        top = m - k + j  # the largest member column j may hold
        last = cols[-1]
        reps = top - last.astype(np.intp)  # next members last + 1 .. top
        starts = np.cumsum(reps) - reps
        nxt = np.empty((j + 1, int(reps.sum())), dtype=dtype)
        for i in range(j):
            nxt[i] = np.repeat(cols[i], reps)
        # steps of 1 within a row's run, and from the previous run's end
        # (top) to last + 1 at each run's start; unsigned arithmetic wraps
        # modulo 2**bits and every true value lies in [0, m - 1], so the
        # wrapped running sum is exact
        step = np.ones(nxt.shape[1], dtype=dtype)
        step[starts] = last + 1
        step[starts[1:]] -= top
        np.cumsum(step, dtype=dtype, out=nxt[j])
        cols = nxt
    return cols.T


def _trace(ids, a, H, order) -> SelectionTrace:
    """The trace of adding ``order`` (indices into ``ids``) one at a time."""
    sym = H + H.T
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
    return _trace(ids, a, H, order).steps[-1].gain


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
    return _trace(ids, a, H, order)


def exhaustive_select(pool, k: int, cache: PairwiseCache, config: TEConfig, *,
                      terms=None):
    """True argmax of f over all subsets of size k (lexicographic tie-break).

    Returns (member ids, f_value).  Guarded by an enumeration budget; use
    greedy_select beyond it.  ``terms``, the ``(ids, a, H)`` that
    ``effective_terms`` already gave for ``cache`` and ``config``, spares
    computing them again.
    """
    ids, a, H = _terms(pool, cache, config) if terms is None else terms
    combos = _combinations(len(ids), _check_k(k, len(ids)))
    f = subset_f(a, H, combos)
    best = int(np.argmax(f))
    return tuple(ids[i] for i in combos[best]), float(f[best])


def exhaustive_trace(pool, k: int, cache: PairwiseCache,
                     config: TEConfig) -> SelectionTrace:
    """The exhaustive winner as a trace: its members in id order, each with
    its gain over the members before it."""
    terms = _terms(pool, cache, config)
    best, _ = exhaustive_select(pool, k, cache, config, terms=terms)
    return _trace(*terms, cache.positions(best))


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
