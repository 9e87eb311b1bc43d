"""Greedy and exhaustive ensemble search over cached terms."""

import itertools
import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from osborn import selection
from osborn.data_io import TEConfig, read_scores, write_scores
from osborn.errors import ValidationError
from osborn.metrics import (
    PairwiseCache,
    build_pairwise_cache,
    effective_terms,
    osborn_score,
    standardize_terms,
    subset_f,
)
from osborn.selection import (
    EXHAUSTIVE_BUDGET,
    exhaustive_select,
    exhaustive_trace,
    greedy_select,
    marginal_gain,
    score_all,
    write_selection,
)
from osborn.synth import SynthSpec, build_pool

from conftest import exhaustive_select_full, peak_ratio, subset_f_loop, wide_pool_cache


def _cache(wd, wt, pair_h):
    """A cache from terms keyed by model id and by ordered id pair."""
    ids = sorted(wd)
    pair = np.zeros((len(ids), len(ids)))
    for (a, b), v in pair_h.items():
        pair[ids.index(a), ids.index(b)] = v
    return PairwiseCache(ids=tuple(ids), wd=[wd[i] for i in ids],
                         wt=[wt[i] for i in ids], converged=[True] * len(ids),
                         pair_h=pair)


def _random_cache(rng, m):
    ids = [f"m{i}" for i in range(m)]
    wd = {i: float(rng.uniform(0, 5)) for i in ids}
    wt = {i: float(rng.uniform(0, 2)) for i in ids}
    pair = {(a, b): float(rng.uniform(0, 1.5))
            for a in ids for b in ids if a != b}
    return _cache(wd, wt, pair)


def _f(subset, cache, cfg):
    if not subset:
        return 0.0
    return osborn_score(tuple(subset), cache, cfg).f_value


# ---------------------------------------------------------------------------
# marginal gain
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("standardize", [False, True])
def test_marginal_gain_equals_score_difference(standardize):
    rng = np.random.default_rng(0)
    cache = _random_cache(rng, 6)
    cfg = TEConfig(standardize=standardize, lambda_d=1.5, lambda_t=0.5,
                   lambda_c=2.0)
    ids = list(cache.ids)
    for _ in range(200):
        size = int(rng.integers(0, 5))
        members = list(rng.choice(ids, size=size, replace=False))
        v = str(rng.choice([i for i in ids if i not in members]))
        gain = marginal_gain(members, v, cache, cfg)
        ref = _f(members + [v], cache, cfg) - _f(members, cache, cfg)
        assert gain == pytest.approx(ref, abs=1e-12)


def test_marginal_gain_rejects_repeats_and_strangers():
    cache = _random_cache(np.random.default_rng(1), 3)
    cfg = TEConfig()
    with pytest.raises(ValidationError, match="already in"):
        marginal_gain(["m0"], "m0", cache, cfg)
    with pytest.raises(ValidationError, match="not in the cache"):
        marginal_gain(["m0"], "zz", cache, cfg)


def test_marginal_gain_refuses_a_bare_string_ensemble():
    # "m1" would otherwise read as the members "m" and "1"
    cache = _cache({"a": 1.0, "b": 2.0, "m1": 3.0}, {"a": 0.0, "b": 0.0, "m1": 0.0},
                   {})
    with pytest.raises(ValidationError, match="got a str"):
        marginal_gain("a", "b", cache, TEConfig())
    with pytest.raises(ValidationError, match="got a str"):
        marginal_gain("m1", "a", cache, TEConfig())


def test_gains_diminish_on_nonnegative_terms():
    # with all cached terms >= 0, extending the base set can only add more
    # positive pair penalties, so gains shrink as the set grows
    rng = np.random.default_rng(2)
    cfg = TEConfig(standardize=False)
    for trial in range(20):
        cache = _random_cache(np.random.default_rng(100 + trial), 5)
        ids = list(cache.ids)
        for v in ids:
            others = [i for i in ids if i != v]
            for ry in range(len(others) + 1):
                for Y in itertools.combinations(others, ry):
                    for rx in range(len(Y) + 1):
                        for X in itertools.combinations(Y, rx):
                            gx = marginal_gain(list(X), v, cache, cfg)
                            gy = marginal_gain(list(Y), v, cache, cfg)
                            assert gx >= gy - 1e-12


# ---------------------------------------------------------------------------
# greedy
# ---------------------------------------------------------------------------


def test_greedy_hand_checkable_instance():
    # b has the lowest standalone cost; pairing with a is cheaper than with c
    cache = _cache(
        {"a": 1.0, "b": 0.5, "c": 1.1}, {"a": 0.0, "b": 0.0, "c": 0.0},
        {("a", "b"): 0.1, ("b", "a"): 0.1, ("a", "c"): 0.9,
         ("c", "a"): 0.9, ("b", "c"): 0.8, ("c", "b"): 0.8},
    )
    cfg = TEConfig(standardize=False)
    trace = greedy_select(None, 2, cache, cfg)
    assert trace.final == ("b", "a")
    assert trace.steps[0].gain == pytest.approx(-0.5, abs=1e-12)
    assert trace.steps[1].gain == pytest.approx(-1.2, abs=1e-12)
    assert trace.steps[1].f_cumulative == pytest.approx(-1.7, abs=1e-12)


def test_greedy_breaks_ties_toward_smaller_id():
    cache = _cache(
        {"x": 1.0, "y": 1.0, "z": 1.0}, {"x": 0.0, "y": 0.0, "z": 0.0},
        {(a, b): 0.25 for a in "xyz" for b in "xyz" if a != b},
    )
    trace = greedy_select(None, 2, cache, TEConfig(standardize=False))
    assert trace.final == ("x", "y")


def test_greedy_cumulative_f_matches_rescoring():
    rng = np.random.default_rng(3)
    cfg = TEConfig(standardize=False)
    for trial in range(10):
        cache = _random_cache(np.random.default_rng(200 + trial), 6)
        trace = greedy_select(None, 4, cache, cfg)
        assert trace.steps[-1].f_cumulative == pytest.approx(
            _f(trace.final, cache, cfg), abs=1e-12)
        gains = [s.gain for s in trace.steps]
        assert gains == sorted(gains, reverse=True)


def _loop_greedy(cache, cfg, k):
    """Greedy selection written as scalar loops over dict-keyed terms."""
    use = standardize_terms(cache) if cfg.standardize else cache
    wd = dict(zip(use.ids, use.wd.tolist()))
    wt = dict(zip(use.ids, use.wt.tolist()))
    pair_h = {(a, b): use.pair_h[i, j].item()
              for i, a in enumerate(use.ids) for j, b in enumerate(use.ids) if a != b}
    modular = {m: cfg.lambda_d * wd[m] + cfg.lambda_t * wt[m] for m in wd}
    pair = {key: cfg.lambda_c * v for key, v in pair_h.items()}

    def gain(members, v):
        g = -modular[v]
        for m in members:
            g -= pair[(m, v)] + pair[(v, m)]
        return g

    chosen, steps, f_cum = [], [], 0.0
    for _ in range(k):
        best_id, best_gain = None, -np.inf
        for v in sorted(modular):
            if v not in chosen and gain(chosen, v) > best_gain:
                best_id, best_gain = v, gain(chosen, v)
        chosen.append(best_id)
        f_cum += best_gain
        steps.append((best_id, best_gain, f_cum))
    return steps


@pytest.mark.parametrize("standardize", [False, True])
def test_greedy_trace_equals_scalar_loop(standardize):
    cfg = TEConfig(standardize=standardize, lambda_d=1.5, lambda_t=0.5,
                   lambda_c=2.0)
    for trial in range(10):
        rng = np.random.default_rng(700 + trial)
        cache = _random_cache(rng, 8)
        if trial % 2:
            # ties everywhere: every selector must take the smallest id
            cache = _cache({m: 1.0 for m in cache.ids}, {m: 0.0 for m in cache.ids},
                           {key: 0.5 for key in itertools.permutations(cache.ids, 2)})
        trace = greedy_select(None, 6, cache, cfg)
        got = [(s.chosen_id, s.gain, s.f_cumulative) for s in trace.steps]
        assert got == _loop_greedy(cache, cfg, 6)


def test_greedy_validates_k_and_pool_agreement(tiny_pool):
    cache = _random_cache(np.random.default_rng(4), 3)
    cfg = TEConfig()
    with pytest.raises(ValidationError, match="k must lie"):
        greedy_select(None, 0, cache, cfg)
    with pytest.raises(ValidationError, match="k must lie"):
        greedy_select(None, 4, cache, cfg)
    with pytest.raises(ValidationError, match="disagree"):
        greedy_select(tiny_pool, 2, cache, cfg)


# ---------------------------------------------------------------------------
# exhaustive
# ---------------------------------------------------------------------------


def test_exhaustive_agrees_with_direct_enumeration():
    # the first maximum over itertools' subsets, each scored by
    # osborn_score, to the bit
    cfg = TEConfig(standardize=False)
    for trial in range(10):
        cache = _random_cache(np.random.default_rng(300 + trial), 6)
        cand, best_f = exhaustive_select(None, 3, cache, cfg)
        ref = max(itertools.combinations(cache.ids, 3),
                  key=lambda c: _f(c, cache, cfg))
        assert cand == ref
        assert best_f.hex() == _f(ref, cache, cfg).hex()
        full = exhaustive_select_full(*effective_terms(cache, cfg), 3)
        assert (cand, best_f.hex()) == (full[0], full[1].hex())


def test_exhaustive_never_below_greedy():
    cfg = TEConfig(standardize=False)
    for trial in range(20):
        cache = _random_cache(np.random.default_rng(400 + trial), 6)
        trace = greedy_select(None, 3, cache, cfg)
        _, best_f = exhaustive_select(None, 3, cache, cfg)
        assert best_f >= trace.steps[-1].f_cumulative - 1e-12


def test_exhaustive_budget_guard():
    ids = [f"m{i:02d}" for i in range(40)]
    wd = {i: 0.0 for i in ids}
    pair = {(a, b): 0.0 for a in ids for b in ids if a != b}
    cache = _cache(wd, dict(wd), pair)
    assert math.comb(40, 20) > EXHAUSTIVE_BUDGET
    with pytest.raises(ValidationError, match="budget"):
        exhaustive_select(None, 20, cache, TEConfig())
    with pytest.raises(ValidationError, match="budget"):
        score_all(None, 20, cache, TEConfig())


def test_exhaustive_on_all_zero_terms_returns_the_first_subset():
    ids = [f"m{i}" for i in range(9)]
    zeros = {i: 0.0 for i in ids}
    cache = _cache(zeros, dict(zeros),
                   {(a, b): 0.0 for a in ids for b in ids if a != b})
    for standardize in (False, True):
        cand, best_f = exhaustive_select(None, 4, cache,
                                         TEConfig(standardize=standardize))
        assert cand == tuple(ids[:4]) and best_f == 0.0


_TERM = st.floats(-3.0, 3.0)
_WEIGHT = st.floats(0.0, 3.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), m=st.integers(1, 8), standardize=st.booleans(),
       weights=st.tuples(_WEIGHT, _WEIGHT, _WEIGHT))
def test_exhaustive_trace_gains_are_subset_f_differences(data, m, standardize,
                                                         weights):
    # the trace select --strategy exhaustive writes: each gain is f of the
    # prefix plus the new member minus f of the prefix, and the trace ends
    # at the exhaustive optimum
    pair = data.draw(hnp.arrays(np.float64, (m, m), elements=_TERM))
    np.fill_diagonal(pair, 0.0)
    cache = PairwiseCache(
        ids=tuple(f"m{i}" for i in range(m)),
        wd=data.draw(hnp.arrays(np.float64, m, elements=_TERM)),
        wt=data.draw(hnp.arrays(np.float64, m, elements=_TERM)),
        converged=[True] * m, pair_h=pair)
    cfg = TEConfig(standardize=standardize, lambda_d=weights[0],
                   lambda_t=weights[1], lambda_c=weights[2])
    k = data.draw(st.integers(1, m))
    trace = exhaustive_trace(None, k, cache, cfg)
    _, a, H = effective_terms(cache, cfg)
    p = cache.positions(trace.final)
    for s, step in enumerate(trace.steps):
        diff = subset_f(a, H, p[None, :s + 1])[0] - subset_f(a, H, p[None, :s])[0]
        assert step.gain == pytest.approx(diff, abs=1e-12)
    _, best_f = exhaustive_select(None, k, cache, cfg)
    assert trace.steps[-1].f_cumulative == pytest.approx(best_f, abs=1e-12)


def _draw_terms(data, m, kind):
    """Member terms ``a`` and pair terms ``H`` (zero diagonal) of one kind:
    mixed-sign floats over six decades, tenths (exact ties that rounding
    splits differently in different summation orders), terms of +-2**53
    beside small ones (sums whose rounding depends on the order, by whole
    units), small integers (exact ties), all zeros, small multiples of
    2**-1074 (subnormal terms: every sum is exact and delta rounds to 0, but
    halving an odd sum in the completion bound rounds), floats whose largest
    ``|a|`` and off-diagonal ``|H|`` are 1e307, with a finite total, or a
    trap for greedy: its first pick, the one model with ``a = 0``, costs 1
    with every partner, while the others cost 1 or 1.1 and pair for 0 or
    0.1, so for 2 <= k <= m - 1 every set without it is better."""
    def ints(shape, lo=-3, hi=3):
        return data.draw(hnp.arrays(np.int64, shape, elements=st.integers(lo, hi)))

    def floats(shape, scale):
        unit = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
        return unit * scale

    if kind == "zero":
        a, H = np.zeros(m), np.zeros((m, m))
    elif kind == "integer":
        a, H = ints(m).astype(float), ints((m, m), -2, 2).astype(float)
    elif kind == "tenths":
        a, H = ints(m) / 10.0, ints((m, m), -2, 2) / 10.0
    elif kind == "subnormal":
        a, H = ints(m) * 2.0 ** -1074, ints((m, m)) * 2.0 ** -1074
    elif kind == "cancelling":
        big = st.sampled_from([-2.0 ** 53, -1.0, 0.0, 0.5, 1.0, 2.0 ** 53])
        a = data.draw(hnp.arrays(np.float64, m, elements=big))
        H = data.draw(hnp.arrays(np.float64, (m, m), elements=big))
    elif kind == "trap":
        t = data.draw(st.integers(0, m - 1))
        a, H = 1.0 + ints(m, 0, 1) / 10.0, ints((m, m), 0, 1) / 10.0
        a[t] = 0.0
        H[t, :] = H[:, t] = 1.0
    elif kind == "mixed":
        a = floats(m, 10.0 ** ints(m))
        H = floats((m, m), 10.0 ** ints((m, m)))
    else:
        a, H = floats(m, 1e305), floats((m, m), 1e305)
        i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
        a[i] = data.draw(st.sampled_from([-1e307, 1e307]))
        if i != j:
            H[i, j] = data.draw(st.sampled_from([-1e307, 1e307]))
    np.fill_diagonal(H, 0.0)
    return a, H


@settings(max_examples=600, deadline=None, derandomize=True)
@given(data=st.data(), m=st.integers(1, 10),
       kind=st.sampled_from(["mixed", "tenths", "cancelling", "integer", "zero",
                             "subnormal", "huge", "trap"]))
def test_exhaustive_select_is_the_full_table_search(data, m, kind):
    # the pruned search returns the full-table search's winner
    # and its f bits, ties included, also where greedy's incumbent is not
    # optimal; the huge terms raise no overflow warning from the bounds or
    # the thresholds (RuntimeWarning is an error in this suite)
    a, H = _draw_terms(data, m, kind)
    k = data.draw(st.integers(1, m))
    ids = tuple(f"m{i}" for i in range(m))
    cache = PairwiseCache(ids=ids, wd=a, wt=np.zeros(m), converged=[True] * m,
                          pair_h=H)
    cfg = TEConfig(standardize=False, lambda_d=1.0, lambda_t=0.0, lambda_c=1.0)
    cand, f = exhaustive_select(None, k, cache, cfg)
    full_ids, full_f = exhaustive_select_full(*effective_terms(cache, cfg), k)
    assert cand == full_ids
    assert f.hex() == full_f.hex()
    if kind == "trap" and 2 <= k < m:
        greedy = greedy_select(None, k, cache, cfg).steps[-1].f_cumulative
        assert greedy < full_f


def _terms_cache(a, H):
    """A cache and config under which ``effective_terms`` gives back ``a``
    and ``H`` themselves."""
    m = len(a)
    cache = PairwiseCache(ids=tuple(f"m{i:03d}" for i in range(m)), wd=a,
                          wt=np.zeros(m), converged=[True] * m, pair_h=H)
    return cache, TEConfig(standardize=False, lambda_d=1.0, lambda_t=0.0, lambda_c=1.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), m=st.integers(3, 10),
       kind=st.sampled_from(["mixed", "tenths", "cancelling", "integer", "zero",
                             "subnormal", "huge", "trap"]))
def test_exhaustive_select_a_prefix_per_bound_block_is_the_full_table_search(data, m,
                                                                              kind):
    # with one prefix per block, every pruned level spans many of ``_kept``'s
    # blocks, and the winner and its f bits are still the full table's
    a, H = _draw_terms(data, m, kind)
    k = data.draw(st.integers(2, m - 1))
    cache, cfg = _terms_cache(a, H)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(selection, "_BOUND_CELLS", 1)
        cand, f = exhaustive_select(None, k, cache, cfg)
    full_ids, full_f = exhaustive_select_full(*effective_terms(cache, cfg), k)
    assert (cand, f.hex()) == (full_ids, full_f.hex())


@pytest.mark.parametrize("k", range(2, 8))
def test_the_completion_bound_is_above_every_completion(k):
    # ub(P) = g(P) - (sum of the r smallest q_P[v] over v > last(P)) >=
    # f(P + C) for every prefix P and every completion C of r = k - |P|
    # members above its last, on mixed-sign terms over six decades: with
    # each prefix's floor at its best completion's f, ``_kept`` keeps them all
    rng = np.random.default_rng(60 + k)
    m = 8
    a, H = _mixed_terms(rng, m)
    sym = H + H.T
    s = selection._completion_bound(sym, k)
    tol = 1e-9 * k * k * (np.abs(a).max() + np.abs(H).max())
    for size in range(1, k):
        r = k - size
        prefixes = list(itertools.combinations(range(m - r), size))
        best = [subset_f(a, H, np.array([P + C for C in itertools.combinations(
                    range(P[-1] + 1, m), r)])).max() for P in prefixes]
        cols = np.array(prefixes, dtype=np.uint8).T
        g = subset_f(a, H, np.array(prefixes))
        assert selection._kept(cols, g, a, r, sym, s, np.array(best) - tol) is None


def _refused(fn, member, rows):
    """Run ``fn()``, which must be refused for a level of ``rows`` rows at
    ``member``, under tracemalloc; the peak rise of traced memory."""
    msg = (f"level of member {member} would hold {rows} rows, over the budget "
           f"of {EXHAUSTIVE_BUDGET} rows a level")

    def run():
        with pytest.raises(ValidationError, match=re.escape(msg)):
            fn()

    return peak_ratio(run, 1)[1]


def test_exhaustive_refuses_a_level_over_the_budget():
    # an all-zero (140, 5) cache prunes nothing: level 4 would hold
    # C(139, 4) = 14,891,626 rows and is refused before it is allocated, so
    # the peak stays within 64 bytes a row of level 3, C(138, 3) = 428,536
    # rows (19.0 MB measured)
    peak = _refused(lambda: exhaustive_select(None, 5, _zero_cache(140), TEConfig()),
                    4, math.comb(139, 4))
    assert peak <= 64 * math.comb(138, 3)


@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("seed", range(3))
def test_exhaustive_select_on_a_wide_pool_builds_a_small_last_level(monkeypatch, seed,
                                                                    standardize):
    # terms rising with model index: the bound drops all but a few prefixes,
    # so the last level holds at most 1 % of the C(32, 5) = 201,376 subsets
    extend = selection._extend
    rows = []

    def counted(cols, top, keep=None):
        nxt, reps = extend(cols, top, keep)
        rows.append(nxt.shape[1])
        return nxt, reps

    cache = wide_pool_cache(np.random.default_rng(seed))
    cfg = TEConfig(standardize=standardize)
    full_ids, full_f = exhaustive_select_full(*effective_terms(cache, cfg), 5)
    monkeypatch.setattr(selection, "_extend", counted)
    cand, f = exhaustive_select(None, 5, cache, cfg)
    assert rows[-1] <= math.comb(32, 5) // 100
    assert (cand, f.hex()) == (full_ids, full_f.hex())


@pytest.mark.parametrize("kind", ["uniform", "mixed"])
def test_exhaustive_select_at_the_paper_pool_size(kind):
    # 140 models, as the paper's 28 source datasets x 5 architectures: the
    # winner and its f bits are those of the full C(140, 3) = 447,580-row
    # table, on non-negative terms and on mixed-sign ones
    rng = np.random.default_rng(140)
    m = 140
    if kind == "uniform":
        cache, cfg = _random_cache(rng, m), TEConfig()
    else:
        a, H = _mixed_terms(rng, m)
        cache = PairwiseCache(ids=tuple(f"m{i:03d}" for i in range(m)), wd=a,
                              wt=np.zeros(m), converged=[True] * m, pair_h=H)
        cfg = TEConfig(standardize=False, lambda_d=1.0, lambda_t=0.0, lambda_c=1.0)
    full_ids, full_f = exhaustive_select_full(*effective_terms(cache, cfg), 3)
    cand, f = exhaustive_select(None, 3, cache, cfg)
    assert (cand, f.hex()) == (full_ids, full_f.hex())


@pytest.mark.parametrize("seed", range(3))
def test_exhaustive_select_on_random_caches_at_the_paper_pool_size(seed):
    # a and H drawn N(0, 1) with a zero diagonal, (M, k) = (140, 5): terms
    # of both signs, where a bound that charges each prefix member its row's
    # smallest entry left 9.8-13.3 M rows in one level; each prefix's own
    # cross terms solve it in under 1 s and 100 MB traced (0.1-0.3 s and
    # 3.5-5.4 MB measured on a 2-core box), at least as well as greedy
    rng = np.random.default_rng(seed)
    a = rng.normal(size=140)
    H = rng.normal(size=(140, 140))
    np.fill_diagonal(H, 0.0)
    cache, cfg = _terms_cache(a, H)
    start = time.perf_counter()
    (_, f), peak = peak_ratio(lambda: exhaustive_select(None, 5, cache, cfg), 1)
    assert time.perf_counter() - start < 1.0
    assert peak < 100e6
    assert f >= greedy_select(None, 5, cache, cfg).steps[-1].f_cumulative


@pytest.mark.parametrize("m,k", [(32, 5), (32, 1), (32, 32), (6, 2), (6, 5)])
def test_exhaustive_select_scores_only_the_incumbent(monkeypatch, m, k):
    # every row's f is carried through the enumeration; the kernel scores
    # greedy's set alone, and only where there is something to prune
    seen = []

    def counted(a, H, combos):
        seen.append(len(combos))
        return subset_f(a, H, combos)

    cache = _random_cache(np.random.default_rng(8), m)
    cfg = TEConfig()
    full_ids, full_f = exhaustive_select_full(*effective_terms(cache, cfg), k)
    monkeypatch.setattr(selection, "subset_f", counted)
    cand, f = exhaustive_select(None, k, cache, cfg)
    assert seen == ([1] if 2 <= k < m else [])
    assert (cand, f.hex()) == (full_ids, full_f.hex())


def test_exhaustive_trace_computes_the_terms_once(monkeypatch):
    calls = []

    def counted(cache, config):
        calls.append(None)
        return effective_terms(cache, config)

    monkeypatch.setattr(selection, "effective_terms", counted)
    cache = _random_cache(np.random.default_rng(3), 6)
    cfg = TEConfig(standardize=True)
    trace = exhaustive_trace(None, 3, cache, cfg)
    assert len(calls) == 1
    assert trace.final == exhaustive_select(None, 3, cache, cfg)[0]


# ---------------------------------------------------------------------------
# the enumeration table and the subset kernel
# ---------------------------------------------------------------------------


def _zero_cache(m):
    ids = tuple(f"m{i:03d}" for i in range(m))
    return PairwiseCache(ids=ids, wd=np.zeros(m), wt=np.zeros(m),
                         converged=[True] * m, pair_h=np.zeros((m, m)))


def test_combinations_are_itertools_combinations():
    # score_all's table
    for m in range(1, 13):
        cache = _zero_cache(m)
        for k in range(1, m + 1):
            _, rows, _ = score_all(None, k, cache, TEConfig())
            assert rows.dtype == np.uint8
            assert rows.tolist() == [list(c) for c in itertools.combinations(range(m), k)]


@pytest.mark.parametrize("m,k,dtype", [(256, 1, np.uint8), (256, 2, np.uint8),
                                       (257, 1, np.uint16), (300, 1, np.uint16),
                                       (300, 2, np.uint16)])
def test_combinations_widen_the_dtype_past_255(m, k, dtype):
    _, rows, _ = score_all(None, k, _zero_cache(m), TEConfig())
    assert rows.dtype == dtype
    assert rows.tolist() == [list(c) for c in itertools.combinations(range(m), k)]


def test_score_all_refuses_a_table_over_the_budget():
    # the full table's last level, C(M, k) rows, is its largest: C(23, 11) =
    # 1,352,078 is refused at member 11, after level 10, C(22, 10) = 646,646
    # rows (24.4 MB measured); C(22, 11) is accepted, as
    # test_enumeration_memory_at_the_budget checks
    assert math.comb(22, 11) <= EXHAUSTIVE_BUDGET < math.comb(23, 11)
    peak = _refused(lambda: score_all(None, 11, _zero_cache(23), TEConfig()),
                    11, math.comb(23, 11))
    assert peak <= 64 * math.comb(22, 10)


def test_score_all_refuses_exactly_the_tables_over_the_budget(monkeypatch):
    # with a budget of 30 rows a level, every (m, k) up to m = 10 is refused
    # exactly when C(m, k) > 30
    monkeypatch.setattr(selection, "EXHAUSTIVE_BUDGET", 30)
    for m in range(1, 11):
        cache = _zero_cache(m)
        for k in range(1, m + 1):
            if math.comb(m, k) > 30:
                with pytest.raises(ValidationError, match="budget of 30 rows"):
                    score_all(None, k, cache, TEConfig())
            else:
                assert len(score_all(None, k, cache, TEConfig())[1]) == math.comb(m, k)


def _mixed_terms(rng, m):
    """Mixed-sign terms spread over six decades, so that a change in the
    order of the subtractions changes the rounding."""
    a = rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3, size=m)
    H = rng.normal(size=(m, m)) * 10.0 ** rng.uniform(-3, 3, size=(m, m))
    np.fill_diagonal(H, 0.0)
    return a, H


# tenths that round apart in two summation orders: summed member by member,
# row 2 of C(4, 3) comes first; summed members first, then the ordered
# pairs, row 0
_TENTHS = (np.array([-0.2, -0.3, 0.0, 0.0]),
           np.array([[0.0, 0.1, -0.2, 0.0], [0.1, 0.0, 0.1, 0.2],
                     [0.2, -0.2, 0.0, -0.2], [-0.2, 0.1, 0.2, 0.0]]))


@pytest.mark.parametrize("k", range(1, 7))
def test_subset_f_is_the_scalar_loop_bit_for_bit(k):
    # subset_f, the sums carried while the table is enumerated and
    # score_all's values are one summation, the scalar loop's, to the bit
    rng = np.random.default_rng(40 + k)
    instances = [_mixed_terms(rng, 9)] + ([_TENTHS] if k <= 4 else [])
    for a, H in instances:
        m = len(a)
        f = subset_f_loop(a, H, list(itertools.combinations(range(m), k)))
        g, table = selection._subset_sums(a, H, k)
        assert subset_f(a, H, table).tobytes() == f.tobytes()
        assert g.tobytes() == f.tobytes()
        ids = tuple(f"m{i}" for i in range(m))
        cache = PairwiseCache(ids=ids, wd=a, wt=np.zeros(m), converged=[True] * m,
                              pair_h=H)
        cfg = TEConfig(standardize=False, lambda_d=1.0, lambda_t=0.0, lambda_c=1.0)
        _, a_used, H_used = effective_terms(cache, cfg)
        values = score_all(None, k, cache, cfg)[2]
        assert values.tobytes() == (-subset_f(a_used, H_used, table)).tobytes()
        # the C-ordered intp row that osborn_score passes
        for _ in range(5):
            row = np.sort(rng.choice(m, size=k, replace=False))[None, :]
            assert subset_f(a, H, row).tobytes() == subset_f_loop(a, H, row).tobytes()


def test_subset_f_rejects_indices_outside_the_terms():
    a, H = _mixed_terms(np.random.default_rng(0), 4)
    for bad in ([[0, 4]], [[-1, 2]]):
        with pytest.raises(ValidationError, match="does not exist"):
            subset_f(a, H, np.array(bad))


def test_subset_f_takes_uint64_indices():
    # numpy adds a uint64 column to an intp index in float64, which it will
    # not cast back; the checked table is taken as intp instead
    a, H = _mixed_terms(np.random.default_rng(0), 4)
    rows = [[0, 1], [1, 3], [0, 2]]
    want = subset_f(a, H, np.array(rows, dtype=np.intp))
    got = subset_f(a, H, np.array(rows, dtype=np.uint64))
    assert got.tobytes() == want.tobytes()
    with pytest.raises(ValidationError, match="does not exist"):
        subset_f(a, H, np.array([[0, 4]], dtype=np.uint64))


def test_enumeration_memory_at_the_budget():
    # C(22, 11) = 705,432 subsets, near the budget: score_all (the table and
    # its sums) and the kernel over that table each peak well below one intp
    # table
    m, k = 22, 11
    count = math.comb(m, k)
    nbytes = count * k * 8
    a, H = _mixed_terms(np.random.default_rng(1), m)
    ids = tuple(f"m{i:02d}" for i in range(m))
    cache = PairwiseCache(ids=ids, wd=a, wt=np.zeros(m), converged=[True] * m,
                          pair_h=H)
    cfg = TEConfig(standardize=False, lambda_d=1.0, lambda_t=0.0, lambda_c=1.0)
    (_, table, _), ratio = peak_ratio(lambda: score_all(None, k, cache, cfg), nbytes)
    assert ratio <= 0.75
    _, ratio = peak_ratio(lambda: subset_f(a, H, table), nbytes)
    assert ratio <= 0.75
    # exhaustive selection builds at most the full table and its sums: the
    # bound is a full-table kernel pass on these terms (24.76 MB) plus one
    # float64 vector of C(m, k) entries for the prune's carried sums
    _, peak = peak_ratio(
        lambda: exhaustive_select(None, k, None, None, terms=(ids, a, H)), 1)
    assert peak <= 24.76e6 + 8 * count


# ---------------------------------------------------------------------------
# scoring all subsets
# ---------------------------------------------------------------------------


def test_score_all_enumerates_lexicographically_and_matches_scores():
    # osborn_score and score_all sum through one kernel: equal to the bit
    configs = [TEConfig(standardize=s, lambda_d=d, lambda_t=t, lambda_c=c)
               for s in (False, True) for d, t, c in [(1, 1, 1), (1.5, 0.5, 2)]]
    for cfg, (m, k) in itertools.product(
            configs, [(5, 2), (1, 1), (4, 1), (4, 4), (7, 3), (6, 6)]):
        cache = _random_cache(np.random.default_rng(6), m)
        ids, combos, values = score_all(None, k, cache, cfg)
        assert ids == cache.ids
        assert combos.tolist() == [list(c) for c in itertools.combinations(range(m), k)]
        for row, value in zip(combos.tolist(), values.tolist()):
            assert value == osborn_score([ids[i] for i in row], cache, cfg).osborn_value


def test_score_subsets_are_the_arrays_behind_score_all(tmp_path):
    # the rankings file written from score_all's arrays names each subset by
    # its ids, in lexicographic order, with its value as alpha
    cfg = TEConfig()
    for m, k in [(5, 2), (6, 6), (7, 3)]:
        cache = _random_cache(np.random.default_rng(7), m)
        ids, combos, values = score_all(None, k, cache, cfg)
        assert ids == cache.ids
        assert combos.tolist() == [list(c) for c in itertools.combinations(range(m), k)]
        path = tmp_path / f"rankings_{m}_{k}.csv"
        write_scores(ids, combos, values, None, path)
        ensembles, alpha, accuracy = read_scores(path)
        assert ensembles == [tuple(ids[i] for i in row) for row in combos.tolist()]
        assert alpha.tolist() == values.tolist()
        assert np.isnan(accuracy).all()


def test_score_all_on_a_one_model_cache_warns_of_nothing():
    # standardizing the empty pair table must not ask numpy for the mean and
    # std of an empty array
    cache = _cache({"m0": 2.0}, {"m0": 0.5}, {})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ids, combos, values = score_all(None, 1, cache, TEConfig())
    assert list(ids) == ["m0"]
    assert combos.tolist() == [[0]]
    assert values.tolist() == [0.0]


# ---------------------------------------------------------------------------
# end-to-end on a generated pool
# ---------------------------------------------------------------------------


def test_selection_on_generated_pool_prefers_clean_models():
    # model quality degrades with index; greedy should avoid the worst model
    spec = SynthSpec(
        num_models=4, feature_dim=3, source_classes=2, target_classes=2,
        samples=40, domain_shift=(0.0, 0.3, 0.6, 2.5),
        prediction_noise=(0.0, 0.05, 0.1, 0.45), seed=21,
    )
    pool = build_pool(spec).manifest
    cfg = TEConfig(standardize=False, seed=0)
    cache = build_pairwise_cache(pool, cfg)
    trace = greedy_select(pool, 2, cache, cfg)
    assert "m03" not in trace.final


def test_write_selection_format(tmp_path):
    cache = _cache(
        {"a": 1.0, "b": 0.5}, {"a": 0.0, "b": 0.0},
        {("a", "b"): 0.25, ("b", "a"): 0.25},
    )
    trace = greedy_select(None, 2, cache, TEConfig(standardize=False))
    p = tmp_path / "sel.csv"
    write_selection(trace, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "step,chosen_id,gain,f_cumulative"
    assert lines[1] == "1,b,-0.5,-0.5"
    assert lines[2] == "2,a,-1.5,-2.0"
    assert lines[3] == "ensemble,b;a"
