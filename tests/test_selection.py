"""Greedy and exhaustive ensemble search over cached terms."""

import itertools
import warnings

import numpy as np
import pytest

from osborn.data_io import RankingRecord, TEConfig
from osborn.errors import ValidationError
from osborn.metrics import (
    PairwiseCache,
    build_pairwise_cache,
    osborn_score,
    standardize_terms,
)
from osborn.selection import (
    EXHAUSTIVE_BUDGET,
    EnsembleCandidate,
    exhaustive_select,
    greedy_select,
    marginal_gain,
    rankings_from_scores,
    score_all,
    score_subsets,
    write_selection,
)
from osborn.synth import SynthSpec, build_pool


def _cache(wd, wt, pair_h):
    return PairwiseCache(wd=dict(wd), wt=dict(wt),
                         converged={k: True for k in wd}, pair_h=dict(pair_h))


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
# candidates
# ---------------------------------------------------------------------------


def test_candidate_validation_and_ordering():
    c = EnsembleCandidate(("b", "a", "c"))
    assert c.k == 3
    assert c.ids == ("b", "a", "c")
    assert c.sorted_ids() == ("a", "b", "c")
    with pytest.raises(ValidationError, match="duplicate"):
        EnsembleCandidate(("a", "a"))
    with pytest.raises(ValidationError, match="non-empty"):
        EnsembleCandidate(())


# ---------------------------------------------------------------------------
# marginal gain
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("standardize", [False, True])
def test_marginal_gain_equals_score_difference(standardize):
    rng = np.random.default_rng(0)
    cache = _random_cache(rng, 6)
    cfg = TEConfig(standardize=standardize, lambda_d=1.5, lambda_t=0.5,
                   lambda_c=2.0)
    ids = sorted(cache.wd)
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


def test_gains_diminish_on_nonnegative_terms():
    # with all cached terms >= 0, extending the base set can only add more
    # positive pair penalties, so gains shrink as the set grows
    rng = np.random.default_rng(2)
    cfg = TEConfig(standardize=False)
    for trial in range(20):
        cache = _random_cache(np.random.default_rng(100 + trial), 5)
        ids = sorted(cache.wd)
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
    assert trace.final.ids == ("b", "a")
    assert trace.steps[0].gain == pytest.approx(-0.5, abs=1e-12)
    assert trace.steps[1].gain == pytest.approx(-1.2, abs=1e-12)
    assert trace.steps[1].f_cumulative == pytest.approx(-1.7, abs=1e-12)


def test_greedy_breaks_ties_toward_smaller_id():
    cache = _cache(
        {"x": 1.0, "y": 1.0, "z": 1.0}, {"x": 0.0, "y": 0.0, "z": 0.0},
        {(a, b): 0.25 for a in "xyz" for b in "xyz" if a != b},
    )
    trace = greedy_select(None, 2, cache, TEConfig(standardize=False))
    assert trace.final.ids == ("x", "y")


def test_greedy_cumulative_f_matches_rescoring():
    rng = np.random.default_rng(3)
    cfg = TEConfig(standardize=False)
    for trial in range(10):
        cache = _random_cache(np.random.default_rng(200 + trial), 6)
        trace = greedy_select(None, 4, cache, cfg)
        assert trace.steps[-1].f_cumulative == pytest.approx(
            _f(trace.final.ids, cache, cfg), abs=1e-12)
        gains = [s.gain for s in trace.steps]
        assert gains == sorted(gains, reverse=True)


def _loop_greedy(cache, cfg, k):
    """Greedy selection written as scalar loops over dict-keyed terms."""
    use = standardize_terms(cache) if cfg.standardize else cache
    modular = {m: cfg.lambda_d * use.wd[m] + cfg.lambda_t * use.wt[m]
               for m in use.wd}
    pair = {key: cfg.lambda_c * v for key, v in use.pair_h.items()}

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
            cache = _cache({m: 1.0 for m in cache.wd}, {m: 0.0 for m in cache.wt},
                           {key: 0.5 for key in cache.pair_h})
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
    rng = np.random.default_rng(5)
    cfg = TEConfig(standardize=False)
    for trial in range(10):
        cache = _random_cache(np.random.default_rng(300 + trial), 6)
        ids = sorted(cache.wd)
        cand, best_f = exhaustive_select(None, 3, cache, cfg)
        ref = max(itertools.combinations(ids, 3),
                  key=lambda c: _f(c, cache, cfg))
        assert _f(cand.ids, cache, cfg) == pytest.approx(best_f, abs=1e-12)
        assert best_f == pytest.approx(_f(ref, cache, cfg), abs=1e-12)


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
    import math
    assert math.comb(40, 20) > EXHAUSTIVE_BUDGET
    with pytest.raises(ValidationError, match="budget"):
        exhaustive_select(None, 20, cache, TEConfig())
    with pytest.raises(ValidationError, match="budget"):
        score_all(None, 20, cache, TEConfig())


# ---------------------------------------------------------------------------
# scoring all subsets
# ---------------------------------------------------------------------------


def test_score_all_enumerates_lexicographically_and_matches_scores():
    cfg = TEConfig(standardize=False)
    for m, k in [(5, 2), (1, 1), (4, 1), (4, 4), (7, 3), (6, 6)]:
        cache = _random_cache(np.random.default_rng(6), m)
        scored = score_all(None, k, cache, cfg)
        ids = sorted(cache.wd)
        expected_combos = list(itertools.combinations(ids, k))
        assert [c.ids for c, _ in scored] == expected_combos
        for cand, value in scored:
            assert value == pytest.approx(
                osborn_score(cand.ids, cache, cfg).osborn_value, abs=1e-12)


def test_score_subsets_are_the_arrays_behind_score_all():
    cfg = TEConfig()
    for m, k in [(5, 2), (6, 6), (7, 3)]:
        cache = _random_cache(np.random.default_rng(7), m)
        ids, combos, values = score_subsets(None, k, cache, cfg)
        assert ids == tuple(sorted(cache.wd))
        assert combos.tolist() == [list(c) for c in itertools.combinations(range(m), k)]
        scored = score_all(None, k, cache, cfg)
        assert [c.ids for c, _ in scored] == \
            [tuple(ids[i] for i in row) for row in combos]
        assert [v for _, v in scored] == values.tolist()


def test_score_subsets_on_a_one_model_cache_warns_of_nothing():
    # standardizing the empty pair table must not ask numpy for the mean and
    # std of an empty array
    cache = _cache({"m0": 2.0}, {"m0": 0.5}, {})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ids, combos, values = score_subsets(None, 1, cache, TEConfig())
    assert list(ids) == ["m0"]
    assert combos.tolist() == [[0]]
    assert values.tolist() == [0.0]


def test_rankings_negate_scores():
    scored = [(EnsembleCandidate(("b", "a")), 2.5),
              (EnsembleCandidate(("c",)), -1.0)]
    recs = rankings_from_scores(scored)
    assert recs[0] == RankingRecord(ensemble=("a", "b"), alpha=-2.5)
    assert recs[1] == RankingRecord(ensemble=("c",), alpha=1.0)


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
    assert "m03" not in trace.final.ids


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
