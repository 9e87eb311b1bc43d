"""Scoring terms against independent entropy oracles, plus the term cache."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from osborn import metrics
from osborn.data_io import LabelVector, PoolManifest, PredictionVector, TEConfig, read_lines
from osborn.errors import ValidationError
from osborn.metrics import (
    PairwiseCache,
    build_pairwise_cache,
    cohesion_pair,
    effective_terms,
    joint_from_coupling,
    osborn_score,
    read_cache,
    standardize_terms,
    w_task,
    write_cache,
)
from osborn.ot_core import Coupling, MarginalWeights, cost_matrix, \
    median_positive_cost, sinkhorn
from osborn.synth import SynthSpec, build_pool

from conftest import cohesion_pair_loop, cond_entropy_rows_given_cols, joint_table_loop, \
    peak_ratio, write_cache_loop


def _coupling_from_plan(plan):
    plan = np.asarray(plan, dtype=np.float64)
    return Coupling(plan=plan, transport_cost=0.0, iterations_used=0,
                    converged=True)


def _random_joint(rng, cs, ct, zeros=0.3):
    table = rng.uniform(size=(cs, ct))
    table[rng.uniform(size=(cs, ct)) < zeros] = 0.0
    if table.sum() == 0:
        table[0, 0] = 1.0
    table /= table.sum()
    return table


def _cache(wd, wt, pair_h, converged=None):
    """A cache from terms keyed by model id and by ordered id pair."""
    ids = sorted(wd)
    conv = converged or {k: True for k in wd}
    pair = np.zeros((len(ids), len(ids)))
    for (a, b), v in pair_h.items():
        pair[ids.index(a), ids.index(b)] = v
    return PairwiseCache(ids=tuple(ids), wd=[wd[i] for i in ids],
                         wt=[wt[i] for i in ids],
                         converged=[conv[i] for i in ids], pair_h=pair)


# ---------------------------------------------------------------------------
# joint label table
# ---------------------------------------------------------------------------


def test_joint_from_coupling_matches_scalar_accumulation():
    rng = np.random.default_rng(0)
    plan = rng.uniform(size=(6, 5))
    plan /= plan.sum()
    src = LabelVector(rng.integers(0, 3, 6), 3)
    tgt = LabelVector(rng.integers(0, 4, 5), 4)
    joint = joint_from_coupling(_coupling_from_plan(plan), src, tgt)
    ref = joint_table_loop(plan, src.values, tgt.values, 3, 4)
    assert joint.shape == (3, 4)
    assert np.allclose(joint, ref, atol=1e-15)
    assert joint.sum() == pytest.approx(plan.sum(), abs=1e-12)


def test_joint_from_coupling_checks_lengths():
    plan = np.full((2, 2), 0.25)
    src = LabelVector(np.array([0, 1]), 2)
    tgt = LabelVector(np.array([0, 1]), 2)
    with pytest.raises(ValidationError, match="source labels"):
        joint_from_coupling(_coupling_from_plan(plan), LabelVector(np.array([0]), 2), tgt)
    with pytest.raises(ValidationError, match="target labels"):
        joint_from_coupling(_coupling_from_plan(plan), src, LabelVector(np.array([0]), 2))


# ---------------------------------------------------------------------------
# task difference
# ---------------------------------------------------------------------------


def test_w_task_matches_conditional_entropy_oracle():
    rng = np.random.default_rng(1)
    for _ in range(60):
        cs = int(rng.integers(1, 6))
        ct = int(rng.integers(1, 6))
        joint = _random_joint(rng, cs, ct)
        assert w_task(joint) == pytest.approx(
            cond_entropy_rows_given_cols(joint), abs=1e-12)


def test_w_task_analytic_values():
    # deterministic diagonal: knowing the column pins the row
    diag = np.diag([0.25, 0.35, 0.40])
    assert w_task(diag) == 0.0
    # independent uniform binary: one bit of leftover uncertainty
    flat2 = np.full((2, 2), 0.25)
    assert w_task(flat2) == pytest.approx(math.log(2.0), abs=1e-12)
    # independent uniform over C source classes
    for c in (3, 4, 5):
        flat = np.full((c, c), 1.0 / c ** 2)
        assert w_task(flat) == pytest.approx(math.log(c), abs=1e-12)


def test_w_task_nonnegative_on_random_tables():
    rng = np.random.default_rng(2)
    for _ in range(200):
        joint = _random_joint(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        assert w_task(joint) >= 0.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=st.floats(0.0, 1.0)))
def test_w_task_lies_between_zero_and_log_source_classes(cells):
    # H(source | target) of a joint table is at most the entropy of a
    # uniform source label
    assume(cells.sum() > 0)
    value = w_task(cells / cells.sum())
    assert -1e-12 <= value <= math.log(cells.shape[0]) + 1e-12


def test_w_task_is_finite_with_a_subnormal_cell():
    # the cell's ratio to its column overflows a double; its term does not
    table = np.array([[2.2250738585e-313], [1.0]])
    assert 0.0 <= w_task(table) < 1e-309


def test_w_task_empty_table_is_zero():
    assert w_task(np.zeros((2, 3))) == 0.0


# ---------------------------------------------------------------------------
# cohesion
# ---------------------------------------------------------------------------


def test_cohesion_pair_zero_for_identical_and_functional_predictions():
    p = PredictionVector(np.array([0, 1, 2, 1, 0]), 3)
    assert cohesion_pair(p, [p])[0] == 0.0
    # pred_i is a relabeling of pred_j: still fully determined
    q = PredictionVector((p.values + 1) % 3, 3)
    assert cohesion_pair(q, [p])[0] == 0.0


def test_cohesion_pair_matches_oracle_and_is_asymmetric():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        ci = int(rng.integers(2, 5))
        cj = int(rng.integers(2, 5))
        pi = PredictionVector(rng.integers(0, ci, n), ci)
        pj = PredictionVector(rng.integers(0, cj, n), cj)
        counts = joint_table_loop(
            np.eye(n) / n, pi.values, pj.values, ci, cj)
        assert cohesion_pair(pi, [pj])[0] == pytest.approx(
            cond_entropy_rows_given_cols(counts), abs=1e-12)


def test_cohesion_pair_one_bit_case():
    # conditioning on a constant leaves the full marginal entropy
    pi = PredictionVector(np.array([0, 1, 0, 1]), 2)
    pj = PredictionVector(np.array([0, 0, 0, 0]), 2)
    assert cohesion_pair(pi, [pj])[0] == pytest.approx(math.log(2.0), abs=1e-12)
    assert cohesion_pair(pj, [pi])[0] == 0.0


@st.composite
def _prediction_pairs(draw):
    n, ci, cj = draw(st.integers(1, 40)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    vi = draw(st.lists(st.integers(0, ci - 1), min_size=n, max_size=n))
    vj = draw(st.lists(st.integers(0, cj - 1), min_size=n, max_size=n))
    return PredictionVector(np.array(vi), ci), PredictionVector(np.array(vj), cj)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_prediction_pairs())
def test_cohesion_pair_lies_between_zero_and_log_classes(pair):
    pred_i, pred_j = pair
    value = cohesion_pair(pred_i, [pred_j])[0]
    assert -1e-12 <= value <= math.log(pred_i.num_classes) + 1e-12


def test_cohesion_pair_length_mismatch():
    with pytest.raises(ValidationError, match="lengths differ"):
        cohesion_pair(PredictionVector(np.array([0]), 2),
                      [PredictionVector(np.array([0, 1]), 2)])


def _mixed_predictions(rng, n):
    # class counts 2, 4 and 7 mixed, a constant predictor, and one-class
    # predictors beside nine- and twelve-class ones (a one-column table)
    preds = [PredictionVector(rng.integers(0, c, n), c)
             for c in (2, 4, 7, 4, 2, 7, 9, 12, 9, 12)]
    return preds + [PredictionVector(np.full(n, 3), 7),
                    PredictionVector(np.zeros(n, dtype=np.int64), 1)]


def test_cohesion_row_is_the_pair_formula_bit_for_bit():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 60, 500):
        preds = _mixed_predictions(rng, n)
        for i, pred in enumerate(preds):
            row = cohesion_pair(pred, preds)
            assert row[i] == 0.0
            want = np.array([cohesion_pair_loop(pred, other) for other in preds])
            assert row.tobytes() == want.tobytes()
            assert cohesion_pair(pred, []).shape == (0,)


def test_cohesion_blocks_do_not_change_the_row(monkeypatch):
    preds = _mixed_predictions(np.random.default_rng(12), 300)
    whole = [cohesion_pair(pred, preds) for pred in preds]
    # a budget below one table counts one table per bincount
    monkeypatch.setattr(metrics, "_COHESION_CELLS", 1)
    for pred, row in zip(preds, whole):
        assert cohesion_pair(pred, preds).tobytes() == row.tobytes()


def test_cohesion_row_memory_is_linear_in_models_and_samples():
    m, n = 64, 4000
    rng = np.random.default_rng(13)
    preds = [PredictionVector(rng.integers(0, 4, n), 4) for _ in range(m)]
    row, ratio = peak_ratio(lambda: cohesion_pair(preds[0], preds), m * n * 8)
    assert row.shape == (m,) and row[0] == 0.0
    # a table of codes for every pair of the pool would be m times this
    assert ratio < 4


def test_w_cohesion_sums_ordered_pairs():
    # with lambda_d = lambda_t = 0 the score is W_C alone
    pair_h = {("a", "b"): 0.5, ("b", "a"): 0.25,
              ("a", "c"): 1.0, ("c", "a"): 2.0,
              ("b", "c"): 0.125, ("c", "b"): 4.0}
    cache = _cache({"a": 9.0, "b": 9.0, "c": 9.0}, {"a": 9.0, "b": 9.0, "c": 9.0},
                   pair_h)
    cfg = TEConfig(lambda_d=0.0, lambda_t=0.0, standardize=False)

    def w_c(ensemble):
        return osborn_score(ensemble, cache, cfg).osborn_value

    assert w_c(("a", "b")) == 0.75
    assert w_c(("a", "b", "c")) == pytest.approx(7.875, abs=1e-12)
    assert w_c(("a",)) == 0.0
    with pytest.raises(ValidationError, match="duplicate"):
        w_c(("a", "a"))


# ---------------------------------------------------------------------------
# cache structure and standardization
# ---------------------------------------------------------------------------


def test_cache_requires_complete_pair_table():
    wd = np.array([1.0, 2.0])
    ok = dict(ids=("a", "b"), wd=wd, wt=[0.0, 0.0], converged=[True, True],
              pair_h=[[0.0, 0.1], [0.2, 0.0]])
    for change, msg in [
        (dict(pair_h=[[0.0, 0.1]]), "every ordered pair"),
        (dict(wt=[0.0]), "disagree"),
        (dict(wd=[np.nan, 0.0]), "non-finite cached value for model 'a'"),
        (dict(pair_h=[[0.0, 0.1], [np.inf, 0.0]]),
         r"non-finite cached value for pair \('b', 'a'\)"),
        # wrong array shapes
        (dict(wd=[[1.0, 2.0]]), "disagree"),
        (dict(converged=[True, True, True]), "disagree"),
        (dict(pair_h=np.zeros((2, 2, 1))), "every ordered pair"),
        # a nonzero diagonal
        (dict(pair_h=[[0.5, 0.1], [0.2, 0.0]]), "zero diagonal"),
        # unsorted, duplicate or no ids
        (dict(ids=("b", "a")), "sorted"),
        (dict(ids=("a", "a")), "duplicate"),
        (dict(ids=()), "at least one model"),
        # an id that write_cache could not write readably
        (dict(ids=("a,b", "c")), "reserved character"),
    ]:
        with pytest.raises(ValidationError, match=msg):
            PairwiseCache(**{**ok, **change})
    cache = PairwiseCache(**ok)
    assert cache.converged.dtype == bool and cache.pair_h.shape == (2, 2)
    for name in ("wd", "wt", "converged", "pair_h"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(cache, name)[0] = 1
    wd[0] = 9.0  # the cache holds its own copy
    assert cache.wd.tolist() == [1.0, 2.0]


def test_standardize_centers_and_scales_population():
    cache = _cache(
        {"a": 1.0, "b": 2.0, "c": 6.0}, {"a": -1.0, "b": 0.0, "c": 1.0},
        {("a", "b"): 0.0, ("b", "a"): 1.0, ("a", "c"): 2.0,
         ("c", "a"): 3.0, ("b", "c"): 4.0, ("c", "b"): 5.0},
    )
    z = standardize_terms(cache)
    for vals in (z.wd, z.wt, z.pair_h[~np.eye(3, dtype=bool)]):
        assert vals.mean() == pytest.approx(0.0, abs=1e-12)
        assert vals.std() == pytest.approx(1.0, abs=1e-12)
    assert np.diagonal(z.pair_h).tolist() == [0.0, 0.0, 0.0]
    # order preserved (ids a, b, c)
    assert z.wd[0] < z.wd[1] < z.wd[2]


def test_standardize_zero_variance_column_drops_out():
    cache = _cache({"a": 3.0, "b": 3.0}, {"a": 1.0, "b": 2.0},
                   {("a", "b"): 0.5, ("b", "a"): 0.5})
    z = standardize_terms(cache)
    assert z.wd.tolist() == [0.0, 0.0]
    assert z.pair_h.tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert z.wt[0] == -z.wt[1]


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def test_osborn_score_matches_hand_sum_raw():
    cache = _cache(
        {"a": 1.0, "b": 2.0, "c": 4.0}, {"a": 0.5, "b": 0.25, "c": 0.125},
        {("a", "b"): 0.1, ("b", "a"): 0.2, ("a", "c"): 0.3,
         ("c", "a"): 0.4, ("b", "c"): 0.5, ("c", "b"): 0.6},
    )
    cfg = TEConfig(standardize=False)
    sb = osborn_score(("b", "a"), cache, cfg)
    expected = (1.0 + 2.0) + (0.5 + 0.25) + (0.1 + 0.2)
    assert sb.osborn_value == pytest.approx(expected, abs=1e-12)
    assert sb.f_value == -sb.osborn_value
    assert sb.member_ids == ("a", "b")
    assert sb.standardized is False
    assert sb.weights == (1.0, 1.0, 1.0)
    assert sb.wd_raw == {"a": 1.0, "b": 2.0}
    assert set(sb.pair_h_raw) == {("a", "b"), ("b", "a")}


def test_osborn_score_honors_weights():
    cache = _cache({"a": 1.0, "b": 2.0}, {"a": 4.0, "b": 8.0},
                   {("a", "b"): 16.0, ("b", "a"): 32.0})
    cfg = TEConfig(standardize=False, lambda_d=2.0, lambda_t=0.5, lambda_c=0.25)
    sb = osborn_score(("a", "b"), cache, cfg)
    assert sb.osborn_value == pytest.approx(
        2.0 * 3.0 + 0.5 * 12.0 + 0.25 * 48.0, abs=1e-12)


def test_osborn_score_standardized_route():
    cache = _cache(
        {"a": 1.0, "b": 3.0, "c": 5.0}, {"a": 2.0, "b": 2.0, "c": 2.0},
        {("a", "b"): 1.0, ("b", "a"): 2.0, ("a", "c"): 3.0,
         ("c", "a"): 4.0, ("b", "c"): 5.0, ("c", "b"): 6.0},
    )
    cfg = TEConfig(standardize=True)
    z = standardize_terms(cache)
    a, c = cache.positions(("a", "c"))
    sb = osborn_score(("a", "c"), cache, cfg)
    expected = z.wd[a] + z.wd[c] + z.wt[a] + z.wt[c] \
        + z.pair_h[a, c] + z.pair_h[c, a]
    assert sb.osborn_value == pytest.approx(expected, abs=1e-12)
    assert sb.wd_raw == {"a": 1.0, "c": 5.0}
    assert sb.wd_used == {"a": z.wd[a], "c": z.wd[c]}


def test_osborn_score_rejects_unknown_and_empty():
    cache = _cache({"a": 1.0, "b": 1.0}, {"a": 0.0, "b": 0.0},
                   {("a", "b"): 0.0, ("b", "a"): 0.0})
    cfg = TEConfig()
    with pytest.raises(ValidationError, match="not in the cache"):
        osborn_score(("a", "z"), cache, cfg)
    with pytest.raises(ValidationError, match="non-empty"):
        osborn_score((), cache, cfg)
    # a member that is not a model-id string is refused, naming its type
    with pytest.raises(ValidationError, match="model-id strings, got int"):
        osborn_score(("a", 1), cache, cfg)


def test_a_bare_string_is_not_an_ensemble():
    # "ab" would otherwise read as the pair ("a", "b")
    cache = _cache({"a": 1.0, "b": 1.0}, {"a": 0.0, "b": 0.0},
                   {("a", "b"): 0.0, ("b", "a"): 0.0})
    with pytest.raises(ValidationError, match="got a str"):
        cache.positions("ab")
    with pytest.raises(ValidationError, match="got a str"):
        osborn_score("ab", cache, TEConfig())


# ---------------------------------------------------------------------------
# cache construction on real pools
# ---------------------------------------------------------------------------


def _small_pool(seed=0):
    spec = SynthSpec(
        num_models=3, feature_dim=3, source_classes=2, target_classes=2,
        samples=30, domain_shift=(0.0, 0.8, 1.6),
        prediction_noise=(0.0, 0.15, 0.3), seed=seed,
    )
    return build_pool(spec).manifest


def test_build_cache_matches_direct_term_computation():
    pool = _small_pool()
    cfg = TEConfig(seed=0)
    cache = build_pairwise_cache(pool, cfg)
    # cap exceeds the pool size, so no subsampling: terms must equal direct
    # per-model computation on the full data
    for i, rec in zip(cache.positions(pool.model_ids()), pool.models):
        C = cost_matrix(rec.source_features, rec.target_features)
        marg = MarginalWeights.uniform(*C.shape)
        coup = sinkhorn(C, marg, cfg.epsilon * median_positive_cost(C),
                        cfg.max_iters, cfg.convergence_tol)
        joint = joint_from_coupling(coup, rec.source_labels, pool.target_labels)
        assert cache.wd[i] == coup.transport_cost
        assert cache.wt[i] == w_task(joint)
        assert cache.converged[i] == coup.converged
    pos = cache.positions(pool.model_ids())
    preds = [rec.target_predictions for rec in pool.models]
    for i, pred in zip(pos, preds):
        assert np.array_equal(cache.pair_h[i, pos], cohesion_pair(pred, preds))


def test_build_cache_thread_count_does_not_change_values():
    pool = _small_pool(seed=5)
    cfg = TEConfig(seed=3)
    one = build_pairwise_cache(pool, cfg, threads=1)
    four = build_pairwise_cache(pool, cfg, threads=4)
    assert one.ids == four.ids
    assert np.array_equal(one.wd, four.wd)
    assert np.array_equal(one.wt, four.wt)
    assert np.array_equal(one.pair_h, four.pair_h)
    assert np.array_equal(one.converged, four.converged)


def test_build_cache_subsampling_is_deterministic():
    pool = _small_pool(seed=9)
    cfg = TEConfig(seed=11, subsample_cap=12)
    a = build_pairwise_cache(pool, cfg)
    b = build_pairwise_cache(pool, cfg)
    assert np.array_equal(a.wd, b.wd) and np.array_equal(a.wt, b.wt) \
        and np.array_equal(a.pair_h, b.pair_h)
    c = build_pairwise_cache(pool, TEConfig(seed=12, subsample_cap=12))
    assert not np.array_equal(a.wd, c.wd)


def test_build_cache_cohesion_ignores_subsampling():
    # predictions are cheap, so cohesion always uses the full target set
    pool = _small_pool(seed=2)
    full = build_pairwise_cache(pool, TEConfig(seed=0))
    capped = build_pairwise_cache(pool, TEConfig(seed=0, subsample_cap=10))
    assert np.array_equal(full.pair_h, capped.pair_h)


def test_build_cache_rejects_a_repeated_model_id():
    # the pool cannot be built, so it never reaches a transport solve
    pool = _small_pool()
    with pytest.raises(ValidationError, match=r"duplicate model ids \['m00'\]"):
        PoolManifest(models=pool.models + pool.models[:1],
                     target_labels=pool.target_labels)


def test_frobenius_regularizer_route_works_end_to_end():
    pool = _small_pool(seed=4)
    cfg = TEConfig(regularizer="frobenius")
    cache = build_pairwise_cache(pool, cfg)
    assert np.all(np.isfinite(cache.wd))
    assert np.all(cache.converged)


# ---------------------------------------------------------------------------
# cache persistence
# ---------------------------------------------------------------------------


def test_cache_round_trip_bit_exact(tmp_path):
    pool = _small_pool(seed=1)
    cache = build_pairwise_cache(pool, TEConfig(seed=0))
    p = tmp_path / "cache.csv"
    write_cache(cache, p)
    back = read_cache(p)
    assert back.ids == cache.ids
    assert np.array_equal(back.wd, cache.wd)
    assert np.array_equal(back.wt, cache.wt)
    assert np.array_equal(back.pair_h, cache.pair_h)
    assert np.array_equal(back.converged, cache.converged)
    # a second write of the parsed cache is byte-identical
    p2 = tmp_path / "cache2.csv"
    write_cache(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_cache_writer_bytes(tmp_path):
    # model rows then ordered pairs, both in id order; reals in their
    # shortest round-trip form, signed zero and subnormals included, and an
    # unconverged model as 0
    cache = PairwiseCache(ids=("a", "b"), wd=[-0.0, 1e-300], wt=[0.25, 5e-324],
                          converged=[True, False], pair_h=[[0.0, 0.1], [2.0, 0.0]])
    p = tmp_path / "cache.csv"
    write_cache(cache, p)
    assert p.read_bytes() == (
        b"model,a,wd,-0.0,wt,0.25,converged,1\n"
        b"model,b,wd,1e-300,wt,5e-324,converged,0\n"
        b"pair,a,b,h,0.1\n"
        b"pair,b,a,h,2.0\n"
    )


@pytest.mark.parametrize("text,msg", [
    ("model,a,wd,1.0,wt,2.0\n", "malformed"),
    ("model,a,wd,1.0,wt,2.0,converged,2\n", "malformed"),
    ("pair,a,b,g,1.0\n", "malformed"),
    ("row,a,b\n", "malformed"),
    ("model,a,wd,1.0,wt,2.0,converged,1\nmodel,a,wd,1.0,wt,2.0,converged,1\n",
     "duplicate model"),
    ("pair,a,b,h,0.5\npair,a,b,h,0.5\n", "c.csv:2: duplicate pair"),
    # blank lines count: the bad row is the file's fifth line
    ("model,a,wd,1.0,wt,2.0,converged,1\n\nmodel,b,wd,1.0,wt,2.0,converged,1\n"
     "\npair,a,b,g,0.5\n", "c.csv:5: malformed"),
    # a rule PairwiseCache keeps is reported with the file's name
    ("model,a,wd,nan,wt,2.0,converged,1\n", "c.csv: non-finite cached value for model 'a'"),
])
def test_cache_reader_rejects_malformed(tmp_path, text, msg):
    p = tmp_path / "c.csv"
    p.write_text(text)
    with pytest.raises(ValidationError, match=msg):
        read_cache(p)


def test_cache_reader_rejects_incomplete_pair_table(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text(
        "model,a,wd,1.0,wt,2.0,converged,1\n"
        "model,b,wd,1.0,wt,2.0,converged,1\n"
        "pair,a,b,h,0.5\n"
    )
    with pytest.raises(ValidationError, match="every ordered pair"):
        read_cache(p)


_CACHE_REAL = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e-300]),
                        st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _caches(draw):
    """A ``PairwiseCache`` of 1 to 5 models with any finite reals, signed
    zeros and subnormals among them."""
    m = draw(st.integers(1, 5))
    ids = draw(st.lists(st.sampled_from(["a", "b", "m0", "m10", "m9", "x.y", "Z", "é"]),
                        min_size=m, max_size=m, unique=True))
    reals = st.lists(_CACHE_REAL, min_size=m, max_size=m)
    pair_h = np.array(draw(st.lists(_CACHE_REAL, min_size=m * m, max_size=m * m)))
    pair_h = pair_h.reshape(m, m)
    np.fill_diagonal(pair_h, 0.0)
    return PairwiseCache(ids=tuple(sorted(ids)), wd=draw(reals), wt=draw(reals),
                         converged=draw(st.lists(st.booleans(), min_size=m, max_size=m)),
                         pair_h=pair_h)


_ONE_MODEL = PairwiseCache(ids=("a",), wd=[-0.0], wt=[5e-324], converged=[False],
                           pair_h=[[0.0]])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cache=_caches())
@example(cache=_ONE_MODEL)
def test_cache_writer_matches_the_row_by_row_render(tmp_path_factory, cache):
    d = tmp_path_factory.mktemp("cache")
    write_cache(cache, d / "columns.csv")
    write_cache_loop(d / "rows.csv", cache)
    assert (d / "columns.csv").read_bytes() == (d / "rows.csv").read_bytes()


def _cache_outcome(read, path):
    """What ``read`` gives for cache file ``path``: the cache's ids and the
    dtype and bytes of each of its arrays, or its error message."""
    try:
        cache = read(path)
    except ValidationError as exc:
        return str(exc)
    return cache.ids, [(getattr(cache, name).dtype, getattr(cache, name).tobytes())
                       for name in ("wd", "wt", "converged", "pair_h")]


def _cache_row_loop(path):
    return metrics._cache_rows(path, read_lines(path, "cache"))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cache=_caches())
@example(cache=_ONE_MODEL)
def test_cache_reader_reads_written_caches_bit_for_bit(tmp_path_factory, cache):
    # a written cache is read in one block, into the arrays it was written
    # from and into what the row loop alone reads from the same file
    p = tmp_path_factory.mktemp("cache") / "c.csv"
    write_cache(cache, p)
    assert metrics._cache_block(p.read_text(encoding="utf-8")) is not None
    want = _cache_outcome(lambda _: cache, p)
    assert _cache_outcome(read_cache, p) == want
    assert _cache_outcome(_cache_row_loop, p) == want


_THREE_MODELS = PairwiseCache(
    ids=("a", "b", "c"), wd=[0.5, -0.0, 2.0], wt=[1.0, 5e-324, 3.0],
    converged=[True, False, True], pair_h=[[0.0, 0.1, 0.2], [0.3, 0.0, 0.4], [0.5, 0.6, 0.0]])


def _written_lines(tmp_path):
    """The lines of ``_THREE_MODELS`` as ``write_cache`` writes it: model
    rows a, b, c on lines 1-3, then pairs ab, ac, ba, bc, ca, cb on 4-9."""
    write_cache(_THREE_MODELS, tmp_path / "written.csv")
    return (tmp_path / "written.csv").read_text(encoding="utf-8").splitlines()


def _rename_b(lines):
    return [",".join("b " if field == "b" else field for field in line.split(","))
            for line in lines]


@pytest.mark.parametrize("edit,msg", [
    (lambda lines: lines[:6] + [lines[4]] + lines[7:], "c.csv:7: duplicate pair ('a', 'c')"),
    (lambda lines: [lines[0], lines[1][:-1] + "2", *lines[2:]], "c.csv:2: malformed cache row"),
    (lambda lines: lines[:5] + ["pair,b,a,h,nan"] + lines[6:],
     "c.csv: non-finite cached value for pair ('b', 'a')"),
    (_rename_b, "c.csv: model id 'b ' contains a reserved character "
                "(comma/semicolon/tab/line break) or outer whitespace"),
], ids=["repeated pair row", "converged 2", "nan pair value", "id with outer whitespace"])
def test_cache_reader_rejects_a_full_size_cache_as_the_row_loop(tmp_path, monkeypatch,
                                                                edit, msg):
    # nine rows, as many as three models write, that fail the block route:
    # the row loop's own message and line
    lines = edit(_written_lines(tmp_path))
    assert len(lines) == 9
    monkeypatch.chdir(tmp_path)
    p = "c.csv"
    with open(p, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert _cache_outcome(read_cache, p) == _cache_outcome(_cache_row_loop, p) == msg


@pytest.mark.parametrize("edit", [
    lambda lines: lines[:3] + lines[3:][::-1],
    lambda lines: lines[:3] + [""] + lines[3:],
    lambda lines: lines[:4] + [" \t" + lines[4] + "  "] + lines[5:],
    lambda lines: lines[1:3] + lines[:1] + lines[3:],
], ids=["pair rows reversed", "blank line", "outer whitespace", "model rows out of order"])
def test_cache_reader_reads_other_valid_forms_through_the_row_loop(tmp_path, edit):
    written = _written_lines(tmp_path)
    p = tmp_path / "c.csv"
    text = "\n".join(edit(written)) + "\n"
    p.write_text(text, encoding="utf-8")
    assert metrics._cache_block(text) is None
    assert _cache_outcome(read_cache, p) == _cache_outcome(read_cache, tmp_path / "written.csv")


def test_cache_reader_reads_a_crlf_copy_as_the_written_form(tmp_path):
    written = _written_lines(tmp_path)
    p = tmp_path / "c.csv"
    p.write_bytes(("\r\n".join(written) + "\r\n").encode("utf-8"))
    assert _cache_outcome(read_cache, p) == _cache_outcome(read_cache, tmp_path / "written.csv")


@pytest.mark.parametrize("wt,pair_h,msg", [
    ([1.7e308, 1.7e308, 1.0], [[0.0, 1.0, 2.0], [3.0, 0.0, 4.0], [5.0, 6.0, 0.0]],
     "non-finite cached value for model 'a'"),
    ([1.0, 2.0, 1.0], [[0.0, 1.7e308, 1.7e308], [1.7e308, 0.0, 1.0], [1.0, 1.0, 0.0]],
     r"non-finite cached value for pair \('a', 'b'\)"),
])
def test_standardized_terms_that_overflow_are_refused(wt, pair_h, msg):
    # the mean of two 1.7e308 entries overflows, so their z-scores are NaN
    cache = PairwiseCache(ids=("a", "b", "c"), wd=[1.0, 2.0, 3.0], wt=wt,
                          converged=[True] * 3, pair_h=pair_h)
    with np.errstate(all="ignore"):
        for call in (lambda: effective_terms(cache, TEConfig(standardize=True)),
                     lambda: standardize_terms(cache)):
            with pytest.raises(ValidationError, match=msg):
                call()
