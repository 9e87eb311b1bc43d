"""End-to-end acceptance checks, one test per shipping criterion.

Each test prints a single pass/fail line under ``pytest -v``.  Tolerances
and instance counts are part of the contract; do not relax them here.
"""

import filecmp
import itertools
import math
import statistics
import time

import numpy as np
import pytest
from numpy.random import default_rng

from osborn import cli
from osborn.data_io import TEConfig
from osborn.evaluation import kendall_tau, pearson, weighted_kendall_tau
from osborn.metrics import (
    PredictionVector,
    build_pairwise_cache,
    cohesion_pair,
    osborn_score,
    w_task,
)
from osborn.ot_core import (
    MarginalWeights,
    cost_matrix,
    median_positive_cost,
    sinkhorn,
    sinkhorn_frobenius,
)
from osborn.selection import (
    exhaustive_select,
    greedy_select,
    marginal_gain,
)
from osborn.synth import SynthSpec, build_pool, proxy_accuracy

from conftest import (
    cond_entropy_rows_given_cols,
    exact_ot,
    joint_table_loop,
    kendall_tau_b_loop,
    pearson_loop,
    weighted_kendall_loop,
)


def _residual(plan, marg):
    return max(
        float(np.abs(plan.sum(axis=1) - marg.source).max()),
        float(np.abs(plan.sum(axis=0) - marg.target).max()),
    )


def _random_pool(knob_rng, num_models, samples, seed, shift_hi=1.5,
                 noise_hi=0.4, groups=None):
    shifts = tuple(round(float(v), 3)
                   for v in knob_rng.uniform(0.0, shift_hi, num_models))
    noises = list(round(float(v), 3)
                  for v in knob_rng.uniform(0.0, noise_hi, num_models))
    if groups is not None:
        for g in groups:
            for i in g[1:]:
                noises[i] = noises[g[0]]
    return build_pool(SynthSpec(
        num_models=num_models, feature_dim=4, source_classes=3,
        target_classes=3, samples=samples, domain_shift=shifts,
        prediction_noise=tuple(noises), redundancy_groups=groups, seed=seed,
    ))


def test_criterion_1_sinkhorn_tracks_exact_transport_cost():
    # 100 seeded instances, n, m <= 8, uniform marginals: entropic cost
    # within 5% of the exact optimum, marginal residuals <= 1e-6, < 5 s
    start = time.perf_counter()
    for i in range(100):
        rng = default_rng(1000 + i)
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        d = int(rng.integers(2, 5))
        src = rng.normal(size=(n, d))
        tgt = rng.normal(size=(m, d)) + 1.0
        cost = cost_matrix(src, tgt)
        marg = MarginalWeights.uniform(n, m)
        eps = 0.01 * median_positive_cost(cost)
        approx = sinkhorn(cost, marg, eps, max_iters=20000, tol=1e-6)
        exact = exact_ot(cost, marg)
        assert approx.converged
        assert _residual(approx.plan, marg) <= 1e-6
        rel = abs(approx.transport_cost - exact.transport_cost) \
            / exact.transport_cost
        assert rel <= 0.05
    assert time.perf_counter() - start < 5.0


def test_criterion_2_raw_score_has_diminishing_returns():
    # 50 seeded pools of up to 6 models, raw (unstandardized) terms: the
    # gain of v at X >= gain of v at Y for every X subset of Y, v outside Y
    cfg = TEConfig(standardize=False, seed=0)
    violations = 0
    for i in range(50):
        knobs = default_rng(2000 + i)
        m = int(knobs.integers(4, 7))
        pool = _random_pool(knobs, m, samples=24, seed=8000 + i)
        cache = build_pairwise_cache(pool.manifest, cfg)
        ids = list(cache.ids)
        gains = {}

        def gain(mask, v):
            if (mask, v) not in gains:
                members = tuple(ids[j] for j in range(m) if mask >> j & 1)
                gains[(mask, v)] = marginal_gain(members, ids[v], cache, cfg)
            return gains[(mask, v)]

        for y_mask in range(1 << m):
            for v in range(m):
                if y_mask >> v & 1:
                    continue
                g_y = gain(y_mask, v)
                x_mask = y_mask
                while True:
                    if gain(x_mask, v) < g_y - 1e-9:
                        violations += 1
                    if x_mask == 0:
                        break
                    x_mask = (x_mask - 1) & y_mask
    assert violations == 0


def test_criterion_3_cached_gain_equals_full_recompute():
    # 1000 random (set, v) queries across both weighting modes: the
    # incremental gain matches f(X + v) - f(X) to 1e-12
    configs = (TEConfig(standardize=False, seed=0),
               TEConfig(standardize=True, seed=0))
    query = default_rng(77)
    checked = 0
    for p in range(2):
        knobs = default_rng(2500 + p)
        pool = _random_pool(knobs, 8, samples=30, seed=8500 + p)
        caches = [(cfg, build_pairwise_cache(pool.manifest, cfg))
                  for cfg in configs]
        ids = list(caches[0][1].ids)

        def f(members, cache, cfg):
            if not members:
                return 0.0
            return osborn_score(members, cache, cfg).f_value

        for q in range(500):
            cfg, cache = caches[q % 2]
            size = int(query.integers(0, 8))
            members = tuple(query.choice(ids, size=size, replace=False))
            v = str(query.choice([i for i in ids if i not in members]))
            got = marginal_gain(members, v, cache, cfg)
            want = f(members + (v,), cache, cfg) - f(members, cache, cfg)
            assert abs(got - want) <= 1e-12
            checked += 1
    assert checked == 1000


def test_criterion_4_greedy_matches_exhaustive_quality():
    # 200 seeded six-model pools, k = 3: greedy hits the exhaustive optimum
    # in at least 80% of instances and keeps >= 90% of its proxy accuracy
    start = time.perf_counter()
    cfg = TEConfig(standardize=False, seed=0)
    grouped = ((0, 1), (2,), (3,), (4,), (5,))
    equal_f = 0
    acc_greedy = []
    acc_best = []
    for i in range(200):
        knobs = default_rng(3000 + i)
        groups = grouped if i % 2 == 0 else None
        pool = _random_pool(knobs, 6, samples=48, seed=9000 + i,
                            shift_hi=2.0, noise_hi=0.45, groups=groups)
        cache = build_pairwise_cache(pool.manifest, cfg)
        trace = greedy_select(pool.manifest, 3, cache, cfg)
        best, best_f = exhaustive_select(pool.manifest, 3, cache, cfg)
        greedy_f = trace.steps[-1].f_cumulative
        if abs(greedy_f - best_f) <= 1e-9:
            equal_f += 1
        acc_greedy.append(proxy_accuracy(trace.final, [range(3)], pool.manifest)[0])
        acc_best.append(proxy_accuracy(best, [range(3)], pool.manifest)[0])
    elapsed = time.perf_counter() - start
    assert equal_f >= 160
    ratio = float(np.mean(acc_greedy)) / float(np.mean(acc_best))
    assert ratio >= 0.90
    assert elapsed < 60.0


def test_criterion_5_dropping_cohesion_hurts_correlation():
    # redundancy-heavy pools (3 of 4 models in one group): zeroing the
    # cohesion weight strictly lowers the median Pearson correlation
    # between scores and proxy accuracy over 20 seeds
    full_cfg = TEConfig(standardize=False, seed=0)
    ablated_cfg = TEConfig(standardize=False, seed=0, lambda_c=0.0)
    shift_g = math.sqrt(1.3)
    pcc_full = []
    pcc_ablated = []
    for s in range(20):
        spec = SynthSpec(
            num_models=4, feature_dim=4, source_classes=3, target_classes=3,
            samples=240, domain_shift=(shift_g, shift_g, shift_g, 0.0),
            prediction_noise=(0.05, 0.05, 0.05, 0.4),
            redundancy_groups=((0, 1, 2), (3,)), seed=500 + s,
        )
        pool = build_pool(spec)
        cache = build_pairwise_cache(pool.manifest, full_cfg)
        ensembles = list(itertools.combinations(cache.ids, 2))
        accs = [proxy_accuracy(e, [range(2)], pool.manifest)[0] for e in ensembles]
        for cfg, out in ((full_cfg, pcc_full), (ablated_cfg, pcc_ablated)):
            alphas = [-osborn_score(e, cache, cfg).osborn_value
                      for e in ensembles]
            out.append(pearson(alphas, accs))
    assert statistics.median(pcc_ablated) < statistics.median(pcc_full)


def test_criterion_6_entropy_terms_match_joint_table_oracles():
    # 500 random inputs against scalar joint-table references at 1e-12,
    # plus the closed-form values 0, log 2, and log C
    rng = default_rng(606)
    for _ in range(250):
        a = int(rng.integers(2, 7))
        b = int(rng.integers(2, 7))
        table = rng.random((a, b))
        table[rng.random((a, b)) < 0.3] = 0.0
        if table.sum() == 0.0:
            table[0, 0] = 1.0
        table /= table.sum()
        assert w_task(table) == pytest.approx(
            cond_entropy_rows_given_cols(table), abs=1e-12)
    for _ in range(250):
        n = int(rng.integers(4, 40))
        ci = int(rng.integers(2, 6))
        cj = int(rng.integers(2, 6))
        pi = PredictionVector(rng.integers(0, ci, n), ci)
        pj = PredictionVector(rng.integers(0, cj, n), cj)
        counts = joint_table_loop(np.eye(n) / n, pi.values, pj.values, ci, cj)
        assert cohesion_pair(pi, [pj])[0] == pytest.approx(
            cond_entropy_rows_given_cols(counts), abs=1e-12)
    # analytic anchors
    assert w_task(np.eye(3) / 3) \
        == pytest.approx(0.0, abs=1e-12)
    assert w_task(np.full((2, 2), 0.25)) \
        == pytest.approx(math.log(2.0), abs=1e-12)
    assert w_task(np.full((5, 5), 0.04)) \
        == pytest.approx(math.log(5.0), abs=1e-12)
    same = PredictionVector(np.array([0, 1, 2, 0]), 3)
    assert cohesion_pair(same, [same])[0] == 0.0
    flip = PredictionVector(np.array([0, 1, 0, 1]), 2)
    const = PredictionVector(np.zeros(4, dtype=int), 2)
    assert cohesion_pair(flip, [const])[0] == pytest.approx(
        math.log(2.0), abs=1e-12)


def test_criterion_7_correlations_match_quadratic_loops():
    # 100 random vector pairs of length <= 50 against O(n^2) references at
    # 1e-12; monotone inputs must hit +/-1 exactly
    rng = default_rng(707)
    for t in range(100):
        n = int(rng.integers(3, 51))
        while True:
            if t % 2 == 0:
                x = rng.normal(size=n)
                y = rng.normal(size=n)
            else:
                x = rng.integers(0, 5, n).astype(float)
                y = rng.integers(0, 5, n).astype(float)
            if x.std() > 0 and y.std() > 0:
                break
        assert pearson(x, y) == pytest.approx(pearson_loop(x, y), abs=1e-12)
        assert kendall_tau(x, y) == pytest.approx(
            kendall_tau_b_loop(x, y), abs=1e-12)
        assert weighted_kendall_tau(x, y) == pytest.approx(
            weighted_kendall_loop(x, y), abs=1e-12)
    up = [0.5, 1.5, 2.25, 7.0, 9.5]
    down = [9.5, 7.0, 2.25, 1.5, 0.5]
    seq = [1.0, 2.0, 3.0, 4.0, 5.0]
    for fn in (kendall_tau, weighted_kendall_tau):
        assert fn(up, seq) == 1.0
        assert fn(down, seq) == -1.0
    # the moment statistic needs a linear, not just monotone, relation
    assert pearson(seq, [10.0, 20.0, 30.0, 40.0, 50.0]) == 1.0
    assert pearson(seq, [5.0, 0.0, -5.0, -10.0, -15.0]) == -1.0


SPEC_TEXT = (
    "num_models = 4\n"
    "feature_dim = 3\n"
    "source_classes = 3\n"
    "target_classes = 3\n"
    "samples = 36\n"
    "seed = 5\n"
    "domain_shift = 0.0;0.5;1.0;1.5\n"
    "prediction_noise = 0.0;0.1;0.2;0.3\n"
)


def _run_pipeline(root, threads):
    root.mkdir()
    spec = root / "pool.spec"
    spec.write_text(SPEC_TEXT)
    pool_dir = root / "pool"
    t = str(threads)
    assert cli.main(["synth", "--spec", str(spec),
                     "--out", str(pool_dir)]) == 0
    pool = str(pool_dir / "pool.json")
    cache = root / "cache.csv"
    trace = root / "trace.csv"
    ranks = root / "ranks.csv"
    report = root / "report.csv"
    assert cli.main(["pairwise", "--pool", pool, "--seed", "0",
                     "--threads", t, "--out", str(cache)]) == 0
    assert cli.main(["select", "--pool", pool, "--cache", str(cache),
                     "--k", "2", "--out", str(trace)]) == 0
    assert cli.main(["score", "--pool", pool, "--cache", str(cache),
                     "--k", "2", "--threads", t, "--proxy-accuracy",
                     "--out", str(ranks)]) == 0
    assert cli.main(["eval", "--rankings", str(ranks),
                     "--out", str(report)]) == 0
    files = sorted(p for p in pool_dir.iterdir())
    files += [cache, trace, ranks, report]
    return files


def test_criterion_8_pipeline_is_byte_identical_across_runs_and_threads(tmp_path):
    runs = [_run_pipeline(tmp_path / "r1", 1),
            _run_pipeline(tmp_path / "r2", 1),
            _run_pipeline(tmp_path / "r4", 4)]
    names = [p.name for p in runs[0]]
    assert [p.name for p in runs[1]] == names
    assert [p.name for p in runs[2]] == names
    for a, b, c in zip(*runs):
        assert filecmp.cmp(a, b, shallow=False), a.name
        assert filecmp.cmp(a, c, shallow=False), a.name


def test_criterion_9_frobenius_plans_are_feasible_and_beat_entropic():
    # 20 seeded 5x5 instances: the quadratic-regularized solver stays on
    # the polytope and wins under its own objective
    for i in range(20):
        rng = default_rng(6000 + i)
        src = rng.normal(size=(5, 3))
        tgt = rng.normal(size=(5, 3)) + 0.5
        cost = cost_matrix(src, tgt)
        marg = MarginalWeights.uniform(5, 5)
        eps = 0.2 * median_positive_cost(cost)
        frob = sinkhorn_frobenius(cost, marg, eps, max_iters=20000, tol=1e-7)
        ent = sinkhorn(cost, marg, eps, max_iters=20000, tol=1e-9)
        assert frob.converged
        assert _residual(frob.plan, marg) <= 1e-6

        def quad(plan):
            return float((cost * plan).sum() + eps * (plan ** 2).sum())

        assert quad(frob.plan) <= quad(ent.plan)
