"""Synthetic pool generator: geometry, determinism, and ground-truth knobs."""

import hashlib
import itertools
import os

import numpy as np
import pytest
from scipy.stats import spearmanr

from osborn.data_io import TEConfig, load_pool, load_pool_predictions
from osborn.errors import ValidationError
from osborn.metrics import build_pairwise_cache, cohesion_pair, osborn_score
from osborn.synth import (
    SynthSpec,
    build_pool,
    default_groups,
    generate,
    proxy_accuracy,
    read_synth_spec,
    write_synth_spec,
)

from conftest import majority_vote_loop


def _spec(**kw):
    base = dict(
        num_models=3, feature_dim=3, source_classes=2, target_classes=2,
        samples=30, domain_shift=(0.0, 0.5, 1.0),
        prediction_noise=(0.0, 0.1, 0.2), seed=0,
    )
    base.update(kw)
    return SynthSpec(**base)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kw,msg", [
    (dict(num_models=1, domain_shift=(0.0,), prediction_noise=(0.0,)),
     "num_models"),
    (dict(feature_dim=1), "feature_dim"),
    (dict(samples=1), "samples"),
    (dict(domain_shift=(0.0, 1.0)), "one value per model"),
    (dict(domain_shift=(0.0, -0.5, 1.0)), ">= 0"),
    (dict(prediction_noise=(0.0, 0.5, 1.2)), "lie in"),
    (dict(redundancy_groups=((0, 1),)), "partition"),
    (dict(redundancy_groups=((0, 1), (1, 2))), "partition"),
    (dict(redundancy_groups=((0, 1), (2,), ())), "empty groups"),
    (dict(redundancy_groups=((0, 1), (2,))), "share one noise realization"),
    (dict(class_separation=0.0), "class_separation"),
    (dict(source_jitter=-0.1), "source_jitter"),
    # non-finite values are refused by the field that holds them
    (dict(domain_shift=(0.0, float("nan"), 1.0)), "domain_shift values must be finite"),
    (dict(domain_shift=(0.0, float("inf"), 1.0)), "domain_shift values must be finite"),
    (dict(domain_shift=(0.0, "0.5", 1.0)), "domain_shift values must be numbers"),
    (dict(prediction_noise=(0.0, float("nan"), 0.2)), "prediction_noise values must lie"),
    (dict(class_separation=float("inf")), "class_separation must be finite"),
    (dict(source_jitter=float("nan")), "source_jitter must be finite"),
    (dict(source_jitter=float("inf")), "source_jitter must be finite"),
    (dict(source_classes=0), "class counts must be >= 1"),
])
def test_spec_rejects_infeasible_settings(kw, msg):
    with pytest.raises(ValidationError, match=msg):
        _spec(**kw)


def test_spec_defaults_to_singleton_groups():
    spec = _spec()
    assert spec.redundancy_groups == default_groups(3) == ((0,), (1,), (2,))
    assert spec.group_of() == {0: 0, 1: 1, 2: 2}


def test_grouped_models_may_share_noise():
    spec = _spec(prediction_noise=(0.1, 0.1, 0.2),
                 redundancy_groups=((0, 1), (2,)))
    assert spec.group_of() == {0: 0, 1: 0, 2: 1}


# ---------------------------------------------------------------------------
# pool construction
# ---------------------------------------------------------------------------


def test_build_pool_is_deterministic():
    a = build_pool(_spec(seed=13))
    b = build_pool(_spec(seed=13))
    for ra, rb in zip(a.manifest.models, b.manifest.models):
        assert np.array_equal(ra.source_features, rb.source_features)
        assert np.array_equal(ra.target_features, rb.target_features)
        assert np.array_equal(ra.source_labels.values, rb.source_labels.values)
        assert np.array_equal(ra.target_predictions.values,
                              rb.target_predictions.values)
    assert a.qualities == b.qualities
    c = build_pool(_spec(seed=14))
    assert not np.array_equal(a.manifest.models[0].source_features,
                              c.manifest.models[0].source_features)


def test_pool_shapes_and_labels():
    pool = build_pool(_spec(samples=40, feature_dim=5))
    assert pool.manifest.model_ids() == ("m00", "m01", "m02")
    for rec in pool.manifest.models:
        assert rec.source_features.shape == (40, 5)
        assert rec.target_features.shape == (40, 5)
        assert len(rec.source_labels) == 40
        assert len(rec.target_predictions) == 40
    assert len(pool.manifest.target_labels) == 40


def test_same_group_models_emit_identical_predictions():
    spec = _spec(
        num_models=4, domain_shift=(0.3, 0.3, 0.3, 1.0),
        prediction_noise=(0.2, 0.2, 0.2, 0.2),
        redundancy_groups=((0, 2), (1,), (3,)),
    )
    pool = build_pool(spec)
    recs = {r.model_id: r for r in pool.manifest.models}
    assert np.array_equal(recs["m00"].target_predictions.values,
                          recs["m02"].target_predictions.values)
    assert cohesion_pair(recs["m00"].target_predictions,
                         [recs["m02"].target_predictions])[0] == 0.0
    # independent streams disagree somewhere at 20% noise
    assert not np.array_equal(recs["m00"].target_predictions.values,
                              recs["m01"].target_predictions.values)
    assert cohesion_pair(recs["m00"].target_predictions,
                         [recs["m01"].target_predictions])[0] > 0.0


def test_quality_degrades_with_prediction_noise():
    spec = _spec(
        num_models=4, samples=400,
        domain_shift=(0.0, 0.0, 0.0, 0.0),
        prediction_noise=(0.0, 0.15, 0.3, 0.45),
    )
    pool = build_pool(spec)
    qs = [pool.qualities[m] for m in ("m00", "m01", "m02", "m03")]
    assert qs[0] == 1.0
    assert qs[0] > qs[1] > qs[2] > qs[3]


def test_clean_model_has_near_zero_terms():
    # a model with no shift, no noise, and no source jitter sees a source
    # cloud that coincides with the target cloud: the transport cost is pure
    # regularization bias and the coupled labels match deterministically
    spec = SynthSpec(
        num_models=2, feature_dim=3, source_classes=3, target_classes=3,
        samples=60, domain_shift=(0.0, 1.0), prediction_noise=(0.0, 0.0),
        seed=11, source_jitter=0.0,
    )
    pool = build_pool(spec)
    cache = build_pairwise_cache(pool.manifest, TEConfig(seed=0, epsilon=0.005))
    wd = dict(zip(cache.ids, cache.wd.tolist()))
    wt = dict(zip(cache.ids, cache.wt.tolist()))
    assert wd["m00"] < 0.2
    assert wt["m00"] <= 1e-9
    assert wt["m01"] <= 1e-9
    # the shifted sibling pays roughly shift squared on top of the same bias
    assert wd["m01"] == pytest.approx(
        1.0 + wd["m00"], abs=0.3)


def test_domain_term_tracks_shift_squared():
    spec = _spec(
        num_models=4, feature_dim=4, source_classes=3, target_classes=3,
        samples=120, domain_shift=(0.0, 0.5, 1.0, 2.0),
        prediction_noise=(0.1, 0.1, 0.1, 0.1), seed=7,
    )
    pool = build_pool(spec)
    cache = build_pairwise_cache(pool.manifest, TEConfig(seed=0))
    wd = dict(zip(cache.ids, cache.wd.tolist()))
    base = wd["m00"]
    deltas = [wd[m] - base for m in ("m01", "m02", "m03")]
    for delta, shift in zip(deltas, (0.5, 1.0, 2.0)):
        assert delta == pytest.approx(shift ** 2, rel=0.35)


def test_degradation_is_monotone_averaged_over_seeds():
    # five graded models per pool; averaging over 50 seeds must order the
    # domain terms by shift and the task terms by noise
    shifts = (0.0, 0.5, 1.0, 1.5, 2.0)
    noises = (0.0, 0.1, 0.2, 0.3, 0.45)
    cfg = TEConfig(seed=0)
    wd_sum = np.zeros(5)
    wt_sum = np.zeros(5)
    for s in range(50):
        spec = SynthSpec(
            num_models=5, feature_dim=4, source_classes=3, target_classes=3,
            samples=30, domain_shift=shifts, prediction_noise=noises,
            seed=4000 + s,
        )
        cache = build_pairwise_cache(build_pool(spec).manifest, cfg)
        p = cache.positions(f"m0{i}" for i in range(5))
        for i in range(5):
            wd_sum[i] += cache.wd[p[i]]
            wt_sum[i] += cache.wt[p[i]]
    assert np.all(np.diff(wd_sum) > 0)
    assert np.all(np.diff(wt_sum) > 0)
    assert spearmanr(noises, wt_sum).statistic >= 0.9
    assert spearmanr(shifts, wd_sum).statistic >= 0.9


def test_redundant_triple_scores_better_than_diverse_triple():
    # six equal-knob models, three of them sharing one redundancy group; with
    # zero source jitter every model has the same domain term bit for bit, so
    # the score gap between the grouped triple and the diverse triple is
    # exactly the diverse triple's cohesion penalty
    spec = SynthSpec(
        num_models=6, feature_dim=3, source_classes=3, target_classes=3,
        samples=90, domain_shift=(0.5,) * 6, prediction_noise=(0.25,) * 6,
        redundancy_groups=((0, 1, 2), (3,), (4,), (5,)),
        seed=31, source_jitter=0.0,
    )
    pool = build_pool(spec)
    cfg = TEConfig(standardize=False, seed=0)
    cache = build_pairwise_cache(pool.manifest, cfg)
    wds = set(cache.wd.tolist())
    assert len(wds) == 1
    same = osborn_score(("m00", "m01", "m02"), cache, cfg).osborn_value
    diverse = osborn_score(("m03", "m04", "m05"), cache, cfg).osborn_value
    assert same < diverse
    grouped = cache.positions(("m00", "m01", "m02"))
    diverse_p = cache.positions(("m03", "m04", "m05"))
    wc_diverse = sum(cache.pair_h[a, b]
                     for a in diverse_p for b in diverse_p if a != b)
    assert wc_diverse > 0.5
    wt_gap = sum(cache.wt[m] for m in grouped) \
        - sum(cache.wt[m] for m in diverse_p)
    assert diverse - same == pytest.approx(wc_diverse - wt_gap, abs=1e-9)


# ---------------------------------------------------------------------------
# proxy accuracy
# ---------------------------------------------------------------------------


def test_proxy_accuracy_perfect_model():
    spec = _spec(prediction_noise=(0.0, 0.3, 0.3))
    pool = build_pool(spec).manifest
    assert proxy_accuracy(("m00",), [[0]], pool)[0] == 1.0
    with pytest.raises(ValidationError, match="unknown model"):
        proxy_accuracy(("m99",), [[0]], pool)


def test_proxy_accuracy_redundant_triple_equals_single():
    spec = _spec(
        num_models=3, prediction_noise=(0.4, 0.4, 0.4),
        redundancy_groups=((0, 1, 2),),
    )
    pool = build_pool(spec).manifest
    assert proxy_accuracy(("m00", "m01", "m02"), [[0, 1, 2]], pool)[0] == \
        proxy_accuracy(("m00",), [[0]], pool)[0]


def test_proxy_accuracies_equal_proxy_accuracy_per_ensemble(tmp_path):
    spec = _spec(num_models=5, samples=31, domain_shift=(0.0,) * 5,
                 prediction_noise=(0.1, 0.3, 0.5, 0.5, 0.7),
                 redundancy_groups=((0,), (1,), (2, 3), (4,)))
    generate(spec, tmp_path)
    pools = (build_pool(spec).manifest, load_pool_predictions(tmp_path / "pool.json"))
    ids = ("m00", "m01", "m02", "m03", "m04")
    for k in range(1, 6):
        combos = np.array(list(itertools.combinations(range(5), k)))
        for pool in pools:
            # one batch, one ensemble at a time, and the scalar vote loop
            got = proxy_accuracy(ids, combos, pool)
            assert got.tolist() == [
                proxy_accuracy([ids[i] for i in row], [range(k)], pool)[0]
                for row in combos]
            assert got.tolist() == [
                majority_vote_loop([pool.target_predictions(ids[i]).values for i in row],
                                   pool.target_labels.values)
                for row in combos]


def test_independent_noisy_voters_beat_a_single_voter_on_average():
    # binary labels, flip probability 0.4: a 3-model majority is right with
    # probability 0.648 versus 0.6 for one model
    ens = solo = 0.0
    for s in range(100):
        spec = SynthSpec(
            num_models=3, feature_dim=2, source_classes=2, target_classes=2,
            samples=200, domain_shift=(0.0, 0.0, 0.0),
            prediction_noise=(0.4, 0.4, 0.4), seed=7000 + s,
        )
        pool = build_pool(spec)
        ens += proxy_accuracy(("m00", "m01", "m02"), [[0, 1, 2]], pool.manifest)[0]
        solo += np.mean([pool.qualities[m] for m in ("m00", "m01", "m02")])
    assert ens / 100 > solo / 100
    assert ens / 100 == pytest.approx(0.648, abs=0.02)
    assert solo / 100 == pytest.approx(0.6, abs=0.02)


# ---------------------------------------------------------------------------
# spec files and generated directories
# ---------------------------------------------------------------------------


def test_spec_file_round_trip(tmp_path):
    spec = _spec(num_models=4, domain_shift=(0.0, 0.5, 1.0, 2.0),
                 prediction_noise=(0.1, 0.1, 0.2, 0.3),
                 redundancy_groups=((0, 1), (2,), (3,)),
                 class_separation=4.5, source_jitter=0.3)
    p = tmp_path / "pool.spec"
    write_synth_spec(spec, p)
    assert read_synth_spec(p) == spec


def test_spec_single_value_broadcasts(tmp_path):
    p = tmp_path / "pool.spec"
    p.write_text(
        "num_models = 3\nfeature_dim = 3\nsource_classes = 2\n"
        "target_classes = 2\nsamples = 20\nseed = 1\n"
        "domain_shift = 0.5\nprediction_noise = 0.1;0.2;0.3\n"
    )
    spec = read_synth_spec(p)
    assert spec.domain_shift == (0.5, 0.5, 0.5)
    assert spec.prediction_noise == (0.1, 0.2, 0.3)
    assert spec.redundancy_groups == ((0,), (1,), (2,))


@pytest.mark.parametrize("mutation,msg", [
    ("drop:samples", "missing required"),
    ("add:favorite_color = blue", "unknown key"),
    ("set:num_models = few", "must be an integer"),
    ("set:domain_shift = a;b;c", "bad value"),
    ("set:redundancy_groups = 0,x|1", "expects integers"),
    ("set:prediction_noise = 0.1;0.2", "1 or num_models"),
    ("set:source_jitter = soft", "bad source_jitter"),
    # a rule SynthSpec keeps is reported with the file's name
    ("set:source_classes = 0", "pool.spec: class counts must be >= 1"),
])
def test_spec_parser_rejects_malformed(tmp_path, mutation, msg):
    lines = {
        "num_models": "num_models = 3",
        "feature_dim": "feature_dim = 3",
        "source_classes": "source_classes = 2",
        "target_classes": "target_classes = 2",
        "samples": "samples = 20",
        "seed": "seed = 1",
    }
    kind, _, payload = mutation.partition(":")
    if kind == "drop":
        del lines[payload]
    elif kind == "add":
        lines[payload.split(" =")[0]] = payload
    else:
        key = payload.split(" =")[0]
        lines[key] = payload
    p = tmp_path / "pool.spec"
    p.write_text("\n".join(lines.values()) + "\n")
    with pytest.raises(ValidationError, match=msg):
        read_synth_spec(p)


def _tree_digest(root):
    h = hashlib.sha256()
    for dirpath, _, filenames in sorted(os.walk(root)):
        for fn in sorted(filenames):
            h.update(fn.encode())
            with open(os.path.join(dirpath, fn), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def test_generate_writes_loadable_byte_stable_directory(tmp_path):
    spec = _spec(seed=3)
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    generate(spec, d1)
    generate(spec, d2)
    assert _tree_digest(d1) == _tree_digest(d2)
    manifest = load_pool(d1 / "pool.json")
    assert manifest.model_ids() == ("m00", "m01", "m02")
    # a different seed must change the data files
    generate(_spec(seed=4), tmp_path / "c")
    assert _tree_digest(tmp_path / "c") != _tree_digest(d1)


def test_generate_truth_table_contents(tmp_path):
    spec = _spec(
        num_models=3, domain_shift=(0.0, 0.5, 1.0),
        prediction_noise=(0.0, 0.1, 0.1),
        redundancy_groups=((0,), (1, 2)),
    )
    pool = generate(spec, tmp_path)
    lines = (tmp_path / "truth.csv").read_text().splitlines()
    assert lines[0] == "model_id,group,domain_shift,prediction_noise,quality"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == ["m00", "m01", "m02"]
    assert [r[1] for r in rows] == ["0", "1", "1"]
    assert [float(r[2]) for r in rows] == [0.0, 0.5, 1.0]
    for r in rows:
        assert 0.0 <= float(r[4]) <= 1.0
        assert float(r[4]) == pool.qualities[r[0]]
    # resolved spec is emitted alongside and parses back
    assert read_synth_spec(tmp_path / "synth.spec") == spec


def test_generate_truth_table_bytes(tmp_path):
    spec = _spec(domain_shift=(0.0, 0.1, 1e-300), prediction_noise=(0.0, 0.25, 0.25),
                 redundancy_groups=((0,), (1, 2)))
    pool = generate(spec, tmp_path)
    q = [repr(pool.qualities[mid]) for mid in ("m00", "m01", "m02")]
    assert q[0] == "1.0"
    assert (tmp_path / "truth.csv").read_bytes() == (
        "model_id,group,domain_shift,prediction_noise,quality\n"
        f"m00,0,0.0,0.0,{q[0]}\n"
        f"m01,1,0.1,0.25,{q[1]}\n"
        f"m02,1,1e-300,0.25,{q[2]}\n"
    ).encode()
