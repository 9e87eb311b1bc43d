"""Synthetic model-pool generator with known ground truth.

Each pool is a set of simulated "models": per-model source datasets with
cluster structure, per-model embeddings of one shared target set, and hard
target predictions.  Three knobs control difficulty per model:

* ``domain_shift``     -- how far the model's target embedding drifts from
  its source clusters (drives the domain-difference term)
* ``prediction_noise`` -- the model's error rate; it corrupts both the
  model's source labels and its target predictions (drives the task
  difference and the true accuracy)
* ``redundancy_groups`` -- models in one group share random streams and so
  emit identical predictions (zero cohesion entropy between them); group
  members must therefore declare the same prediction_noise

Feature geometry: class means sit on a scaled coordinate simplex with unit
covariance.  Each model's source cloud reuses the target base cloud's
per-sample noise (plus a small per-group jitter) recentered on the source
class means, and its target cloud is the base cloud translated by the
model's domain shift.  A zero-shift zero-noise model therefore has near-zero
domain and task terms, and the domain term grows like shift squared.

Every draw comes from named substreams of one seed, so a spec generates a
byte-identical pool every time.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .data_io import (
    LabelVector,
    ModelRecord,
    PoolManifest,
    PredictionVector,
    _check_int,
    _check_real,
    _coerce_fields,
    format_real,
    read_fields,
    substream_seed,
    write_fields,
    write_pool,
    write_table,
)
from .errors import ValidationError
from .evaluation import majority_vote_accuracy


def _reals(values, name: str) -> tuple:
    """The per-model list ``values`` as a tuple of floats."""
    try:
        return tuple(_check_real(x) for x in values)
    except TypeError:
        raise ValidationError(f"{name} values must be numbers") from None


@dataclass(frozen=True)
class SynthSpec:
    num_models: int
    feature_dim: int
    source_classes: int
    target_classes: int
    samples: int
    domain_shift: tuple
    prediction_noise: tuple
    redundancy_groups: tuple = None
    seed: int = 0
    class_separation: float = 6.0
    source_jitter: float = 0.25

    def __post_init__(self):
        _coerce_fields(self)
        m, d, n = self.num_models, self.feature_dim, self.samples
        cs, ct = self.source_classes, self.target_classes
        if m < 2:
            raise ValidationError("num_models must be >= 2")
        if cs < 1 or ct < 1:
            raise ValidationError("class counts must be >= 1")
        if d < max(cs, ct):
            raise ValidationError(
                f"feature_dim ({d}) must be >= the larger class count "
                f"({max(cs, ct)}) so classes get distinct mean directions"
            )
        if n < max(cs, ct):
            raise ValidationError(
                f"samples ({n}) must cover every class (need >= {max(cs, ct)})"
            )

        shift = _reals(self.domain_shift, "domain_shift")
        noise = _reals(self.prediction_noise, "prediction_noise")
        if len(shift) != m or len(noise) != m:
            raise ValidationError(
                "domain_shift and prediction_noise must list one value per model"
            )
        if not all(math.isfinite(x) and x >= 0 for x in shift):
            raise ValidationError("domain_shift values must be finite and >= 0")
        if any(not (0.0 <= x <= 1.0) for x in noise):
            raise ValidationError("prediction_noise values must lie in [0, 1]")
        object.__setattr__(self, "domain_shift", shift)
        object.__setattr__(self, "prediction_noise", noise)

        raw_groups = self.redundancy_groups
        if raw_groups is None:
            raw_groups = default_groups(m)
        groups = tuple(tuple(_check_int(i, "redundancy_groups members") for i in g)
                       for g in raw_groups)
        flat = [i for g in groups for i in g]
        if sorted(flat) != list(range(m)):
            raise ValidationError(
                "redundancy_groups must partition model indices 0..num_models-1"
            )
        if any(len(g) == 0 for g in groups):
            raise ValidationError("redundancy_groups must not contain empty groups")
        for g in groups:
            levels = {noise[i] for i in g}
            if len(levels) > 1:
                raise ValidationError(
                    f"models {g} share a redundancy group but declare different "
                    "prediction_noise; grouped models share one noise realization"
                )
        object.__setattr__(self, "redundancy_groups", groups)
        if not (math.isfinite(self.class_separation) and self.class_separation > 0):
            raise ValidationError("class_separation must be finite and > 0")
        if not (math.isfinite(self.source_jitter) and self.source_jitter >= 0):
            raise ValidationError("source_jitter must be finite and >= 0")

    def group_of(self) -> dict:
        out = {}
        for gi, g in enumerate(self.redundancy_groups):
            for r in g:
                out[r] = gi
        return out


@dataclass(frozen=True)
class SynthPool:
    manifest: PoolManifest
    qualities: dict
    groups: dict
    spec: SynthSpec


def default_groups(num_models: int) -> tuple:
    return tuple((i,) for i in range(num_models))


def _model_id(r: int, num_models: int) -> str:
    width = max(2, len(str(num_models - 1)))
    return f"m{r:0{width}d}"


def _rng(spec: SynthSpec, *tags) -> np.random.Generator:
    return np.random.default_rng(substream_seed(spec.seed, *[str(t) for t in tags]))


def _balanced_labels(n, classes, rng):
    labels = np.arange(n, dtype=np.int64) % classes
    rng.shuffle(labels)
    return labels


def _flip(labels, prob, uniforms, offsets, classes):
    out = labels.copy()
    if classes < 2 or prob <= 0:
        return out
    mask = uniforms < prob
    out[mask] = (out[mask] + offsets[mask]) % classes
    return out


def build_pool(spec: SynthSpec) -> SynthPool:
    """Materialize the pool in memory.  Deterministic in the spec."""
    n = spec.samples
    d = spec.feature_dim
    cs = spec.source_classes
    ct = spec.target_classes
    sep = spec.class_separation

    means_s = np.zeros((cs, d))
    means_s[np.arange(cs), np.arange(cs)] = sep
    means_t = np.zeros((ct, d))
    means_t[np.arange(ct), np.arange(ct)] = sep
    shift_dir = np.full(d, 1.0 / np.sqrt(d))

    y_t = _balanced_labels(n, ct, _rng(spec, "target-labels"))
    base_noise = _rng(spec, "target-features").standard_normal((n, d))
    base_t = means_t[y_t] + base_noise
    target_labels = LabelVector(y_t, ct)

    # source clusters mirror the target clusters (folded when C_s < C_t)
    z = y_t % cs

    # one stream bundle per redundancy group; members reuse the same draws
    group_of = spec.group_of()
    group_draws = {}
    for gi in range(len(spec.redundancy_groups)):
        rs = _rng(spec, "source", gi)
        jitter = rs.standard_normal((n, d))
        u_src = rs.random(n)
        off_src = rs.integers(1, cs, size=n) if cs >= 2 else np.zeros(n, dtype=np.int64)
        rp = _rng(spec, "prediction-noise", gi)
        u_tgt = rp.random(n)
        off_tgt = rp.integers(1, cs, size=n) if cs >= 2 else np.zeros(n, dtype=np.int64)
        group_draws[gi] = (jitter, u_src, off_src, u_tgt, off_tgt)

    pred_base = y_t if cs >= ct else y_t % cs

    models = []
    qualities = {}
    groups = {}
    for r in range(spec.num_models):
        mid = _model_id(r, spec.num_models)
        gi = group_of[r]
        jitter, u_src, off_src, u_tgt, off_tgt = group_draws[gi]
        noise = spec.prediction_noise[r]

        src_features = means_s[z] + base_noise + spec.source_jitter * jitter
        src_labels = _flip(z, noise, u_src, off_src, cs)
        tgt_features = base_t + spec.domain_shift[r] * shift_dir
        preds = _flip(pred_base, noise, u_tgt, off_tgt, cs)

        models.append(ModelRecord(
            model_id=mid,
            source_features=src_features,
            source_labels=LabelVector(src_labels, cs),
            target_features=tgt_features,
            target_predictions=PredictionVector(preds, cs),
        ))
        qualities[mid] = float(np.mean(preds == y_t))
        groups[mid] = gi

    manifest = PoolManifest(models=tuple(models), target_labels=target_labels)
    return SynthPool(manifest=manifest, qualities=qualities, groups=groups, spec=spec)


def proxy_accuracy(ids, combos, pool) -> np.ndarray:
    """Majority-vote accuracy on the target set of ``pool`` (a PoolManifest
    or PoolPredictions) of every ensemble ``ids[combos[r]]``, voted in
    batches (see ``evaluation.majority_vote_accuracy``).  One ensemble ``e``
    is one row: ``proxy_accuracy(e, [range(len(e))], pool)[0]``."""
    preds = [pool.target_predictions(mid) for mid in ids]
    return majority_vote_accuracy(preds, pool.target_labels, combos)


# ---------------------------------------------------------------------------
# spec file format
# ---------------------------------------------------------------------------


# per-model lists are semicolon separated (a single value broadcasts);
# redundancy groups separate members with commas and groups with "|".  These
# text codecs carry no value check: SynthSpec checks these fields itself.
_PER_MODEL = (lambda text: tuple(float(p) for p in text.split(";") if p.strip()),
              None, "expects numbers separated by ';'",
              lambda values: ";".join(format_real(x) for x in values))
_SPEC_CODECS = {
    "domain_shift": _PER_MODEL,
    "prediction_noise": _PER_MODEL,
    "redundancy_groups": (
        lambda text: tuple(tuple(int(i) for i in g.split(","))
                           for g in text.split("|") if g.strip()),
        None, "expects integers, ',' within a group and '|' between groups",
        lambda groups: "|".join(",".join(str(i) for i in g) for g in groups)),
}


def read_synth_spec(path) -> SynthSpec:
    """Parse a ``key = value`` pool spec (see ``data_io.read_fields``).

    ``domain_shift`` and ``prediction_noise`` default to 0 and
    ``redundancy_groups`` to one group per model.
    """
    values, linenos = read_fields(SynthSpec, path, "spec", _SPEC_CODECS)
    for key in ("num_models", "feature_dim", "source_classes", "target_classes",
                "samples", "seed"):
        if key not in values:
            raise ValidationError(f"{path}: missing required key '{key}'")
    m = values["num_models"]
    for key in ("domain_shift", "prediction_noise"):
        vals = values.setdefault(key, (0.0,))
        if len(vals) == 1:
            values[key] = vals * m
        elif len(vals) != m:
            raise ValidationError(f"{path}:{linenos[key]}: '{key}' must give 1 or "
                                  f"num_models values, got {len(vals)}")
    try:
        return SynthSpec(**values)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def write_synth_spec(spec: SynthSpec, path):
    write_fields(spec, path, _SPEC_CODECS)


def generate(spec: SynthSpec, out_dir) -> SynthPool:
    """Build the pool and write it as a loadable directory.

    Writes the pool by ``data_io.write_pool``, then the resolved spec
    (``synth.spec``) and ``truth.csv`` (per-model group, knobs, and
    measured accuracy).
    """
    pool = build_pool(spec)
    write_pool(pool.manifest, out_dir)
    write_synth_spec(spec, os.path.join(out_dir, "synth.spec"))
    write_table(os.path.join(out_dir, "truth.csv"),
                [(mid, pool.groups[mid], shift, noise, pool.qualities[mid])
                 for mid, shift, noise in zip(pool.manifest.model_ids(),
                                              spec.domain_shift, spec.prediction_noise)],
                header="model_id,group,domain_shift,prediction_noise,quality")
    return pool
