"""File formats, validation, config handling, and stratified subsampling."""

import dataclasses
import itertools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osborn import data_io
from osborn.data_io import (
    LabelVector,
    ModelRecord,
    PoolManifest,
    PoolPredictions,
    PredictionVector,
    TEConfig,
    _check_model_id,
    format_real,
    load_pool,
    load_pool_predictions,
    read_config,
    read_features,
    read_labels,
    read_predictions,
    read_scores,
    stratified_indices,
    substream_seed,
    write_config,
    write_features,
    write_labels,
    write_pool,
    write_predictions,
    write_scores,
)
from osborn.errors import ValidationError
from osborn.metrics import build_pairwise_cache
from osborn.ot_core import MarginalWeights, sinkhorn
from osborn.selection import greedy_select
from osborn.synth import SynthSpec, generate, read_synth_spec

from conftest import (
    peak_ratio,
    read_class_file_loop,
    read_features_loop,
    read_scores_loop,
    write_rankings_loop,
)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def test_format_real_round_trips_exact_float64():
    rng = np.random.default_rng(1)
    vals = list(rng.normal(size=50)) + [0.0, -0.0, 1e-300, 1e300, 1 / 3]
    for v in vals:
        assert float(format_real(v)) == float(v)


@pytest.mark.parametrize("name,call", [
    ("k", lambda pool: greedy_select(
        pool, 2.9, build_pairwise_cache(pool, TEConfig()), TEConfig())),
    ("threads", lambda pool: build_pairwise_cache(pool, TEConfig(), threads=1.7)),
    ("subsample cap", lambda pool: stratified_indices(pool.target_labels, 5.9, 0)),
    ("max_iters", lambda pool: sinkhorn(
        np.ones((2, 2)), MarginalWeights([0.5, 0.5], [0.5, 0.5]), 0.1, max_iters=1.9)),
    ("redundancy_groups members", lambda pool: SynthSpec(
        num_models=3, feature_dim=3, source_classes=2, target_classes=2, samples=30,
        domain_shift=(0.0,) * 3, prediction_noise=(0.0,) * 3,
        redundancy_groups=((0.6, 1.9), (2,)))),
])
def test_integer_arguments_are_not_truncated(tiny_pool, name, call):
    # a float where an integer is meant is refused by name, never truncated
    with pytest.raises(ValidationError, match=f"{name} must be an integer"):
        call(tiny_pool)


def test_substream_seed_deterministic_and_tag_sensitive():
    a = substream_seed(7, "x", "y")
    assert a == substream_seed(7, "x", "y")
    assert a != substream_seed(7, "x", "z")
    assert a != substream_seed(8, "x", "y")
    assert a != substream_seed(7, "y", "x")
    assert 0 <= a < 2 ** 64


def test_label_vector_validation():
    lv = LabelVector(np.array([0, 1, 2]), 3)
    assert len(lv) == 3
    with pytest.raises(ValidationError):
        LabelVector(np.array([[0, 1]]), 2)
    with pytest.raises(ValidationError):
        LabelVector(np.array([], dtype=np.int64), 2)
    with pytest.raises(ValidationError):
        LabelVector(np.array([0, 3]), 3)
    with pytest.raises(ValidationError):
        LabelVector(np.array([-1, 0]), 3)
    with pytest.raises(ValidationError):
        LabelVector(np.array([0]), 0)
    # non-integer input is rejected, not truncated
    with pytest.raises(ValidationError, match="labels must be integers"):
        LabelVector(np.array([0.7, 1.2]), 2)
    with pytest.raises(ValidationError, match="num_classes must be an integer"):
        LabelVector(np.array([0, 1]), 2.9)


def test_prediction_vector_validation():
    pv = PredictionVector(np.array([1, 0]), 2)
    assert len(pv) == 2
    with pytest.raises(ValidationError):
        PredictionVector(np.array([2]), 2)
    with pytest.raises(ValidationError, match="predictions must be integers"):
        PredictionVector(np.array([0.0, 1.0]), 2)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_defaults_pass_validation():
    cfg = TEConfig()
    assert cfg.epsilon == 0.1
    assert cfg.regularizer == "entropic"
    assert cfg.standardize is True


@pytest.mark.parametrize("field,value", [
    ("epsilon", 0.0),
    ("epsilon", -1.0),
    ("epsilon", float("nan")),
    ("epsilon", float("inf")),
    ("regularizer", "ridge"),
    ("max_iters", 0),
    ("convergence_tol", 0.0),
    ("convergence_tol", float("nan")),
    ("convergence_tol", float("inf")),
    ("lambda_d", -0.1),
    ("lambda_d", float("nan")),
    ("lambda_d", float("inf")),
    ("lambda_t", -2.0),
    ("lambda_t", float("nan")),
    ("lambda_t", float("inf")),
    ("lambda_c", -1e-9),
    ("lambda_c", float("nan")),
    ("lambda_c", float("inf")),
    ("subsample_cap", 0),
])
def test_config_rejects_bad_values(field, value):
    with pytest.raises(ValidationError):
        TEConfig(**{field: value})


@pytest.mark.parametrize("field,value,msg", [
    ("standardize", "false", "standardize expects true/false, got 'false'"),
    ("standardize", 2, "standardize expects true/false"),
    ("max_iters", 2.7, "max_iters must be an integer, got 2.7"),
    ("subsample_cap", 99.9, "subsample_cap must be an integer"),
    ("epsilon", "abc", "epsilon must be a number, got 'abc'"),
    ("regularizer", 1, "regularizer must be a string"),
])
def test_config_rejects_values_that_do_not_convert_exactly(field, value, msg):
    with pytest.raises(ValidationError, match=msg):
        TEConfig(**{field: value})


def test_config_is_frozen_and_has_no_validate():
    cfg = TEConfig()
    assert not hasattr(cfg, "validate")
    for f in dataclasses.fields(TEConfig):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, f.name, getattr(cfg, f.name))
    assert cfg == TEConfig()


@pytest.mark.parametrize("field,value,msg", [
    ("lambda_c", float("nan"), "lambda_c must be finite and >= 0"),
    ("max_iters", 0, "max_iters must be >= 1"),
])
def test_config_replace_checks_the_new_values(field, value, msg):
    # a changed copy goes through the same checks as a constructed one
    with pytest.raises(ValidationError, match=msg):
        dataclasses.replace(TEConfig(), **{field: value})


def test_config_coerces_scalar_fields_to_their_types():
    cfg = TEConfig(epsilon=1, max_iters=np.int64(7), lambda_d=np.float32(0.5),
                   standardize=0, seed=np.uint8(3))
    assert [type(getattr(cfg, f.name)).__name__ for f in dataclasses.fields(cfg)] \
        == [f.type for f in dataclasses.fields(cfg)]
    assert (cfg.epsilon, cfg.max_iters, cfg.standardize, cfg.seed) == (1.0, 7, False, 3)


def test_config_file_round_trip(tmp_path):
    cfg = TEConfig(epsilon=0.03, regularizer="frobenius", max_iters=500,
                   convergence_tol=1e-7, lambda_d=2.0, lambda_t=0.5,
                   lambda_c=0.0, standardize=False, subsample_cap=100, seed=42)
    p = tmp_path / "run.cfg"
    write_config(cfg, p)
    back = read_config(p)
    assert back == cfg


def test_config_parser_rejects_unknown_and_malformed(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("epsilon = 0.1\nwarp_factor = 9\n")
    with pytest.raises(ValidationError, match="unknown config key"):
        read_config(p)
    p.write_text("epsilon 0.1\n")
    with pytest.raises(ValidationError, match="expected 'key = value'"):
        read_config(p)
    p.write_text("max_iters = many\n")
    with pytest.raises(ValidationError, match="bad value"):
        read_config(p)
    p.write_text("standardize = maybe\n")
    with pytest.raises(ValidationError, match="true/false"):
        read_config(p)
    p.write_text("epsilon = -1\n")
    with pytest.raises(ValidationError, match="bad.cfg: epsilon must be"):
        read_config(p)
    with pytest.raises(ValidationError, match="cannot read"):
        read_config(tmp_path / "absent.cfg")


def test_config_parser_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "ok.cfg"
    p.write_text("# run knobs\n\nseed = 5\n  standardize = false\n")
    cfg = read_config(p)
    assert cfg.seed == 5
    assert cfg.standardize is False
    p.write_text("standardize = True\n")
    assert read_config(p).standardize is True


@pytest.mark.parametrize("reader,text", [
    (read_config, "seed = 1\n\n# again\nepsilon = 0.2\nseed = 2\n"),
    (read_synth_spec, "seed = 1\nnum_models = 2\nfeature_dim = 2\n"
                      "source_classes = 2\nseed = 2\ntarget_classes = 2\n"
                      "samples = 20\n"),
], ids=["config", "spec"])
def test_key_value_files_reject_a_repeated_key(tmp_path, reader, text):
    # a repeated key is an error naming both lines, not a silent override
    p = tmp_path / "knobs.txt"
    p.write_text(text)
    with pytest.raises(ValidationError,
                       match=r"knobs.txt:5: repeated key 'seed', first set on line 1"):
        reader(p)


def test_undecodable_text_input_is_a_validation_error(tmp_path):
    # a feature file, a label file and a manifest that are not UTF-8 are
    # bad inputs, not tracebacks
    for name, body, reader, msg in (
        ("f.csv", b"d=1\n\xff\xfe\n", read_features, "cannot read feature file"),
        ("l.csv", b"C=2\n0\n\xff\xfe\n", read_labels, "cannot read label file"),
        ("pool.json", b'{"models": "\xff\xfe"}', load_pool_predictions,
         "cannot read manifest file"),
    ):
        p = tmp_path / name
        p.write_bytes(body)
        with pytest.raises(ValidationError, match=msg):
            reader(p)


# ---------------------------------------------------------------------------
# feature / label files
# ---------------------------------------------------------------------------


def test_features_round_trip_bit_exact(tmp_path):
    X = np.random.default_rng(3).normal(size=(7, 4))
    p = tmp_path / "f.csv"
    write_features(X, p)
    back = read_features(p)
    assert back.dtype == np.float64
    assert np.array_equal(back, X)


@pytest.mark.parametrize("text,msg", [
    ("3,4\n", "d="),
    ("d=x\n1.0\n", "bad dimension"),
    ("d=0\n", ">= 1"),
    ("d=2\n", "no feature rows"),
    ("d=2\n1.0\n", "expected 2"),
    ("d=2\n1.0,zzz\n", "non-numeric"),
    ("d=1\ninf\n", "non-finite"),
    # blank lines count: the error names the file's own line
    ("d=2\n1,2\n\n1,inf\n", r"f\.csv:4: non-finite"),
])
def test_features_reader_rejects_malformed(tmp_path, text, msg):
    p = tmp_path / "f.csv"
    p.write_text(text)
    with pytest.raises(ValidationError, match=msg):
        read_features(p)


def test_feature_and_class_files_are_the_bytes_of_per_value_formatting(tmp_path):
    # the writers format whole matrices at once; each field must still be
    # format_real of its value, signed zero and subnormals included
    X = np.array([[-0.0, 1e-300, 5e-324, 2.2250738585072014e-308 / 3],
                  [1.0, 0.1 + 0.2, -np.nextafter(0.0, 1.0), 0.0]])
    write_features(X, tmp_path / "f.csv")
    want = "d=4\n" + "".join(",".join(format_real(v) for v in row) + "\n"
                             for row in X)
    assert (tmp_path / "f.csv").read_bytes() == want.encode("utf-8")
    assert read_features(tmp_path / "f.csv").tobytes() == X.tobytes()
    pv = PredictionVector(np.array([3, 0, 11, 2]), 12)
    write_predictions(pv, tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_bytes() == b"C=12\n3\n0\n11\n2\n"


_EDGE_FEATURES = st.sampled_from([
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
    np.finfo(np.float64).max, -np.finfo(np.float64).max])
_FEATURE_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                            _EDGE_FEATURES)
# what one token or row of a written feature file may turn into: a named
# row edit, or a token put in place of one value.  "\x1c" and "\x1f" are
# spaces to numpy's reader but not to float().
_FEATURE_EDITS = ("none", "trailing comma", "extra column", "missing column",
                  "blank line", "1_0", "\u0661", "", '"1"', "#", "#1", "nan",
                  "inf", "-inf", "\ufeff1", "1\x1c", "\x1f2", "1 2", "1,5")


def _edit_features(rows, edit, r, c):
    """``rows``, lists of tokens, with row ``r`` (token ``c``) edited."""
    if edit == "blank line":
        return rows[:r] + [[""]] + rows[r:]
    row = list(rows[r])
    if edit == "trailing comma":
        row.append("")
    elif edit == "extra column":
        row.append("1")
    elif edit == "missing column":
        row.pop()
    elif edit != "none":
        row[c] = edit
    return rows[:r] + [row] + rows[r + 1:]


def _outcome(reader, path):
    try:
        return reader(path).tobytes()
    except ValidationError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_features_reader_matches_the_row_loop(tmp_path_factory, data):
    # numpy's reader must give the bits float() gives, or the row loop's
    # own error, whatever one token or row of a written file turns into
    n, d = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    X = np.array(data.draw(st.lists(_FEATURE_VALUES, min_size=n * d,
                                    max_size=n * d))).reshape(n, d)
    p = tmp_path_factory.mktemp("features") / "f.csv"
    write_features(X, p)
    head, *lines = p.read_text(encoding="utf-8").splitlines()
    rows = _edit_features([line.split(",") for line in lines],
                          data.draw(st.sampled_from(_FEATURE_EDITS)),
                          data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d - 1)))
    bom = data.draw(st.sampled_from(["", "\ufeff"]))
    p.write_text(bom + "\n".join([head] + [",".join(row) for row in rows]) + "\n",
                 encoding="utf-8")
    assert _outcome(read_features, p) == _outcome(read_features_loop, p)


def test_written_features_are_parsed_by_numpy(tmp_path, monkeypatch):
    # the one-call reader, not the row loop, reads what write_features writes
    parsed = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        parsed.append(loadtxt(*args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(np, "loadtxt", spy)
    for shape in ((1, 1), (1, 3), (4, 1), (6, 5)):
        p = tmp_path / "f.csv"
        write_features(np.random.default_rng(9).normal(size=shape), p)
        assert read_features(p) is parsed[-1]


def test_write_features_rejects_non_matrix(tmp_path):
    with pytest.raises(ValidationError):
        write_features(np.array([1.0, 2.0]), tmp_path / "f.csv")


def test_labels_and_predictions_round_trip(tmp_path):
    lv = LabelVector(np.array([2, 0, 1, 1]), 3)
    pv = PredictionVector(np.array([0, 0, 2, 1]), 3)
    write_labels(lv, tmp_path / "l.csv")
    write_predictions(pv, tmp_path / "p.csv")
    assert np.array_equal(read_labels(tmp_path / "l.csv").values, lv.values)
    assert read_labels(tmp_path / "l.csv").num_classes == 3
    assert np.array_equal(read_predictions(tmp_path / "p.csv").values, pv.values)


@pytest.mark.parametrize("text,msg", [
    ("2\n0\n", "C="),
    ("C=two\n0\n", "bad class-count"),
    ("C=2\n", "no label rows"),
    ("C=2\n0.5\n", "non-integer"),
    ("C=2\n2\n", "must lie in"),
    ("C=2\n0\n\n0.5\n", r"l\.csv:4: non-integer label value"),
    ("C=2\n0\n2\n", r"l\.csv:3: labels must lie in \[0, 2\), got 2"),
    ("C=2\n0\n99999999999999999999999\n", r"l\.csv:3: labels must lie in"),
])
def test_label_reader_rejects_malformed(tmp_path, text, msg):
    p = tmp_path / "l.csv"
    p.write_text(text)
    with pytest.raises(ValidationError, match=msg):
        read_labels(p)


# what the header or one row of a written class file may turn into: a
# named edit, or a text put in place of the header or of one row
_CLASS_HEADER_EDITS = ("none", "C= 4", "C=+4", "C=04", "C=0", "C=x", "C=",
                       "C=99999999999999999999999", "C=4 ", " C=4")
_CLASS_ROW_EDITS = ("none", "no rows", "blank rows", "blank line", "+3", " 3", "3 ",
                    "3_0", "\u0663", "-1", "0.5", "", "3,", "12",
                    "99999999999999999999999", "9223372036854775807",
                    "9223372036854775808", "0000000000000000000000001",
                    "\x1c3", "3\u2028")


def _edit_class_rows(rows, edit, r):
    """``rows``, the row texts of a class file, with row ``r`` edited."""
    if edit == "no rows":
        return []
    if edit == "blank rows":
        return ["", ""]
    if edit == "blank line":
        return rows[:r] + [""] + rows[r:]
    if edit == "none":
        return rows
    return rows[:r] + [edit] + rows[r + 1:]


def _class_outcome(reader, path):
    try:
        vec = reader(path)
        return vec.values.dtype, vec.values.tobytes(), vec.num_classes
    except ValidationError as exc:
        return str(exc)


def _assert_class_readers_match_the_loop(path):
    for reader, kind, cls in ((read_labels, "label", LabelVector),
                              (read_predictions, "prediction", PredictionVector)):
        assert _class_outcome(reader, path) == _class_outcome(
            lambda p: read_class_file_loop(p, kind, cls), path)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_class_file_readers_match_the_row_loop(tmp_path_factory, data):
    # the one-call route must give the row loop's array, or its exact
    # message, whatever the header or one row of a written file turns into,
    # with any line end and with or without a byte-order mark
    n, c = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))
    values = np.array(data.draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)))
    p = tmp_path_factory.mktemp("classes") / "l.csv"
    write_labels(LabelVector(values, c), p)
    head, *rows = p.read_text(encoding="utf-8").splitlines()
    header = data.draw(st.sampled_from(_CLASS_HEADER_EDITS))
    rows = _edit_class_rows(rows, data.draw(st.sampled_from(_CLASS_ROW_EDITS)),
                            data.draw(st.integers(0, n - 1)))
    eol = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = data.draw(st.sampled_from(["", "\ufeff"]))
    end = data.draw(st.sampled_from(["", eol, eol + eol]))
    lines = [head if header == "none" else header] + rows
    p.write_bytes((bom + eol.join(lines) + end).encode("utf-8"))
    _assert_class_readers_match_the_loop(p)


@pytest.mark.parametrize("text", [
    "C=99999999999999999999999\n0\n99999999999999999999999\n",
    "C=99999999999999999999999\n99999999999999999999999\n",
    "C=9223372036854775807\n9223372036854775806\n",
    "C=999999999999999999\n999999999999999998\n1\n",
    "C=3\n0000000000000000000000002\n1",
], ids=["wide value in wide range", "wide value only", "int64 maximum",
        "18 digits", "wide leading zeros"])
def test_class_file_values_at_the_width_of_int64(tmp_path, text):
    # np.fromstring saturates a value wider than int64; such a file reads
    # as the row loop reads it, never as the saturated value
    p = tmp_path / "l.csv"
    p.write_text(text)
    _assert_class_readers_match_the_loop(p)


def test_pool_predictions_load_without_numbering_lines(tmp_path, monkeypatch):
    # the manifest and the class files osborn writes take the one-call
    # route: none of them is split into numbered lines
    spec = SynthSpec(num_models=3, feature_dim=3, source_classes=3, target_classes=3,
                     samples=24, domain_shift=(0.0, 0.5, 1.0),
                     prediction_noise=(0.0, 0.2, 0.4), seed=2)
    pool = generate(spec, tmp_path / "pool")

    def refuse(text):
        raise AssertionError("a written pool file was split into numbered lines")

    monkeypatch.setattr(data_io, "_numbered_lines", refuse)
    preds = load_pool_predictions(tmp_path / "pool" / "pool.json")
    assert preds.model_ids() == pool.manifest.model_ids()
    assert np.array_equal(preds.target_labels.values, pool.manifest.target_labels.values)
    for rec in pool.manifest.models:
        got = preds.target_predictions(rec.model_id)
        assert got.values.dtype == np.int64
        assert np.array_equal(got.values, rec.target_predictions.values)
        assert got.num_classes == rec.target_predictions.num_classes


# ---------------------------------------------------------------------------
# record validation and pool loading
# ---------------------------------------------------------------------------


def _write_pool_dir(tmp_path, n_target=4, dim=2):
    rng = np.random.default_rng(0)
    write_labels(LabelVector(np.array([0, 1, 0, 1]), 2), tmp_path / "target_labels.csv")
    entries = []
    for mid in ("m0", "m1"):
        write_features(rng.normal(size=(5, dim)), tmp_path / f"{mid}_sf.csv")
        write_labels(LabelVector(rng.integers(0, 2, 5), 2), tmp_path / f"{mid}_sl.csv")
        write_features(rng.normal(size=(n_target, dim)), tmp_path / f"{mid}_tf.csv")
        write_predictions(PredictionVector(rng.integers(0, 2, n_target), 2),
                          tmp_path / f"{mid}_tp.csv")
        entries.append({
            "id": mid,
            "source_features": f"{mid}_sf.csv",
            "source_labels": f"{mid}_sl.csv",
            "target_features": f"{mid}_tf.csv",
            "target_predictions": f"{mid}_tp.csv",
        })
    doc = {"target_labels": "target_labels.csv", "models": entries}
    (tmp_path / "pool.json").write_text(json.dumps(doc))
    return tmp_path / "pool.json"


def test_load_pool_resolves_relative_paths(tmp_path):
    manifest = load_pool(_write_pool_dir(tmp_path))
    assert manifest.model_ids() == ("m0", "m1")
    assert len(manifest.models) == 2
    assert len(manifest.target_labels) == 4
    rec = manifest.record("m1")
    assert rec.source_features.shape == (5, 2)
    with pytest.raises(ValidationError, match="unknown model id"):
        manifest.record("m9")


def test_text_inputs_accept_a_byte_order_mark(tmp_path):
    # a config, a feature file and a manifest saved with a UTF-8 BOM load as
    # their copies without one do
    def with_bom(path):
        bom = path.with_name("bom_" + path.name)
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return bom

    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\nstandardize = false\n")
    assert read_config(with_bom(cfg)) == read_config(cfg)
    features = tmp_path / "f.csv"
    write_features(np.random.default_rng(4).normal(size=(3, 2)), features)
    assert read_features(with_bom(features)).tobytes() == read_features(features).tobytes()
    manifest = _write_pool_dir(tmp_path)
    plain, bom = load_pool(manifest), load_pool(with_bom(manifest))
    assert bom.model_ids() == plain.model_ids()
    assert np.array_equal(bom.target_labels.values, plain.target_labels.values)
    for a, b in zip(plain.models, bom.models):
        assert a.source_features.tobytes() == b.source_features.tobytes()
        assert np.array_equal(a.target_predictions.values, b.target_predictions.values)


def test_load_pool_rejects_duplicate_ids(tmp_path):
    path = _write_pool_dir(tmp_path)
    doc = json.loads(path.read_text())
    doc["models"].append(dict(doc["models"][0]))
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="duplicate model id"):
        load_pool(path)


def test_load_pool_rejects_target_length_mismatch(tmp_path):
    path = _write_pool_dir(tmp_path)
    write_labels(LabelVector(np.array([0, 1, 0]), 2), tmp_path / "target_labels.csv")
    with pytest.raises(ValidationError, match="target labels"):
        load_pool(path)


def test_load_pool_rejects_bad_json_and_missing_keys(tmp_path):
    p = tmp_path / "pool.json"
    p.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_pool(p)
    p.write_text(json.dumps({"models": []}))
    with pytest.raises(ValidationError, match="missing required key"):
        load_pool(p)
    p.write_text(json.dumps({"target_labels": "t.csv", "models": []}))
    with pytest.raises(ValidationError, match="at least one model"):
        load_pool(p)
    p.write_text(json.dumps([{"target_labels": "t.csv"}]))
    with pytest.raises(ValidationError, match="must be a JSON object"):
        load_pool(p)
    (tmp_path / "t.csv").write_text("C=2\n0\n1\n")
    p.write_text(json.dumps({"target_labels": "t.csv", "models": ["m0"]}))
    with pytest.raises(ValidationError, match="model entry must be a JSON object"):
        load_pool(p)
    with pytest.raises(ValidationError, match="cannot read"):
        load_pool(tmp_path / "nope.json")


def test_load_pool_predictions_reads_only_predictions_and_labels(tmp_path):
    path = _write_pool_dir(tmp_path)
    full = load_pool(path)
    for mid in ("m0", "m1"):
        for name in ("sf", "sl", "tf"):
            os.remove(tmp_path / f"{mid}_{name}.csv")
    preds = load_pool_predictions(path)
    assert preds.model_ids() == full.model_ids()
    assert np.array_equal(preds.target_labels.values, full.target_labels.values)
    for mid in full.model_ids():
        got = preds.target_predictions(mid)
        ref = full.target_predictions(mid)
        assert np.array_equal(got.values, ref.values)
        assert got.num_classes == ref.num_classes
    with pytest.raises(ValidationError, match="unknown model id"):
        preds.target_predictions("m9")


def test_load_pool_predictions_checks_what_load_pool_checks(tmp_path):
    path = _write_pool_dir(tmp_path)
    doc = json.loads(path.read_text())
    bad = dict(doc, models=doc["models"] + [dict(doc["models"][0])])
    path.write_text(json.dumps(bad))
    with pytest.raises(ValidationError, match="duplicate model id"):
        load_pool_predictions(path)
    missing = dict(doc["models"][0])
    del missing["source_features"]
    path.write_text(json.dumps(dict(doc, models=[missing])))
    with pytest.raises(ValidationError, match="missing required key"):
        load_pool_predictions(path)
    path.write_text(json.dumps(doc))
    write_labels(LabelVector(np.array([0, 1, 0]), 2), tmp_path / "target_labels.csv")
    with pytest.raises(ValidationError, match="predictions but the pool has 3"):
        load_pool_predictions(path)
    (tmp_path / "m0_tp.csv").write_text("C=2\n0\n5\n1\n")
    with pytest.raises(ValidationError, match="must lie in"):
        load_pool_predictions(path)
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_pool_predictions(path)


def test_load_pool_reads_back_what_write_pool_writes_bit_for_bit(tmp_path):
    # signed zeros, subnormals, the largest double and wide exponents, and
    # class counts from 1 to one past the 18 digits the one-call route takes
    rng = np.random.default_rng(3)
    special = np.array([[-0.0, 5e-324], [1.7976931348623157e308, -1e-300], [0.1, 1 / 3]])
    records = tuple(
        ModelRecord(mid, np.vstack([special, rng.normal(size=(2, 2))]),
                    LabelVector(np.append(rng.integers(0, c, 4), c - 1), c),
                    rng.normal(size=(4, 2)) * 10.0 ** rng.integers(-200, 200, size=(4, 2)),
                    PredictionVector(rng.integers(0, c, 4), c))
        for mid, c in (("a", 1), ("m-1", 3), ("x.y", 10 ** 18)))
    pool = PoolManifest(records, LabelVector(np.array([0, 1, 1, 0]), 2))
    manifest = write_pool(pool, tmp_path / "pool")
    assert manifest == str(tmp_path / "pool" / "pool.json")
    text = (tmp_path / "pool" / "pool.json").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    back = load_pool(manifest)
    assert back.model_ids() == pool.model_ids()
    vectors = [(pool.target_labels, back.target_labels)]
    for rec, got in zip(pool.models, back.models):
        for key in ("source_features", "target_features"):
            want, have = getattr(rec, key), getattr(got, key)
            assert have.dtype == np.float64 and have.shape == want.shape
            assert have.tobytes() == want.tobytes()
        vectors += [(rec.source_labels, got.source_labels),
                    (rec.target_predictions, got.target_predictions)]
    for want, have in vectors:
        assert type(have) is type(want) and have.num_classes == want.num_classes
        assert have.values.dtype == np.int64
        assert have.values.tobytes() == want.values.tobytes()
    # an id is a file-name prefix, so one with a path separator is refused
    for mid in ("a/b", "../x"):
        bad = PoolManifest((dataclasses.replace(records[0], model_id=mid),),
                           pool.target_labels)
        with pytest.raises(ValidationError, match="path separator"):
            write_pool(bad, tmp_path / "bad")
    assert not (tmp_path / "bad").exists()


def test_write_pool_rewrites_a_synth_directory_byte_for_byte(tmp_path):
    spec = SynthSpec(num_models=11, feature_dim=3, source_classes=3, target_classes=2,
                     samples=24, domain_shift=(0.5,) * 11,
                     prediction_noise=tuple(r / 20 for r in range(11)), seed=4)
    generate(spec, tmp_path / "synth")
    write_pool(load_pool(tmp_path / "synth" / "pool.json"), tmp_path / "again")
    names = sorted(os.listdir(tmp_path / "again"))
    assert names == sorted(set(os.listdir(tmp_path / "synth")) - {"synth.spec", "truth.csv"})
    assert len(names) == 2 + 4 * 11
    for name in names:
        assert ((tmp_path / "again" / name).read_bytes()
                == (tmp_path / "synth" / name).read_bytes()), name


def test_model_record_checks_shapes_and_ids():
    ok = dict(
        model_id="m",
        source_features=np.zeros((3, 2)),
        source_labels=LabelVector(np.array([0, 1, 0]), 2),
        target_features=np.zeros((4, 2)),
        target_predictions=PredictionVector(np.array([0, 0, 1, 1]), 2),
    )
    ModelRecord(**ok)
    for change, msg in [
        (dict(target_features=np.zeros((4, 3))), "dimension mismatch"),
        (dict(source_features=np.zeros((2, 2))), "source labels"),
        (dict(source_features=np.full((3, 2), np.nan)), "non-finite"),
        (dict(model_id="a,b"), "reserved character"),
        (dict(model_id=" a"), "outer whitespace"),
        (dict(model_id=""), "non-empty string"),
        (dict(source_features=np.zeros(3)), "'m': feature matrices must be 2-d"),
    ]:
        with pytest.raises(ValidationError, match=msg):
            ModelRecord(**{**ok, **change})


@pytest.mark.parametrize("source_rows,target_rows,msg", [
    (40, 30, "'m': 30 target feature rows but the pool has 40 target labels"),
    (40, 45, "'m': 45 target feature rows but the pool has 40 target labels"),
    (30, 40, "'m': 30 source rows but 40 source labels"),
])
def test_library_built_pool_checks_rows_against_labels(source_rows, target_rows, msg):
    # each of these once reached build_pairwise_cache, which raised an
    # IndexError or scored the first 40 target rows
    rng = np.random.default_rng(0)
    labels = LabelVector(np.arange(40) % 2, 2)
    with pytest.raises(ValidationError, match=msg):
        PoolManifest(models=(ModelRecord(
            model_id="m",
            source_features=rng.normal(size=(source_rows, 3)),
            source_labels=labels,
            target_features=rng.normal(size=(target_rows, 3)),
            target_predictions=PredictionVector(labels.values, 2),
        ),), target_labels=labels)


def test_pool_predictions_check_counts_and_emptiness():
    labels = LabelVector(np.array([0, 1, 0]), 2)
    short = {"m": PredictionVector(np.array([0, 1]), 2)}
    with pytest.raises(ValidationError,
                       match="'m': 2 predictions but the pool has 3 target labels"):
        PoolPredictions(predictions=short, target_labels=labels)
    with pytest.raises(ValidationError, match="pool is empty"):
        PoolPredictions(predictions={}, target_labels=labels)
    with pytest.raises(ValidationError, match="pool is empty"):
        PoolManifest(models=(), target_labels=labels)


# ---------------------------------------------------------------------------
# stratified subsampling
# ---------------------------------------------------------------------------


def test_stratified_identity_when_cap_covers_everything():
    labels = LabelVector(np.array([0, 1, 2, 0]), 3)
    idx = stratified_indices(labels, 4, seed=0)
    assert np.array_equal(idx, np.arange(4))
    idx = stratified_indices(labels, 99, seed=0)
    assert np.array_equal(idx, np.arange(4))


def test_stratified_keeps_every_observed_class_and_sorts():
    rng = np.random.default_rng(5)
    values = rng.integers(0, 4, size=200)
    labels = LabelVector(values, 4)
    idx = stratified_indices(labels, 10, seed=3)
    assert idx.shape == (10,)
    assert np.array_equal(idx, np.sort(idx))
    assert len(np.unique(idx)) == 10
    assert set(values[idx].tolist()) == set(np.unique(values).tolist())


def test_stratified_deterministic_in_seed():
    labels = LabelVector(np.random.default_rng(9).integers(0, 3, 100), 3)
    a = stratified_indices(labels, 12, seed=7)
    b = stratified_indices(labels, 12, seed=7)
    c = stratified_indices(labels, 12, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stratified_flattens_class_imbalance():
    # 190 of class 0 vs 10 of class 1: proportional draws would give the
    # minority ~5% of a 40-row sample; inverse-count weighting should give far
    # more.  Averaged over seeds to keep the check stable.
    values = np.array([0] * 190 + [1] * 10)
    labels = LabelVector(values, 2)
    share = np.mean([
        np.mean(values[stratified_indices(labels, 40, seed=s)] == 1)
        for s in range(30)
    ])
    assert share > 0.15


def test_stratified_rejects_impossible_caps():
    labels = LabelVector(np.array([0, 1, 2, 0, 1, 2]), 3)
    with pytest.raises(ValidationError, match="below the number of observed"):
        stratified_indices(labels, 2, seed=0)
    with pytest.raises(ValidationError, match=">= 1"):
        stratified_indices(labels, 0, seed=0)


# ---------------------------------------------------------------------------
# ranking files
# ---------------------------------------------------------------------------


def test_scores_round_trip_including_missing_accuracy(tmp_path):
    p = tmp_path / "rankings.csv"
    write_scores(("a", "b", "c"), np.array([[1, 0], [2, 0]]), [-1.25, 0.5],
                 [0.75, np.nan], p)
    assert p.read_text().splitlines() == \
        ["ensemble,alpha,accuracy", "b;a,-1.25,0.75", "c;a,0.5,"]
    ensembles, alpha, accuracy = read_scores(p)
    assert ensembles == [("b", "a"), ("c", "a")]
    assert alpha.tolist() == [-1.25, 0.5]
    assert accuracy[0] == 0.75 and np.isnan(accuracy[1])


def test_rankings_arrays_write_the_bytes_of_records(tmp_path):
    ids = ("a", "b", "c")
    combos = np.array([[0, 1], [0, 2], [1, 2]])
    alpha = np.array([-1.25, 0.1, 3.0])
    accuracy = np.array([0.75, 0.5, 1.0])
    for acc in (accuracy, None):
        p_arr = tmp_path / "arrays.csv"
        p_rec = tmp_path / "records.csv"
        write_scores(ids, combos, alpha, acc, p_arr)
        write_rankings_loop(p_rec, [
            (tuple(ids[i] for i in row), a, None if acc is None else acc[r])
            for r, (row, a) in enumerate(zip(combos, alpha))
        ])
        assert p_arr.read_bytes() == p_rec.read_bytes()
    ensembles, back_alpha, back_acc = read_scores(p_arr)
    assert ensembles == [("a", "b"), ("a", "c"), ("b", "c")]
    assert back_alpha.tolist() == alpha.tolist()
    assert np.all(np.isnan(back_acc))


def test_rankings_writer_renders_the_bytes_of_the_row_loop(tmp_path):
    rng = np.random.default_rng(3)
    ids = [f"m{i:02d}" for i in range(32)]
    combos = np.array(list(itertools.combinations(range(32), 3)))
    combos = combos[rng.permutation(len(combos))]
    combos = np.take_along_axis(combos, rng.permuted(np.tile([0, 1, 2], (len(combos), 1)),
                                                     axis=1), axis=1)
    alpha = rng.normal(size=len(combos)) * 10.0 ** rng.integers(-20, 20, len(combos))
    alpha[:3] = [0.0, -0.0, 5e-324]
    accuracy = rng.random(len(combos))
    accuracy[rng.random(len(combos)) < 0.25] = np.nan
    accuracy[3:5] = [0.0, 1.0]
    write_scores(ids, combos, alpha, accuracy, tmp_path / "arrays.csv")
    write_rankings_loop(tmp_path / "loop.csv", [
        (tuple(ids[i] for i in row), a, None if math.isnan(c) else c)
        for row, a, c in zip(combos.tolist(), alpha.tolist(), accuracy.tolist())])
    assert (tmp_path / "arrays.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def _is_model_id(text):
    try:
        _check_model_id(text)
    except ValidationError:
        return False
    return True


_FINITE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310]),
                    st.floats(allow_nan=False, allow_infinity=False))
_ACCURACY = st.one_of(st.just(math.nan), st.floats(0.0, 1.0))


def _accuracies(n):
    """None, or ``n`` accuracies; some lists hold a few values many times,
    as real ones do (hits / samples), and a block parses each distinct
    text once."""
    return st.one_of(
        st.none(), st.lists(_ACCURACY, min_size=n, max_size=n).map(np.array),
        st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, math.nan]), min_size=n,
                 max_size=n).map(np.array))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_rankings_round_trip_is_exact(tmp_path_factory, data):
    # whatever write_scores accepts, read_scores gives back: the same
    # ensembles, alpha to the bit, and NaN accuracy exactly where it was;
    # the ids are any that a pool or cache accepts
    ids = data.draw(st.lists(st.text(min_size=1, max_size=4).filter(_is_model_id),
                             min_size=1, max_size=6, unique=True))
    k = data.draw(st.integers(1, len(ids)))
    n = data.draw(st.integers(0, 6))
    combos = np.array([data.draw(st.permutations(range(len(ids))))[:k]
                       for _ in range(n)], dtype=np.int64).reshape(n, k)
    alpha = np.array(data.draw(st.lists(_FINITE, min_size=n, max_size=n)))
    accuracy = data.draw(_accuracies(n))
    p = tmp_path_factory.mktemp("rankings") / "r.csv"
    write_scores(ids, combos, alpha, accuracy, p)
    ensembles, back_alpha, back_acc = read_scores(p)
    assert ensembles == [tuple(ids[i] for i in row) for row in combos.tolist()]
    assert back_alpha.view(np.uint64).tolist() == alpha.view(np.uint64).tolist()
    expected = np.full(n, np.nan) if accuracy is None else accuracy
    assert np.array_equal(back_acc, expected, equal_nan=True)


def test_rankings_writer_refuses_bad_rows(tmp_path):
    p = tmp_path / "r.csv"
    two = np.array([[0], [1]])
    for combos, alpha, accuracy, msg in [
        (np.zeros((1, 0), dtype=int), [1.0], None, ">= 1 column"),
        (np.array([0, 1]), [1.0, 2.0], None, "2-d integer array"),
        (np.array([[0.0, 1.0]]), [1.0], None, "2-d integer array"),
        (two, [1.0], None, "alpha must be a number per row"),
        (two, [1.0, 2.0], [0.5], "accuracy must be a number per row"),
        (two, [1.0, np.inf], None, "row 1: alpha must be finite, got inf"),
        (two, [1.0, 2.0], [0.5, 1.5], r"row 1: accuracy must lie in \[0, 1\], got 1.5"),
        (two, [1.0, 2.0], [-np.inf, 0.5], "row 0: accuracy must lie in"),
        # a negative index would name the last id, and a repeated member or
        # a bad id would write a row read_scores refuses or misreads
        (np.array([[-1]]), [1.0], None, "indexes no model id"),
        (np.array([[2]]), [1.0], None, "indexes no model id"),
        (np.array([[0, 1], [1, 1]]), [1.0, 2.0], None, "repeats a member"),
    ]:
        with pytest.raises(ValidationError, match=msg):
            write_scores(("a", "b"), combos, alpha, accuracy, p)
        assert not p.exists()
    with pytest.raises(ValidationError, match="reserved character"):
        write_scores(("a", "b;c"), two, [1.0, 2.0], None, p)
    assert not p.exists()
    # a repeated id would write an ensemble like 'a;a', which read_scores
    # refuses
    with pytest.raises(ValidationError, match="ids repeat a model id"):
        write_scores(("a", "a"), [[0, 1]], [1.0], None, p)
    assert not p.exists()


@pytest.mark.parametrize("text,msg", [
    ("ensemble,alpha,accuracy\na,1.0,1.5\n", "2: accuracy must lie in"),
    ("ensemble,alpha,accuracy\na,1.0,0.5\nb,1.0,nan\n", "3: accuracy must lie in"),
    ("ensemble,alpha,accuracy\na,nan,0.5\n", "r.csv:2: alpha must be finite"),
    ("ensemble,alpha,accuracy\na,1.0,\nb,-inf,\n", "r.csv:3: alpha must be finite"),
    # a dict is the alpha and accuracy of one write_scores row, which the
    # writer checks as the reader does
    ({"alpha": [float("nan")], "accuracy": None}, "alpha must be finite"),
    ({"alpha": [float("inf")], "accuracy": [0.5]}, "alpha must be finite"),
    ({"alpha": [1.0], "accuracy": ["0.5"]}, "accuracy must be a number"),
])
def test_rankings_reader_rejects_accuracy_out_of_range(tmp_path, text, msg):
    p = tmp_path / "r.csv"
    if isinstance(text, dict):
        with pytest.raises(ValidationError, match=msg):
            write_scores(("a",), [[0]], text["alpha"], text["accuracy"], p)
        assert not p.exists()
        return
    p.write_text(text)
    with pytest.raises(ValidationError, match=msg):
        read_scores(p)


@pytest.mark.parametrize("text,msg", [
    ("alpha,ensemble\n", "expected header"),
    ("ensemble,alpha,accuracy\na;b,1.0\n", "expected 3 fields"),
    # two bad rows whose fields, run together, would still make 3 a row
    ("ensemble,alpha,accuracy\n0.5,1.0\n0.5,0.5,0.5,0.5\n", "r.csv:2: expected 3 fields"),
    ("ensemble,alpha,accuracy\n,1.0,\n", "empty ensemble"),
    ("ensemble,alpha,accuracy\na;;b,1.0,0.5\n", "r.csv:2: empty ensemble member in 'a;;b'"),
    ("ensemble,alpha,accuracy\n;c,3.0,\n", "r.csv:2: empty ensemble member in ';c'"),
    ("ensemble,alpha,accuracy\na;a,2.0,0.25\n", "r.csv:2: repeated model id in 'a;a'"),
    # members follow the model-id rule of every other reader and writer
    ("ensemble,alpha,accuracy\na; b,1.0,0.5\n", "r.csv:2: model id ' b' contains a reserved"),
    ("ensemble,alpha,accuracy\nb,1.0,\nc\t,2.0,\n", "r.csv:3: model id 'c\t' contains a reserved"),
    # a bad member beside members an earlier line already passed
    ("ensemble,alpha,accuracy\na;b,1.0,\nb;a\t,2.0,\n", "r.csv:3: model id 'a\t' contains a reserved"),
    ("ensemble,alpha,accuracy\na,x,\n", "non-numeric"),
    # blank lines count: the bad row is the file's fifth line
    ("ensemble,alpha,accuracy\n\na,1.0,0.5\n\nb,x,\n", "r.csv:5: non-numeric"),
])
def test_scores_reader_rejects_malformed(tmp_path, text, msg):
    p = tmp_path / "r.csv"
    p.write_text(text)
    with pytest.raises(ValidationError, match=msg):
        read_scores(p)


def _scores_outcome(path, **kwargs):
    """What ``read_scores`` gives for ``path``: its ensembles and the bytes
    of its arrays, or its error message."""
    try:
        ensembles, alpha, accuracy = read_scores(path, **kwargs)
    except ValidationError as exc:
        return str(exc)
    return ensembles, alpha.dtype, alpha.tobytes(), accuracy.dtype, accuracy.tobytes()


def _assert_scores_reader_matches_the_loop(path):
    try:
        ensembles, alpha, accuracy = read_scores_loop(path)
        want = ensembles, alpha.dtype, alpha.tobytes(), accuracy.dtype, accuracy.tobytes()
    except ValidationError as exc:
        want = str(exc)
    assert _scores_outcome(path) == want
    bare = _scores_outcome(path, ensembles=False)
    assert bare == (want if isinstance(want, str) else (None, *want[1:]))


# what one field of a written rankings row may turn into
_SCORE_FIELD_EDITS = {
    "ensemble": ("", "{0};", ";{0}", "{0};;{0}x", "{0};{0}", " {0}", "{0}\t", "{0};x\t",
                 "{0};zz", "{1}", "{1}\x1c"),
    "alpha": ("nan", "inf", "-inf", "1e999", "x", "", " 1.5", "1_0", "-0.0", "١.5"),
    "accuracy": ("nan", "NaN", " nan", "-nan", "", " ", "1.5", "-0.0", "0.5 ", "1_0",
                 "0.5\x1c", "٠.5", "inf"),
}
# what a whole row may turn into: a blank line before it, outer
# whitespace, or two rows of 2 and 4 fields, 3 fields a row on average
_SCORE_LINE_EDITS = ("blank line before", "blank line after", "spaces around",
                     "2 then 4 fields", "1 field")


def _edit_score_rows(rows, edit, r):
    """``rows``, the row texts of a rankings file, with row ``r`` edited by
    ``edit``: a line edit, or ``(field, text)``, where ``{0}`` stands for
    the row's ensemble and ``{1}`` for its first member."""
    if edit == "none":
        return rows
    row = rows[r]
    # a row an earlier edit left with other than 3 fields is cut or padded
    ens, alpha, acc = (row.split(",") + ["", ""])[:3]
    if edit == "blank line before":
        new = ["", row]
    elif edit == "blank line after":
        new = [row, ""]
    elif edit == "spaces around":
        new = [" \t" + row + "  "]
    elif edit == "2 then 4 fields":
        new = [f"{ens},{alpha}", f"{ens},{alpha},{acc},{acc}"]
    elif edit == "1 field":
        new = [ens]
    else:
        field, text = edit
        text = text.format(ens, ens.split(";")[0])
        new = [",".join(text if name == field else value for name, value in
                        zip(("ensemble", "alpha", "accuracy"), (ens, alpha, acc)))]
    return rows[:r] + new + rows[r + 1:]


_SCORE_EDITS = st.one_of(
    st.sampled_from(("none",) + _SCORE_LINE_EDITS),
    st.sampled_from(sorted(_SCORE_FIELD_EDITS)).flatmap(
        lambda field: st.tuples(st.just(field), st.sampled_from(_SCORE_FIELD_EDITS[field]))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_rankings_reader_matches_the_row_loop(tmp_path_factory, data):
    # the block route must give the row loop's arrays, or its exact message
    # and line, whatever one row of a written file turns into, with any
    # line end, with or without a byte-order mark
    ids = [f"m{i}" for i in range(5)]
    k = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 6))
    combos = np.array([data.draw(st.permutations(range(5)))[:k] for _ in range(n)])
    alpha = np.array(data.draw(st.lists(_FINITE, min_size=n, max_size=n)))
    accuracy = data.draw(_accuracies(n))
    p = tmp_path_factory.mktemp("rankings") / "r.csv"
    write_scores(ids, combos, alpha, accuracy, p)
    head, *rows = p.read_text(encoding="utf-8").splitlines()
    for _ in range(data.draw(st.integers(1, 2))):
        rows = _edit_score_rows(rows, data.draw(_SCORE_EDITS) if rows else "none",
                                data.draw(st.integers(0, len(rows) - 1)))
    eol = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = data.draw(st.sampled_from(["", "﻿"]))
    end = data.draw(st.sampled_from(["", eol, eol + eol]))
    p.write_bytes((bom + eol.join([head] + rows) + end).encode("utf-8"))
    _assert_scores_reader_matches_the_loop(p)


@pytest.mark.parametrize("text", [
    "ensemble,alpha,accuracy",
    "ensemble,alpha,accuracy\n",
    "ensemble,alpha,accuracy\n\n",
    "\nensemble,alpha,accuracy\na,1.0,0.5\n",
    " ensemble,alpha,accuracy \na,1.0,0.5\n",
    "ensemble,alpha,accuracy\na,1.0,0.5",
    "ensemble,alpha,accuracy\na,1.0,0.5\nb;c,2.0,\n",
], ids=["header only", "header line", "blank row", "blank first line", "spaced header",
        "no final line end", "ragged"])
def test_rankings_reader_reads_what_the_loop_reads(tmp_path, text):
    p = tmp_path / "r.csv"
    p.write_text(text)
    _assert_scores_reader_matches_the_loop(p)


def _rankings_table(n, seed=0):
    """``(ids, combos, alpha, accuracy)`` of ``n`` rankings rows over 20
    ids, 3 members a row, alpha spread over many decades, accuracy NaN in
    about a quarter of the rows."""
    rng = np.random.default_rng(seed)
    ids = tuple(f"m{i:02d}" for i in range(20))
    combos = np.argsort(rng.random((n, 20)), axis=1)[:, :3].astype(np.uint8)
    alpha = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n)
    accuracy = rng.random(n)
    accuracy[rng.random(n) < 0.25] = np.nan
    return ids, combos, alpha, accuracy


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("with_accuracy", [True, False])
def test_rankings_round_trip_at_the_block_size(tmp_path, offset, with_accuracy):
    # one row short of a block, a whole block and one row over, with and
    # without accuracy: the bytes of the row loop, read back exactly
    n = data_io._BLOCK_ROWS + offset
    ids, combos, alpha, accuracy = _rankings_table(n)
    accuracy = accuracy if with_accuracy else None
    write_scores(ids, combos, alpha, accuracy, tmp_path / "blocks.csv")
    write_rankings_loop(tmp_path / "loop.csv", [
        (tuple(ids[i] for i in row), a, None if accuracy is None or math.isnan(c) else c)
        for row, a, c in zip(combos.tolist(), alpha.tolist(),
                             [math.nan] * n if accuracy is None else accuracy.tolist())])
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
    ensembles, back_alpha, back_acc = read_scores(tmp_path / "blocks.csv")
    assert ensembles == [tuple(ids[i] for i in row) for row in combos.tolist()]
    assert back_alpha.tobytes() == alpha.tobytes()
    expected = np.full(n, np.nan) if accuracy is None else accuracy
    assert np.array_equal(back_acc, expected, equal_nan=True)


def test_rankings_render_repeated_accuracies_by_their_own_repr(tmp_path):
    # accuracies repeat across rows and blocks; 0.0 and -0.0 compare equal
    # but keep their own repr, and a NaN accuracy is an empty field
    n = data_io._BLOCK_ROWS + 7
    ids, combos, alpha, _ = _rankings_table(n)
    values = [0.25, -0.0, 0.0, math.nan, 1.0, 0.1 + 0.2, 0.3]
    accuracy = np.array(values)[np.arange(n) % len(values)]
    write_scores(ids, combos, alpha, accuracy, tmp_path / "blocks.csv")
    write_rankings_loop(tmp_path / "loop.csv", [
        (tuple(ids[i] for i in row), a, None if math.isnan(c) else c)
        for row, a, c in zip(combos.tolist(), alpha.tolist(), accuracy.tolist())])
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
    rendered = ["0.25", "-0.0", "0.0", "", "1.0", "0.30000000000000004", "0.3"]
    rows = (tmp_path / "blocks.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [r.rsplit(",", 1)[1] for r in rows] == [rendered[i % 7] for i in range(n)]


@pytest.mark.parametrize("shift", [-1, 0, 1, 2])
def test_rankings_reader_blocks_split_at_whole_lines(tmp_path, shift):
    # a line end just before, at and after the reader's block boundary:
    # each block ends at a whole line, and the result is the row loop's
    p = tmp_path / "r.csv"
    ids, combos, alpha, accuracy = _rankings_table(3 * data_io._BLOCK_CHARS // 40)
    write_scores(ids, combos, alpha, accuracy, p)
    text = p.read_text(encoding="utf-8")
    body = len("ensemble,alpha,accuracy\n")
    cut = text.index("\n", body + data_io._BLOCK_CHARS - 60)
    # lengthen the row ending at cut so that its line end falls at shift
    # past the boundary
    pad = body + data_io._BLOCK_CHARS + shift - cut
    start = text.rindex("\n", 0, cut) + 1
    ens, rest = text[start:cut].split(",", 1)
    text = text[:start] + ens + "," + " " * pad + rest + text[cut:]
    assert text.index("\n", start) == body + data_io._BLOCK_CHARS + shift
    p.write_text(text, encoding="utf-8")
    _assert_scores_reader_matches_the_loop(p)
    assert read_scores(p)[1].shape[0] == combos.shape[0]


@pytest.mark.parametrize("bad,msg", [
    ("m00;m01,1.0", "expected 3 fields"),
    ("m00;m00,1.0,0.5", "repeated model id in 'm00;m00'"),
    ("m00,1.0,nan", r"accuracy must lie in \[0, 1\], got nan"),
    ("m00,inf,0.5", "alpha must be finite, got inf"),
])
def test_rankings_reader_names_a_bad_row_in_a_later_block(tmp_path, bad, msg):
    # the bad row lies in the third block the reader takes: its message
    # and line are the row loop's, blank lines counted
    p = tmp_path / "r.csv"
    ids, combos, alpha, accuracy = _rankings_table(3 * data_io._BLOCK_CHARS // 30)
    write_scores(ids, combos, alpha, accuracy, p)
    lines = p.read_text(encoding="utf-8").split("\n")
    r = len(lines) - 20
    assert sum(map(len, lines[:r])) > 2 * data_io._BLOCK_CHARS
    lines[r] = bad
    lines.insert(5, "")
    p.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValidationError, match=rf"r\.csv:{r + 2}: {msg}"):
        read_scores(p)
    _assert_scores_reader_matches_the_loop(p)


def test_rankings_memory_is_bounded_by_the_returned_arrays(tmp_path):
    # 200,000 rows written and read back peak at a small multiple of the
    # two float64 columns read_scores returns: the text is rendered and
    # parsed a block at a time, and eval's call builds no id tuples
    n = 200_000
    ids, combos, alpha, accuracy = _rankings_table(n)
    p = tmp_path / "r.csv"
    nbytes = 2 * 8 * n
    # a render of the whole table at once peaks at about 30 times the
    # arrays, a row loop over the whole file at about 19
    _, ratio = peak_ratio(lambda: write_scores(ids, combos, alpha, accuracy, p), nbytes)
    assert ratio <= 4.0, ratio
    (_, back_alpha, _), ratio = peak_ratio(lambda: read_scores(p, ensembles=False), nbytes)
    assert back_alpha.tobytes() == alpha.tobytes()
    # decoding holds the file's bytes and its text at once, each about 3
    # times the arrays here
    assert ratio <= 8.0, ratio
