"""On-disk formats, pool loading, run configuration, and subsampling.

All text formats are plain CSV-like files with deterministic field order so
that repeated runs produce byte-identical artifacts.  Reals are rendered with
``repr`` (shortest round-tripping form), which preserves the exact float64
value across a write/read cycle.  Every input is opened and decoded once,
by ``_read_text``; a label or prediction file in the form osborn writes
(``_CLASS_TEXT``) is then parsed by one numpy call, a rankings file in
blocks of whole lines (``read_scores``), and every other text is split
into numbered lines for a row loop.  Each text form has one reader, and
its row loop alone decides what is accepted and which line an error
names.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import os
import re
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, fields
from itertools import chain, compress, repeat

import numpy as np

from .errors import ValidationError

_ID_FORBIDDEN = set(",;\r\n\t")

REGULARIZERS = ("entropic", "frobenius")


def format_real(x) -> str:
    """Render a float so that parsing the text recovers the same float64."""
    return repr(float(x))


def _format_field(x) -> str:
    """One table field: a float by ``format_real``, a tuple of model ids
    joined by ``;``, anything else by ``str``."""
    if isinstance(x, (float, np.floating)):
        return format_real(x)
    if isinstance(x, tuple):
        return ";".join(x)
    return str(x)


def write_table(path, rows, header=None):
    """Write ``rows`` as comma-separated lines, each field rendered by
    ``_format_field``, after the ``header`` line if one is given.  A 2-d
    numpy array of rows is rendered all by ``format_real`` (a float dtype)
    or all by ``str``, as ``_format_field`` would, with no per-value check.
    ``rows`` may also be an iterator of text blocks, each a run of whole
    lines already rendered by that rule; they are written one at a time,
    so a long table is never held at once."""
    if not isinstance(rows, Iterator):
        fmt = _format_field
        if isinstance(rows, np.ndarray):
            fmt = str
            if rows.dtype.kind == "f":
                # as Python floats, which repr renders as format_real does
                fmt, rows = repr, rows.astype(np.float64, copy=False)
            rows = rows.tolist()
        rows = ("".join([",".join(map(fmt, row)) + "\n" for row in rows]),)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chain(() if header is None else (header + "\n",), rows))


def substream_seed(seed: int, *tags: str) -> int:
    """Derive a stable child seed from a base seed and a sequence of names.

    Uses CRC32 of each tag as entropy words for a SeedSequence, so the result
    does not depend on interpreter hash randomization.
    """
    words = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    words.extend(zlib.crc32(t.encode("utf-8")) for t in tags)
    ss = np.random.SeedSequence(words)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------------------
# core value types
# ---------------------------------------------------------------------------


def _check_class_vector(vec, noun):
    """Coerce ``vec.values``, an integer array, to 1-d int64 and
    ``vec.num_classes`` to int, and check every entry lies in ``[0, num_classes)``."""
    _coerce_fields(vec)
    v = np.asarray(vec.values)
    if v.ndim != 1 or v.size == 0:
        raise ValidationError(f"{noun} vector must be a non-empty 1-d array")
    if not np.issubdtype(v.dtype, np.integer):
        raise ValidationError(f"{noun}s must be integers, got dtype {v.dtype}")
    v = np.asarray(v, dtype=np.int64)
    object.__setattr__(vec, "values", v)
    if vec.num_classes < 1:
        raise ValidationError("num_classes must be >= 1")
    if v.min() < 0 or v.max() >= vec.num_classes:
        raise ValidationError(
            f"{noun}s must lie in [0, {vec.num_classes}); "
            f"saw range [{int(v.min())}, {int(v.max())}]"
        )


@dataclass(frozen=True)
class LabelVector:
    """Integer class labels in ``[0, num_classes)``."""

    values: np.ndarray
    num_classes: int

    def __post_init__(self):
        _check_class_vector(self, "label")

    def __len__(self):
        return int(self.values.shape[0])


@dataclass(frozen=True)
class PredictionVector:
    """Hard class predictions over a fixed evaluation set."""

    values: np.ndarray
    num_classes: int

    def __post_init__(self):
        _check_class_vector(self, "prediction")

    def __len__(self):
        return int(self.values.shape[0])


@dataclass(frozen=True)
class ModelRecord:
    """One candidate model: its extracted features, labels, and predictions.

    ``source_features`` and ``target_features`` are embeddings produced by the
    same extractor, so they share a feature dimension.  ``target_predictions``
    are the model's hard predictions on the shared target set, expressed in the
    model's own source label space.
    """

    model_id: str
    source_features: np.ndarray
    source_labels: LabelVector
    target_features: np.ndarray
    target_predictions: PredictionVector

    def __post_init__(self):
        _check_model_id(self.model_id)
        mid, S, T = self.model_id, self.source_features, self.target_features
        if S.ndim != 2 or T.ndim != 2:
            raise ValidationError(f"model '{mid}': feature matrices must be 2-d")
        if S.shape[1] != T.shape[1]:
            raise ValidationError(
                f"model '{mid}': source/target feature dimension mismatch "
                f"({S.shape[1]} vs {T.shape[1]})"
            )
        if S.shape[0] != len(self.source_labels):
            raise ValidationError(
                f"model '{mid}': {S.shape[0]} source rows but "
                f"{len(self.source_labels)} source labels"
            )
        if not np.all(np.isfinite(S)) or not np.all(np.isfinite(T)):
            raise ValidationError(f"model '{mid}': non-finite feature value")


def _check_pool(ids, predictions, target_labels):
    """Check that a pool has models, unique ``ids``, and one prediction per
    target label in each of ``predictions`` (one vector per id)."""
    if not ids:
        raise ValidationError("pool is empty")
    if len(set(ids)) != len(ids):
        repeated = sorted({mid for mid in ids if ids.count(mid) > 1})
        raise ValidationError(f"pool has duplicate model ids {repeated}")
    n_target = len(target_labels)
    for mid, preds in zip(ids, predictions):
        if len(preds) != n_target:
            raise ValidationError(
                f"model '{mid}': {len(preds)} predictions "
                f"but the pool has {n_target} target labels"
            )


@dataclass(frozen=True)
class PoolManifest:
    """A pool of candidate models plus ground-truth target labels; each
    model has one target feature row and prediction per target label."""

    models: tuple
    target_labels: LabelVector

    def __post_init__(self):
        _check_pool(self.model_ids(), [m.target_predictions for m in self.models],
                    self.target_labels)
        n_target = len(self.target_labels)
        for m in self.models:
            rows = m.target_features.shape[0]
            if rows != n_target:
                raise ValidationError(f"model '{m.model_id}': {rows} target feature "
                                      f"rows but the pool has {n_target} target labels")
        object.__setattr__(self, "_by_id", {m.model_id: m for m in self.models})

    def model_ids(self):
        return tuple(m.model_id for m in self.models)

    def record(self, model_id: str) -> ModelRecord:
        try:
            return self._by_id[model_id]
        except KeyError:
            raise ValidationError(f"unknown model id '{model_id}'") from None

    def target_predictions(self, model_id: str) -> PredictionVector:
        return self.record(model_id).target_predictions


@dataclass(frozen=True)
class PoolPredictions:
    """The part of a pool that selection and scoring read: each model's hard
    target predictions, keyed by id in manifest order, and the target labels."""

    predictions: dict
    target_labels: LabelVector

    def __post_init__(self):
        _check_pool(self.model_ids(), list(self.predictions.values()),
                    self.target_labels)

    def model_ids(self):
        return tuple(self.predictions)

    def target_predictions(self, model_id: str) -> PredictionVector:
        try:
            return self.predictions[model_id]
        except KeyError:
            raise ValidationError(f"unknown model id '{model_id}'") from None


# ---------------------------------------------------------------------------
# text inputs
# ---------------------------------------------------------------------------


def _read_text(path, kind: str) -> str:
    """The whole text of a text input, in one open and decode: a leading
    UTF-8 byte-order mark dropped and every line end read as ``\\n``.  Every
    file osborn reads is opened here.  A file that cannot be read or decoded
    raises ``ValidationError`` naming its ``kind``."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {kind} file '{path}': {exc}") from exc


def _numbered_lines(text: str, first: int = 1):
    """Every non-blank line of ``text`` as a ``(line number, stripped text)``
    pair, numbered from ``first``.  Split on ``\\n`` alone, as iterating the
    file would split it; ``str.splitlines`` would also split on characters
    such as ``\\x1c`` and ``\\u2028``, which ``strip`` takes for spaces."""
    return [(n, s) for n, s in enumerate(map(str.strip, text.split("\n")), start=first)
            if s]


def read_lines(path, kind: str):
    """Every non-blank line of a text input as a ``(line number, stripped
    text)`` pair, numbered as the file is, so that an error can name the
    file's own line (see ``_read_text``)."""
    return _numbered_lines(_read_text(path, kind))


def _parse_bool(text: str) -> bool:
    t = text.lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(text)


def _check_real(x) -> float:
    if not isinstance(x, numbers.Real):
        raise TypeError(x)
    return float(x)


def _check_int(value, name: str) -> int:
    """``value`` as an int, by ``operator.index`` so that nothing is
    truncated; anything else raises ``ValidationError`` naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def _check_bool(x) -> bool:
    if isinstance(x, (bool, np.bool_)) or operator.index(x) in (0, 1):
        return bool(x)
    raise ValueError(x)


def _check_str(x) -> str:
    if not isinstance(x, str):
        raise TypeError(x)
    return str(x)


# field type: (parse text, check a value, what a value must look like, format);
# a check returns the value as the field's type, or raises where the
# conversion would lose information
_CODECS = {
    "int": (int, operator.index, "must be an integer", str),
    "float": (float, _check_real, "must be a number", format_real),
    "str": (str, _check_str, "must be a string", str),
    "bool": (_parse_bool, _check_bool, "expects true/false",
             lambda b: "true" if b else "false"),
}


def _type_name(f) -> str:
    """The declared type of dataclass field ``f`` by name, as ``"int"``."""
    return getattr(f.type, "__name__", f.type)


def _codecs(cls, overrides):
    """One ``_CODECS`` entry per field of dataclass ``cls``, in field order;
    ``overrides`` maps a field name to its own entry."""
    return {f.name: overrides.get(f.name) or _CODECS[_type_name(f)] for f in fields(cls)}


def _coerce_fields(obj):
    """Coerce each ``int``, ``float``, ``str`` or ``bool`` field of frozen
    dataclass ``obj`` to its declared type by its ``_CODECS`` check; a value
    that does not convert without loss raises ``ValidationError`` naming
    the field.  Other fields are the caller's."""
    for f in fields(obj):
        codec = _CODECS.get(_type_name(f))
        if codec is not None:
            _, check, expect, _ = codec
            value = getattr(obj, f.name)
            try:
                object.__setattr__(obj, f.name, check(value))
            except (TypeError, ValueError, OverflowError):
                raise ValidationError(f"{f.name} {expect}, got {value!r}") from None


def read_fields(cls, path, kind: str, overrides=None):
    """Read a ``key = value`` file whose keys are fields of dataclass ``cls``.

    ``#`` comments and blank lines are skipped; an unknown or repeated key is
    rejected.  Each value is parsed by its field's type, or by its entry in
    ``overrides`` (see ``_CODECS``).  Returns ``(values, line numbers)``, two
    dicts keyed by field name in file order.
    """
    codecs = _codecs(cls, overrides or {})
    values, linenos = {}, {}
    for lineno, line in read_lines(path, kind):
        if line.startswith("#"):
            continue
        key, eq, text = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        if key not in codecs:
            raise ValidationError(
                f"{path}:{lineno}: unknown {kind} key '{key}' "
                f"(unknown key; the {kind} keys are {', '.join(codecs)})")
        if key in linenos:
            raise ValidationError(f"{path}:{lineno}: repeated key '{key}', "
                                  f"first set on line {linenos[key]}")
        parse, _, expect, _ = codecs[key]
        try:
            values[key] = parse(text)
        except ValueError as exc:
            raise ValidationError(
                f"{path}:{lineno}: bad {key}: bad value '{text}', {expect}") from exc
        linenos[key] = lineno
    return values, linenos


def write_fields(obj, path, overrides=None):
    """Write dataclass ``obj`` as one ``key = value`` line per field, in field
    order, each value formatted as ``read_fields`` parses it back."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, (*_, fmt) in _codecs(type(obj), overrides or {}).items():
            fh.write(f"{name} = {fmt(getattr(obj, name))}\n")


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TEConfig:
    """Numerical and weighting knobs for a scoring run.

    Immutable: construction coerces and checks every field, and
    ``dataclasses.replace`` makes a checked copy with some fields changed.
    ``epsilon`` is scale-free: the solver regularization actually used is
    ``epsilon * median(cost matrix)``, so the default behaves consistently
    across feature scales.
    """

    epsilon: float = 0.1
    regularizer: str = "entropic"
    max_iters: int = 1000
    convergence_tol: float = 1e-6
    lambda_d: float = 1.0
    lambda_t: float = 1.0
    lambda_c: float = 1.0
    standardize: bool = True
    subsample_cap: int = 5000
    seed: int = 0

    def __post_init__(self):
        _coerce_fields(self)
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValidationError("epsilon must be finite and > 0")
        if self.regularizer not in REGULARIZERS:
            raise ValidationError(
                f"regularizer must be one of {REGULARIZERS}, got '{self.regularizer}'"
            )
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if not (math.isfinite(self.convergence_tol) and self.convergence_tol > 0):
            raise ValidationError("convergence_tol must be finite and > 0")
        for name in ("lambda_d", "lambda_t", "lambda_c"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(f"{name} must be finite and >= 0")
        if self.subsample_cap < 1:
            raise ValidationError("subsample_cap must be >= 1")


def read_config(path) -> TEConfig:
    """Parse a ``key = value`` config file (see ``read_fields``); a key it
    leaves out keeps its default."""
    values, _ = read_fields(TEConfig, path, "config")
    try:
        return TEConfig(**values)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def write_config(cfg: TEConfig, path):
    write_fields(cfg, path)


# ---------------------------------------------------------------------------
# feature / label files
# ---------------------------------------------------------------------------


def _read_headed(path, lines, kind: str, key: str, noun: str):
    """Split the numbered ``lines`` of ``path``, whose first must be
    ``<key>=<int>`` (at least 1) and after which at least one row must
    follow; returns the int and the ``(line number, text)`` rows after it."""
    if not lines or not lines[0][1].startswith(f"{key}="):
        raise ValidationError(f"{path}: first line must be '{key}=<int>'")
    head = lines[0][1]
    try:
        value = int(head[len(key) + 1:])
    except ValueError as exc:
        raise ValidationError(f"{path}: bad {noun} header '{head}'") from exc
    if value < 1:
        raise ValidationError(f"{path}: {noun} must be >= 1")
    if len(lines) == 1:
        raise ValidationError(f"{path}: no {kind} rows")
    return value, lines[1:]


# numpy's reader takes these separators for spaces, which float() refuses
_NUMPY_ONLY_SPACES = ("\x1c", "\x1d", "\x1e", "\x1f")


def read_features(path) -> np.ndarray:
    """Read a feature matrix: a ``d=<int>`` header then one CSV row per sample.

    numpy's C reader parses the rows in one call.  The row loop, one
    ``float`` per value, reads them instead where numpy refuses a row,
    returns other than ``d`` values a row, or might take a character of
    ``_NUMPY_ONLY_SPACES`` for a space: the loop alone decides what is
    accepted and which line an error names.  Where both accept a value,
    both give the same float64."""
    d, rows = _read_headed(path, read_lines(path, "feature"), "feature", "d",
                           "dimension")
    texts = [row for _, row in rows]
    joined = "".join(texts)
    out = None
    if not any(ch in joined for ch in _NUMPY_ONLY_SPACES):
        try:
            out = np.loadtxt(texts, dtype=np.float64, delimiter=",",
                             comments=None, ndmin=2)
        except ValueError:
            pass
    if out is None or out.shape != (len(rows), d):
        out = np.empty((len(rows), d), dtype=np.float64)
        for i, (lineno, row) in enumerate(rows):
            parts = row.split(",")
            if len(parts) != d:
                raise ValidationError(
                    f"{path}:{lineno}: row has {len(parts)} values, expected {d}")
            try:
                out[i] = [float(p) for p in parts]
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: non-numeric value") from exc
    finite = np.isfinite(out)
    if not finite.all():
        lineno = rows[int(np.argmin(finite.all(axis=1)))][0]
        raise ValidationError(f"{path}:{lineno}: non-finite feature value")
    return out


def write_features(features: np.ndarray, path):
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.size == 0:
        raise ValidationError("feature matrix must be 2-d and non-empty")
    write_table(path, X, header=f"d={X.shape[1]}")


# a class file as osborn writes it: a header of at most 18 digits, so
# that C < 10**18 < 2**63, then rows of ASCII digits, one per line, the
# first right after the header
_CLASS_TEXT = re.compile(r"C=([0-9]{1,18})\n([0-9][0-9\n]*)")


def _read_class_file(path, kind: str, cls):
    """Read a ``C=<int>`` header then one class per row into ``cls``, a
    ``LabelVector`` or ``PredictionVector``.

    A text that is ``_CLASS_TEXT`` is parsed by one ``np.fromstring``
    call, which reads each row as ``int`` would and skips blank lines as
    the row loop does; a body of blank lines alone, which it would read as
    one 0, does not match.  It saturates a value wider than int64 at the
    int64 maximum, which is then at least C and fails the range check.
    Any other text, and one whose classes fail the range check, goes to
    the row loop, one ``int`` per row, which alone decides what is
    accepted: a row that is not an integer in ``[0, C)`` raises
    ``ValidationError`` naming its line."""
    text = _read_text(path, kind)
    form = _CLASS_TEXT.fullmatch(text)
    if form:
        try:
            return cls(np.fromstring(form[2], dtype=np.int64, sep="\n"), int(form[1]))
        except ValidationError:
            pass
    num_classes, rows = _read_headed(path, _numbered_lines(text), kind, "C",
                                     "class-count")
    try:
        return cls(np.array([int(x) for _, x in rows], dtype=np.int64), num_classes)
    except (ValueError, OverflowError, ValidationError) as exc:
        for lineno, row in rows:
            try:
                value = int(row)
            except ValueError:
                raise ValidationError(
                    f"{path}:{lineno}: non-integer {kind} value") from exc
            if not 0 <= value < num_classes:
                raise ValidationError(f"{path}:{lineno}: {kind}s must lie in "
                                      f"[0, {num_classes}), got {value}") from exc
        raise ValidationError(f"{path}: {exc}") from exc


def read_labels(path) -> LabelVector:
    return _read_class_file(path, "label", LabelVector)


def read_predictions(path) -> PredictionVector:
    return _read_class_file(path, "prediction", PredictionVector)


def _write_class_file(values, num_classes, path):
    write_table(path, np.asarray(values, dtype=np.int64).reshape(-1, 1),
                header=f"C={int(num_classes)}")


def write_labels(labels: LabelVector, path):
    _write_class_file(labels.values, labels.num_classes, path)


def write_predictions(preds: PredictionVector, path):
    _write_class_file(preds.values, preds.num_classes, path)


# ---------------------------------------------------------------------------
# pool manifest
# ---------------------------------------------------------------------------


def _check_model_id(mid):
    if not isinstance(mid, str) or not mid:
        raise ValidationError("model id must be a non-empty string")
    # every reader strips each line, so a first field's leading whitespace
    # would not survive a round trip
    if any(ch in _ID_FORBIDDEN for ch in mid) or mid != mid.strip():
        raise ValidationError(f"model id '{mid}' contains a reserved character "
                              "(comma/semicolon/tab/line break) or outer whitespace")


_ENTRY_KEYS = ("source_features", "source_labels", "target_features",
               "target_predictions")


def _read_manifest(manifest_path):
    """Parse a pool manifest and read its target labels.

    Returns ``(target_labels, entries)``: one ``(model id, {key: path})``
    pair per model, in manifest order, with every path resolved against the
    manifest's directory and every id checked and unique.
    """
    text = _read_text(manifest_path, "manifest")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"manifest '{manifest_path}' is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"manifest '{manifest_path}' must be a JSON object")
    base = os.path.dirname(os.path.abspath(manifest_path))

    def resolve(p, key, where="manifest"):
        if not isinstance(p, str):
            raise ValidationError(f"{where} key '{key}' must be a path string, "
                                  f"got {json.dumps(p)}")
        return p if os.path.isabs(p) else os.path.join(base, p)

    try:
        target_labels_path = doc["target_labels"]
        raw_entries = doc["models"]
    except KeyError as exc:
        raise ValidationError(f"manifest missing required key {exc}") from exc
    if not isinstance(raw_entries, list) or not raw_entries:
        raise ValidationError("manifest must list at least one model")
    target_labels = read_labels(resolve(target_labels_path, "target_labels"))

    entries = []
    seen = set()
    for entry in raw_entries:
        if not isinstance(entry, dict):
            raise ValidationError("each manifest model entry must be a JSON object")
        try:
            mid = entry["id"]
            _check_model_id(mid)
            paths = {key: resolve(entry[key], key, f"model '{mid}'")
                     for key in _ENTRY_KEYS}
        except KeyError as exc:
            raise ValidationError(f"model entry missing required key {exc}") from exc
        if mid in seen:
            raise ValidationError(f"duplicate model id '{mid}' in manifest")
        seen.add(mid)
        entries.append((mid, paths))
    return target_labels, entries


def load_pool(manifest_path) -> PoolManifest:
    """Load a pool manifest (JSON) and every file it references.

    Relative paths in the manifest are resolved against the manifest's
    directory.  The records and the pool check themselves as they are built,
    so downstream code can assume a well-formed pool.
    """
    target_labels, entries = _read_manifest(manifest_path)
    models = tuple(
        ModelRecord(
            model_id=mid,
            source_features=read_features(paths["source_features"]),
            source_labels=read_labels(paths["source_labels"]),
            target_features=read_features(paths["target_features"]),
            target_predictions=read_predictions(paths["target_predictions"]),
        )
        for mid, paths in entries
    )
    return PoolManifest(models=models, target_labels=target_labels)


def load_pool_predictions(manifest_path) -> PoolPredictions:
    """Load only the model ids, target predictions and target labels of a
    pool, checked as ``load_pool`` checks them; no feature or source-label
    file is read.  This is all that selection and scoring need."""
    target_labels, entries = _read_manifest(manifest_path)
    predictions = {mid: read_predictions(paths["target_predictions"])
                   for mid, paths in entries}
    return PoolPredictions(predictions=predictions, target_labels=target_labels)


# ---------------------------------------------------------------------------
# stratified subsampling
# ---------------------------------------------------------------------------


def stratified_indices(labels: LabelVector, cap: int, seed: int) -> np.ndarray:
    """Pick at most ``cap`` row indices, keeping every observed class.

    Each observed class gets one guaranteed draw; the remaining budget is
    filled by weighted sampling without replacement with per-sample weight
    proportional to 1 / (class count), which flattens class imbalance.
    Returned indices are sorted ascending.
    """
    cap = _check_int(cap, "subsample cap")
    if cap < 1:
        raise ValidationError("subsample cap must be >= 1")
    values = labels.values
    n = values.shape[0]
    if cap >= n:
        return np.arange(n, dtype=np.int64)
    classes, inverse, counts = np.unique(values, return_inverse=True,
                                         return_counts=True)
    if cap < classes.shape[0]:
        raise ValidationError(
            f"subsample cap {cap} is below the number of observed classes "
            f"({classes.shape[0]})"
        )
    rng = np.random.default_rng(int(seed))
    taken = np.zeros(n, dtype=bool)
    chosen = []
    for c in classes:
        idx_c = np.flatnonzero(values == c)
        pick = int(idx_c[rng.integers(idx_c.shape[0])])
        chosen.append(pick)
        taken[pick] = True
    budget = cap - classes.shape[0]
    if budget > 0:
        weights = 1.0 / counts[inverse]
        weights[taken] = 0.0
        weights = weights / weights.sum()
        extra = rng.choice(n, size=budget, replace=False, p=weights)
        chosen.extend(int(i) for i in extra)
    return np.sort(np.asarray(chosen, dtype=np.int64))


# ---------------------------------------------------------------------------
# ranking files
# ---------------------------------------------------------------------------


def _ranking_column(values, name: str, n: int, bad, rule: str) -> np.ndarray:
    """``values`` as a float64 vector of ``n`` numbers; the first r where
    ``bad(vector)[r]`` raises ``ValidationError`` naming row r and ``rule``."""
    v = np.asarray(values)
    if v.dtype.kind not in "iuf" or v.shape != (n,):
        raise ValidationError(f"{name} must be a number per row of combos, "
                              f"got {v.dtype} of shape {v.shape}")
    v = v.astype(np.float64)
    rows = np.flatnonzero(bad(v))
    if rows.size:
        raise ValidationError(f"row {rows[0]}: {name} {rule}, got {v[rows[0]]}")
    return v


# a rankings file is written _BLOCK_ROWS rows and read about _BLOCK_CHARS
# characters at a time, so neither side's memory grows with its row count
_BLOCK_ROWS = 1 << 14
_BLOCK_CHARS = 1 << 19

_SCORES_HEADER = "ensemble,alpha,accuracy"


def write_scores(ids, combos, alpha, accuracy, path):
    """Write a rankings file: an ``ensemble,alpha,accuracy`` row per row of
    ``combos``.

    Row r names the ensemble ``ids[combos[r]]``, in the row's order, with
    ``alpha[r]`` and ``accuracy[r]``.  ``accuracy`` None, or a NaN entry,
    leaves the accuracy field empty, which ``read_scores`` reads back as
    NaN.  A non-finite alpha or an accuracy outside [0, 1] raises
    ``ValidationError`` naming its row r, as do a bad or repeated model id
    and a row of ``combos`` that repeats a member or indexes no id; nothing
    is written then.  Every row is checked before the first is written;
    the rows are then rendered ``_BLOCK_ROWS`` at a time, each block by
    whole-column ``repr`` and ``join`` calls, into the bytes that
    ``write_table`` would give row by row.
    """
    for mid in ids:
        _check_model_id(mid)
    if len(set(ids)) != len(ids):
        raise ValidationError("ids repeat a model id")
    combos = np.asarray(combos)
    if combos.ndim != 2 or combos.shape[1] == 0 or combos.dtype.kind not in "iu":
        raise ValidationError("combos must be a 2-d integer array with >= 1 column")
    members = np.sort(combos, axis=1)
    if members.size and (members[:, 0].min() < 0 or members[:, -1].max() >= len(ids)
                         or (members[:, 1:] == members[:, :-1]).any()):
        raise ValidationError("a row of combos repeats a member or indexes no model id")
    n = combos.shape[0]
    alpha = _ranking_column(alpha, "alpha", n, lambda a: ~np.isfinite(a), "must be finite")
    acc = np.full(n, np.nan) if accuracy is None else _ranking_column(
        accuracy, "accuracy", n, lambda a: (a < 0.0) | (a > 1.0), "must lie in [0, 1]")
    names = np.asarray(ids, dtype=object)

    def blocks():
        for start in range(0, n, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            ensembles = map(";".join, zip(*(names[c].tolist() for c in combos[rows].T)))
            text = "\n".join(map(",".join, zip(ensembles, map(repr, alpha[rows].tolist()),
                                               map(repr, acc[rows].tolist())))) + "\n"
            # a NaN accuracy is an empty field; ",nan\n" can only end a row
            # there, since an alpha is finite and an id holds no comma
            yield text.replace(",nan\n", ",\n")

    write_table(path, blocks(), header=_SCORES_HEADER)


def _score_block(lines, ensembles: bool):
    """The ``(ensembles, alpha, accuracy)`` of ``lines``, the rows of one
    block, parsed by whole-block calls, or None where any row is not in
    the form ``write_scores`` writes or fails any check: not three fields,
    a member count that differs between rows, a member that is empty,
    repeated in its row or no model id, a non-finite alpha, or an accuracy
    that is not empty and not in [0, 1].  ``ensembles`` False leaves the
    id tuples unbuilt (None)."""
    if set(map(str.count, lines, repeat(","))) != {2}:
        return None
    fields = ",".join(lines).split(",")
    ens, alpha_text, acc_text = fields[0::3], fields[1::3], fields[2::3]
    sizes = set(map(str.count, ens, repeat(";")))
    if len(sizes) != 1:
        return None
    k = sizes.pop() + 1
    members = ";".join(ens).split(";")
    distinct = set(members)
    try:
        for mid in distinct:
            _check_model_id(mid)
        alpha = np.fromiter(map(float, alpha_text), np.float64, len(ens))
        known = np.fromiter(map(bool, acc_text), bool, len(ens))
        accuracy = np.full(len(ens), np.nan)
        accuracy[known] = np.fromiter(map(float, compress(acc_text, known.tolist())),
                                      np.float64)
    except (ValidationError, ValueError):
        return None
    kept = accuracy[known]
    if not (np.isfinite(alpha).all() and ((kept >= 0.0) & (kept <= 1.0)).all()):
        return None
    if k > 1:
        index = dict(zip(distinct, range(len(distinct))))
        codes = np.sort(np.fromiter(map(index.__getitem__, members), np.intp,
                                    len(members)).reshape(-1, k), axis=1)
        if (codes[:, 1:] == codes[:, :-1]).any():
            return None
    return (list(zip(*[iter(members)] * k)) if ensembles else None), alpha, accuracy


def _score_rows(path, lines, ensembles: bool):
    """The ``(ensembles, alpha, accuracy)`` of the numbered ``lines`` of
    rankings file ``path``, one row at a time: this loop alone decides
    what is accepted, and a row that breaks a rule raises
    ``ValidationError`` naming its line.  ``ensembles`` False leaves the
    id tuples unbuilt (None)."""
    out = []
    alpha = np.empty(len(lines))
    accuracy = np.empty(len(lines))
    checked = set()
    for row, (lineno, line) in enumerate(lines):
        parts = line.split(",")
        if len(parts) != 3:
            raise ValidationError(f"{path}:{lineno}: expected 3 fields")
        ids = tuple(parts[0].split(";"))
        if "" in ids:
            raise ValidationError(f"{path}:{lineno}: empty ensemble member in '{parts[0]}'")
        if len(set(ids)) != len(ids):
            raise ValidationError(f"{path}:{lineno}: repeated model id in '{parts[0]}'")
        # each distinct member is checked once, at its first line
        if not checked.issuperset(ids):
            try:
                for mid in ids:
                    _check_model_id(mid)
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
            checked.update(ids)
        try:
            alpha[row] = float(parts[1])
            acc = np.nan if parts[2] == "" else float(parts[2])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: non-numeric field") from exc
        if not math.isfinite(alpha[row]):
            raise ValidationError(
                f"{path}:{lineno}: alpha must be finite, got {parts[1]}")
        if parts[2] != "" and not (0.0 <= acc <= 1.0):
            raise ValidationError(
                f"{path}:{lineno}: accuracy must lie in [0, 1], got {acc}")
        accuracy[row] = acc
        out.append(ids)
    return (out if ensembles else None), alpha, accuracy


def read_scores(path, ensembles: bool = True):
    """Read a rankings file into ``(ensembles, alpha, accuracy)``.

    ``ensembles`` is a list of id tuples, or None when the ``ensembles``
    argument is False; ``alpha`` and ``accuracy`` are float64 arrays, with
    NaN for an empty accuracy field.  A row that breaks a rule
    ``write_scores`` keeps, or whose ensemble field has an empty or
    repeated member or a member that is no model id, raises
    ``ValidationError`` naming its line.

    The text is read once, by ``_read_text``.  After a first line that is
    exactly the header, the rows are taken in blocks of about
    ``_BLOCK_CHARS`` characters, whole lines each; ``_score_block`` parses
    a block in the form ``write_scores`` writes, and any other block goes
    to the row loop, ``_score_rows``, which alone decides what is accepted
    and which line an error names.  A text whose first line is not exactly
    the header goes to the row loop whole.
    """
    text = _read_text(path, "rankings")
    head = _SCORES_HEADER + "\n"
    if not text.startswith(head):
        lines = _numbered_lines(text)
        if not lines or lines[0][1] != _SCORES_HEADER:
            raise ValidationError(f"{path}: expected header '{_SCORES_HEADER}'")
        return _score_rows(path, lines[1:], ensembles)
    out, alpha, accuracy = [], [np.empty(0)], [np.empty(0)]
    pos, lineno, stop = len(head), 2, len(text) - text.endswith("\n")
    # what is left at stop is at most one blank line, which holds no row
    while pos < stop:
        end = text.find("\n", min(pos + _BLOCK_CHARS, stop), stop)
        end = stop if end < 0 else end
        block = text[pos:end]
        lines = block.split("\n")
        part = _score_block(lines, ensembles) or _score_rows(
            path, _numbered_lines(block, lineno), ensembles)
        if ensembles:
            out += part[0]
        alpha.append(part[1])
        accuracy.append(part[2])
        pos, lineno = end + 1, lineno + len(lines)
    return (out if ensembles else None), np.concatenate(alpha), np.concatenate(accuracy)
