"""Command line driver: exit codes, file handoff, and reproducibility."""

import filecmp
import itertools
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from osborn import cli
from osborn.data_io import (
    LabelVector,
    ModelRecord,
    PoolManifest,
    PredictionVector,
    TEConfig,
    load_pool,
    read_scores,
    write_pool,
)
from osborn.metrics import osborn_score, read_cache
from osborn.selection import exhaustive_select
from osborn.synth import read_synth_spec

from conftest import majority_vote_loop, write_rankings_loop

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


@pytest.fixture()
def pool_dir(tmp_path):
    spec = tmp_path / "pool.spec"
    spec.write_text(SPEC_TEXT)
    out = tmp_path / "pool"
    assert cli.main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "ensemble" in capsys.readouterr().out


def test_no_arguments_is_a_usage_error(capsys):
    assert cli.main([]) == 1
    assert cli.main(["frobnicate"]) == 1


# each subcommand's required arguments, given as placeholders
_REQUIRED = {
    "pairwise": ["--pool", "p.json", "--out", "c.csv"],
    "select": ["--pool", "p.json", "--cache", "c.csv", "--k", "2", "--out", "s.csv"],
    "score": ["--pool", "p.json", "--cache", "c.csv", "--k", "2", "--out", "r.csv"],
    "eval": ["--rankings", "r.csv", "--out", "e.csv"],
    "synth": ["--spec", "s.spec", "--out", "pool"],
}


def _full_parser_outcome(argv, capsys):
    """The exit code ``main`` would map the full parser's exit to, and what
    the full parser prints, for ``argv``."""
    with pytest.raises(SystemExit) as exc:
        cli._parser(list(cli._COMMANDS)).parse_args(argv)
    out = capsys.readouterr()
    return (0 if not exc.value.code else 1), out.out, out.err


@pytest.mark.parametrize("extra", [["--help"], ["--k"], ["unexpected"]],
                         ids=["help", "missing value", "unrecognized argument"])
@pytest.mark.parametrize("command", sorted(_REQUIRED))
def test_a_named_command_parses_as_the_full_parser(capsys, command, extra):
    # main builds the named subparser alone: its help, and the usage line
    # and message of a usage error, are the full parser's
    argv = [command, *_REQUIRED[command], *extra]
    want = _full_parser_outcome(argv, capsys)
    code = cli.main(argv)
    out = capsys.readouterr()
    assert (code, out.out, out.err) == want


def test_full_pipeline(tmp_path, pool_dir, capsys):
    pool = pool_dir / "pool.json"
    cache = tmp_path / "cache.csv"
    trace = tmp_path
    assert cli.main(["pairwise", "--pool", str(pool),
                     "--out", str(cache)]) == 0
    assert cli.main(["select", "--pool", str(pool), "--cache", str(cache),
                     "--k", "2", "--out", str(trace / "trace.csv")]) == 0
    ranks = tmp_path / "ranks.csv"
    assert cli.main(["score", "--pool", str(pool), "--cache", str(cache),
                     "--k", "2", "--proxy-accuracy",
                     "--out", str(ranks)]) == 0
    report = tmp_path / "report.csv"
    assert cli.main(["eval", "--rankings", str(ranks),
                     "--out", str(report)]) == 0

    parsed = read_cache(cache)
    assert parsed.ids == ("m00", "m01", "m02", "m03")
    trace_lines = (trace / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "step,chosen_id,gain,f_cumulative"
    assert trace_lines[-1].startswith("ensemble,")
    ensembles, _, accuracy = read_scores(ranks)
    assert len(ensembles) == 6  # C(4, 2) ensembles
    assert np.all((accuracy >= 0.0) & (accuracy <= 1.0))  # and none is NaN
    text = report.read_text().splitlines()
    assert text[0] == "metric,value"
    assert [ln.split(",")[0] for ln in text[1:]] == \
        ["pcc", "kt", "wkt", "n_pairs"]


def test_missing_input_file_exits_one(tmp_path, capsys):
    code = cli.main(["pairwise", "--pool", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "cache.csv")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_unwritable_out_exits_one(tmp_path, pool_dir, capsys):
    # an --out in a directory that does not exist is a bad input
    code = cli.main(["pairwise", "--pool", str(pool_dir / "pool.json"),
                     "--out", str(tmp_path / "absent" / "cache.csv")])
    assert code == 1
    assert "error: [Errno 2] No such file or directory" in capsys.readouterr().err


def test_unknown_config_key_exits_one(tmp_path, pool_dir, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epsilon = 0.1\nwarp_factor = 9\n")
    code = cli.main(["pairwise", "--pool", str(pool_dir / "pool.json"),
                     "--config", str(cfg),
                     "--out", str(tmp_path / "cache.csv")])
    assert code == 1
    assert "warp_factor" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, where", [
    ("target_labels", 5, "manifest key 'target_labels'"),
    ("target_predictions", None, "model 'm01' key 'target_predictions'"),
    ("source_features", ["a.csv"], "model 'm01' key 'source_features'"),
])
def test_non_string_manifest_path_exits_one(tmp_path, pool_dir, capsys,
                                            key, value, where):
    manifest = pool_dir / "pool.json"
    doc = json.loads(manifest.read_text())
    if key == "target_labels":
        doc[key] = value
    else:
        doc["models"][1][key] = value
    manifest.write_text(json.dumps(doc))
    for command in ("pairwise", "score"):
        extra = [] if command == "pairwise" else ["--cache", "c.csv", "--k", "1"]
        code = cli.main([command, "--pool", str(manifest), *extra,
                         "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert where in err and "must be a path string" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_pairwise_threads_below_one_exit_one(tmp_path, pool_dir, capsys, threads):
    out = tmp_path / "cache.csv"
    code = cli.main(["pairwise", "--pool", str(pool_dir / "pool.json"),
                     "--threads", threads, "--out", str(out)])
    assert code == 1
    assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()


def test_unconverged_models_are_named_on_stderr(tmp_path, pool_dir, capsys):
    # max_iters = 1 stops every solve after its first sweep: pairwise,
    # select and score each name all four models once and still exit 0
    pool = str(pool_dir / "pool.json")
    cfg = tmp_path / "one.cfg"
    cfg.write_text("max_iters = 1\n")
    cache = tmp_path / "cache.csv"
    runs = [
        ["pairwise", "--pool", pool, "--config", str(cfg), "--out", str(cache)],
        ["select", "--pool", pool, "--cache", str(cache), "--k", "2",
         "--out", str(tmp_path / "trace.csv")],
        ["score", "--pool", pool, "--cache", str(cache), "--k", "2",
         "--out", str(tmp_path / "ranks.csv")],
    ]
    expected = [f"warning: model '{mid}': transport solve did not converge; "
                "its W_D and W_T are not converged values"
                for mid in ("m00", "m01", "m02", "m03")]
    for argv in runs:
        assert cli.main(argv) == 0
        assert capsys.readouterr().err.splitlines() == expected, argv[0]
    assert not any(read_cache(cache).converged)
    # a converged cache warns about nothing
    assert cli.main(["pairwise", "--pool", pool, "--out", str(cache)]) == 0
    assert cli.main(runs[2]) == 0
    assert "warning" not in capsys.readouterr().err


def test_malformed_weights_exit_one(tmp_path, pool_dir, capsys):
    pool = pool_dir / "pool.json"
    cache = tmp_path / "cache.csv"
    assert cli.main(["pairwise", "--pool", str(pool),
                     "--out", str(cache)]) == 0
    for bad in ("1,2", "a,b,c", "nan,1,1"):
        code = cli.main(["select", "--pool", str(pool), "--cache", str(cache),
                         "--k", "2", "--weights", bad,
                         "--out", str(tmp_path / "trace.csv")])
        assert code == 1
    err = capsys.readouterr().err
    assert "three comma-separated" in err
    assert "lambda_d must be finite" in err


@pytest.mark.parametrize("stage", [
    ["select", "--standardize", "true"],
    ["select", "--standardize", "false"],
    ["select", "--strategy", "exhaustive", "--standardize", "true"],
    ["select", "--strategy", "exhaustive", "--standardize", "false"],
    ["score"],
], ids=["greedy-std", "greedy-raw", "exhaustive-std", "exhaustive-raw", "score"])
def test_overflowing_weighted_terms_exit_two(tmp_path, pool_dir, capsys, stage):
    # lambda = 1e308 sends the weighted W_D + W_T to inf: no selector or
    # scorer may write inf gains or alphas, or pick a member twice
    pool = pool_dir / "pool.json"
    cache = tmp_path / "cache.csv"
    out = tmp_path / "out.csv"
    assert cli.main(["pairwise", "--pool", str(pool), "--out", str(cache)]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([stage[0], "--pool", str(pool), "--cache", str(cache),
                         "--k", "2", *stage[1:], "--weights", "1e308,1e308,1",
                         "--out", str(out)])
    assert code == 2
    assert "weighted terms are not finite under weights" in capsys.readouterr().err
    assert not out.exists()


def test_config_flag_overrides_file(tmp_path, pool_dir):
    pool = pool_dir / "pool.json"
    cfg = tmp_path / "te.cfg"
    cfg.write_text("epsilon = 0.25\nseed = 3\n")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["pairwise", "--pool", str(pool), "--config", str(cfg),
                     "--out", str(a)]) == 0
    assert cli.main(["pairwise", "--pool", str(pool), "--config", str(cfg),
                     "--epsilon", "0.05", "--out", str(b)]) == 0
    ca, cb = read_cache(a), read_cache(b)
    # smaller blur brings the domain terms down
    assert sum(cb.wd.tolist()) < sum(ca.wd.tolist())


def test_eval_exits_two_when_correlation_is_undefined(tmp_path, capsys):
    ranks = tmp_path / "flat.csv"
    ranks.write_text(
        "ensemble,alpha,accuracy\n"
        "m00;m01,0.5,0.75\n"
        "m00;m02,0.25,0.75\n"
        "m01;m02,0.125,0.75\n"
    )
    code = cli.main(["eval", "--rankings", str(ranks),
                     "--out", str(tmp_path / "report.csv")])
    assert code == 2
    assert "computation failed" in capsys.readouterr().err


def test_synth_seed_flag_overrides_spec(tmp_path):
    spec = tmp_path / "pool.spec"
    spec.write_text(SPEC_TEXT)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert cli.main(["synth", "--spec", str(spec), "--out", str(a)]) == 0
    assert cli.main(["synth", "--spec", str(spec), "--seed", "99",
                     "--out", str(b)]) == 0
    assert cli.main(["synth", "--spec", str(spec), "--seed", "99",
                     "--out", str(c)]) == 0
    assert read_synth_spec(a / "synth.spec").seed == 5
    assert read_synth_spec(b / "synth.spec").seed == 99
    m = "m00_target_features.csv"
    assert not filecmp.cmp(a / m, b / m, shallow=False)
    assert filecmp.cmp(b / m, c / m, shallow=False)


def test_synth_refuses_a_negative_seed(tmp_path, capsys):
    spec = tmp_path / "pool.spec"
    spec.write_text(SPEC_TEXT)
    assert cli.main(["synth", "--spec", str(spec), "--seed", "-1",
                     "--out", str(tmp_path / "pool")]) == 1
    assert "seed must be >= 0" in capsys.readouterr().err


def test_pairwise_at_a_tiny_epsilon_flags_its_terms(tmp_path):
    # at 1e-30 x the median cost a kernel row underflows in sinkhorn's
    # scaling step: every model still gets a row, converged or flagged,
    # and no numpy warning reaches stderr
    spec = tmp_path / "pool.spec"
    spec.write_text("num_models = 2\nfeature_dim = 2\nsource_classes = 2\n"
                    "target_classes = 2\nsamples = 8\nseed = 7\n"
                    "domain_shift = 0.0;1.5\nprediction_noise = 0.0;0.4\n")
    assert cli.main(["synth", "--spec", str(spec), "--out", str(tmp_path / "pool")]) == 0
    cache = tmp_path / "cache.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "osborn.cli", "pairwise", "--pool",
         str(tmp_path / "pool" / "pool.json"), "--epsilon", "1e-30", "--out", str(cache)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert read_cache(cache).ids == ("m00", "m01")
    assert "RuntimeWarning" not in proc.stderr


def test_pipeline_outputs_are_byte_stable(tmp_path, pool_dir):
    pool = pool_dir / "pool.json"
    outs = []
    for tag, threads in (("x", "1"), ("y", "4")):
        cache = tmp_path / f"cache_{tag}.csv"
        ranks = tmp_path / f"ranks_{tag}.csv"
        assert cli.main(["pairwise", "--pool", str(pool),
                         "--threads", threads, "--out", str(cache)]) == 0
        assert cli.main(["score", "--pool", str(pool), "--cache", str(cache),
                         "--k", "2", "--threads", threads,
                         "--out", str(ranks)]) == 0
        outs.append((cache, ranks))
    (c1, r1), (c2, r2) = outs
    assert filecmp.cmp(c1, c2, shallow=False)
    assert filecmp.cmp(r1, r2, shallow=False)


def test_score_rankings_equal_the_row_by_row_file(tmp_path, pool_dir):
    pool_path = pool_dir / "pool.json"
    cache_path = tmp_path / "cache.csv"
    assert cli.main(["pairwise", "--pool", str(pool_path),
                     "--out", str(cache_path)]) == 0
    pool = load_pool(pool_path)
    cache = read_cache(cache_path)
    for k in (1, 2, 3):
        ranks = tmp_path / f"ranks{k}.csv"
        assert cli.main(["score", "--pool", str(pool_path), "--cache",
                         str(cache_path), "--k", str(k), "--proxy-accuracy",
                         "--out", str(ranks)]) == 0
        # one ensemble at a time, in lexicographic order: its osborn value
        # and a scalar majority vote, written by the test's own writer
        ref = tmp_path / f"ref{k}.csv"
        write_rankings_loop(ref, [
            (cand, -osborn_score(cand, cache, TEConfig()).osborn_value,
             majority_vote_loop([pool.target_predictions(m).values for m in cand],
                                pool.target_labels.values))
            for cand in itertools.combinations(cache.ids, k)
        ])
        assert ranks.read_bytes() == ref.read_bytes()


def test_select_and_score_read_no_feature_files(tmp_path, pool_dir):
    pool = pool_dir / "pool.json"
    cache = tmp_path / "cache.csv"
    assert cli.main(["pairwise", "--pool", str(pool), "--out", str(cache)]) == 0
    for path in pool_dir.glob("*_features.csv"):
        path.write_text("not a feature file\n")
    assert cli.main(["pairwise", "--pool", str(pool),
                     "--out", str(tmp_path / "again.csv")]) == 1
    assert cli.main(["select", "--pool", str(pool), "--cache", str(cache),
                     "--k", "2", "--out", str(tmp_path / "trace.csv")]) == 0
    assert cli.main(["score", "--pool", str(pool), "--cache", str(cache),
                     "--k", "2", "--proxy-accuracy",
                     "--out", str(tmp_path / "ranks.csv")]) == 0


def test_frobenius_cache_is_byte_stable_across_threads(tmp_path, pool_dir):
    pool = pool_dir / "pool.json"
    caches = []
    for threads in ("1", "2"):
        cache = tmp_path / f"cache_{threads}.csv"
        assert cli.main(["pairwise", "--pool", str(pool), "--regularizer",
                         "frobenius", "--threads", threads,
                         "--out", str(cache)]) == 0
        caches.append(cache)
    assert filecmp.cmp(*caches, shallow=False)
    assert all(read_cache(caches[0]).converged)


def test_select_exhaustive_matches_greedy_here(tmp_path, pool_dir):
    pool = pool_dir / "pool.json"
    cache = tmp_path / "cache.csv"
    assert cli.main(["pairwise", "--pool", str(pool),
                     "--out", str(cache)]) == 0
    g = tmp_path / "greedy.csv"
    e = tmp_path / "exhaustive.csv"
    assert cli.main(["select", "--pool", str(pool), "--cache", str(cache),
                     "--k", "2", "--strategy", "greedy",
                     "--out", str(g)]) == 0
    assert cli.main(["select", "--pool", str(pool), "--cache", str(cache),
                     "--k", "2", "--strategy", "exhaustive",
                     "--out", str(e)]) == 0
    g_ens = [ln for ln in g.read_text().splitlines()
             if ln.startswith("ensemble,")][0]
    e_ens = [ln for ln in e.read_text().splitlines()
             if ln.startswith("ensemble,")][0]
    assert g_ens == e_ens


@pytest.mark.parametrize("standardize", ["true", "false"])
def test_select_exhaustive_trace_ends_at_the_exhaustive_value(tmp_path, pool_dir,
                                                              standardize):
    pool = pool_dir / "pool.json"
    cache = tmp_path / "cache.csv"
    out = tmp_path / "exhaustive.csv"
    assert cli.main(["pairwise", "--pool", str(pool), "--out", str(cache)]) == 0
    assert cli.main(["select", "--pool", str(pool), "--cache", str(cache),
                     "--k", "3", "--strategy", "exhaustive",
                     "--standardize", standardize, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    cand, best_f = exhaustive_select(load_pool(pool), 3, read_cache(cache),
                                     TEConfig(standardize=standardize == "true"))
    assert [ln.split(",")[1] for ln in lines[1:-1]] == list(cand)
    assert float(lines[-2].split(",")[3]) == pytest.approx(best_f, abs=1e-12)


def test_select_exhaustive_at_the_paper_pool_size(tmp_path):
    # 140 models, as the paper's 28 source datasets x 5 architectures:
    # C(140, 5) = 416,965,528 subsets, which the pruned search never
    # builds; the whole test takes about 0.7 s on a 2-core box
    m = 140
    spec = tmp_path / "pool.spec"
    spec.write_text(
        f"num_models = {m}\nfeature_dim = 4\nsource_classes = 3\n"
        "target_classes = 3\nsamples = 24\nseed = 1\n"
        f"domain_shift = {';'.join(repr(1.5 * r / (m - 1)) for r in range(m))}\n"
        f"prediction_noise = {';'.join(repr(0.4 * r / (m - 1)) for r in range(m))}\n")
    pool = tmp_path / "pool" / "pool.json"
    cache = tmp_path / "cache.csv"
    assert cli.main(["synth", "--spec", str(spec), "--out", str(pool.parent)]) == 0
    assert cli.main(["pairwise", "--pool", str(pool), "--out", str(cache)]) == 0
    final = {}
    for strategy in ("greedy", "exhaustive"):
        out = tmp_path / f"{strategy}.csv"
        assert cli.main(["select", "--pool", str(pool), "--cache", str(cache),
                         "--k", "5", "--strategy", strategy, "--out", str(out)]) == 0
        final[strategy] = float(out.read_text().splitlines()[-2].split(",")[3])
    assert final["exhaustive"] >= final["greedy"]


def test_module_runs_as_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "osborn.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "pairwise" in proc.stdout


# ---------------------------------------------------------------------------
# degenerate pools
# ---------------------------------------------------------------------------


def _write_pool(root, models, target_labels, target_classes):
    """Write a pool directory from ``models``, a dict from model id to
    (source features, source labels, source classes, target features,
    target predictions); returns the manifest path."""
    records = tuple(
        ModelRecord(mid, np.array(xs, dtype=float), LabelVector(np.array(ys), cs),
                    np.array(xt, dtype=float), PredictionVector(np.array(preds), cs))
        for mid, (xs, ys, cs, xt, preds) in models.items())
    return write_pool(PoolManifest(records, LabelVector(np.array(target_labels),
                                                        target_classes)), root)


def _features(seed, n):
    return np.random.default_rng(seed).normal(size=(n, 2))


# (models, target labels, target classes) per degenerate pool, and the exit
# codes of pairwise, greedy select, exhaustive select, score
# --proxy-accuracy and eval on it, under either regularizer.  Every k = 1
# ranking of the first three pools has one alpha, so eval's correlation is
# undefined (2); one model gives eval a single ranking row (1).
_POINT = [[1.0, 1.0]] * 6
DEGENERATE_POOLS = {
    "coincident-points": (
        {"a": (_POINT, [0, 1] * 3, 2, _POINT, [0, 1, 0, 1, 0, 1]),
         "b": (_POINT, [0, 1] * 3, 2, _POINT, [1, 1, 0, 0, 1, 0])},
        [0, 1] * 3, 2, (0, 0, 0, 0, 2)),
    "one-target-class": (
        {"a": (_features(1, 6), [0, 1] * 3, 2, _features(2, 6), [0, 1, 0, 1, 0, 1]),
         "b": (_features(3, 6), [0, 1] * 3, 2, _features(4, 6), [1, 1, 0, 0, 1, 0])},
        [0] * 6, 1, (0, 0, 0, 0, 2)),
    "one-source-class": (
        {"a": (_features(5, 6), [0] * 6, 1, _features(6, 6), [0] * 6),
         "b": (_features(7, 6), [0] * 6, 1, _features(8, 6), [0] * 6)},
        [0, 1] * 3, 2, (0, 0, 0, 0, 2)),
    "one-model": (
        {"a": (_features(9, 6), [0, 1] * 3, 2, _features(10, 6), [0, 1, 0, 1, 1, 1])},
        [0, 1] * 3, 2, (0, 0, 0, 0, 1)),
    "one-sample": (
        {"a": (_features(11, 1), [0], 2, _features(12, 1), [0]),
         "b": (_features(13, 1), [0], 2, _features(14, 1), [1])},
        [0], 2, (0, 0, 0, 0, 0)),
}


@pytest.mark.parametrize("regularizer", ["entropic", "frobenius"])
@pytest.mark.parametrize("name", sorted(DEGENERATE_POOLS))
def test_degenerate_pools_give_a_value_or_a_clean_exit(tmp_path, capsys, name,
                                                       regularizer):
    models, target_labels, target_classes, codes = DEGENERATE_POOLS[name]
    pool = str(_write_pool(tmp_path / "pool", models, target_labels, target_classes))
    cache, ranks = str(tmp_path / "cache.csv"), str(tmp_path / "ranks.csv")
    stages = [
        ["pairwise", "--pool", pool, "--regularizer", regularizer, "--out", cache],
        ["select", "--pool", pool, "--cache", cache, "--k", "1",
         "--out", str(tmp_path / "greedy.csv")],
        ["select", "--pool", pool, "--cache", cache, "--k", "1",
         "--strategy", "exhaustive", "--out", str(tmp_path / "exhaustive.csv")],
        ["score", "--pool", pool, "--cache", cache, "--k", "1",
         "--proxy-accuracy", "--out", ranks],
        ["eval", "--rankings", ranks, "--out", str(tmp_path / "report.csv")],
    ]
    got = []
    for argv in stages:
        got.append(cli.main(argv))
        err = capsys.readouterr().err
        assert got[-1] in (0, 1, 2)
        assert "Traceback" not in err
    assert tuple(got) == codes
