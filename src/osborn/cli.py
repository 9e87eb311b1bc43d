"""Command-line pipeline: generate pools, cache terms, select, score, evaluate.

Typical flow::

    osborn synth    --spec pool.spec --out pooldir
    osborn pairwise --pool pooldir/pool.json --out cache.csv
    osborn select   --pool pooldir/pool.json --cache cache.csv --k 3 --out sel.csv
    osborn score    --pool pooldir/pool.json --cache cache.csv --k 3 \
                    --proxy-accuracy --out rankings.csv
    osborn eval     --rankings rankings.csv --out report.csv

Exit codes: 0 success, 1 bad input or usage, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import data_io, evaluation, metrics, selection, synth
from .errors import ComputationError, ValidationError


def _add_config_flags(p, epsilon=False, regularizer=False, seed=False,
                      weights=False, standardize=False):
    p.add_argument("--config", help="key = value config file")
    if epsilon:
        p.add_argument("--epsilon", type=float,
                       help="regularization strength as a multiple of the median cost")
    if regularizer:
        p.add_argument("--regularizer", choices=list(data_io.REGULARIZERS))
    if seed:
        p.add_argument("--seed", type=int, help="base seed for subsampling")
    if weights:
        p.add_argument("--weights",
                       help="lambda_d,lambda_t,lambda_c (default 1,1,1)")
    if standardize:
        p.add_argument("--standardize", choices=["true", "false"],
                       help="z-score terms across the pool before combining")


def _resolve_config(args) -> data_io.TEConfig:
    cfg = data_io.read_config(args.config) if getattr(args, "config", None) \
        else data_io.TEConfig()
    overrides = {key: getattr(args, key) for key in ("epsilon", "regularizer", "seed")
                 if getattr(args, key, None) is not None}
    if getattr(args, "weights", None) is not None:
        try:
            d, t, c = map(float, args.weights.split(","))
        except ValueError as exc:
            raise ValidationError("--weights expects three comma-separated reals") from exc
        overrides.update(lambda_d=d, lambda_t=t, lambda_c=c)
    if getattr(args, "standardize", None) is not None:
        overrides["standardize"] = args.standardize == "true"
    return dataclasses.replace(cfg, **overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osborn",
        description="Transferability estimation and ensemble selection "
                    "for pools of pre-trained models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pairwise", help="compute and cache per-model and "
                                        "per-pair terms for a pool")
    p.add_argument("--pool", required=True, help="pool manifest (JSON)")
    _add_config_flags(p, epsilon=True, regularizer=True, seed=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True, help="cache CSV to write")

    p = sub.add_parser("select", help="pick an ensemble of size k")
    p.add_argument("--pool", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--strategy", choices=["greedy", "exhaustive"], default="greedy")
    _add_config_flags(p, weights=True, standardize=True)
    p.add_argument("--out", required=True, help="selection trace CSV to write")

    p = sub.add_parser("score", help="score every size-k ensemble")
    p.add_argument("--pool", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_config_flags(p, weights=True, standardize=True)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--proxy-accuracy", action="store_true",
                   help="also record each ensemble's majority-vote accuracy "
                        "against the pool's target labels")
    p.add_argument("--out", required=True, help="rankings CSV to write")

    p = sub.add_parser("eval", help="correlation report of proxy scores against accuracy")
    p.add_argument("--rankings", required=True, help="rankings CSV with accuracy")
    p.add_argument("--out", required=True, help="report CSV to write")

    p = sub.add_parser("synth", help="generate a synthetic pool directory")
    p.add_argument("--spec", required=True, help="pool spec file")
    p.add_argument("--seed", type=int, help="override the spec's seed")
    p.add_argument("--out", required=True, help="directory to write the pool into")

    return parser


def _warn_unconverged(cache) -> None:
    """One stderr line for each model whose cached terms come from a
    transport solve that did not converge."""
    for mid, converged in zip(cache.ids, cache.converged):
        if not converged:
            print(f"warning: model '{mid}': transport solve did not converge; "
                  "its W_D and W_T are not converged values", file=sys.stderr)


def cmd_pairwise(args) -> int:
    cfg = _resolve_config(args)
    pool = data_io.load_pool(args.pool)
    cache = metrics.build_pairwise_cache(pool, cfg, threads=args.threads)
    metrics.write_cache(cache, args.out)
    _warn_unconverged(cache)
    return 0


def cmd_select(args) -> int:
    cfg = _resolve_config(args)
    pool = data_io.load_pool_predictions(args.pool)
    cache = metrics.read_cache(args.cache)
    _warn_unconverged(cache)
    select = {"greedy": selection.greedy_select,
              "exhaustive": selection.exhaustive_trace}[args.strategy]
    trace = select(pool, args.k, cache, cfg)
    selection.write_selection(trace, args.out)
    return 0


def cmd_score(args) -> int:
    cfg = _resolve_config(args)
    pool = data_io.load_pool_predictions(args.pool)
    cache = metrics.read_cache(args.cache)
    _warn_unconverged(cache)
    ids, combos, values = selection.score_all(pool, args.k, cache, cfg)
    accuracy = synth.proxy_accuracy(ids, combos, pool) if args.proxy_accuracy \
        else None
    # alpha = -osborn value: higher alpha predicts better transfer
    data_io.write_scores(ids, combos, -values, accuracy, args.out)
    return 0


def cmd_eval(args) -> int:
    _, alpha, accuracy = data_io.read_scores(args.rankings, ensembles=False)
    report = evaluation.evaluate(alpha, accuracy)
    evaluation.write_report(report, args.out)
    return 0


def cmd_synth(args) -> int:
    spec = synth.read_synth_spec(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    synth.generate(spec, args.out)
    return 0


_COMMANDS = {
    "pairwise": cmd_pairwise,
    "select": cmd_select,
    "score": cmd_score,
    "eval": cmd_eval,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; usage problems
        # are input problems here
        return 0 if not exc.code else 1
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ComputationError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
