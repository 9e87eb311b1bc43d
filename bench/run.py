"""Benchmark of the osborn pipeline: synth, then pairwise -> select -> score -> eval.

Run from the repository root:

    python3 bench/run.py --workload wide-pool --seed 1 --seconds 35 --trace 0

Every stage is driven through ``osborn.cli.main`` with the argv a user would
type, in this process, which has already imported the package.  A run
repeats passes until ``--seconds`` have passed; each pass sets up the
workload's pool with ``synth`` and runs the pipeline on it.  The run reports
the median of each stage.  Every output is checked (see checks.py).  With
``--trace 1`` the stages run in forked children with every layer wrapped
(see tracing.py) and the per-layer metrics are reported instead.

Progress goes to stderr; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  See README.md for the
workloads and metrics.
"""

import os

# One BLAS/OpenMP thread in the measured process; must precede numpy's import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from time import perf_counter  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
try:
    import numpy as np
    from osborn import cli

    import checks
    import tracing
except ModuleNotFoundError as exc:
    sys.exit(f"error: cannot import the osborn package from {SRC}: {exc}")

# set-up repeats at the start of every pass until this many seconds have
# passed, so that its samples spread over the run like the stages' do
SETUP_SECONDS = 0.5
STAGES = ("pairwise", "select", "score", "eval")


@dataclass(frozen=True)
class Workload:
    models: int
    samples: int
    dim: int
    classes: int
    strategy: str
    select_k: int
    score_k: int
    config: dict = field(default_factory=dict)
    # select -> score -> eval rounds per pairwise cache: cheap stages get
    # enough samples per run for a steady median
    rounds: int = 1
    # a fixed pool seed keeps the inputs of the solves the program fails on
    # independent of --seed
    pool_seed: int = None

    @property
    def domain_shift(self):
        return tuple(1.5 * r / (self.models - 1) for r in range(self.models))

    @property
    def prediction_noise(self):
        return tuple(0.4 * r / (self.models - 1) for r in range(self.models))


# Domain shift and prediction noise both grow with the model index, so the
# pools have a known best ensemble.  See README.md for why each workload.
WORKLOADS = {
    # many small solves and pairs; exhaustive select and eval dominate
    "wide-pool": Workload(
        models=32, samples=200, dim=8, classes=4, strategy="exhaustive",
        select_k=5, score_k=3),
    # the only route through the Frobenius solver
    "frobenius-solve": Workload(
        models=12, samples=300, dim=8, classes=4, strategy="greedy",
        select_k=3, score_k=3, config={"regularizer": "frobenius"}, rounds=10,
        pool_seed=7),
}

END_TO_END = {"setup_s": "s", "pairwise_s": "s", "select_s": "s", "rank_s": "s",
              "pipeline_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "ot_core.solve.s": "s", "ot_core.solve.calls": "count",
    "ot_core.solve.iters": "count", "ot_core.solve.ms_per_iter": "ms",
    "ot_core.solve.cells": "count", "ot_core.solve.converged": "count",
    "ot_core.solve.residual_max": "mass",
    "ot_core.cost_matrix.s": "s", "data_io.stratified_indices.s": "s",
    "data_io.load_pool.s": "s", "data_io.load_pool.calls": "count",
    "data_io.values_parsed": "count", "synth.generate.s": "s",
    "metrics.joint_task.s": "s", "metrics.cohesion_pair.s": "s",
    "metrics.cohesion_pair.calls": "count", "metrics.cache_io.s": "s",
    "metrics.effective_terms.s": "s", "selection.select.s": "s",
    "selection.subsets": "count", "selection.score_all.s": "s",
    "synth.proxy_accuracy.s": "s", "synth.proxy_accuracy.calls": "count",
    "data_io.scores_io.s": "s", "evaluation.evaluate.s": "s",
    "evaluation.weighted_kendall_tau.s": "s", "evaluation.n_pairs": "count",
    **{f"cli.{st}.{m}": u for st in STAGES
       for m, u in (("s", "s"), ("self_s", "s"), ("peak_rss_mb", "MB"))},
    "host.ref_s": "s", "trace.overhead_s": "s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def write_inputs(work, wl, seed):
    """The pool spec and run config a user would write for this workload."""
    spec = os.path.join(work, "pool.spec")
    with open(spec, "w", encoding="utf-8") as fh:
        fh.write(
            f"num_models = {wl.models}\nfeature_dim = {wl.dim}\n"
            f"source_classes = {wl.classes}\ntarget_classes = {wl.classes}\n"
            f"samples = {wl.samples}\nseed = {seed}\n"
            f"domain_shift = {';'.join(repr(x) for x in wl.domain_shift)}\n"
            f"prediction_noise = {';'.join(repr(x) for x in wl.prediction_noise)}\n")
    config = os.path.join(work, "run.config")
    with open(config, "w", encoding="utf-8") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in wl.config.items())
    return spec, config


def digest_dir(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


_REF = np.random.default_rng(0).standard_normal((256, 256)) / 16.0


def ref_kernel():
    """Seconds for a fixed exp + matmul workload; tracks host speed only."""
    t0 = perf_counter()
    x = _REF
    for _ in range(40):
        x = np.exp(-np.abs(x)) @ _REF
    return perf_counter() - t0


class Runner:
    def __init__(self, name, seed, work, tracer):
        self.name = name
        self.wl = WORKLOADS[name]
        self.tracer = tracer
        # seeds both the pool and the pairwise subsampling
        self.seed = seed if self.wl.pool_seed is None else self.wl.pool_seed
        self.spec, self.config = write_inputs(work, self.wl, self.seed)
        self.pool_dir = os.path.join(work, "pool")
        self.pool = os.path.join(self.pool_dir, "pool.json")
        self.out = {st: os.path.join(work, f"{st}.csv") for st in STAGES}
        self.ref = None
        self.digest = None
        self.setup_s = []
        self.setup_layers = []  # synth.generate seconds, when traced
        self.ref_s = []
        self.failures = []  # (stage, errors) for every stage that failed

    def argv(self, stage):
        wl, out = self.wl, self.out
        common = ["--pool", self.pool, "--cache", out["pairwise"], "--config", self.config]
        return {
            "pairwise": ["pairwise", "--pool", self.pool, "--config", self.config,
                         "--seed", str(self.seed), "--threads", "1",
                         "--out", out["pairwise"]],
            "select": ["select", *common, "--k", str(wl.select_k),
                       "--strategy", wl.strategy, "--out", out["select"]],
            "score": ["score", *common, "--k", str(wl.score_k), "--threads", "1",
                      "--proxy-accuracy", "--out", out["score"]],
            "eval": ["eval", "--rankings", out["score"], "--out", out["eval"]],
        }[stage]

    def setup(self):
        """Generate the pool at least once and until SETUP_SECONDS have
        passed, checking that every repetition writes the same bytes."""
        t_start = perf_counter()
        while not self.setup_s or perf_counter() - t_start < SETUP_SECONDS:
            if self.tracer:
                self.tracer.reset()
            t0 = perf_counter()
            rc = cli.main(["synth", "--spec", self.spec, "--out", self.pool_dir])
            self.setup_s.append(perf_counter() - t0)
            if self.tracer:
                self.setup_layers.append(self.tracer.sums["synth.generate.s"])
            if rc != 0:
                raise SystemExit(f"synth exited {rc}")
            digest = digest_dir(self.pool_dir)
            if self.digest not in (None, digest):
                raise SystemExit("synth wrote different pools from one spec")
            self.digest = digest
        if self.ref is None:
            self.ref = checks.Reference(self.pool_dir, self.wl, self.seed)

    def run_stage(self, stage):
        """Returns (exit code or None, seconds, layer sums or None)."""
        argv = self.argv(stage)
        if self.tracer:
            rc, seconds, sums, peak = tracing.run_forked(self.tracer, cli.main, argv)
            sums = dict(sums, peak_rss_mb=peak)
            return rc, seconds, sums
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        return rc, perf_counter() - t0, None

    def check(self, stage, cache):
        ref, out = self.ref, self.out
        if stage == "pairwise":
            return checks.check_cache(cache, ref)
        if stage == "select":
            return checks.check_selection(out["select"], cache, ref, self.wl)
        if stage == "score":
            return checks.check_rankings(out["score"], cache, ref)
        return checks.check_report(out["eval"], out["score"])

    def one_pass(self):
        """Run pairwise once, then select -> score -> eval ``rounds`` times
        on its cache.

        Returns ``(samples, ops, failed)`` with one sample per complete
        round: ``(times, layers)``, each keyed by stage, holding the pass's
        pairwise stage and that round's other three.
        """
        self.setup()
        self.ref_s.append(ref_kernel())
        for path in self.out.values():
            if os.path.exists(path):
                os.remove(path)
        done = []
        ops = failed = 0
        cache = None
        broken = False
        for stage in ("pairwise",) + STAGES[1:] * self.wl.rounds:
            ops += 1
            if broken:
                failed += 1
                continue
            rc, seconds, sums = self.run_stage(stage)
            errors = [f"exit code {rc}"] if rc != 0 else []
            if not errors:
                try:
                    if stage == "pairwise":
                        cache = checks.read_cache(self.out["pairwise"], self.ref)
                    errors = self.check(stage, cache)
                except Exception as exc:  # a malformed output is a failed check
                    errors = [f"unreadable output: {exc!r}"]
            if errors:
                failed += 1
                broken = True
                self.failures.append((stage, errors))
                log(f"{self.name}: {stage} failed: " + "; ".join(errors))
            else:
                done.append((stage, seconds, sums))
        m = self.wl.models
        ops += m
        if cache is None or len(cache["converged"]) != m:
            failed += m
        else:
            failed += sum(not c for c in cache["converged"].values())
        samples = []
        for i in range(1, len(done) - 2, 3):
            stages = [done[0]] + done[i:i + 3]
            samples.append(({st: t for st, t, _ in stages}, {st: lay for st, _, lay in stages}))
        return samples, ops, failed


def end_to_end(setup_times, samples):
    med = statistics.median
    times = [t for t, _ in samples]
    return {
        "setup_s": med(setup_times),
        "pairwise_s": med(t["pairwise"] for t in times),
        "select_s": med(t["select"] for t in times),
        "rank_s": med(t["score"] + t["eval"] for t in times),
        "pipeline_s": med(sum(t.values()) for t in times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(setup_layers, samples, ref_s):
    rows = []
    for times, layers in samples:
        row = {}
        overhead = 0.0
        for stage in STAGES:
            sums = layers[stage]
            for key, value in sums.items():
                if key == "ot_core.solve.residual_max":
                    row[key] = max(row.get(key, 0.0), value)
                elif not key.startswith(("trace.", "peak_rss_mb")):
                    row[key] = row.get(key, 0.0) + value
            row[f"cli.{stage}.s"] = times[stage]
            row[f"cli.{stage}.self_s"] = times[stage] - sums.get("trace.top_s", 0.0)
            row[f"cli.{stage}.peak_rss_mb"] = sums["peak_rss_mb"]
            overhead += sums.get("trace.overhead_s", 0.0)
        iters = row.get("ot_core.solve.iters", 0.0)
        row["ot_core.solve.ms_per_iter"] = (
            1e3 * row.get("ot_core.solve.s", 0.0) / iters if iters else 0.0)
        row["trace.overhead_s"] = overhead
        rows.append(row)
    out = {name: statistics.median(r.get(name, 0.0) for r in rows) for name in PER_LAYER}
    out["synth.generate.s"] = statistics.median(setup_layers)
    out["host.ref_s"] = statistics.median(ref_s)
    return out


def run(name, seed, seconds, trace, work):
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    runner = Runner(name, seed, work, tracer)
    samples = []
    passes = attempted = failed = 0
    t0 = perf_counter()
    while not passes or perf_counter() - t0 < seconds:
        new, ops, bad = runner.one_pass()
        passes += 1
        attempted += ops
        failed += bad
        samples += new
        log(f"{name}: pass {passes} failed={bad}/{ops} " + " ".join(
            f"{st}={statistics.median(t[st] for t, _ in new):.4f}"
            for st in STAGES if new))
    if not samples:
        log(f"{name}: no pipeline round completed; no metrics to report")
        return None
    # unconverged solves are failed operations, not wrong outputs: a run is
    # correct when every stage ran and passed its checks
    correct = not runner.failures
    if trace:
        values = per_layer(runner.setup_layers, samples, runner.ref_s)
        units = PER_LAYER
    else:
        values = end_to_end(runner.setup_s, samples)
        units = END_TO_END
        log(f"{name}: {len(runner.setup_s)} set-ups, host.ref_s "
            f"{statistics.median(runner.ref_s):.4f}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    work = os.path.join(os.getcwd(), ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
