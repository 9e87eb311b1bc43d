"""Per-layer timing for the benchmark's traced mode.

Layers are timed from outside: ``Tracer.install`` replaces each public
function at the name its caller looks up (``osborn.metrics.sinkhorn``, not
only ``osborn.ot_core.sinkhorn``) with a wrapper that adds the call's wall
time and counts to ``Tracer.sums``.  ``run_forked`` runs one CLI stage in a
forked child, so that the child's peak RSS is that stage's alone, and brings
the child's sums back through a pipe.
"""

from __future__ import annotations

import json
import math
import os
import sys
import traceback
from collections import defaultdict
from time import perf_counter

import numpy as np

import osborn.data_io
import osborn.evaluation
import osborn.metrics
import osborn.selection
import osborn.synth


def _solve_stats(sums, args, kwargs, coupling):
    marg = args[1]  # metrics._solve_transport passes (cost, marginals, ...)
    plan = coupling.plan
    res = max(float(np.abs(plan.sum(axis=1) - marg.source).max()),
              float(np.abs(plan.sum(axis=0) - marg.target).max()))
    sums["ot_core.solve.iters"] += coupling.iterations_used
    sums["ot_core.solve.cells"] += plan.size
    sums["ot_core.solve.converged"] += bool(coupling.converged)
    sums["ot_core.solve.residual_max"] = max(sums["ot_core.solve.residual_max"], res)


def _pool_stats(sums, args, kwargs, pool):
    parsed = len(pool.target_labels)
    for rec in pool.models:
        parsed += rec.source_features.size + rec.target_features.size
        parsed += len(rec.source_labels) + len(rec.target_predictions)
    sums["data_io.values_parsed"] += parsed


def _select_stats(sums, args, kwargs, out):
    m = len(args[2].wd)
    k = int(args[1])
    if isinstance(out, tuple):  # exhaustive_select returns (candidate, f)
        sums["selection.subsets"] += math.comb(m, k)
    else:
        sums["selection.subsets"] += sum(m - s for s in range(k))


def _eval_stats(sums, args, kwargs, report):
    sums["evaluation.n_pairs"] += report.n_pairs


# (module, attribute, layer name, extra counts from the call)
WRAPPED = [
    (osborn.metrics, "sinkhorn", "ot_core.solve", _solve_stats),
    (osborn.metrics, "sinkhorn_frobenius", "ot_core.solve", _solve_stats),
    (osborn.metrics, "cost_matrix", "ot_core.cost_matrix", None),
    (osborn.metrics, "stratified_indices", "data_io.stratified_indices", None),
    (osborn.data_io, "load_pool", "data_io.load_pool", _pool_stats),
    (osborn.synth, "generate", "synth.generate", None),
    (osborn.metrics, "joint_from_coupling", "metrics.joint_task", None),
    (osborn.metrics, "w_task", "metrics.joint_task", None),
    (osborn.metrics, "cohesion_pair", "metrics.cohesion_pair", None),
    (osborn.metrics, "write_cache", "metrics.cache_io", None),
    (osborn.metrics, "read_cache", "metrics.cache_io", None),
    (osborn.metrics, "effective_terms", "metrics.effective_terms", None),
    (osborn.selection, "effective_terms", "metrics.effective_terms", None),
    (osborn.selection, "greedy_select", "selection.select", _select_stats),
    (osborn.selection, "exhaustive_select", "selection.select", _select_stats),
    (osborn.selection, "score_all", "selection.score_all", None),
    (osborn.synth, "proxy_accuracy", "synth.proxy_accuracy", None),
    (osborn.data_io, "write_scores", "data_io.scores_io", None),
    (osborn.data_io, "read_scores", "data_io.scores_io", None),
    (osborn.evaluation, "evaluate", "evaluation.evaluate", _eval_stats),
    (osborn.evaluation, "weighted_kendall_tau", "evaluation.weighted_kendall_tau", None),
]


class Tracer:
    """Sums of wall time and counts per layer since the last ``reset``.

    ``sums["trace.top_s"]`` is the time covered by outermost spans, which a
    stage's self time excludes; ``sums["trace.overhead_s"]`` is the time the
    wrappers spend outside the calls they time.
    """

    def __init__(self):
        self.depth = 0
        self.sums = defaultdict(float)

    def reset(self):
        self.sums = defaultdict(float)

    def install(self):
        for module, attr, name, stats in WRAPPED:
            setattr(module, attr, self._wrap(getattr(module, attr), name, stats))

    def _wrap(self, fn, name, stats):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            self.depth += 1
            try:
                t1 = perf_counter()
                out = fn(*args, **kwargs)
                dt = perf_counter() - t1
            finally:
                self.depth -= 1
            sums = self.sums
            sums[name + ".s"] += dt
            sums[name + ".calls"] += 1
            if self.depth == 0:
                sums["trace.top_s"] += dt
            if stats is not None:
                stats(sums, args, kwargs, out)
            sums["trace.overhead_s"] += perf_counter() - t0 - dt
            return out
        return wrapper


def run_forked(tracer, main, argv):
    """Run ``main(argv)`` in a forked child with the tracer reset.

    Returns ``(exit code, stage seconds, layer sums, peak RSS in MB)``; the
    exit code is None when the stage raised instead of returning.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            tracer.reset()
            rc = None
            t0 = perf_counter()
            try:
                rc = main(argv)
            except Exception:
                traceback.print_exc()
            seconds = perf_counter() - t0
            with os.fdopen(wfd, "w", encoding="utf-8") as fh:
                json.dump({"rc": rc, "s": seconds, "sums": tracer.sums}, fh)
        finally:
            sys.stderr.flush()
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd, "r", encoding="utf-8") as fh:
        payload = fh.read()
    _, _, usage = os.wait4(pid, 0)
    peak_mb = usage.ru_maxrss / 1024.0
    if not payload:
        return None, 0.0, {}, peak_mb
    doc = json.loads(payload)
    return doc["rc"], doc["s"], doc["sums"], peak_mb
