"""Span tracer for one sgmlab process, installed from the benchmark's files.

`install` wraps public functions of each sgmlab module. Each wrapped call
records a span [name, start, end, parent index, tracer seconds] in memory.
Counters (calls, rows, computed byte counts) are taken at the same
boundaries from the call's arguments by a hook that runs before the span
starts. The wrapper's own time around a child span, the hook included, is
stored on the enclosing span as tracer seconds and left out of that span's
self time, so no layer is charged for the benchmark's tracing or counting.
Only the call into the wrapper and the final clock read stay in the parent.

Two private boundaries are wrapped as well, because a process pool crosses
them: `harness._run_block`, the per-worker engine entry, and the pool class
`harness` creates. Pool workers are forked with the wrappers in place; each
writes its spans to the trace directory when its block ends. The main
process hands its spans to child.py, which writes them at exit.

All times come from time.monotonic(), which on Linux is the system-wide
CLOCK_MONOTONIC, so spans from different processes share one time base.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter

import numpy as np

FLOAT_BYTES = 8


class Tracer:
    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.main_pid = os.getpid()
        self.spans = []
        self.stack = []
        self.counts = Counter()

    def record(self) -> dict:
        return {"pid": os.getpid(), "pool_worker": os.getpid() != self.main_pid,
                "spans": self.spans, "counts": dict(self.counts)}

    def open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.monotonic()
        return rec

    def close(self, rec: list):
        rec[2] = time.monotonic()
        self.stack.pop()

    def charge_parent(self, entry: float, rec: list):
        """Put a wrapper's time outside `rec`, from `entry` to now, on the
        enclosing span's tracer seconds."""
        if self.stack:
            self.spans[self.stack[-1]][4] += ((rec[1] - entry)
                                              + (time.monotonic() - rec[2]))

    def span(self, name: str, fn, before=None):
        """Wrap `fn` in a span; `before(counts, *args)` runs outside it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = time.monotonic()
            if before is not None:
                before(self.counts, *args)
            rec = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(rec)
                self.charge_parent(entry, rec)

        return traced

    def counter(self, key: str, fn):
        """Wrap `fn` with a call counter only; for calls too cheap to span.
        Its cost stays in the caller's self time."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def pool_block(self, fn):
        """Span for harness._run_block; in a pool worker, flush on return."""

        @functools.wraps(fn)
        def traced(config, rep_lo, rep_hi):
            entry = time.monotonic()
            in_worker = os.getpid() != self.main_pid
            if in_worker:   # drop the state inherited from the parent at fork
                self.spans, self.stack, self.counts = [], [], Counter()
            rec = self.open("harness._run_block")
            try:
                return fn(config, rep_lo, rep_hi)
            finally:
                self.close(rec)
                self.charge_parent(entry, rec)
                if in_worker:
                    path = os.path.join(self.trace_dir,
                                        f"worker-{os.getpid()}-{rep_lo}.json")
                    with open(path, "w") as fh:
                        json.dump(self.record(), fh)

        return traced


def _count_noise(counts, problem, rng, n_draws):
    counts["problems.noise.calls"] += 1
    counts["problems.noise.bytes"] += n_draws * problem.dimension * FLOAT_BYTES


def _count_minibatch(counts, problem, rng, n_draws):
    counts["problems.noise.calls"] += 1
    counts["problems.noise.bytes"] += (n_draws * problem.noise.batch_size
                                       * np.dtype(np.int64).itemsize)


def _count_subgradient(counts, problem, theta):
    # Reads theta, writes a gradient of the same shape.
    counts["problems.grad.bytes"] += 2 * np.asarray(theta).nbytes


def _count_per_sample(counts, problem, theta, indices):
    # Reads the indices and the gathered (x_i, y_i) rows, reads theta and
    # writes a gradient of the same shape.
    indices = np.asarray(indices)
    gathered = indices.size * (problem.dimension + 1) * FLOAT_BYTES
    counts["problems.grad.bytes"] += (indices.nbytes + gathered
                                      + 2 * np.asarray(theta).nbytes)


def _count_ball_project(counts, ball, point):
    point = np.asarray(point, dtype=float)
    outside = np.linalg.norm(point - ball.center, axis=-1) > ball.radius
    counts["geometry.project.calls"] += 1
    counts["geometry.project.rows"] += outside.size
    counts["geometry.project.rows_outside"] += int(np.count_nonzero(outside))


def _count_box_project(counts, box, point):
    point = np.asarray(point, dtype=float)
    outside = np.any((point < box.lower) | (point > box.upper), axis=-1)
    counts["geometry.project.calls"] += 1
    counts["geometry.project.rows"] += np.size(outside)
    counts["geometry.project.rows_outside"] += int(np.count_nonzero(outside))


def _counting(key):
    def before(counts, *args):
        counts[key] += 1
    return before


def install(tracer: Tracer):
    """Patch sgmlab's modules in this process. Call before sgmlab runs."""
    from sgmlab import (bounds, cli, estimators, geometry, harness, optimizers,
                        problems, schedules)

    span = tracer.span
    problems.noise_sample = span("problems.noise", problems.noise_sample,
                                 _count_noise)
    problems.minibatch_indices = span("problems.noise",
                                      problems.minibatch_indices,
                                      _count_minibatch)
    problems.subgradient_batch = span("problems.grad",
                                      problems.subgradient_batch,
                                      _count_subgradient)
    problems.ErmLeastSquares.per_sample_gradient = span(
        "problems.grad", problems.ErmLeastSquares.per_sample_gradient,
        _count_per_sample)
    for cls in (problems.Quadratic, problems.QuadPlusL1,
                problems.ErmLeastSquares):
        cls.constants = span("problems.constants", cls.constants,
                             _counting("problems.constants.calls"))
    geometry.Ball.project = span("geometry.project", geometry.Ball.project,
                                 _count_ball_project)
    geometry.Box.project = span("geometry.project", geometry.Box.project,
                                _count_box_project)
    for cls in (geometry.Ball, geometry.Box):
        cls.support = tracer.counter("geometry.support.calls", cls.support)
    optimizers.step = span("optimizers.step", optimizers.step,
                           _counting("optimizers.step.calls"))
    for cls in (estimators.Last, estimators.SuffixAverage,
                estimators.WeightedAverage):
        cls.observe = span("estimators.observe", cls.observe)
    traced_validate = span("schedules.validate", schedules.validate,
                           _counting("schedules.validate.calls"))
    schedules.validate = traced_validate
    harness.validate = traced_validate      # imported by name in harness
    bounds.sg_recursion_bound = span("bounds.recursion",
                                     bounds.sg_recursion_bound)
    bounds.sgm_recursion_bound = span("bounds.recursion",
                                      bounds.sgm_recursion_bound)
    cli.build_problem = span("problems.build", cli.build_problem)
    cli.run_replicates = span("harness.run_replicates", cli.run_replicates)
    harness._run_block = tracer.pool_block(harness._run_block)

    base_pool = harness.ProcessPoolExecutor

    class TracedPool(base_pool):
        def __enter__(self):
            self._trace_span = tracer.open("harness.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._trace_span)

    harness.ProcessPoolExecutor = TracedPool
