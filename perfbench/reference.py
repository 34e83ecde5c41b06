"""Fixed reference work, timed between sgmlab invocations to gauge the host.

Usage: python3 perfbench/reference.py

The shared host this benchmark runs on changes speed over seconds to
minutes, by up to a factor of two, and every kind of work it does slows
together. This script imports nothing from sgmlab, so no change to the
program changes its time. It does in miniature what the workloads do: start
an interpreter and import numpy, advance R replicates of a projected
stochastic gradient loop with one generator per replicate, run a narrow
per-step loop dominated by the interpreter, take mini-batch gradients by
gathering rows of a table about the size of the L2 cache, and parse and
scan a CSV row by row. run.py rescales each invocation's times by the
reference's time next to it.
"""

import csv
import io

import numpy as np


class _Iterate:
    __slots__ = ("step", "theta", "ok")

    def __init__(self, step, theta, ok):
        self.step, self.theta, self.ok = step, theta, ok


def wide(replicates=500, chunk=512, chunks=2, radius=2.0):
    """Per-replicate Gaussian draws, slice-and-add, ball projection."""
    gens = [np.random.default_rng([7, r]) for r in range(replicates)]
    theta = np.tile([1.0, 0.0], (replicates, 1))
    for _ in range(chunks):
        noise = np.stack([g.standard_normal((chunk, 2)) for g in gens], axis=1)
        for j in range(chunk):
            theta = theta - (theta + noise[j]) / (j + 2)
            norms = np.sqrt(np.einsum("rd,rd->r", theta, theta))
            theta = theta / np.maximum(1.0, norms / radius)[:, None]
    return theta


def narrow(steps=3000):
    """Small-array steps, each allocating an iterate record."""
    rng = np.random.default_rng(11)
    noise = rng.standard_normal((steps, 2, 2))
    theta, velocity, trail = np.ones((2, 2)), np.zeros((2, 2)), []
    for j in range(steps):
        grad = theta + 0.5 * np.sign(theta) + noise[j]
        if not np.isfinite(grad).all():
            raise FloatingPointError(j)
        velocity = 0.9 / (j + 1) * velocity - grad / (j + 1)
        theta = np.clip(theta + velocity, -2.0, 2.0)
        trail.append(_Iterate(j, theta, bool(np.isfinite(theta).all())))
    return trail[-1].theta


def gather(rows=20_000, dim=10, replicates=200, batch=8, steps=220):
    """Mini-batch least-squares gradients over a gathered row block."""
    rng = np.random.default_rng(13)
    X = rng.standard_normal((rows, dim))
    y = X @ np.linspace(-1.0, 1.0, dim)
    theta = np.zeros((replicates, dim))
    for j in range(steps):
        idx = rng.integers(0, rows, size=(replicates, batch))
        Xb = X[idx]
        resid = np.einsum("rbd,rd->rb", Xb, theta) - y[idx]
        theta -= np.einsum("rb,rbd->rd", resid, Xb) / (batch * (j + 10))
        np.clip(theta, -1.0, 1.0, out=theta)
    return theta


def load_and_scan(rows=3000, dim=10):
    """Parse a CSV of floats cell by cell, then a per-row loop of small
    numpy calls, as the ERM problem's set-up does."""
    rng = np.random.default_rng(17)
    text = "\n".join(",".join(repr(v) for v in row)
                     for row in rng.standard_normal((rows, dim + 1)).tolist())
    data = np.asarray([[float(cell) for cell in row]
                       for row in csv.reader(io.StringIO(text))])
    lower, upper = -np.ones(dim), np.ones(dim)
    worst = 0.0
    for x_i, y_i in zip(data[:, :-1], data[:, -1]):
        hi = float(np.where(x_i > 0, upper, lower) @ x_i)
        lo = float(np.where(x_i > 0, lower, upper) @ x_i)
        worst = max(worst, float(np.linalg.norm(x_i)) * max(abs(lo - y_i),
                                                            abs(hi - y_i)))
    return worst


if __name__ == "__main__":
    wide()
    narrow()
    gather()
    load_and_scan()
