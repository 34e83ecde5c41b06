"""The benchmark's traced invocation (`perfbench/child.py` with a trace
directory) still runs and still attributes time to the engine.

The tracer patches sgmlab functions by name, so a refactor that renames or
bypasses one of them would silently empty the per-layer figures; this runs
one tiny two-worker `sgmlab run` the way the benchmark does and checks that
the main process recorded the pool's span, that the pool workers recorded
engine, update-kernel, noise, gradient and projection spans, and one update
and one projection per step. A one-worker run with a recursion bound checks
that the CLI calls the bound function the tracer put in `bounds`, and a
one-worker run of three noise tiles draws on helper threads under the
tracer.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
HORIZON = 20


def _traced_run(tmp_path, workers, **changes) -> dict:
    """The main process's stats of one traced `sgmlab run`."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "problem": {"quadratic": {"hessian_diag": [1.0, 1.0],
                                  "theta_star": [0.0, 0.0]}},
        "domain": {"ball": {"center": [0.0, 0.0], "radius": 2.0}},
        "noise": {"gaussian": {"sigma2": 1.0}},
        "variant": "sg",
        "step": {"polynomial": {"gamma": 1.0, "alpha": 1.0}},
        "momentum": {"zero": {}},
        "theta0": [1.0, 0.0],
        "horizon": HORIZON,
        "replicates": 4,
        **changes,
    }))
    stats, trace_dir = tmp_path / "stats.json", tmp_path / "trace"
    trace_dir.mkdir()
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(stats), str(trace_dir), "run",
         "--config", str(config), "--out", str(tmp_path / "out"),
         "--workers", str(workers)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    main = json.loads(stats.read_text())
    assert main["exit_code"] == 0
    return main


def test_traced_pool_run_records_engine_spans(tmp_path):
    main = _traced_run(tmp_path, workers=2)
    trace_dir = tmp_path / "trace"
    # the pool the engine entered is the tracer's: without its span the
    # benchmark's pool start-up figure reads 0
    assert "harness.pool" in {span[0] for span in main["trace"]["spans"]}
    workers = [json.loads(p.read_text())
               for p in trace_dir.glob("worker-*.json")]
    assert len(workers) == 2
    for record in workers:
        names = {span[0] for span in record["spans"]}
        assert {"harness._run_block", "optimizers.step"} <= names
        # the noise, gradient and projection layers keep their own spans
        assert {"problems.noise", "problems.grad",
                "geometry.project"} <= names
        # one update and one projection per step: a fast path that
        # bypassed Ball.project would empty the projection layer
        counts = record["counts"]
        assert counts["optimizers.step.calls"] == HORIZON
        assert counts["geometry.project.calls"] == HORIZON


def test_traced_run_records_the_recursion_span(tmp_path):
    # A table of the bound functions bound at import would bypass the
    # tracer's replacements and leave the benchmark's bounds.recursion_s at 0.
    main = _traced_run(tmp_path, workers=1, variant="sgm",
                       recursion_bound={"kind": "sgm"})
    assert "bounds.recursion" in {span[0] for span in main["trace"]["spans"]}


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0))
                    < 2, reason="one CPU: the noise is drawn on one lane")
def test_traced_run_on_two_lanes_records_noise_spans(tmp_path):
    # 130 replicates are three 64-replicate tiles, so a one-worker run on
    # two CPUs draws each chunk on two threads, both through the tracer's
    # wrapper of the noise draw.
    main = _traced_run(tmp_path, workers=1, replicates=130)
    names = [span[0] for span in main["trace"]["spans"]]
    assert names.count("problems.noise") == 130
