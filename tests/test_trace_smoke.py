"""The benchmark's traced invocation (`perfbench/child.py` with a trace
directory) still runs and still attributes time to the engine.

The tracer patches sgmlab functions by name, so a refactor that renames or
bypasses one of them would silently empty the per-layer figures; this runs
one tiny two-worker `sgmlab run` the way the benchmark does and checks that
the pool workers recorded engine, update-kernel, noise, gradient and
projection spans, and one update and one projection per step.
"""

import json
import subprocess
import sys
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
HORIZON = 20


def test_traced_pool_run_records_engine_spans(tmp_path):
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
    }))
    stats, trace_dir = tmp_path / "stats.json", tmp_path / "trace"
    trace_dir.mkdir()
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(stats), str(trace_dir), "run",
         "--config", str(config), "--out", str(tmp_path / "out"),
         "--workers", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(stats.read_text())["exit_code"] == 0
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
