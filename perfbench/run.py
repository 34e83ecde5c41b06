"""sgmlab benchmark: time to a checked Monte Carlo result, end to end and
layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: lemma1_wide, lemma1_pool, sgm_narrow, erm_minibatch (see
workloads.py and README.md). Each invocation of `sgmlab run` is a fresh
Python process started from this checkout's src/, one at a time; only
lemma1_pool starts worker processes (2 of them). Invocations repeat until
S seconds have passed; every one is checked, and medians are reported.

Before the first invocation and after each one, the run times
reference.py, a fixed piece of work that imports nothing from sgmlab. Every
time an invocation reports is rescaled by REFERENCE_S over the mean of the
two reference times beside it: seconds at the host speed at which the
reference takes REFERENCE_S. The host's speed drifts by up to a factor of
two over minutes and moves the program and the reference together, so the
rescaled times drift far less than the raw ones; the raw medians are
printed beside them. sgmlab itself runs with one BLAS thread.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced invocations and reports the per-layer metrics computed from the
traced ones, plus the tracing overhead. Metric names, units and bounds come
from BENCHMARK.json. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines above it give each
end-to-end metric's quartiles within the run and flag it as unresolved when
their spread exceeds its bound. Run records, with the manifest and, for
traced runs, every span, go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "sgmlab"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.py"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("lemma1_wide", "lemma1_pool", "sgm_narrow", "erm_minibatch")
MIN_INVOCATIONS = 3          # per kind of invocation in one run
# No invocation starts after this many seconds of a run, and none may take
# longer than the timeout, so a run ends well inside 180 s on a slow host.
STOP_STARTING_AFTER_S = 90
INVOCATION_TIMEOUT_S = 40
# The unit of every rescaled time: about reference.py's time on the 2-core
# Xeon the bounds were set on, where it took 0.35 to 0.6 s as the host drifted.
REFERENCE_S = 0.5
# One BLAS thread per process: the second core is shared with the host's
# other tenants, and a BLAS call spread over both waits on the slower one.
SINGLE_THREAD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
                     "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _declared_metrics() -> tuple:
    """End-to-end and per-layer metrics from BENCHMARK.json, checked against
    the prediction table, which must name exactly the per-layer metrics."""
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        predictions = json.loads((HERE / "predictions.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read the metric declarations: {exc}")
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    per_layer = {m["name"]: m for m in bench["per_layer"]}
    if set(predictions) != set(per_layer):
        raise BenchError("predictions.json and BENCHMARK.json per_layer name "
                         "different metrics: "
                         f"{sorted(set(predictions) ^ set(per_layer))}")
    return end_to_end, per_layer


# ---------------------------------------------------------------- invocations

def invoke(config_path: Path, out_dir: Path, inputs: workloads.Inputs,
           trace_dir: Path | None) -> dict:
    """Run one `sgmlab run` process; return its measurements and errors."""
    stats_path = out_dir.with_suffix(".stats.json")
    cmd = [sys.executable, str(CHILD), str(stats_path),
           str(trace_dir) if trace_dir else "-",
           "run", "--config", str(config_path), "--out", str(out_dir)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True,
                            env=SINGLE_THREAD_ENV)
    try:
        _, err = proc.communicate(timeout=INVOCATION_TIMEOUT_S)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)   # the worker processes too
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return {"errors": [f"timed out after {INVOCATION_TIMEOUT_S} s"]}
    if proc.returncode != 0 or not stats_path.exists():
        tail = err.decode(errors="replace").strip().splitlines()[-1:]
        return {"errors": [f"exit code {proc.returncode}: {' '.join(tail)}"]}
    stats = json.loads(stats_path.read_text())
    s = stats["stamps"]
    engine_s = s["engine_exit"] - s["engine_enter"]
    inv = {
        "errors": [],
        "traced": trace_dir is not None,
        "run_s": s["outputs_written"] - t0,
        "setup_s": s["engine_enter"] - t0,
        "engine_s": engine_s,
        "engine_steps_per_s": inputs.replicates * inputs.horizon / engine_s,
        "peak_rss_mb": stats["max_rss_kib"] * 1024 / 1e6,
        "output_s": s["outputs_written"] - s["engine_exit"],
        "digest": hashlib.sha256(
            (out_dir / "summary.csv").read_bytes()).hexdigest(),
    }
    if trace_dir is not None:
        inv["processes"] = [stats["trace"]] + [
            json.loads(p.read_text()) for p in sorted(trace_dir.glob("worker-*.json"))]
    return inv


def time_reference() -> float:
    """Seconds one run of reference.py takes, from spawn to exit."""
    t0 = time.monotonic()
    try:
        subprocess.run([sys.executable, str(REFERENCE)], check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                       timeout=INVOCATION_TIMEOUT_S, env=SINGLE_THREAD_ENV)
    except (OSError, subprocess.SubprocessError) as exc:
        raise BenchError(f"reference.py failed: {exc}")
    return time.monotonic() - t0


def rescale(values: dict, units: dict, reference_s: float) -> dict:
    """Times in `values` at the host speed where the reference takes
    REFERENCE_S; values in other units are left as they are."""
    factor = REFERENCE_S / reference_s
    scale = {"s": factor, "us": factor, "1/s": 1.0 / factor}
    return {k: v * scale[units[k]] if units.get(k) in scale else v
            for k, v in values.items()}


# ------------------------------------------------------------- trace metrics

def _self_times(spans: list) -> list:
    """Span duration minus the time its direct children and the tracer's
    wrappers around them cover."""
    own = [end - start - tracer_s for _, start, end, _, tracer_s in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(inv: dict, inputs: workloads.Inputs) -> dict:
    """Per-layer figures of one traced invocation, summed over its processes.

    Per-step figures divide by the horizon (one step advances all R
    replicates); in a pool run they add the workers' times.
    """
    self_s, incl_s, first_start = {}, {}, {}
    counts = {}
    pool_start = None
    for proc in inv["processes"]:
        for (name, start, end, _, _), own in zip(proc["spans"],
                                              _self_times(proc["spans"])):
            self_s[name] = self_s.get(name, 0.0) + own
            incl_s[name] = incl_s.get(name, 0.0) + end - start
            if proc["pool_worker"] or name != "harness._run_block":
                first_start[name] = min(first_start.get(name, start), start)
            if name == "harness.pool":
                pool_start = start
        for key, value in proc["counts"].items():
            counts[key] = counts.get(key, 0) + value

    def per_step(*names):
        return 1e6 * sum(self_s.get(n, 0.0) for n in names) / inputs.horizon

    noise_calls = counts.get("problems.noise.calls", 0)
    chunks = noise_calls / inputs.replicates
    rows = counts.get("geometry.project.rows", 0)
    return {
        "problems.noise.us_per_step": per_step("problems.noise"),
        "problems.noise.calls": noise_calls,
        "problems.noise.mb_per_chunk":
            counts.get("problems.noise.bytes", 0) / 1e6 / chunks if chunks else 0.0,
        "harness.self.us_per_step":
            per_step("harness.run_replicates", "harness._run_block"),
        "harness.init_s": (first_start["problems.noise"]
                           - first_start["harness.run_replicates"]),
        "optimizers.step.us_per_step": per_step("optimizers.step"),
        "optimizers.step.calls": counts.get("optimizers.step.calls", 0),
        "estimators.observe.us_per_step": per_step("estimators.observe"),
        "geometry.project.us_per_step": per_step("geometry.project"),
        "geometry.project.calls": counts.get("geometry.project.calls", 0),
        "geometry.project.active_frac":
            counts.get("geometry.project.rows_outside", 0) / rows if rows else 0.0,
        "problems.grad.us_per_step": per_step("problems.grad"),
        "problems.grad.mb_per_step":
            counts.get("problems.grad.bytes", 0) / 1e6 / inputs.horizon,
        "problems.build_s": incl_s.get("problems.build", 0.0),
        "problems.constants_s": incl_s.get("problems.constants", 0.0),
        "problems.constants.calls": counts.get("problems.constants.calls", 0),
        "geometry.support.calls": counts.get("geometry.support.calls", 0),
        "bounds.recursion_s": incl_s.get("bounds.recursion", 0.0),
        "schedules.validate_s": incl_s.get("schedules.validate", 0.0),
        "schedules.validate.calls": counts.get("schedules.validate.calls", 0),
        "harness.pool.start_s": (0.0 if pool_start is None else
                                 first_start["harness._run_block"] - pool_start),
        "cli.output_s": inv["output_s"],
    }


# ------------------------------------------------------------------ manifest

def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable ({exc})"
    return done.stdout.strip() or "unavailable"


def _cpu() -> tuple:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        label = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[label] = size
    return model, caches


def manifest(args, inputs: workloads.Inputs) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    model, caches = _cpu()
    return {"git_commit": _git_commit(), "source_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "cpu_model": model, "caches": caches,
            "python": platform.python_version(), "numpy": np.__version__,
            "start_method": multiprocessing.get_start_method(),
            "workload": args.workload, "seed": args.seed,
            "replicates": inputs.replicates, "horizon": inputs.horizon,
            "workers": inputs.workers, "seconds": args.seconds,
            "trace": args.trace}


# ----------------------------------------------------------------- the run

def _spread(values) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q[0],
            "q3": q[2], "min": min(values), "max": max(values)}


def measure(args, work: Path) -> dict:
    begin = time.monotonic()
    inputs = workloads.make_inputs(args.workload, args.seed, work)
    config = json.loads(inputs.config.read_text())
    subprocess.run([sys.executable, str(CHILD), "-", "-"], check=True,
                   timeout=INVOCATION_TIMEOUT_S)   # compile bytecode, untimed

    invocations = []
    references = [time_reference()]

    def run_one(kind, config_path, run_inputs):
        n = len(invocations)
        out_dir = work / f"out-{n}"
        trace_dir = work / f"trace-{n}" if kind == "traced" else None
        if trace_dir:
            trace_dir.mkdir()
        inv = invoke(config_path, out_dir, run_inputs, trace_dir)
        inv["kind"] = kind
        if not inv["errors"]:
            inv["errors"] = workloads.check_outputs(args.workload, out_dir, config)
        references.append(time_reference())
        inv["reference_s"] = (references[-2] + references[-1]) / 2
        invocations.append(inv)

    # Invocations take these kinds in turn until the time is up.
    cycle = [("untraced", inputs.config, inputs)]
    if args.trace:
        cycle.append(("traced", inputs.config, inputs))
    if args.workload == "lemma1_pool":
        # The same inputs on one worker: the pool's summary.csv must match it
        # byte for byte, and its throughput is the parallel-efficiency base.
        # A traced run interleaves it with the pool invocations, so that the
        # host's drift moves both sides of that ratio alike.
        one_path = work / "one_worker.json"
        one_path.write_text(json.dumps({**config, "workers": 1}))
        one_worker = ("one_worker", one_path,
                      workloads.Inputs(one_path, inputs.replicates,
                                       inputs.horizon, 1))
        if args.trace:
            cycle.append(one_worker)
        else:
            run_one(*one_worker)

    start = time.monotonic()
    deadline = start + args.seconds
    slots = 0
    while True:
        enough = all(sum(1 for i in invocations if i["kind"] == kind)
                     >= MIN_INVOCATIONS for kind, _, _ in cycle)
        now = time.monotonic()
        mean_s = (now - start) / max(slots, 1)
        if enough and now + mean_s > deadline:
            break
        if now - begin > STOP_STARTING_AFTER_S:
            break
        run_one(*cycle[slots % len(cycle)])
        slots += 1

    digests = {i["digest"] for i in invocations if "digest" in i}
    if len(digests) > 1:
        for inv in invocations:
            if "digest" in inv:
                inv["errors"].append("summary.csv differs between invocations "
                                     "of the same seed")
    return {"inputs": inputs, "invocations": invocations,
            "references": references}


def summarise(args, measured: dict, declared: tuple) -> tuple:
    end_to_end, per_layer = declared
    inputs = measured["inputs"]
    invocations = measured["invocations"]

    def passed(kind):
        return [i for i in invocations if i["kind"] == kind and not i["errors"]]

    untraced, traced = passed("untraced"), passed("traced")
    if not untraced or (args.trace and not traced):
        raise BenchError("no invocation completed its checks: "
                         + "; ".join(e for i in invocations for e in i["errors"]))
    missing = set(end_to_end) - set(untraced[0])
    if missing:
        raise BenchError(f"BENCHMARK.json names unmeasured metrics {sorted(missing)}")
    e2e_units = {k: d["unit"] for k, d in end_to_end.items()}
    for inv in invocations:
        if not inv["errors"]:
            inv["rescaled"] = rescale({k: inv[k] for k in end_to_end},
                                      e2e_units, inv["reference_s"])
    spreads = {}
    for key, decl in end_to_end.items():
        s = _spread([i["rescaled"][key] for i in untraced])
        s["spread"] = (s["q3"] - s["q1"]) / s["median"]
        s["bound"] = decl["bound"]
        s["unresolved"] = s["spread"] > decl["bound"]
        s["raw_median"] = statistics.median(i[key] for i in untraced)
        spreads[key] = s
    report = {"end_to_end": spreads,
              "reference_s": _spread(measured["references"])}
    if not args.trace:
        metrics = {k: spreads[k]["median"] for k in end_to_end}
        units = e2e_units
    else:
        layer_units = {k: d["unit"] for k, d in per_layer.items()}
        per_inv = [rescale(layer_metrics(i, inputs), layer_units, i["reference_s"])
                   for i in traced]
        metrics = {}
        for key in per_inv[0]:
            values = [m[key] for m in per_inv]
            if per_layer.get(key, {}).get("unit") == "count":
                if len(set(values)) > 1:
                    traced[0]["errors"].append(f"{key} differs between "
                                               f"traced invocations: {values}")
                metrics[key] = values[0]
            else:
                metrics[key] = statistics.median(values)
        one_worker = passed("one_worker")
        metrics["harness.pool.parallel_eff"] = (
            spreads["engine_steps_per_s"]["median"]
            / (2 * statistics.median(i["rescaled"]["engine_steps_per_s"]
                                     for i in one_worker))
            if one_worker else 0.0)
        metrics["trace.overhead_frac"] = (
            statistics.median(i["rescaled"]["run_s"] for i in traced)
            / spreads["run_s"]["median"] - 1)
        if set(metrics) != set(per_layer):
            raise BenchError("BENCHMARK.json per_layer and the traced metrics "
                             f"differ: {sorted(set(metrics) ^ set(per_layer))}")
        units = layer_units
        report["per_layer_by_invocation"] = per_inv
    failed = sum(1 for i in invocations if i["errors"])
    result = {"correct": failed == 0, "attempted": len(invocations),
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    return result, report


def write_record(args, inputs, measured, result, report):
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    invocations = measured["invocations"]
    spans = [{"run_id": n, "processes": inv.pop("processes")}
             for n, inv in enumerate(invocations) if "processes" in inv]
    record = {"manifest": manifest(args, inputs), "result": result,
              "report": report, "references_s": measured["references"],
              "invocations": invocations}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        with gzip.open(OUT / f"{stem}.spans.json.gz", "wt", compresslevel=1) as fh:
            json.dump(spans, fh)
    return record["manifest"]


def print_report(args, man, result, report):
    print(f"sgmlab benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print("manifest " + json.dumps(man, sort_keys=True))
    ref = report["reference_s"]
    print(f"reference.py took {ref['median']:.4g} s (median of {ref['n']}, "
          f"q1 {ref['q1']:.4g}, q3 {ref['q3']:.4g}); times below are rescaled "
          f"to {REFERENCE_S} s, raw medians beside them")
    print("end-to-end metrics over the run's untraced invocations; spread is "
          "(q3 - q1) / median, unresolved when it exceeds the bound")
    print(f"{'metric':<22}{'median':>13}{'q1':>13}{'q3':>13}{'spread':>8}"
          f"{'bound':>7}   n{'raw median':>13}")
    for key, s in report["end_to_end"].items():
        flag = "  unresolved" if s["unresolved"] else ""
        print(f"{key:<22}{s['median']:>13.6g}{s['q1']:>13.6g}{s['q3']:>13.6g}"
              f"{s['spread']:>8.3f}{s['bound']:>7.2f}{s['n']:>4}"
              f"{s['raw_median']:>13.6g}{flag}")
    print(f"{'fail_frac':<22}{result['failed'] / result['attempted']:>13.6g}"
          f"  ({result['failed']} of {result['attempted']} invocations)")
    if args.trace:
        for key, m in result["metrics"].items():
            print(f"{key:<34}{m['value']:>13.6g}  {m['unit']}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (it seeds numpy SeedSequence)")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so that the running invocation is killed
    # and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SOURCE / "cli.py").is_file():
        print(f"error: no sgmlab sources at {SOURCE}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        declared = _declared_metrics()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        measured = measure(args, work)
        result, report = summarise(args, measured, declared)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    man = write_record(args, measured["inputs"], measured, result, report)
    for inv in measured["invocations"]:
        for err in inv["errors"]:
            print(f"check failed ({inv['kind']}): {err}", file=sys.stderr)
    print_report(args, man, result, report)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
