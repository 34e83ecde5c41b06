"""One `sgmlab run` invocation in a fresh interpreter, started by run.py.

Usage: python3 perfbench/child.py STATS_JSON TRACE_DIR|- [sgmlab arguments]

Puts the checkout's src/ first on sys.path, stamps entry to and exit from
harness.run_replicates as the CLI calls it and the moment the CLI returns
with its outputs written, then writes the stamps, the exit code, the peak
resident set size and, when TRACE_DIR is given, the main process's spans to
STATS_JSON. Stamps use time.monotonic() so that run.py can subtract its own
pre-spawn stamp from them. With no sgmlab arguments it only imports sgmlab,
which compiles the bytecode before any timed invocation.
"""

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _own_peak_rss_kib() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv) -> int:
    stats_path, trace_dir, sgmlab_args = argv[0], argv[1], argv[2:]
    from sgmlab import cli

    if not sgmlab_args:
        return 0
    tracer = None
    if trace_dir != "-":
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer(trace_dir)
        tracer_mod.install(tracer)

    stamps = {}
    run_replicates = cli.run_replicates

    def stamped_run_replicates(config):
        stamps["engine_enter"] = time.monotonic()
        try:
            return run_replicates(config)
        finally:
            stamps["engine_exit"] = time.monotonic()

    cli.run_replicates = stamped_run_replicates
    code = cli.main(sgmlab_args)
    stamps["outputs_written"] = time.monotonic()
    # RUSAGE_SELF would carry the launching process's peak across exec, so
    # this process's own peak comes from VmHWM. RUSAGE_CHILDREN (KiB on
    # Linux) covers the pool workers, which are forked without exec and have
    # been joined by the time cli.main returns.
    max_rss_kib = max(_own_peak_rss_kib(),
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    stats = {"exit_code": code, "stamps": stamps, "max_rss_kib": max_rss_kib,
             "trace": None if tracer is None else tracer.record()}
    Path(stats_path).write_text(json.dumps(stats))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
