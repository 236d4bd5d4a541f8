"""One fresh benchmark process: ``python3 bench/worker.py SPEC RESULT``.

SPEC is a JSON file written by ``run.py``.  Mode ``setup`` imports the
package and builds the workload's models (processes, eigenpairs,
initial-law normalisation, quadrature rules), then exits; the caller times
the whole process.  Mode ``pass`` runs the workload's job list back to back
through ``logistic_kle.cli.main`` and writes the pass's wall time, peak
resident memory, job outcomes and, when traced, the per-layer metrics to
RESULT.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def build_models(models, orders):
    from logistic_kle import (KleProcess, Problem, truncated_beta,
                              truncated_exponential)

    for name, n_list in orders.items():
        spec = models[name]
        proc, ini = spec["process"], spec["initial"]
        if proc["kind"] == "wiener":
            process = KleProcess.wiener(proc["T"])
        elif proc["kind"] == "bridge":
            process = KleProcess.brownian_bridge()
        else:
            process = KleProcess.exponential_cov(proc["c"], proc["a"])
        if ini["kind"] == "beta":
            initial = truncated_beta(ini["alpha"], ini["beta"], ini["p01"], ini["p02"])
        else:
            initial = truncated_exponential(ini["rate"], ini["p01"], ini["p02"])
        for j in range(1, max(n_list) + 1):
            process.eigenpair(j)
        for N in n_list:
            Problem(process, initial, N).rule


def run_pass(spec):
    import logistic_kle.cli as cli

    tracer = None
    if spec["trace"]:
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)

    outcomes = []
    sink = io.StringIO()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for job in spec["jobs"]:
        argv = [job["command"], "--config", job["config_path"], "--out", job["out"]]
        rc, error = None, None
        try:
            with contextlib.redirect_stdout(sink):
                rc = cli.main(argv)
        except SystemExit as exc:       # the CLI's one-line refusals
            error = f"SystemExit: {exc.code}"
        except Exception:               # report every failure, keep going
            error = traceback.format_exc(limit=3)
        outcomes.append({"name": job["name"], "rc": rc, "error": error})
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)

    result = {"wall_s": wall, "peak_rss_mb": after.ru_maxrss / 1024.0, "jobs": outcomes}
    if tracer is not None:
        result["layers"] = tracer.metrics(wall)
        # page faults of the job list: large temporary arrays are mapped and
        # unmapped on every call, and the kernel's share is system time
        result["layers"]["process.minor_faults"] = after.ru_minflt - before.ru_minflt
        result["layers"]["process.sys_s"] = after.ru_stime - before.ru_stime
        tracer.dump(spec["trace_file"])
    return result


def main(spec_path, result_path):
    spec = json.loads(Path(spec_path).read_text())
    if spec["mode"] == "setup":
        build_models(spec["models"], spec["orders"])
        result = {}
    else:
        result = run_pass(spec)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
