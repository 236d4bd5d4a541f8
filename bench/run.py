"""Benchmark of the logistic-kle package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of ``gauss-tables``,
``uniform-tensor``, ``mc-verify`` (see ``workloads.py`` for what each runs
and why), or ``all``.  The run is a closed loop: one client, jobs back to
back through ``logistic_kle.cli.main``, single-threaded Python, BLAS capped
at one thread through the child environment (the program computes on one
thread; a second BLAS thread would only spin on the shared cores).

Every timed pass runs in a fresh process, because ``stats._CURVE_CACHE`` and
the eigenpair memo are process-global and a second pass in the same process
would get the first pass's curves for free.  Passes repeat until the pass
times add up to about S seconds, and at least three times in an untraced
run, so that the median discards one pass slowed by the shared host.
Set-up (interpreter start, import, building the workload's models) is timed
in separate processes, several times per run.

With ``--trace 0`` the run prints the end-to-end metrics: medians over
passes and set-up probes, the largest pointwise density deviation from the
independent oracle, and the share of jobs and checks that passed.  With
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics from the traced ones, plus the tracing overhead.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts the jobs
and the oracle checks; ``failed`` counts jobs that raised and checks that
failed.  An ``mc-check`` exit status 3 that agrees with its own report is a
result of the program, not a failure of the run: it lowers ``pass_ratio``.

``--save FILE`` appends the result, with the machine facts, to a JSON-lines
file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

WORK = Path(".bench_work")
SETUP_PROBES = 3
MIN_ROUNDS = 3              # untraced passes per run, at least
THREAD_CAP = 1
RUN_BUDGET_S = 150.0        # stop starting passes past this; runs must end by 180 s
RUN_DEADLINE_S = 170.0      # a child still running then is killed


def machine_facts():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')} " \
                   f"{blas.get('openblas configuration', '')}".strip()
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {"nproc": os.cpu_count() or 1, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": openblas, "thread_cap": THREAD_CAP}


def child_env(facts):
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(facts["thread_cap"])
    return env


def run_child(spec, tag, workdir, env, deadline):
    """Run worker.py on ``spec`` in a fresh process; return (seconds, result)."""
    spec_path = workdir / f"{tag}.spec.json"
    result_path = workdir / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"),
                             str(spec_path), str(result_path)],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{tag} timed out")
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{tag} exited with {proc.returncode}: "
                           f"{err.decode(errors='replace')[-2000:]}")
    return elapsed, json.loads(result_path.read_text())


class Run:
    def __init__(self, workload, seed, small, facts):
        self.workload = workload
        self.workdir = WORK / workload
        shutil.rmtree(self.workdir, ignore_errors=True)
        (self.workdir / "configs").mkdir(parents=True)
        self.env = child_env(facts)
        self.jobs = workloads.make_jobs(workload, seed, small)
        for job in self.jobs:
            path = self.workdir / "configs" / f"{job['name']}.json"
            path.write_text(json.dumps(job["config"], indent=1))
            job["config_path"] = str(path)
        self.passes = []          # (outdir, result)
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def setup_probe(self, i):
        spec = {"mode": "setup", "models": workloads.MODELS,
                "orders": workloads.model_orders(self.jobs)}
        return run_child(spec, f"setup{i}", self.workdir, self.env, self.deadline)[0]

    def run_pass(self, trace):
        i = len(self.passes)
        outdir = self.workdir / f"pass{i}"
        jobs = [dict(job, out=str(outdir / job["name"])) for job in self.jobs]
        spec = {"mode": "pass", "trace": trace, "jobs": jobs,
                "trace_file": str(outdir / "spans.jsonl")}
        outdir.mkdir()
        _, result = run_child(spec, f"pass{i}", self.workdir, self.env, self.deadline)
        result["trace"] = trace
        self.passes.append((outdir, result))
        return result

    def check(self):
        """Check the last pass's artifacts; returns (checker, job failures)."""
        from checks import Checker, same_artifacts

        outdir, last = self.passes[-1]
        checker = Checker()
        job_failures = 0
        for i, job in enumerate(self.jobs):
            errors = [r["jobs"][i]["error"] for _, r in self.passes if r["jobs"][i]["error"]]
            if errors:
                job_failures += 1
                print(f"job {job['name']} failed: {errors[0]}", file=sys.stderr)
                continue
            try:
                checker.check_job(dict(job, rc=last["jobs"][i]["rc"]), outdir / job["name"])
            except (OSError, ValueError, IndexError, KeyError) as exc:
                checker.add("artifacts", job["name"], False, f"unreadable output: {exc!r}")
        for job in self.jobs:
            dirs = [d / job["name"] for d, _ in self.passes]
            if all((d / "run_manifest.json").exists() for d in dirs):
                checker.add("determinism", job["name"], same_artifacts(dirs))
        return checker, job_failures


def artifact_bytes(outdir):
    return sum(f.stat().st_size for f in outdir.rglob("*")
               if f.is_file() and f.name != "spans.jsonl")


def measure(workload, seed, seconds, trace, small, facts):
    """One run of one workload.  Returns (summary lines, result dict)."""
    run = Run(workload, seed, small, facts)
    t_start = time.perf_counter()
    # in a traced run the one set-up probe only warms the file cache
    setup = [run.setup_probe(i) for i in range(1 if small or trace else SETUP_PROBES)]

    # stop at the round count whose pass time comes nearest to ``seconds``
    min_rounds = 1 if small or trace else MIN_ROUNDS
    pass_time, rounds = 0.0, 0
    while True:
        for traced in ((False, True) if trace else (False,)):
            pass_time += run.run_pass(traced)["wall_s"]
        rounds += 1
        per_round = pass_time / rounds
        if ((rounds >= min_rounds and pass_time + per_round / 2 >= seconds)
                or time.perf_counter() - t_start + per_round > RUN_BUDGET_S):
            break

    checker, job_failures = run.check()
    checks = checker.checks
    last_jobs = run.passes[-1][1]["jobs"]
    nonzero = sum(1 for j in last_jobs if not j["error"] and j["rc"] != 0)
    checks_failed = sum(not c.ok for c in checks)
    attempted = len(run.jobs) + len(checks)
    failed = job_failures + checks_failed

    untraced = [r for _, r in run.passes if not r["trace"]]
    walls = [r["wall_s"] for r in untraced]
    if trace:
        traced = [r for _, r in run.passes if r["trace"]]
        names = traced[0]["layers"].keys()
        values = {k: statistics.median_low(r["layers"][k] for r in traced) for k in names}
        values["cli.artifact_bytes"] = artifact_bytes(run.passes[-1][0])
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(walls))
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "max_abs_err": checker.max_abs_err,
            "pass_ratio": 1.0 - (job_failures + nonzero + checks_failed) / attempted,
        }

    lines = [f"workload {workload} seed {seed} trace {int(trace)}: "
             f"{len(run.passes)} passes ({len(walls)} untraced), "
             f"{0 if trace else len(setup)} set-up probes, {len(run.jobs)} jobs "
             f"({nonzero} with nonzero exit), {len(checks)} oracle checks "
             f"({checks_failed} failed)"]
    if not trace:
        lines.append(f"  wall_s samples: {', '.join(f'{w:.4f}' for w in walls)}")
        lines.append(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
        lines.append(f"  fail_ratio (1 - pass_ratio): {1.0 - values['pass_ratio']:.6g}")
    for c in checks:
        lines.append(f"  check {c.kind:13s} {'ok  ' if c.ok else 'FAIL'} {c.job}: {c.detail}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "values": values, "check_kinds": sorted({c.kind for c in checks}),
              "samples": {"passes": len(walls), "setup_probes": 0 if trace else len(setup)}}
    return lines, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="minimal job lists, for the self-check")
    ap.add_argument("--save", help="append the result to this JSON-lines file")
    args = ap.parse_args(argv)

    if not Path("src/logistic_kle/__init__.py").is_file():
        print("run.py: no src/logistic_kle here; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    facts = machine_facts()
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        lines, result = measure(name, args.seed, args.seconds, bool(args.trace),
                                args.small, facts)
        metrics = {k: {"value": result["values"][k], "unit": u} for k, u in units.items()}
        for k, m in metrics.items():
            lines.append(f"  {k:36s} {m['value']:.6g} {m['unit']}")
        print("\n".join(lines))
        if args.save:
            with open(args.save, "a") as fh:
                fh.write(json.dumps({"facts": facts, "workload": name, "seed": args.seed,
                                     "seconds": args.seconds, "trace": args.trace,
                                     "samples": result["samples"],
                                     "check_kinds": result["check_kinds"],
                                     "metrics": metrics}) + "\n")
        final["correct"] &= result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        final["metrics"].update({prefix + k: m for k, m in metrics.items()})
    print(f"facts: {json.dumps(facts)}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
