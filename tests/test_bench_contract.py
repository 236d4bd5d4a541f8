"""The names the benchmark under ``bench/`` uses from the package still exist.

``bench/tracing.py`` wraps package functions by name and reads the moment
memo ``stats._CURVE_CACHE``; ``bench/worker.py`` builds every model the way
a benchmark set-up does.  These tests run both in a fresh process, as a
benchmark pass does, so a change to ``src/`` that drops one of those names,
or moves the draws away from the wrapped ``InitialLaw.ppf`` and
``mc_oracle._sample_block``, fails here and not only in
``bench/selfcheck.py``.  They read ``bench/`` and change nothing there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
from pathlib import Path

import tracing, worker, workloads
import logistic_kle.cli as cli

tracer = tracing.Tracer()
tracing.install(tracer)
worker.build_models(workloads.MODELS, {name: [1, 2] for name in workloads.MODELS})

out = Path(sys.argv[1])
cfg = dict(workloads.MODELS["example1"], N=[1], t_grid={"values": [0.5]},
           errors={"kind": "mean_vs_exact", "times": None, "N": [1]})
(out / "cfg.json").write_text(json.dumps(cfg))
rc = cli.main(["errors", "--config", str(out / "cfg.json"),
               "--out", str(out / "o")])
m = tracer.metrics(1.0)
print(json.dumps({"rc": rc, "requested": m["stats.curve_requests"],
                  "computed": m["stats.curves_computed"]}))
"""


MC_SCRIPT = """
import json, sys
from pathlib import Path

import tracing, workloads
import logistic_kle.cli as cli

tracer = tracing.Tracer()
tracing.install(tracer)
out = Path(sys.argv[1])
cfg = dict(workloads.MODELS["example1"], N=[1], t_grid={"values": [0.5]},
           mc={"t": 0.5, "samples": 10 ** 4, "bins": 20})
(out / "cfg.json").write_text(json.dumps(cfg))
rc = cli.main(["mc-check", "--config", str(out / "cfg.json"),
               "--out", str(out / "o")])
m = tracer.metrics(1.0)
print(json.dumps({"rc": rc, "ppf_draws": m["distributions.ppf_draws"],
                  "draws": m["mc_oracle.draws"]}))
"""


def _run_traced(script, tmp_path):
    """Run ``script`` with ``bench/`` and ``src`` on the path; return the
    JSON object it prints last."""
    path = os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                         capture_output=True, text=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_traced_errors_job_runs(tmp_path):
    result = _run_traced(SCRIPT, tmp_path)
    # one order-1 curve and one exact curve, each computed once
    assert result == {"rc": 0, "requested": 2, "computed": 2}, result


def test_traced_mc_check_counts_draws(tmp_path):
    result = _run_traced(MC_SCRIPT, tmp_path)
    assert result == {"rc": 0, "ppf_draws": 10 ** 4, "draws": 10 ** 4}, result
