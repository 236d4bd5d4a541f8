"""Fast self-check of the benchmark (not part of the test suite).

    python3 bench/selfcheck.py

Run from the repository root.  Checks the oracle against the test suite's
box-spline oracle and against adaptive quadrature, then runs every workload
once at minimal size, untraced and traced, and asserts that the last line is
the result object, that every metric named in BENCHMARK.json is printed with
its unit, and that each kind of oracle check ran and passed.  Exits nonzero
on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
EXPECTED_CHECKS = {
    "gauss-tables": {"pdf-grid", "moments", "pdf-table", "moment-table", "determinism"},
    "uniform-tensor": {"spectrum", "pdf-grid", "moments", "pdf-table", "determinism"},
    "mc-verify": {"mc-density", "mc-histogram", "mc-verdict", "mc-moments", "determinism"},
}


def check_oracle():
    sys.path[:0] = [str(BENCH), "src", "tests"]
    import oracle
    from oracles import f1_uniform_exact
    from logistic_kle import KleProcess, truncated_beta

    beta = {"kind": "beta", "alpha": 7.0, "beta": 10.0, "p01": 0.1, "p02": 0.9}
    f0 = oracle.Initial(beta)
    p = np.array([0.05, 0.12, 0.3, 0.55, 0.8])
    proc = {"kind": "expcov", "c": 1.0, "a": 0.5}
    for N in (1, 2, 3):
        law = oracle.KLaw.for_model(proc, 0.3, N)
        ref = [f1_uniform_exact(x, 0.3, KleProcess.exponential_cov(1.0, 0.5),
                                truncated_beta(7.0, 10.0), N) for x in p]
        assert np.allclose(oracle.density_row(law, f0, p), ref, rtol=0, atol=1e-12), N
    for proc, t in (({"kind": "wiener", "T": 1.5}, 0.9), ({"kind": "bridge"}, 0.3)):
        law = oracle.KLaw.for_model(proc, t, 2)
        quad = [oracle.density_quad(law, f0, x) for x in p]
        assert np.allclose(oracle.density_row(law, f0, p), quad, rtol=0, atol=1e-12)
    print("oracle agrees with tests/oracles.py and with adaptive quadrature")


def check_workload(name, trace, spec, save):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--small", "--save", str(save)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == wanted, set(got) ^ set(wanted)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    saved = json.loads(save.read_text().splitlines()[-1])
    missing = EXPECTED_CHECKS[name] - set(saved["check_kinds"])
    assert not missing, f"{name}: oracle checks that did not run: {missing}"
    print(f"{name} trace={trace}: {len(got)} metrics, checks {sorted(saved['check_kinds'])}")


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    check_oracle()
    save = Path(".bench_work") / "selfcheck.jsonl"
    save.parent.mkdir(exist_ok=True)
    save.unlink(missing_ok=True)
    for name in EXPECTED_CHECKS:
        for trace in (0, 1):
            check_workload(name, trace, spec, save)
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
