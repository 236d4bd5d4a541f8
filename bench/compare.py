"""Compare two sets of results saved with ``run.py --save``.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Refuses (exit 2) when the machine facts recorded with the results differ,
because timings from different machines, library builds or thread caps do
not compare.  Otherwise prints, per workload and metric, both medians with
their quartiles and sample counts, and marks a metric WORSE when NEW's
median is worse than BASE's by more than the metric's bound in
BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(base_path, new_path):
    base, new = load(base_path), load(new_path)
    facts = {json.dumps(r["facts"], sort_keys=True) for r in base + new}
    if len(facts) != 1:
        print("refusing to compare: the results were taken under different "
              "machine facts:\n  " + "\n  ".join(sorted(facts)), file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    for wl in sorted({r["workload"] for r in base + new}):
        for name, m in bounds.items():
            a = [r["metrics"][name]["value"] for r in base
                 if r["workload"] == wl and name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in new
                 if r["workload"] == wl and name in r["metrics"]]
            if not a or not b:
                continue
            (a1, am, a3), (b1, bm, b3) = summary(a), summary(b)
            change = (bm - am) / am if am else 0.0
            bad = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            worse += bad
            print(f"{wl:15s} {name:12s} base {am:.6g} [{a1:.6g}, {a3:.6g}] n={len(a)}  "
                  f"new {bm:.6g} [{b1:.6g}, {b3:.6g}] n={len(b)}  "
                  f"{change:+.1%} {m['unit']}{'  WORSE' if bad else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
