"""The benchmark's workloads: job lists generated from a seed.

Each job is a ``logistic-kle`` argv plus the complete config file it reads,
so the program receives only generated configs.  The seed draws the
evaluation times (one per fixed stratum of each model's domain, so every run
covers early, middle and late times) and the Monte-Carlo seeds.

Why these three workloads:

* ``gauss-tables`` -- Gaussian coordinates only.  Nearly all time goes to the
  collapsed/exact logit-convolution rows and the Simpson moment curves; the
  tensor path and the sampler do no work.  It is the only workload where a
  moment curve is requested twice in one run (mean and variance tables).
* ``uniform-tensor`` -- uniform coordinates, so every density row is N-D
  Legendre tensor quadrature with one ``rvt_kernel`` call per p.  It also
  runs the exponential-kernel root solve, and no curve repeats.
* ``mc-verify`` -- ``mc-check`` on all three models: drawing, inverse-CDF
  transform, histogram and z-scores, plus 100 midpoint densities and one
  moment row per check.  Example 2 fails at the default 100 bins (the
  midpoint rule misses the steep image of its support edge); that is a known
  defect of the program and stays visible.  Its times are drawn from
  (0.25, 0.45), where the failure does not depend on the Monte-Carlo seed;
  example 1's from (0.5, 1.1), where its check passes unless a single sample
  lands in a near-empty edge bin (z ~ 8, rare; left in).  Near t = 0.2
  example 1's verdict flips between Monte-Carlo seeds, which would make the
  pass ratio noise.
"""

from __future__ import annotations

import numpy as np

BETA_7_10 = {"kind": "beta", "alpha": 7.0, "beta": 10.0, "p01": 0.1, "p02": 0.9}
EXP_10 = {"kind": "exponential", "rate": 10.0, "p01": 0.1, "p02": 0.9}

# The paper's three model configurations, spelled out here so that the
# benchmark's inputs do not change when the program's presets do.
MODELS = {
    "example1": {"process": {"kind": "wiener", "T": 1.5}, "initial": BETA_7_10},
    "example2": {"process": {"kind": "bridge"}, "initial": EXP_10},
    "example3": {"process": {"kind": "expcov", "c": 1.0, "a": 0.5},
                 "initial": BETA_7_10},
}

# Time strata, one drawn time per stratum.
STRATA = {
    "example1": [(0.1, 0.5), (0.5, 1.0), (1.0, 1.5)],
    "example2": [(0.1, 0.4), (0.4, 0.7), (0.7, 0.95)],
    "example3": [(-0.45, -0.1), (-0.1, 0.4), (0.4, 0.5)],
}
MC_STRATA = {
    "example1": [(0.5, 0.8), (0.8, 1.1)],
    "example2": [(0.25, 0.35), (0.35, 0.45)],
    "example3": [(-0.35, -0.05), (0.295, 0.305), (0.485, 0.495)],
}
LATE_STRATA = [(0.38 + 0.02 * i, 0.40 + 0.02 * i) for i in range(6)]

# The tensor path's pointwise error peaks where the image of the initial
# support edge crosses the Legendre nodes.  It grows with t, to about 1.1e-3
# at N = 1 near t = 0.5, and jitters by +-10% as t moves by 0.01 and the
# peak slides between grid points.  Its maximum is max_abs_err on the two
# workloads that run example 3, so those sample it where it is largest and
# densely enough to be stable from seed to seed: an extra N = 1 density job
# on a 2001-point p grid at six late times (LATE_STRATA), and Monte-Carlo
# times in narrow windows where the error at the 100 bin midpoints changes
# smoothly with t.  None of this hides the error; it shows its worst case.
P_GRID = {"start": 0.005, "stop": 0.995, "num": 201}
P_GRID_DENSE = {"start": 0.005, "stop": 0.995, "num": 2001}
MC_SAMPLES = 10 ** 6
MC_BINS = 100

WORKLOADS = ("gauss-tables", "uniform-tensor", "mc-verify")


def _times(rng, strata, count=None):
    strata = strata[:count] if count else strata
    return [round(float(rng.uniform(lo, hi)), 6) for lo, hi in strata]


def _config(model, **extra):
    cfg = {"process": dict(MODELS[model]["process"]),
           "initial": dict(MODELS[model]["initial"]),
           "p_grid": dict(P_GRID), "quad_order": None, "threads": 1,
           "spectrum_count": 10, "seed": 0,
           "errors": {"kind": "pdf_consecutive", "times": None, "N": None},
           "mc": {"t": None, "samples": MC_SAMPLES, "bins": MC_BINS}}
    cfg.update(extra)
    return cfg


def _job(name, command, model, cfg):
    return {"name": name, "command": command, "model": model, "config": cfg}


def _table_jobs(model, cfg, kinds, orders):
    return [_job(f"{model}-errors-{kind}", "errors", model,
                 dict(cfg, errors={"kind": kind, "times": None, "N": orders}))
            for kind in kinds]


def make_jobs(workload, seed, small=False):
    """The job list of one workload.  ``small`` keeps every kind of job and
    check but shrinks the work, for the benchmark's self-check."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    n_t = 1 if small else None
    jobs = []
    if workload == "gauss-tables":
        c1 = _config("example1", N=[1],
                     t_grid={"values": _times(rng, STRATA["example1"], n_t)})
        jobs += [_job("example1-pdf", "pdf", "example1", c1),
                 _job("example1-moments", "moments", "example1", c1)]
        jobs += _table_jobs("example1", c1, ["pdf_vs_exact", "mean_vs_exact",
                                             "variance_vs_exact"], [1])
        c2 = _config("example2", N=[1, 2],
                     t_grid={"values": _times(rng, STRATA["example2"], n_t)})
        jobs += [_job("example2-pdf", "pdf", "example2", c2),
                 _job("example2-moments", "moments", "example2", c2)]
        kinds = ["pdf_consecutive"] + ([] if small else
                                       ["mean_consecutive", "variance_consecutive"])
        jobs += _table_jobs("example2", c2, kinds, [2])
    elif workload == "uniform-tensor":
        c3 = _config("example3", N=[1, 2, 3],
                     t_grid={"values": _times(rng, STRATA["example3"], n_t)})
        late = _config("example3", N=[1], p_grid=dict(P_GRID_DENSE),
                       t_grid={"values": _times(rng, LATE_STRATA, n_t)})
        jobs += [_job("example3-spectrum", "spectrum", "example3", c3),
                 _job("example3-pdf", "pdf", "example3", c3),
                 _job("example3-pdf-late", "pdf", "example3", late),
                 _job("example3-moments", "moments", "example3", c3)]
        jobs += _table_jobs("example3", c3, ["pdf_consecutive"], [2, 3])
    elif workload == "mc-verify":
        samples = 10 ** 4 if small else MC_SAMPLES
        for model in ("example1", "example2", "example3"):
            for i, t in enumerate(_times(rng, MC_STRATA[model], n_t)):
                cfg = _config(model, N=[1], t_grid={"values": [t]},
                              seed=int(rng.integers(1, 2 ** 31)),
                              mc={"t": t, "samples": samples, "bins": MC_BINS})
                jobs.append(_job(f"{model}-mc-check-{i}", "mc-check", model, cfg))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def model_orders(jobs):
    """{model: sorted truncation orders} over a job list (what set-up builds)."""
    out = {}
    for job in jobs:
        out.setdefault(job["model"], set()).update(job["config"]["N"])
    return {m: sorted(ns) for m, ns in out.items()}
