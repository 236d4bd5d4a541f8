"""Command-line front end: configure a model, emit CSV/JSON artifacts.

Subcommands
-----------
spectrum  eigenvalue table of the chosen covariance model
pdf       density grids f1n(p, t) in long format (t, p, value)
moments   mean/variance curves, with exact reference columns when available
errors    one error-measure table (kind chosen in the config)
mc-check  Monte-Carlo histogram validation; nonzero exit on |z| > 5

Configuration is a JSON tree with four precedence layers: built-in defaults,
a named ``--preset`` (example1/example2/example3), a ``--config`` file, then
individual flags.  Every run writes ``run_manifest.json`` holding the fully
resolved configuration and sha256 checksums of the artifacts; passing that
manifest back via ``--config`` reproduces the run byte for byte (outputs
carry no timestamps, and all compute paths are deterministic); keys it no
longer reads, such as an old manifest's ``threads``, are ignored.

Presets: example1 = Wiener model on [0, 1.5] with a truncated Beta(7, 10)
initial law; example2 = Brownian bridge on [0, 1] with truncated
Exponential(10); example3 = exponential covariance exp(-c|s-t|) on
[-0.5, 0.5] with inverse correlation length c = 1.0 (a config knob) and
uniform KLE coordinates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .density import Problem, f1_exact_wiener, f1n_collapsed, wiener_law
from .distributions import truncated_beta, truncated_exponential
from .kle import KleProcess
from .mc_oracle import McConfig, mc_density_check
from .stats import (e_moment_consecutive, e_moment_exact, e_pdf_consecutive,
                    e_pdf_exact, law_moments, moments_n)

__all__ = ["main", "resolve_config", "PRESETS"]

_ERROR_KINDS = (
    "pdf_vs_exact", "pdf_consecutive",
    "mean_vs_exact", "variance_vs_exact",
    "mean_consecutive", "variance_consecutive",
)

DEFAULTS = {
    "process": {"kind": "wiener", "T": 1.5},
    "initial": {"kind": "beta", "alpha": 7.0, "beta": 10.0,
                "p01": 0.1, "p02": 0.9},
    "N": [1, 2, 3],
    "p_grid": {"start": 0.005, "stop": 0.995, "num": 201},
    "t_grid": {"values": [0.5, 0.75, 1.0, 1.5]},
    "spectrum_count": 10,
    "errors": {"kind": "pdf_vs_exact", "times": None, "N": None},
    "mc": {"t": None, "samples": 1000000, "bins": 100},
    "seed": 42,
    "out": "out",
}

PRESETS = {
    "example1": {
        "process": {"kind": "wiener", "T": 1.5},
        "initial": {"kind": "beta", "alpha": 7.0, "beta": 10.0,
                    "p01": 0.1, "p02": 0.9},
        "t_grid": {"values": [0.5, 0.75, 1.0, 1.5]},
        "errors": {"kind": "pdf_vs_exact", "times": None, "N": None},
    },
    "example2": {
        "process": {"kind": "bridge"},
        "initial": {"kind": "exponential", "rate": 10.0,
                    "p01": 0.1, "p02": 0.9},
        "N": [1, 2, 3, 4],
        "t_grid": {"values": [0.25, 0.4, 0.5]},
        "errors": {"kind": "pdf_consecutive", "times": None, "N": [2, 3, 4]},
    },
    "example3": {
        "process": {"kind": "expcov", "c": 1.0, "a": 0.5},
        "initial": {"kind": "beta", "alpha": 7.0, "beta": 10.0,
                    "p01": 0.1, "p02": 0.9},
        "t_grid": {"values": [-0.25, 0.0, 0.25]},
        "errors": {"kind": "pdf_consecutive", "times": None, "N": [2, 3]},
    },
}


# ---------------------------------------------------------------------------
# configuration plumbing


def _deep_update(base, extra):
    out = dict(base)
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_update(out[k], v)
        else:
            out[k] = v
    return out


def _load_config_file(path):
    with open(path) as fh:
        data = json.load(fh)
    if "config" in data and "artifacts" in data:
        data = data["config"]          # a manifest round-trips as a config
    return data


def resolve_config(args) -> dict:
    """Merge defaults <- preset <- config file <- flags into one dict."""
    cfg = dict(DEFAULTS)
    if args.preset:
        if args.preset not in PRESETS:
            raise SystemExit(f"unknown preset {args.preset!r}; "
                             f"choose from {', '.join(sorted(PRESETS))}")
        cfg = _deep_update(cfg, PRESETS[args.preset])
    if args.config:
        cfg = _deep_update(cfg, _load_config_file(args.config))
    if args.N:
        cfg["N"] = [int(x) for x in args.N.split(",")]
    if args.out:
        cfg["out"] = args.out
    if args.seed is not None:
        cfg["seed"] = int(args.seed)
    _validate(cfg)
    return cfg


def _validate(cfg):
    proc = cfg["process"]
    if proc["kind"] not in ("wiener", "bridge", "expcov"):
        raise SystemExit(f"unknown process kind {proc['kind']!r}")
    ini = cfg["initial"]
    if ini["kind"] not in ("beta", "exponential"):
        raise SystemExit(f"unknown initial law {ini['kind']!r}")
    # errors.N falls back to N, as in cmd_errors
    for key, orders in (("N", cfg["N"]),
                        ("errors.N", cfg["errors"]["N"] or cfg["N"])):
        if not (isinstance(orders, list) and orders and all(
                type(n) is int and n >= 1 for n in orders)):
            raise SystemExit(f"{key} list must contain positive integers, "
                             f"not {json.dumps(orders)}")
    # int() would truncate a float; McConfig checks the Monte-Carlo ranges
    for key, value in (("spectrum_count", cfg["spectrum_count"]),
                       ("mc.samples", cfg["mc"]["samples"]),
                       ("mc.bins", cfg["mc"]["bins"])):
        if not (type(value) is int and value >= 1):
            raise SystemExit(f"{key} must be a positive integer, "
                             f"not {json.dumps(value)}")
    if cfg["errors"]["kind"] not in _ERROR_KINDS:
        raise SystemExit(f"error kind must be one of {', '.join(_ERROR_KINDS)}")
    for key in ("p_grid", "t_grid"):
        spec = cfg[key]
        if not isinstance(spec, dict):
            raise SystemExit(f"{key} must be a grid object, not "
                             f"{json.dumps(spec)}")
        if spec.get("values") is None:
            ok = (all(isinstance(spec.get(k), (int, float))
                      for k in ("start", "stop", "num")) and spec["num"] >= 1)
        else:
            ok = isinstance(spec["values"], list) and len(spec["values"]) > 0
        if not ok:
            raise ValueError(f"{key} needs a nonempty values list, or start, "
                             f"stop and a positive num")
    domain = _build_process(proc).domain
    times = [("t_grid", t) for t in _grid_values(cfg["t_grid"])]
    times += [("errors.times", t) for t in cfg["errors"]["times"] or []]
    if cfg["mc"].get("t") is not None:
        times.append(("mc.t", cfg["mc"]["t"]))
    for key, t in times:
        if not domain.contains(float(t)):
            raise SystemExit(f"{key} value {float(t)} outside the model's time "
                             f"domain [{domain.t0}, {domain.T}]")


def _build_process(proc_cfg) -> KleProcess:
    kind = proc_cfg["kind"]
    if kind == "wiener":
        return KleProcess.wiener(proc_cfg.get("T", 1.5))
    if kind == "bridge":
        return KleProcess.brownian_bridge()
    return KleProcess.exponential_cov(proc_cfg.get("c", 1.0),
                                      proc_cfg.get("a", 0.5))


def _build_initial(ini_cfg):
    if ini_cfg["kind"] == "beta":
        return truncated_beta(ini_cfg["alpha"], ini_cfg["beta"],
                              ini_cfg.get("p01", 0.1), ini_cfg.get("p02", 0.9))
    return truncated_exponential(ini_cfg["rate"],
                                 ini_cfg.get("p01", 0.1), ini_cfg.get("p02", 0.9))


def _problem(cfg, N) -> Problem:
    return Problem(_build_process(cfg["process"]), _build_initial(cfg["initial"]),
                   int(N))


def _grid_values(spec):
    if "values" in spec and spec["values"] is not None:
        return np.asarray(spec["values"], dtype=float)
    return np.linspace(spec["start"], spec["stop"], int(spec["num"]))


# ---------------------------------------------------------------------------
# deterministic artifact writing


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".9g")


def _create(path: Path):
    """Open an artifact for writing, making its directory first, so that a
    run refused before its first artifact leaves no directory behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="\n")


def _write_csv(path: Path, header, rows):
    try:
        with _create(path) as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(x if isinstance(x, str) else _fmt(x)
                                  for x in row) + "\n")
    except OSError as exc:
        raise SystemExit(f"cannot write {path}: {exc}") from exc


def _sha256(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(outdir: Path, command, cfg, artifacts):
    manifest = {
        "command": command,
        "config": cfg,
        "artifacts": {name: _sha256(outdir / name) for name in sorted(artifacts)},
    }
    with _create(outdir / "run_manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(cfg, outdir: Path):
    process = _build_process(cfg["process"])
    count = cfg["spectrum_count"]
    if process.kind == "wiener":
        trace = process.params["T"] ** 2 / 2.0
    elif process.kind == "bridge":
        trace = 1.0 / 6.0
    else:
        trace = 2.0 * process.params["a"]

    rows, cum = [], 0.0
    for j in range(1, count + 1):
        pair = process.eigenpair(j)
        cum += pair.value
        rows.append((j, pair.parity or "", pair.value, pair.frequency,
                     cum / trace))
    _write_csv(outdir / "spectrum.csv",
               ["index", "parity", "eigenvalue", "frequency",
                "cumulative_variance_fraction"], rows)
    return ["spectrum.csv"]


def cmd_pdf(cfg, outdir: Path):
    p_grid = _grid_values(cfg["p_grid"])
    t_grid = _grid_values(cfg["t_grid"])
    artifacts = []
    for N in cfg["N"]:
        problem = _problem(cfg, N)
        rows = [(t, p, v) for t in t_grid
                for p, v in zip(p_grid, f1n_collapsed(problem, p_grid, t))]
        name = f"pdf_N{int(N)}.csv"
        _write_csv(outdir / name, ["t", "p", "f1n"], rows)
        artifacts.append(name)

    if cfg["process"]["kind"] == "wiener":
        initial = _build_initial(cfg["initial"])
        T = cfg["process"].get("T", 1.5)
        rows = [(t, p, v) for t in t_grid
                for p, v in zip(p_grid, f1_exact_wiener(initial, p_grid, t, T))]
        _write_csv(outdir / "pdf_exact.csv", ["t", "p", "f1"], rows)
        artifacts.append("pdf_exact.csv")
    return artifacts


def cmd_moments(cfg, outdir: Path):
    t_grid = _grid_values(cfg["t_grid"])
    exact = cfg["process"]["kind"] == "wiener"
    header = ["t", "N", "mean", "variance"] + (
        ["exact_mean", "exact_variance"] if exact else [])

    problems = [_problem(cfg, N) for N in cfg["N"]]
    T = cfg["process"].get("T", 1.5)
    rows = []
    for t in t_grid:
        pairs = [moments_n(pr, t) for pr in problems]
        if exact:
            em, ev = law_moments(wiener_law(t, T), problems[0].initial)
        for (mean, var), N in zip(pairs, cfg["N"]):
            row = [float(t), int(N), mean, var]
            if exact:
                row += [em, ev]
            rows.append(tuple(row))
    _write_csv(outdir / "moments.csv", header, rows)
    return ["moments.csv"]


def cmd_errors(cfg, outdir: Path):
    err = cfg["errors"]
    kind = err["kind"]
    n_list = [int(n) for n in (err["N"] or cfg["N"])]
    consecutive = kind.endswith("consecutive")
    if consecutive and min(n_list) < 2:
        raise SystemExit("consecutive error measures need N >= 2")
    if kind.endswith("vs_exact") and cfg["process"]["kind"] != "wiener":
        raise SystemExit(f"{kind} needs the exact reference density, which "
                         "only the wiener model has; use a consecutive kind")

    header = ["t"] + [f"N{n}" for n in n_list]
    rows = []
    if kind.startswith("pdf"):
        times = err["times"]
        t_grid = _grid_values({"values": times} if times else cfg["t_grid"])
        for t in t_grid:
            values = []
            for N in n_list:
                problem = _problem(cfg, N)
                values.append(e_pdf_consecutive(problem, t, N) if consecutive
                              else e_pdf_exact(problem, t))
            rows.append((float(t), *values))
    else:
        mkind = "mean" if kind.startswith("mean") else "variance"
        values = []
        for N in n_list:
            problem = _problem(cfg, N)
            values.append(e_moment_consecutive(problem, mkind, N) if consecutive
                          else e_moment_exact(problem, mkind))
        rows.append(("all", *values))
    _write_csv(outdir / "errors.csv", header, rows)
    return ["errors.csv"]


def cmd_mc_check(cfg, outdir: Path):
    mc = cfg["mc"]
    t_grid = _grid_values(cfg["t_grid"])
    t = float(t_grid[len(t_grid) // 2]) if mc.get("t") is None else float(mc["t"])
    N = int(cfg["N"][0])
    problem = _problem(cfg, N)
    report = mc_density_check(problem, t, McConfig(
        seed=int(cfg["seed"]), samples=mc["samples"], bins=mc["bins"]))

    rows = [(i, report.bin_edges[i], report.bin_edges[i + 1],
             int(report.counts[i]), report.expected_freq[i], report.z_scores[i])
            for i in range(report.bins)]
    _write_csv(outdir / "mc_report.csv",
               ["bin", "lo", "hi", "count", "expected_freq", "z"], rows)

    zm = (report.mc_mean - report.density_mean) / report.mc_mean_se
    zv = (report.mc_var - report.density_var) / report.mc_var_se
    lines = [
        f"model={cfg['process']['kind']} initial={cfg['initial']['kind']} "
        f"N={N} t={_fmt(t)}",
        f"samples={report.samples} bins={report.bins} seed={report.seed}",
        f"max_abs_z={_fmt(report.max_abs_z)}",
        f"l1_distance={_fmt(report.l1_distance)}",
        f"mean mc={_fmt(report.mc_mean)} se={_fmt(report.mc_mean_se)} "
        f"density={_fmt(report.density_mean)} z={_fmt(zm)}",
        f"variance mc={_fmt(report.mc_var)} se={_fmt(report.mc_var_se)} "
        f"density={_fmt(report.density_var)} z={_fmt(zv)}",
        f"verdict={'pass' if report.max_abs_z <= 5.0 else 'FAIL'}",
    ]
    with _create(outdir / "mc_report.txt") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return ["mc_report.csv", "mc_report.txt"], report.max_abs_z <= 5.0


# ---------------------------------------------------------------------------


def _parser():
    ap = argparse.ArgumentParser(
        prog="logistic-kle",
        description="Density, moment, and error tables for the random "
                    "logistic growth model with KLE-truncated coefficient.")
    ap.add_argument("command",
                    choices=["spectrum", "pdf", "moments", "errors", "mc-check"])
    ap.add_argument("--config", help="JSON config file (a run_manifest.json "
                                     "from a previous run also works)")
    ap.add_argument("--preset", help="example1 | example2 | example3")
    ap.add_argument("--N", help="comma-separated truncation orders, e.g. 1,2,3")
    ap.add_argument("--out", help="output directory (default: out)")
    ap.add_argument("--seed", type=int, help="RNG seed for mc-check")
    return ap


def main(argv=None):
    """Run one subcommand.  Returns 0, 3 for a failed mc-check, or 2 after
    printing a library ValueError (bad model or grid input) as one line."""
    args = _parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        outdir = Path(cfg["out"])

        ok = True
        if args.command == "spectrum":
            artifacts = cmd_spectrum(cfg, outdir)
        elif args.command == "pdf":
            artifacts = cmd_pdf(cfg, outdir)
        elif args.command == "moments":
            artifacts = cmd_moments(cfg, outdir)
        elif args.command == "errors":
            artifacts = cmd_errors(cfg, outdir)
        else:
            artifacts, ok = cmd_mc_check(cfg, outdir)
    except ValueError as exc:
        print(f"logistic-kle {args.command}: {exc}", file=sys.stderr)
        return 2

    _write_manifest(outdir, args.command, cfg, artifacts)
    for name in artifacts:
        print(f"wrote {outdir / name}")
    print(f"wrote {outdir / 'run_manifest.json'}")
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
