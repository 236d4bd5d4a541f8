"""Check every artifact a pass wrote against the independent oracle.

Each check is one comparison group (a density grid, a moments file, one
error table, one Monte-Carlo report ...) and passes or fails as a whole.
Pointwise density deviations are also collected, because their maximum is
the ``max_abs_err`` metric.

Tolerances are set from the program's documented accuracy, not from what
makes a run pass.  The collapsed and exact paths are accurate to rounding,
and the CSVs carry 9 significant digits.  The tensor path has a known error
near the box-spline kinks, up to about 1.1e-3 at N = 1 near t = 0.5, so its
pointwise tolerance is 2e-3; integrated over p, the same error moves the consecutive
L1 table entries by up to 6.3e-5 near t = 0.5, so their tolerance is 2e-4.
The Simpson moments are exact to about 1e-7, limited by the (0.001, 0.999)
window and by steep initial-support edges at early times; the
time-integrated moment tables get that tolerance times the domain length.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import simpson

import oracle

ERROR_P = np.linspace(0.0, 1.0, 2001)      # the program's density-error grid
ERROR_T_POINTS = 151                       # and its moment-error time grid
TOL_DENSITY = {"gauss": 1e-7, "box": 2e-3}  # times max(1, |f|)
TOL_MOMENT = {"gauss": 1e-6, "box": 1e-5}
TOL_L1 = {"gauss": 1e-7, "box": 2e-4}       # plus 1e-6 * value
Z_LIMIT = 5.0                               # mc-check's own verdict threshold


@dataclass
class Check:
    kind: str
    job: str
    ok: bool
    detail: str = ""


def _rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def _floats(rows):
    return np.array([[float(x) for x in r] for r in rows])


class Checker:
    def __init__(self):
        self.checks: list[Check] = []
        self.point_errors: list[float] = []
        self._laws = {}
        self._curves = {}

    def add(self, kind, job, ok, detail=""):
        self.checks.append(Check(kind, job, bool(ok), detail))

    def law(self, proc, t, N, exact=False):
        key = (json.dumps(proc, sort_keys=True), float(t), int(N), exact)
        if key not in self._laws:
            self._laws[key] = oracle.KLaw.for_model(proc, t, N, exact)
        return self._laws[key]

    def density(self, law, f0, p):
        """Pointwise reference: adaptive quad for the normal law (the
        panel rule for the box spline is exact and much faster)."""
        if law.kind == "gauss":
            return np.array([oracle.density_quad(law, f0, x) for x in p])
        return oracle.density_row(law, f0, p)

    # -----------------------------------------------------------------------

    def check_job(self, job, outdir: Path):
        cfg, cmd, name = job["config"], job["command"], job["name"]
        proc = cfg["process"]
        f0 = oracle.Initial(cfg["initial"])
        if cmd == "pdf":
            for N in cfg["N"]:
                self._grid(name, outdir / f"pdf_N{N}.csv", proc, f0, N, False)
            if proc["kind"] == "wiener":
                self._grid(name, outdir / "pdf_exact.csv", proc, f0, 1, True)
        elif cmd == "moments":
            self._moments(name, outdir / "moments.csv", proc, f0)
        elif cmd == "errors":
            self._errors(name, outdir / "errors.csv", cfg, f0)
        elif cmd == "spectrum":
            self._spectrum(name, outdir / "spectrum.csv", proc)
        elif cmd == "mc-check":
            self._mc(job, outdir, f0)

    def _grid(self, name, path, proc, f0, N, exact):
        data = _floats(_rows(path)[1:])
        worst, ok = 0.0, True
        for t in np.unique(data[:, 0]):
            sel = data[:, 0] == t
            p, got = data[sel, 1], data[sel, 2]
            law = self.law(proc, t, N, exact)
            ref = self.density(law, f0, p)
            err = np.abs(got - ref)
            self.point_errors.extend(err.tolist())
            worst = max(worst, float(err.max()))
            ok &= bool(np.all(err <= TOL_DENSITY[law.kind] * np.maximum(1.0, np.abs(ref))))
        self.add("pdf-grid", name, ok, f"{path.name} max|err|={worst:.3g}")

    def _moments(self, name, path, proc, f0):
        rows = _rows(path)
        exact = "exact_mean" in rows[0]
        worst, ok = 0.0, True
        for r in _floats(rows[1:]):
            t, N = r[0], int(r[1])
            law = self.law(proc, t, N)
            err = np.abs(np.subtract(oracle.moments(law, f0), r[2:4]))
            if exact:
                ref = oracle.moments(self.law(proc, t, 1, True), f0)
                err = np.concatenate([err, np.abs(np.subtract(ref, r[4:6]))])
            worst = max(worst, float(err.max()))
            ok &= bool(np.all(err <= TOL_MOMENT[law.kind]))
        self.add("moments", name, ok, f"max|err|={worst:.3g}")

    def _errors(self, name, path, cfg, f0):
        proc, kind = cfg["process"], cfg["errors"]["kind"]
        rows = _rows(path)
        orders = [int(h[1:]) for h in rows[0][1:]]
        consecutive = kind.endswith("consecutive")
        worst, ok = 0.0, True
        for r in rows[1:]:
            got = np.array([float(x) for x in r[1:]])
            if kind.startswith("pdf"):
                t = float(r[0])
                ref = np.array([oracle.l1_row_distance(
                    self.law(proc, t, N),
                    self.law(proc, t, N - 1 if consecutive else 1, not consecutive),
                    f0, ERROR_P) for N in orders])
                law_kind = self.law(proc, t, orders[0]).kind
                tol = TOL_L1[law_kind] + 1e-6 * np.abs(ref)
            else:
                ts = self._time_grid(proc)
                ikey = json.dumps(cfg["initial"], sort_keys=True)
                ref = np.array([self._moment_error(proc, f0, ikey, kind, N, consecutive, ts)
                                for N in orders])
                # the moments' own tolerance, integrated over the domain
                tol = TOL_MOMENT[self.law(proc, ts[-1], orders[0]).kind] * (ts[-1] - ts[0])
            err = np.abs(got - ref)
            worst = max(worst, float(err.max()))
            ok &= bool(np.all(err <= tol))
        self.add(f"{'pdf' if kind.startswith('pdf') else 'moment'}-table", name, ok,
                 f"{kind} max|err|={worst:.3g}")

    @staticmethod
    def _time_grid(proc):
        lo, hi = (-proc["a"], proc["a"]) if proc["kind"] == "expcov" else (
            0.0, proc.get("T", 1.5) if proc["kind"] == "wiener" else 1.0)
        return np.linspace(lo, hi, ERROR_T_POINTS)

    def _moment_curve(self, proc, f0, ikey, n, exact, ts):
        """Oracle (mean, variance) over ``ts``, memoised: the mean and the
        variance tables of one model integrate the same curves."""
        key = (json.dumps(proc, sort_keys=True), ikey, n, exact)
        if key not in self._curves:
            self._curves[key] = np.array(
                [oracle.moments(self.law(proc, t, n, exact), f0) for t in ts])
        return self._curves[key]

    def _moment_error(self, proc, f0, ikey, kind, N, consecutive, ts):
        pick = 0 if kind.startswith("mean") else 1
        ref = self._moment_curve(proc, f0, ikey, N - 1 if consecutive else 1,
                                 not consecutive, ts)
        got = self._moment_curve(proc, f0, ikey, N, False, ts)
        return float(simpson(np.abs(got[:, pick] - ref[:, pick]), x=ts))

    def _spectrum(self, name, path, proc):
        data = _rows(path)[1:]
        got = np.array([float(r[2]) for r in data])
        ref = oracle.eigenvalues(proc, len(data))
        trace = {"wiener": proc.get("T", 1.5) ** 2 / 2.0, "bridge": 1.0 / 6.0,
                 "expcov": 2.0 * proc.get("a", 0.5)}[proc["kind"]]
        frac = np.array([float(r[4]) for r in data])
        ok = (np.allclose(got, ref, rtol=1e-8, atol=0)
              and np.allclose(frac, np.cumsum(ref) / trace, rtol=1e-8, atol=0))
        self.add("spectrum", name, ok, f"max rel err={np.max(np.abs(got / ref - 1)):.3g}")

    def _mc(self, job, outdir, f0):
        cfg, name = job["config"], job["name"]
        proc, N, t = cfg["process"], cfg["N"][0], cfg["mc"]["t"]
        n = cfg["mc"]["samples"]
        data = _floats(_rows(outdir / "mc_report.csv")[1:])
        lo, hi, counts, freq, z = data[:, 1], data[:, 2], data[:, 3], data[:, 4], data[:, 5]
        law = self.law(proc, t, N)

        # the density the program used, at the bin midpoints
        edges = np.linspace(lo[0], hi[-1], lo.size + 1)
        width = edges[1] - edges[0]
        mids = 0.5 * (edges[:-1] + edges[1:])
        ref = self.density(law, f0, mids)
        err = np.abs(freq / width - ref)
        self.point_errors.extend(err.tolist())
        # edges read back from the 9-digit CSV move the midpoints by up to
        # 1e-9, which matters where the density is steep
        tol = (TOL_DENSITY[law.kind] + 1e-6) * np.maximum(1.0, ref)
        self.add("mc-density", name, np.all(err <= tol), f"max|err|={err.max():.3g}")

        # the sampler, against exact bin probabilities
        prob = np.diff(oracle.cdf(law, f0, edges))
        dev = np.abs(counts - n * prob)
        limit = 6.0 * np.sqrt(n * prob * (1.0 - prob)) + 3.0
        self.add("mc-histogram", name, np.all(dev <= limit) and counts.sum() <= n,
                 f"max dev/limit={np.max(dev / limit):.3g}")

        # the verdict and exit status agree with the report's own z-scores
        text = (outdir / "mc_report.txt").read_text()
        verdict = text.split("verdict=")[1].split()[0]
        passed = bool(np.max(np.abs(z)) <= Z_LIMIT)
        ok = verdict == ("pass" if passed else "FAIL") and job["rc"] == (0 if passed else 3)
        self.add("mc-verdict", name, ok,
                 f"max|z|={np.max(np.abs(z)):.3g} verdict={verdict} rc={job['rc']}")

        # the moment row mc-check reports
        mean = float(text.split("mean mc=")[1].split("density=")[1].split()[0])
        var = float(text.split("variance mc=")[1].split("density=")[1].split()[0])
        ref_m = oracle.moments(law, f0)
        err_m = max(abs(mean - ref_m[0]), abs(var - ref_m[1]))
        self.add("mc-moments", name, err_m <= TOL_MOMENT[law.kind], f"max|err|={err_m:.3g}")

    # -----------------------------------------------------------------------

    @property
    def max_abs_err(self):
        return max(self.point_errors, default=0.0)


def same_artifacts(outdirs):
    """True when every pass wrote byte-identical artifacts (manifest sha256)."""
    digests = [json.loads((d / "run_manifest.json").read_text())["artifacts"]
               for d in outdirs]
    return all(d == digests[0] for d in digests)
